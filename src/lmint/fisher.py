"""Classical Fisher information and Cramér-Rao bounds for the read-out schemes.

The per-sample likelihood is the two-dimensional Gaussian of the measured
quadrature pair, so the Gaussian-model identity
I_ij = dmu_i^T Sigma^-1 dmu_j + 1/2 tr(Sigma^-1 dSigma_i Sigma^-1 dSigma_j)
is exact, and both moments are closed-form in the six Response scalars, so
their derivatives are too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from enum import Enum

import numpy as np

from .gaussian_core import ProcessParams, rotation, squeeze_matrix
from .interferometer import SetupConfig, Topology, response
from .noise import NoiseParams


class FisherMethod(Enum):
    ANALYTIC_SIMPLISTIC = "analytic_simplistic"
    ANALYTIC_BLOCKED = "analytic_blocked"
    ANALYTIC_INTERFEROMETRIC = "analytic_interferometric"
    NUMERIC_GAUSSIAN = "numeric_gaussian"


# Kept for callers that import and catch it; nothing in lmint raises it.
class NumericFisherError(RuntimeError):
    """A Fisher information that could not be computed reliably."""

    def __init__(self, message, coarse, fine):
        super().__init__(message)
        self.coarse = coarse
        self.fine = fine


@dataclass(frozen=True)
class FisherResult:
    value: float  # information per sample, inverse variance units
    parameter: str
    method: FisherMethod

    def __post_init__(self):
        if self.value < -1e-9:
            raise ValueError(f"Fisher information must be non-negative, got {self.value}")


#: Row and column order of fisher_matrix.
PARAMETERS = ("phi", "w", "alpha", "d", "beta")

_J = np.array([[0.0, -1.0], [1.0, 0.0]])  # generator of rotations: R' = J R


def fisher_matrix(setup: SetupConfig, process: ProcessParams,
                  noise: NoiseParams | None = None, *, mean_only: bool = False) -> np.ndarray:
    """Per-sample 5x5 Fisher information of the joint read-out in PARAMETERS
    order, from exact derivatives of the Response moments.

    With S = R(alpha) diag(e^w, e^-w) R(alpha)^T and A = R(phi) S:
    dA/dphi = J A, dA/dw = R(phi) R(alpha) diag(e^w, -e^-w) R(alpha)^T and
    dA/dalpha = R(phi) (J S - S J).  The mean moves with through dA m_in and
    with the displacement; the covariance moves with a (dA A^T + A dA^T) +
    b (dA + dA^T) and not with the displacement.  mean_only keeps the mean
    term of the information.
    """
    resp = response(setup, noise)
    rot, axis = rotation(process.phi), rotation(process.alpha)
    stretch = math.exp(process.w)
    sq = squeeze_matrix(process.w, process.alpha)
    mat = rot @ sq
    d_mat = (_J @ mat,
             rot @ axis @ np.diag([stretch, -1.0 / stretch]) @ axis.T,
             rot @ (_J @ sq - sq @ _J))
    unit = np.array([math.cos(process.beta), math.sin(process.beta)])
    m_in = setup.light_mean
    d_mu = np.array([resp.through * (dm @ m_in) for dm in d_mat]
                    + [resp.g_d * unit, resp.g_d * process.d * (_J @ unit)])
    inv = np.linalg.inv(resp.cov(mat))
    info = d_mu @ inv @ d_mu.T
    if not mean_only:
        g = np.array([inv @ (resp.a * (dm @ mat.T + mat @ dm.T) + resp.b * (dm + dm.T))
                      for dm in d_mat])
        info[:3, :3] += 0.5 * np.einsum("iab,jba->ij", g, g)
    return info


def _index(parameter: str) -> int:
    if parameter not in PARAMETERS:
        raise ValueError(f"unknown process parameter {parameter!r}")
    return PARAMETERS.index(parameter)


_DISPLACEMENT_METHODS = {
    Topology.SIMPLISTIC: FisherMethod.ANALYTIC_SIMPLISTIC,
    Topology.BLOCKED_BEAM: FisherMethod.ANALYTIC_BLOCKED,
    Topology.INTERFEROMETRIC: FisherMethod.ANALYTIC_INTERFEROMETRIC,
}


def fisher_displacement(setup: SetupConfig) -> FisherResult:
    """Per-sample information about the displacement magnitude,
    g_d^2 / (a + 2b + e): the d entry of fisher_matrix at A = I, where the
    output covariance is (a + 2b + e) I."""
    resp = response(setup)
    return FisherResult(value=resp.g_d ** 2 / (resp.a + 2.0 * resp.b + resp.e),
                        parameter="d", method=_DISPLACEMENT_METHODS[setup.topology])


def fisher_numeric(setup: SetupConfig, process: ProcessParams,
                   noise: NoiseParams | None, parameter: str) -> FisherResult:
    """Per-sample information about one process parameter: a diagonal entry
    of fisher_matrix."""
    k = _index(parameter)
    value = float(fisher_matrix(setup, process, noise)[k, k])
    return FisherResult(value=max(value, 0.0), parameter=parameter,
                        method=FisherMethod.NUMERIC_GAUSSIAN)


def fisher_terms(setup: SetupConfig, process: ProcessParams,
                 noise: NoiseParams | None, parameter: str) -> tuple[float, float]:
    """(mean term, covariance term) of the information about one parameter."""
    k = _index(parameter)
    mean_term = float(fisher_matrix(setup, process, noise, mean_only=True)[k, k])
    return mean_term, float(fisher_matrix(setup, process, noise)[k, k]) - mean_term


def crb(fi: FisherResult, n: int) -> float:
    """Cramér-Rao variance bound for n independent samples: 1 / (n I)."""
    if fi.value <= 0.0:
        raise ValueError(f"parameter {fi.parameter!r} is unidentifiable at this point (I = 0)")
    return 1.0 / (n * fi.value)


@dataclass(frozen=True)
class CrossingReport:
    phi_grid: np.ndarray
    info_interferometric: np.ndarray
    info_blocked: np.ndarray
    crossings: list  # sign-change abscissas of (interferometric - blocked)


def compare_blocked_vs_interferometric(setup: SetupConfig, phi_grid) -> CrossingReport:
    """Phase information of both topologies over a phase grid.

    Reports where the interferometric advantage changes sign; an empty
    crossing list is a valid result.
    """
    phi_grid = np.asarray(phi_grid, dtype=float)

    def phase_info(topology):
        s = dc_replace(setup, topology=topology)
        return np.array([fisher_matrix(s, ProcessParams.folded(phi=p))[0, 0] for p in phi_grid])

    fi_i = phase_info(Topology.INTERFEROMETRIC)
    fi_b = phase_info(Topology.BLOCKED_BEAM)
    diff = fi_i - fi_b
    crossings = []
    for k in range(len(phi_grid) - 1):
        if diff[k] == 0.0:
            crossings.append(float(phi_grid[k]))
        elif diff[k] * diff[k + 1] < 0.0:
            # Linear interpolation of the sign change.
            frac = diff[k] / (diff[k] - diff[k + 1])
            crossings.append(float(phi_grid[k] + frac * (phi_grid[k + 1] - phi_grid[k])))
    return CrossingReport(phi_grid=phi_grid, info_interferometric=fi_i,
                          info_blocked=fi_b, crossings=crossings)
