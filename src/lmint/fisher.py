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

from .gaussian_core import ProcessParams, rotation
from .interferometer import Response, SetupConfig, Topology, response
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
_SIGMA_Z = np.diag([1.0, -1.0])
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def chart(process: ProcessParams):
    """Chart point x = (phi, w cos 2alpha, w sin 2alpha, d cos beta, d sin beta),
    regular at w = 0 and d = 0 where alpha and beta are undefined, and its
    Jacobian dx / d(phi, w, alpha, d, beta)."""
    x, jac = np.array([process.phi, 0.0, 0.0, 0.0, 0.0]), np.eye(5)
    for i, r, angle, k in ((1, process.w, process.alpha, 2.0), (3, process.d, process.beta, 1.0)):
        c, s = math.cos(k * angle), math.sin(k * angle)
        x[i:i + 2] = r * c, r * s
        jac[i:i + 2, i:i + 2] = [[c, -k * r * s], [s, k * r * c]]
    return x, jac


def _squeeze(u: float, v: float):
    """S = exp(u sz + v sx) = cosh(w) I + (sinh(w) / w) K, with K = u sz + v sx
    and K^2 = w^2 I, and its derivatives in u and v.  (w cosh w - sinh w) / w^3
    cancels near w = 0, so below w = 0.1 both coefficients come from their
    series, truncated after w^8 (relative error below 1e-16)."""
    w = math.hypot(u, v)
    if w < 0.1:
        w2 = w * w
        c1 = 1.0 + w2 / 6.0 * (1.0 + w2 / 20.0 * (1.0 + w2 / 42.0 * (1.0 + w2 / 72.0)))
        c2 = (1.0 + w2 / 10.0 * (1.0 + w2 / 28.0 * (1.0 + w2 / 54.0 * (1.0 + w2 / 88.0)))) / 3.0
    else:
        c1 = math.sinh(w) / w
        c2 = (w * math.cosh(w) - math.sinh(w)) / w ** 3
    k = u * _SIGMA_Z + v * _SIGMA_X
    eye = np.eye(2)
    return (math.cosh(w) * eye + c1 * k,
            c1 * (u * eye + _SIGMA_Z) + u * c2 * k,
            c1 * (v * eye + _SIGMA_X) + v * c2 * k)


def moment_derivatives(resp: Response, x, m_in):
    """Sigma and dSigma (5 x 2 x 2) of the measured mode along the chart x
    (see chart), with A = R(phi) S, and mu (k x 2) and dmu (k x 5 x 2) for
    each of the k probe inputs m_in (k x 2), on which Sigma does not depend.

    dA/dphi = J A and dA/du, dA/dv = R(phi) dS/du, R(phi) dS/dv.  The mean
    moves with through dA m_in and with g_d along (c, s); the covariance
    moves with a (dA A^T + A dA^T) + b (dA + dA^T) and not with (c, s).
    """
    rot = rotation(x[0])
    sq, sq_u, sq_v = _squeeze(x[1], x[2])
    mat = rot @ sq
    d_mat = np.array([_J @ mat, rot @ sq_u, rot @ sq_v])
    d_mu = np.zeros((len(m_in), 5, 2))
    d_mu[:, :3] = resp.through * (d_mat @ m_in.T).transpose(2, 0, 1)
    d_mu[:, 3, 0] = d_mu[:, 4, 1] = resp.g_d
    d_sig = np.zeros((5, 2, 2))
    lin = resp.a * (d_mat @ mat.T) + resp.b * d_mat
    d_sig[:3] = lin + lin.transpose(0, 2, 1)
    return resp.mean(mat, np.array([x[3], x[4]]), m_in), resp.cov(mat), d_mu, d_sig


def gaussian_information(cov: np.ndarray, d_mean: np.ndarray,
                         d_cov: np.ndarray | None) -> np.ndarray:
    """Information of one record of a Gaussian with covariance cov (k x k):
    dmu_i^T cov^-1 dmu_j + 1/2 tr(cov^-1 dcov_i cov^-1 dcov_j), with d_mean
    (p x k) and d_cov (p x k x k); d_cov None keeps the mean term."""
    inv = np.linalg.inv(cov)
    info = d_mean @ inv @ d_mean.T
    if d_cov is not None:
        g = inv @ d_cov
        info += 0.5 * np.einsum("iab,jba->ij", g, g)
    return info


def fisher_matrix(setup: SetupConfig, process: ProcessParams,
                  noise: NoiseParams | None = None, *, mean_only: bool = False) -> np.ndarray:
    """Per-sample 5x5 Fisher information of the joint read-out in PARAMETERS
    order: the information of moment_derivatives at the process's chart
    point, carried to (phi, w, alpha, d, beta) by the chart's Jacobian.
    mean_only keeps the mean term of the information."""
    x, jac = chart(process)
    _, sig, d_mu, d_sig = moment_derivatives(response(setup, noise), x, setup.light_mean[None])
    info = gaussian_information(sig, d_mu[0], None if mean_only else d_sig)
    return jac.T @ info @ jac


def _index(parameter: str) -> int:
    if parameter not in PARAMETERS:
        raise ValueError(f"unknown process parameter {parameter!r}")
    return PARAMETERS.index(parameter)


_DISPLACEMENT_METHODS = {
    Topology.SIMPLISTIC: FisherMethod.ANALYTIC_SIMPLISTIC,
    Topology.BLOCKED_BEAM: FisherMethod.ANALYTIC_BLOCKED,
    Topology.INTERFEROMETRIC: FisherMethod.ANALYTIC_INTERFEROMETRIC,
}


def fisher_displacement(setup: SetupConfig, noise: NoiseParams | None = None) -> FisherResult:
    """Per-sample information about the displacement magnitude under the
    channel, g_d^2 / (a + 2b + e): the d entry of fisher_matrix at A = I,
    where the output covariance is (a + 2b + e) I."""
    resp = response(setup, noise)
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
