"""Classical Fisher information and Cramér-Rao bounds for the read-out schemes.

The per-sample likelihood is the two-dimensional Gaussian of the measured
quadrature pair, so the Gaussian-model identity
I(theta) = dmu^T Sigma^-1 dmu + 1/2 tr[(Sigma^-1 dSigma)^2]
is exact and replaces generic score-function quadrature.
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


class NumericFisherError(RuntimeError):
    """Finite-difference derivatives failed the Richardson consistency check."""

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


def fisher_displacement(setup: SetupConfig) -> FisherResult:
    """Closed-form per-sample information about the displacement magnitude."""
    t1, t2, v = setup.t1, setup.t2, setup.v_thermal
    if setup.topology is Topology.SIMPLISTIC:
        value = t2 / (1.0 + t2 * (v - 1.0))
        method = FisherMethod.ANALYTIC_SIMPLISTIC
    elif setup.topology is Topology.BLOCKED_BEAM:
        value = t2 / (1.0 - t2 + t2 * ((1.0 - t1) * v + t1))
        method = FisherMethod.ANALYTIC_BLOCKED
    else:
        if not math.isclose(t1, t2, rel_tol=0.0, abs_tol=1e-12):
            # The closed form assumes a balanced interferometer.
            return fisher_numeric(setup, ProcessParams.folded(d=1.0), None, "d")
        value = t2
        method = FisherMethod.ANALYTIC_INTERFEROMETRIC
    return FisherResult(value=value, parameter="d", method=method)


_PARAMS = ("phi", "w", "alpha", "d", "beta")


def _moments(resp, m_in, theta):
    """Response moments at raw (phi, w, alpha, d, beta): finite-difference
    stencils may step slightly outside the canonical ranges (e.g. w < 0),
    where the phase-space map is still smooth and well defined."""
    phi, w, alpha, d, beta = theta
    mat = rotation(phi) @ squeeze_matrix(w, alpha)
    d_vec = np.array([d * math.cos(beta), d * math.sin(beta)])
    return resp.mean(mat, d_vec, m_in), resp.cov(mat)


def _gaussian_information(setup, process, noise, parameter, step):
    if parameter not in _PARAMS:
        raise ValueError(f"unknown process parameter {parameter!r}")
    resp = response(setup, noise)
    m_in = setup.light_mean
    theta = np.array([getattr(process, name) for name in _PARAMS])
    h = step * np.array([name == parameter for name in _PARAMS], dtype=float)
    mu_plus, cov_plus = _moments(resp, m_in, theta + h)
    mu_minus, cov_minus = _moments(resp, m_in, theta - h)
    dmu = (mu_plus - mu_minus) / (2.0 * step)
    dcov = (cov_plus - cov_minus) / (2.0 * step)
    _, cov = _moments(resp, m_in, theta)
    inv = np.linalg.inv(cov)
    mean_term = float(dmu @ inv @ dmu)
    a = inv @ dcov
    cov_term = 0.5 * float(np.trace(a @ a))
    return mean_term + cov_term, mean_term, cov_term


def fisher_numeric(setup: SetupConfig, process: ProcessParams,
                   noise: NoiseParams | None, parameter: str,
                   step: float = 1e-5) -> FisherResult:
    """Per-sample information by central differences of the closed-form
    response moments (see interferometer.Response).

    Verified by a Richardson check at step/2; disagreement beyond 1e-3
    relative raises NumericFisherError with both values.
    """
    coarse, _, _ = _gaussian_information(setup, process, noise, parameter, step)
    fine, _, _ = _gaussian_information(setup, process, noise, parameter, step / 2.0)
    scale = max(abs(fine), 1e-12)
    if abs(coarse - fine) > 1e-3 * scale:
        raise NumericFisherError(
            f"derivative instability for {parameter}: {coarse} vs {fine}", coarse, fine
        )
    return FisherResult(value=max(fine, 0.0), parameter=parameter,
                        method=FisherMethod.NUMERIC_GAUSSIAN)


def fisher_terms(setup: SetupConfig, process: ProcessParams,
                 noise: NoiseParams | None, parameter: str,
                 step: float = 1e-5) -> tuple[float, float]:
    """(mean term, covariance term) of the numeric Gaussian information."""
    _, mean_term, cov_term = _gaussian_information(setup, process, noise, parameter, step)
    return mean_term, cov_term


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
    """Numeric phase information of both topologies over a phase grid.

    Reports where the interferometric advantage changes sign; an empty
    crossing list is a valid result.
    """
    phi_grid = np.asarray(phi_grid, dtype=float)
    inter = dc_replace(setup, topology=Topology.INTERFEROMETRIC)
    blocked = dc_replace(setup, topology=Topology.BLOCKED_BEAM)
    fi_i = np.array([
        fisher_numeric(inter, ProcessParams.folded(phi=p), None, "phi").value for p in phi_grid
    ])
    fi_b = np.array([
        fisher_numeric(blocked, ProcessParams.folded(phi=p), None, "phi").value for p in phi_grid
    ])
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
