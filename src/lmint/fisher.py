"""Classical Fisher information and Cramér-Rao bounds for the read-out schemes.

The per-sample likelihood is the two-dimensional Gaussian of the measured
quadrature pair, so the Gaussian-model identity
I_ij = dmu_i^T Sigma^-1 dmu_j + 1/2 tr(Sigma^-1 dSigma_i Sigma^-1 dSigma_j)
is exact; fisher_matrix reads it off est_combined's closed-form kernel, and
compare_blocked_vs_interferometric reads its phi entry off est_phase_ml's
kernel over a whole phase grid at once.
"""
from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import estimators
from .gaussian_core import ProcessParams
from .interferometer import SetupConfig, Topology, response
from .measurement import MomentBlock, Scheme
from .noise import IDEAL_NOISE, NoiseParams


class NumericFisherError(RuntimeError):
    """Kept for callers that import and catch it; nothing in lmint raises it."""


@dataclass(frozen=True)
class FisherResult:
    value: float  # information per sample, inverse variance units
    parameter: str

    def __post_init__(self):
        if self.value < -1e-9:
            raise ValueError(f"Fisher information must be non-negative, got {self.value}")


#: Row and column order of fisher_matrix.
PARAMETERS = ("phi", "w", "alpha", "d", "beta")

#: One record of the joint read-out, of mean 0 and scatter I, as a one-row
#: block: the kernels' information over its _blocks reads no mean or scatter,
#: only the record count and the probe.
_ONE_RECORD = MomentBlock([0j], [(1.0, 0j)], dict.fromkeys(
    ("mean_x", "mean_p", "var_x", "var_p", "cov_xp"), 1), Scheme.JOINT)


def fisher_matrix(setup: SetupConfig, process: ProcessParams,
                  noise: NoiseParams = IDEAL_NOISE) -> np.ndarray:
    """Per-sample 5x5 Fisher information of the joint read-out in PARAMETERS
    order: the information of estimators._joint_fit for one record probed by
    setup.light_mean at the process's chart point, carried to (phi, w,
    alpha, d, beta) by the chart's Jacobian."""
    x, jac = estimators.chart(process)
    blocks = estimators._blocks([_ONE_RECORD], 0, [setup.light_mean])
    info = estimators._joint_fit(x, blocks, response(setup, noise))[2]
    if info is None:
        raise OverflowError(f"the model covariance overflows at w = {process.w}")
    return jac.T @ info @ jac


def fisher_displacement(setup: SetupConfig, noise: NoiseParams = IDEAL_NOISE) -> FisherResult:
    """Per-sample information about the displacement magnitude under the
    channel, g_d^2 / (a + 2b + e): the d entry of fisher_matrix at A = I,
    where the output covariance is (a + 2b + e) I."""
    resp = response(setup, noise)
    return FisherResult(value=resp.g_d ** 2 / (resp.a + 2.0 * resp.b + resp.e), parameter="d")


def fisher_numeric(setup: SetupConfig, process: ProcessParams,
                   noise: NoiseParams, parameter: str) -> FisherResult:
    """Per-sample information about one process parameter: a diagonal entry
    of fisher_matrix."""
    if parameter not in PARAMETERS:
        raise ValueError(f"unknown process parameter {parameter!r}")
    k = PARAMETERS.index(parameter)
    value = float(fisher_matrix(setup, process, noise)[k, k])
    return FisherResult(value=max(value, 0.0), parameter=parameter)


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
    crossings: list  # abscissas where (interferometric - blocked) changes sign


def compare_blocked_vs_interferometric(setup: SetupConfig, phi_grid) -> CrossingReport:
    """Phase information of both topologies over a phase grid: the
    information of est_phase_ml's kernel (estimators._phase_loglik) for one
    record probed by setup.light_mean, whose phase terms are formed once per
    topology and read over the whole grid in one array pass.  At a pure
    phase shift the chart's Jacobian is the identity in the phi row, so this
    is fisher_matrix(...)[0, 0] at each grid point.

    Reports where the interferometric advantage changes sign: between two
    neighbouring grid points of opposite sign by linear interpolation, and
    once for a run of exact zeros, at its middle, when the nonzero values on
    either side have opposite signs.  A zero that the advantage only touches,
    or a difference that is zero everywhere, is no crossing; an empty
    crossing list is a valid result.
    """
    phi_grid = np.asarray(phi_grid, dtype=float)
    blocks = estimators._blocks([_ONE_RECORD], 0, [setup.light_mean])
    fi_i, fi_b = (estimators._phase_loglik(phi_grid, response(dc_replace(setup, topology=t)),
                                           blocks)[2]
                  for t in (Topology.INTERFEROMETRIC, Topology.BLOCKED_BEAM))
    diff, grid, crossings = (fi_i - fi_b).tolist(), phi_grid.tolist(), []
    nonzero = [k for k, d in enumerate(diff) if d != 0.0]
    for k, m in zip(nonzero, nonzero[1:]):
        if (diff[k] < 0.0) == (diff[m] < 0.0):
            continue
        if m == k + 1:  # linear interpolation of the sign change
            frac = diff[k] / (diff[k] - diff[m])
            crossings.append(grid[k] + frac * (grid[m] - grid[k]))
        else:  # the middle of the zeros between
            crossings.append(0.5 * (grid[k + 1] + grid[m - 1]))
    return CrossingReport(phi_grid=phi_grid, info_interferometric=fi_i,
                          info_blocked=fi_b, crossings=crossings)
