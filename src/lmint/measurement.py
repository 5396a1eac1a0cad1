"""Stochastic quadrature sampling and empirical moment recovery.

A counter-based generator (Philox) keyed by the plan seed makes every draw
reproducible and lets Monte-Carlo realizations use independent streams via
seed = base_seed XOR realization_index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .gaussian_core import GaussianState, is_physical, repair_physicality

_MASK64 = (1 << 64) - 1


class InsufficientDataError(ValueError):
    """An angle group required for the requested statistic is missing."""


class Scheme(Enum):
    """Detection scheme per shot.

    HOMODYNE_SPLIT2: one quadrature per shot, angles 0 and pi/2, N/2 each.
    HOMODYNE_SPLIT3: angles 0, pi/2 and pi/4 (the last pins Cov(x,p)), N/3 each.
    HETERODYNE: both quadratures per shot at the cost of one added vacuum
        unit per quadrature; the moment estimator subtracts it again.
    JOINT: idealized paired read-out of both quadratures per shot at the bare
        state covariance; this is the two-dimensional Gaussian likelihood the
        analytic information formulas assume, and the default for benchmarks
        judged against them.
    """

    HOMODYNE_SPLIT2 = "homodyne2"
    HOMODYNE_SPLIT3 = "homodyne3"
    HETERODYNE = "heterodyne"
    JOINT = "joint"


_ANGLES = {
    Scheme.HOMODYNE_SPLIT2: (0.0, math.pi / 2),
    Scheme.HOMODYNE_SPLIT3: (0.0, math.pi / 2, math.pi / 4),
}


@dataclass(frozen=True)
class MeasurementPlan:
    scheme: Scheme
    n_samples: int
    seed: int

    def __post_init__(self):
        groups = len(_ANGLES.get(self.scheme, (0,)))
        if self.n_samples < 2 * groups:
            raise ValueError(
                f"need at least 2 samples per angle group, got {self.n_samples} for {groups} groups"
            )

    def group_sizes(self) -> list[int]:
        groups = len(_ANGLES.get(self.scheme, (0,)))
        base = self.n_samples // groups
        sizes = [base] * groups
        sizes[0] += self.n_samples - base * groups
        return sizes


@dataclass(frozen=True)
class SampleSet:
    """Raw measurement records for one realization."""

    plan: MeasurementPlan
    quad: dict | None = None      # angle -> 1D array, homodyne schemes
    pairs: np.ndarray | None = None  # (N, 2) array, heterodyne/joint


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def sample(state: GaussianState, plan: MeasurementPlan) -> SampleSet:
    """Draw measurement records from a single-mode state; pure given the seed."""
    if state.n_modes != 1:
        raise ValueError("sampling expects a single-mode state")
    if not is_physical(state):
        raise ValueError("cannot sample an unphysical state")
    rng = _rng(plan.seed)
    if plan.scheme in _ANGLES:
        quad = {}
        for theta, n in zip(_ANGLES[plan.scheme], plan.group_sizes()):
            v = np.array([math.cos(theta), math.sin(theta)])
            mu = float(v @ state.mean)
            var = float(v @ state.cov @ v)
            quad[theta] = mu + math.sqrt(var) * rng.standard_normal(n)
        return SampleSet(plan=plan, quad=quad)
    cov = state.cov + np.eye(2) if plan.scheme is Scheme.HETERODYNE else state.cov
    chol = np.linalg.cholesky(cov)
    pairs = state.mean + rng.standard_normal((plan.n_samples, 2)) @ chol.T
    return SampleSet(plan=plan, pairs=pairs)


@dataclass(frozen=True)
class MomentEstimate:
    """Empirical mean and covariance (ddof=1) of the measured mode, the shot
    count behind each statistic and the scheme that recorded them."""

    mean: np.ndarray
    cov: np.ndarray
    n_effective: dict = field(default_factory=dict)
    scheme: Scheme = Scheme.JOINT

    @property
    def has_full_cov(self) -> bool:
        return self.n_effective.get("cov_xp", 0) > 0


def _condition(cov: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues (possible after the heterodyne subtraction),
    then inflate to the physical floor."""
    evals, evecs = np.linalg.eigh(cov)
    if evals[0] < 0.0:
        cov = (evecs * np.clip(evals, 0.0, None)) @ evecs.T
        cov = 0.5 * (cov + cov.T)
    return repair_physicality(cov)


def estimate_moments(samples: SampleSet) -> MomentEstimate:
    """Unbiased (ddof=1) moment recovery appropriate to the sampling scheme;
    the heterodyne vacuum unit is taken off here."""
    scheme = samples.plan.scheme
    if samples.quad is not None:
        (g_x, g_p, *diagonal) = [samples.quad[theta] for theta in _ANGLES[scheme]]
        var_x, var_p = float(g_x.var(ddof=1)), float(g_p.var(ddof=1))
        n_eff = {"mean_x": g_x.size, "mean_p": g_p.size, "var_x": g_x.size,
                 "var_p": g_p.size, "cov_xp": 0}
        cov_xp = 0.0
        if diagonal:
            # Var at pi/4 = (Var_x + Var_p)/2 + Cov(x, p).
            cov_xp = float(diagonal[0].var(ddof=1)) - 0.5 * (var_x + var_p)
            n_eff["cov_xp"] = diagonal[0].size
        mean = np.array([g_x.mean(), g_p.mean()])
        cov = np.array([[var_x, cov_xp], [cov_xp, var_p]])
    elif samples.pairs is None:
        raise InsufficientDataError("sample set contains no records")
    else:
        pairs = samples.pairs
        mean, cov = pairs.mean(axis=0), np.cov(pairs.T, ddof=1)
        if scheme is Scheme.HETERODYNE:
            cov = cov - np.eye(2)
        n_eff = dict.fromkeys(("mean_x", "mean_p", "var_x", "var_p", "cov_xp"), pairs.shape[0])
    return MomentEstimate(mean, _condition(cov), n_eff, scheme)
