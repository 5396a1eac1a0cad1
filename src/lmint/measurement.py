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
    """Empirical mean and covariance of the measured mode."""

    mean: np.ndarray
    cov: np.ndarray
    n_effective: dict = field(default_factory=dict)

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


def _moments(scheme: Scheme, groups) -> MomentEstimate:
    """Moments from per-group statistics with ddof=1: (n, mean, var) per
    angle of a homodyne split, or one (n, mean vector, covariance) of paired
    records.  The heterodyne vacuum unit is taken off here."""
    if scheme in _ANGLES:
        (n_x, m_x, var_x), (n_p, m_p, var_p) = groups[:2]
        mean = np.array([m_x, m_p])
        n_eff = {"mean_x": n_x, "mean_p": n_p, "var_x": n_x, "var_p": n_p}
        if scheme is Scheme.HOMODYNE_SPLIT3:
            n_d, _, var_d = groups[2]
            # Var at pi/4 = (Var_x + Var_p)/2 + Cov(x, p).
            cov_xp = var_d - 0.5 * (var_x + var_p)
            n_eff["cov_xp"] = n_d
        else:
            cov_xp = 0.0
            n_eff["cov_xp"] = 0
        cov = np.array([[var_x, cov_xp], [cov_xp, var_p]])
        return MomentEstimate(mean, _condition(cov), n_eff)
    ((n, mean, cov),) = groups
    if scheme is Scheme.HETERODYNE:
        cov = cov - np.eye(2)
    n_eff = {"mean_x": n, "mean_p": n, "var_x": n, "var_p": n, "cov_xp": n}
    return MomentEstimate(mean, _condition(cov), n_eff)


def estimate_moments(samples: SampleSet) -> MomentEstimate:
    """Unbiased moment recovery appropriate to the sampling scheme."""
    plan = samples.plan
    if samples.quad is not None:
        groups = [samples.quad[theta] for theta in _ANGLES[plan.scheme]]
        return _moments(plan.scheme,
                        [(g.size, g.mean(), float(g.var(ddof=1))) for g in groups])
    if samples.pairs is None:
        raise InsufficientDataError("sample set contains no records")
    pairs = samples.pairs
    return _moments(plan.scheme,
                    [(pairs.shape[0], pairs.mean(axis=0), np.cov(pairs.T, ddof=1))])


def _leave_one_block_out(records: np.ndarray, n_blocks: int):
    """(n, mean, covariance with ddof=1) of an (N, k) record array with each
    of n_blocks contiguous blocks left out in turn.

    One pass gives per-block sums of the deviations from the full mean and
    of their outer products; leaving block b out subtracts its share.
    Centring first keeps the subtraction free of cancellation.
    """
    centre = records.mean(axis=0)
    dev = records - centre
    edges = np.linspace(0, records.shape[0], n_blocks + 1).astype(int)
    blocks = [dev[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]
    sums = [blk.sum(axis=0) for blk in blocks]
    prods = [blk.T @ blk for blk in blocks]
    sum_all, prod_all = sum(sums), sum(prods)
    out = []
    for blk, s, p in zip(blocks, sums, prods):
        n = records.shape[0] - blk.shape[0]
        s_rest = sum_all - s
        scatter = prod_all - p - np.outer(s_rest, s_rest) / n
        out.append((n, centre + s_rest / n, scatter / (n - 1)))
    return out


def jackknife_moments(samples: SampleSet, n_blocks: int) -> list[MomentEstimate]:
    """Moments of the records with each of n_blocks contiguous blocks left
    out, one MomentEstimate per block: estimate_moments of the records with
    block b cut out (every angle group split alike), up to rounding, without
    building the cut record sets."""
    scheme = samples.plan.scheme
    if samples.quad is not None:
        per_group = [_leave_one_block_out(samples.quad[theta][:, None], n_blocks)
                     for theta in _ANGLES[scheme]]
        return [_moments(scheme, [(n, float(m[0]), float(c[0, 0])) for n, m, c in stats])
                for stats in zip(*per_group)]
    if samples.pairs is None:
        raise InsufficientDataError("sample set contains no records")
    return [_moments(scheme, [stats])
            for stats in _leave_one_block_out(samples.pairs, n_blocks)]
