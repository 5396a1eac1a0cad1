"""Stochastic quadrature sampling, empirical moment recovery, and draws of
the moments from their exact law.

record_laws forms the law of the records a scheme takes of one state, given
as scalars (mean z, covariance (Sxx, Sxp, Spp)), with its physicality check,
the closed-form factor of a paired covariance (LAPACK's operations) and all
else a draw reuses, once per data set and run.  draw_variates draws the
variates of m realizations of a data set as arrays, and form_moments forms a
MomentEstimate from each of their rows; draw_moments composes the three for
one realization.  Every draw comes from a counter-based generator (Philox)
keyed by two 64-bit words, so it is reproducible, and streams under distinct
keys are independent by design (Salmon et al. 2011): a data set's variates
come from one stream per variate kind v, keyed (seed, word + v), where the
harness packs the sweep point and the data set into the word.  One Philox
bit generator per thread serves every draw: each draw resets its whole
state to the key and counter 0 from plain lists, the stream of a fresh
np.random.Philox(key=[seed, word]) without building one.  The drawn
statistics are formed from scalars in the pair form the estimators read
(see MomentEstimate).
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

import numpy as np

from .gaussian_core import GaussianState


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

    @property
    def has_full_cov(self) -> bool:
        """Whether the records pin Cov(x, p)."""
        return self is not Scheme.HOMODYNE_SPLIT2


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
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        groups = len(_ANGLES.get(self.scheme, (0,)))
        if self.n_samples < 2 * groups:
            raise ValueError(
                f"need at least 2 samples per angle group, got {self.n_samples} for {groups} groups"
            )

    def group_sizes(self) -> list[int]:
        return _group_sizes(self.scheme, self.n_samples)


def _group_sizes(scheme: Scheme, n: int) -> list[int]:
    """Records per angle group: n split evenly, the remainder to the first."""
    groups = len(_ANGLES.get(scheme, (0,)))
    base = n // groups
    sizes = [base] * groups
    sizes[0] += n - base * groups
    return sizes


@dataclass(frozen=True)
class SampleSet:
    """Raw measurement records for one realization."""

    plan: MeasurementPlan
    quad: dict | None = None      # angle -> 1D array, homodyne schemes
    pairs: np.ndarray | None = None  # (N, 2) array, heterodyne/joint


_PER_THREAD = threading.local()


def _rng(seed: int, word: int) -> np.random.Generator:
    """This thread's generator on the stream of np.random.Philox(key=[seed,
    word]): its bit generator's key, counter, output buffer and buffered
    half-word all reset, so no earlier draw leaks into this one.  The thread
    keeps one state dict of plain lists (cheaper to read than uint64 arrays),
    whose two key entries each call rewrites; the setter reads it entry by
    entry."""
    gen = getattr(_PER_THREAD, "generator", None)
    if gen is None:
        gen = _PER_THREAD.generator = np.random.Generator(np.random.Philox(key=0))
        _PER_THREAD.state = {
            "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    state = _PER_THREAD.state
    key = state["state"]["key"]
    key[0], key[1] = seed, word
    gen.bit_generator.state = state
    return gen


def _cholesky(cov) -> tuple[float, float, float]:
    """(L00, L10, L11) of the lower Cholesky factor of a 2x2 positive definite
    covariance (an array or a pair of rows), with the operations of LAPACK's
    potrf (the reciprocal of the pivot scales the column)."""
    (s_xx, _), (s_px, s_pp) = cov
    l00 = math.sqrt(s_xx)
    l10 = s_px * (1.0 / l00)
    return l00, l10, math.sqrt(s_pp - l10 * l10)


def record_laws(z: complex, cov: tuple, scheme: Scheme, n_samples: int) -> tuple:
    """The exact law of n_samples records that `scheme` takes of the
    single-mode state of mean z = x + ip and covariance cov = (Sxx, Sxp,
    Spp), with what its draws reuse, as (paired, scheme, n_effective,
    groups).  Per homodyne angle, groups holds (n, mean, variance s2,
    sqrt(s2 / n), (n - 1) / 2, n - 1); for n paired records it is (n,
    mean x, mean p, L00, L10, L11, (n - 1) / 2, (n - 2) / 2, sqrt n,
    n - 1, vacuum unit), L the lower Cholesky factor of their covariance,
    which heterodyne widens by the vacuum unit.  The records at angles 0,
    pi/2 and pi/4 are x, p and (x + p) / sqrt 2, with variances Sxx, Spp
    and (Sxx + Spp) / 2 + Sxp.  Raises ValueError for an unphysical state
    (gaussian_core.is_physical's test)."""
    s_xx, s_xp, s_pp = cov
    if not math.sqrt(max(s_xx * s_pp - s_xp * s_xp, 0.0)) >= 1.0 - 1e-9:
        raise ValueError("cannot sample an unphysical state")
    m_x, m_p = z.real, z.imag
    if scheme in _ANGLES:
        sizes = _group_sizes(scheme, n_samples)
        laws = ((m_x, s_xx), (m_p, s_pp),
                ((m_x + m_p) / math.sqrt(2.0), 0.5 * (s_xx + s_pp) + s_xp))
        return False, scheme, _n_effective(sizes), tuple(
            (n, mu, var, math.sqrt(var / n), 0.5 * (n - 1), n - 1)
            for n, (mu, var) in zip(sizes, laws))
    n, vacuum = n_samples, 1.0 if scheme is Scheme.HETERODYNE else 0.0
    factor = _cholesky(((s_xx + vacuum, s_xp), (s_xp, s_pp + vacuum)))
    return True, scheme, _n_effective([n]), (
        n, m_x, m_p, *factor, 0.5 * (n - 1), 0.5 * (n - 2), math.sqrt(n), n - 1, vacuum)


def _n_effective(sizes: list) -> MappingProxyType:
    """The shot count behind each statistic of records in groups of `sizes`
    (record_laws' layout; one paired group counts for all five), read-only:
    all draws of a law share it."""
    n_x, n_p, n_d = sizes * 3 if len(sizes) == 1 else (*sizes, 0)[:3]
    return MappingProxyType({"mean_x": n_x, "mean_p": n_p, "var_x": n_x, "var_p": n_p,
                             "cov_xp": n_d})


def _state_laws(state: GaussianState, plan: MeasurementPlan) -> tuple:
    """record_laws of a single-mode state (else ValueError) under the plan."""
    if state.mean.size != 2:
        raise ValueError("sampling expects a single-mode state")
    (m_x, m_p), ((s_xx, s_xp), (_, s_pp)) = state.mean.tolist(), state.cov.tolist()
    return record_laws(complex(m_x, m_p), (s_xx, s_xp, s_pp), plan.scheme, plan.n_samples)


def sample(state: GaussianState, plan: MeasurementPlan) -> SampleSet:
    """Draw measurement records from a single-mode state; pure given the seed."""
    paired, _, _, groups = _state_laws(state, plan)
    rng = _rng(plan.seed, 0)
    if not paired:
        quad = {theta: mu + math.sqrt(var) * rng.standard_normal(n)
                for theta, (n, mu, var, *_) in zip(_ANGLES[plan.scheme], groups)}
        return SampleSet(plan=plan, quad=quad)
    n, m_x, m_p, l00, l10, l11, *_ = groups
    z = rng.standard_normal((n, 2))
    # Column by column, so no BLAS call (and no BLAS thread) sees the N rows.
    pairs = np.empty((n, 2))
    pairs[:, 0] = m_x + l00 * z[:, 0]
    pairs[:, 1] = m_p + (l10 * z[:, 0] + l11 * z[:, 1])
    return SampleSet(plan=plan, pairs=pairs)


@dataclass(frozen=True, init=False)
class MomentEstimate:
    """Empirical mean and covariance (ddof=1) of the measured mode in the pair
    form of estimators._dot, the shot count behind each statistic, the scheme
    that recorded them and, for homodyne3, the mean of the pi/4 group (the
    records of (x + p) / sqrt 2).  The mean is z = x + ip and the covariance
    Sigma z = c0 z + c1 conj(z): c0 = (Sxx + Spp) / 2, c1 = (Sxx - Spp) / 2 +
    i Sxp, with eigenvalues c0 +- |c1|.  MomentEstimate(mean=..., cov=...)
    builds one from arrays, which .mean and .cov give back."""

    z: complex
    c0: float
    c1: complex
    n_effective: dict
    scheme: Scheme
    mean_diag: float | None

    def __init__(self, z=None, c0=None, c1=None, n_effective=None, scheme=Scheme.JOINT,
                 mean_diag=None, *, mean=None, cov=None):
        if mean is not None:
            z = complex(mean[0], mean[1])
        if cov is not None:
            (s_xx, s_xp), (_, s_pp) = np.asarray(cov, dtype=float).tolist()
            c0, c1 = 0.5 * (s_xx + s_pp), complex(0.5 * (s_xx - s_pp), s_xp)
        if z is None or c0 is None or c1 is None:
            raise TypeError("MomentEstimate needs a mean (z or mean=) and a covariance "
                            "(c0 and c1, or cov=)")
        self.__dict__.update(z=z, c0=c0, c1=c1, scheme=scheme, mean_diag=mean_diag,
                             n_effective={} if n_effective is None else n_effective)

    @property
    def mean(self) -> np.ndarray:
        return np.array([self.z.real, self.z.imag])

    @property
    def cov(self) -> np.ndarray:
        c0, c1 = self.c0, self.c1
        return np.array([[c0 + c1.real, c1.imag], [c1.imag, c0 - c1.real]])


def _smaller_eigenvalue(a: float, b: float, c: float) -> float:
    """Smaller eigenvalue of [[a, b], [b, c]] formed as LAPACK's dlae2 forms
    it, so that its sign is the one eigh reports also at rounding level: for
    a positive trace, det over the larger eigenvalue, which keeps the sign
    that a + c - hypot(a - c, 2b) would lose to cancellation."""
    total, gap, off = a + c, abs(a - c), abs(b + b)
    big, small = (gap, off) if gap > off else (off, gap)
    root = big * math.sqrt(1.0 + (small / big) * (small / big)) if big > 0.0 else 0.0
    if total > 0.0:
        larger = 0.5 * (total + root)
        far, near = (a, c) if abs(a) > abs(c) else (c, a)
        return (far / larger) * near - (b / larger) * b
    return 0.5 * (total - root)


def _condition(a: float, b: float, c: float) -> tuple[float, complex]:
    """The pair form (c0, c1) of the covariance [[a, b], [b, c]], a negative
    eigenvalue clipped (possible after the heterodyne subtraction), then
    inflated to the physical floor.  The eigenvalues are lo, as
    _smaller_eigenvalue forms it, and hi = c0 + |c1|.  With lo < 0 the
    clipped matrix is max(hi, 0) (Sigma - lo I) / (hi - lo), of rank at most
    one, so the floor adds exactly I; its rounded determinant, whose root is
    of order sqrt(eps) |Sigma|, never decides the repair.  Otherwise nu =
    sqrt(lo hi) < 1 adds 1 - nu to both eigenvalues, as
    gaussian_core.repair_physicality does."""
    c0, c1 = 0.5 * (a + c), complex(0.5 * (a - c), b)
    lo, radius = _smaller_eigenvalue(a, b, c), abs(c1)
    hi = c0 + radius
    if lo < 0.0:
        k = hi / (radius + radius) if hi > 0.0 else 0.0  # hi - lo = 2 |c1|
        return k * (c0 - lo) + 1.0, k * c1
    nu = math.sqrt(lo * hi)
    return (c0, c1) if nu >= 1.0 else (c0 + (1.0 - nu), c1)


def _estimate(z: complex, s_xx: float, s_xp: float, s_pp: float, n_effective, scheme: Scheme,
              mean_diag: float | None = None) -> MomentEstimate:
    """The MomentEstimate of mean z and covariance (Sxx, Sxp, Spp), which is
    conditioned here, built without the keyword parsing of its __init__."""
    c0, c1 = _condition(s_xx, s_xp, s_pp)
    est = object.__new__(MomentEstimate)
    object.__setattr__(est, "__dict__", {"z": z, "c0": c0, "c1": c1, "n_effective": n_effective,
                                         "scheme": scheme, "mean_diag": mean_diag})
    return est


def _angles_estimate(scheme: Scheme, n_effective, stats: list) -> MomentEstimate:
    """MomentEstimate of homodyne records from the (mean, ddof=1 variance) of
    each angle group, laid out as record_laws lays out their laws."""
    (m_x, var_x), (m_p, var_p), *diagonal = stats
    cov_xp, mean_diag = 0.0, None
    if diagonal:
        ((mean_diag, var_d),) = diagonal
        # Var at pi/4 = (Var_x + Var_p)/2 + Cov(x, p).
        cov_xp = var_d - 0.5 * (var_x + var_p)
    return _estimate(complex(m_x, m_p), var_x, cov_xp, var_p, n_effective, scheme, mean_diag)


def estimate_moments(samples: SampleSet) -> MomentEstimate:
    """Unbiased (ddof=1) moment recovery appropriate to the sampling scheme;
    the heterodyne vacuum unit is taken off here."""
    scheme = samples.plan.scheme
    if samples.quad is not None:
        groups = [samples.quad[theta] for theta in _ANGLES[scheme]]
        return _angles_estimate(scheme, _n_effective([g.size for g in groups]),
                                [(float(g.mean()), float(g.var(ddof=1))) for g in groups])
    if samples.pairs is None:
        raise InsufficientDataError("sample set contains no records")
    # Elementwise sums over the two columns: no BLAS product of N rows.
    x, p = samples.pairs[:, 0], samples.pairs[:, 1]
    n, vacuum = x.size, 1.0 if scheme is Scheme.HETERODYNE else 0.0
    m_x, m_p = x.mean(), p.mean()
    dx, dp = x - m_x, p - m_p
    s_xx, s_xp, s_pp = (float(d.sum()) / (n - 1) for d in (dx * dx, dx * dp, dp * dp))
    return _estimate(complex(m_x, m_p), s_xx - vacuum, s_xp, s_pp - vacuum, _n_effective([n]),
                     scheme)


def draw_moments(state: GaussianState, plan: MeasurementPlan) -> MomentEstimate:
    """The MomentEstimate of the records sample(state, plan) would give, drawn
    from its exact law (the same law, not the same numbers): record_laws,
    then one realization of draw_variates on the key (plan.seed, 0), which
    the harness reads as data set 0 of sweep point 0."""
    laws = _state_laws(state, plan)
    return form_moments(laws, draw_variates(laws, plan.seed, 0, 1))[0]


def draw_variates(laws: tuple, seed: int, word: int, m: int) -> tuple:
    """The variates of m realizations of records of the law `laws` (see
    record_laws), one call per stream, as (normals, gammas): the normals an
    (m, k) array from the stream keyed (seed, word), then one gamma column of
    m per shape, column v - 1 from the stream keyed (seed, word + v).  Row i
    of every stream belongs to realization i + 1, whatever m.  Per homodyne
    group there is one normal and one gamma column of shape (n - 1) / 2;
    paired records take the normals (A21, z0, z1) and the shapes (n - 1) / 2
    and (n - 2) / 2 (see form_moments)."""
    paired, _, _, groups = laws
    shapes = groups[6:8] if paired else [group[4] for group in groups]
    normals = _rng(seed, word).standard_normal((m, 3 if paired else len(groups)))
    return normals, [_rng(seed, word + v).standard_gamma(shape, size=m)
                     for v, shape in enumerate(shapes, start=1)]


def form_moments(laws: tuple, variates: tuple, rows: slice = slice(None)) -> list:
    """The MomentEstimate of each realization in `rows` of draw_variates'
    variates, at a cost independent of the shot count.  Per homodyne group
    of n records of variance s2, the mean is N(mu, s2 / n) and the variance
    s2 chi2(n - 1) / (n - 1).  For n paired records of covariance Sigma = L
    L^T, the mean is N(mu, Sigma / n) and the scatter Wishart(Sigma, n - 1),
    drawn as L A A^T L^T by the Bartlett decomposition (Odell & Feiveson
    1966): A is lower triangular with A11^2 ~ chi2(n - 1), A22^2 ~ chi2(n -
    2) and A21 ~ N(0, 1); the vacuum unit is taken off the scatter."""
    paired, scheme, n_effective, groups = laws
    normals, gammas = variates
    drawn = zip(normals[rows].tolist(), *(column[rows].tolist() for column in gammas))
    # chi2(dof) is 2 Gamma(dof / 2), which is 0 at dof = 0 (two paired records).
    if not paired:
        return [_angles_estimate(scheme, n_effective, [
            (mu + se * normal, var * (2.0 * gamma) / dof)
            for (_, mu, var, se, _, dof), normal, gamma in zip(groups, row, gammas_k)])
            for row, *gammas_k in drawn]
    _, m_x, m_p, l00, l10, l11, _, _, root_n, dof, vacuum = groups
    out = []
    for (a21, z0, z1), gamma_1, gamma_2 in drawn:
        a11, a22 = math.sqrt(2.0 * gamma_1), math.sqrt(2.0 * gamma_2)
        # root = L A, lower triangular; the scatter is root root^T / (n - 1).
        r11, r21, r22 = l00 * a11, l10 * a11 + l11 * a21, l11 * a22
        out.append(_estimate(
            complex(m_x + l00 * z0 / root_n, m_p + (l10 * z0 + l11 * z1) / root_n),
            r11 * r11 / dof - vacuum, r11 * r21 / dof, (r21 * r21 + r22 * r22) / dof - vacuum,
            n_effective, scheme))
    return out
