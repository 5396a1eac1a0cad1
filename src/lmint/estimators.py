"""Parameter estimators: displacement-only, phase-only, the two general-process
methods (covariance- and mean-based) and their joint maximum likelihood, with
naive and calibrated variants selected through the assumed NoiseParams.

prepare_<name> reads the response and the probe inputs of one setup and
channel, raises the estimator's data-independent failures, and returns the
estimate as a function of a block of realizations (measurement.MomentBlock:
the single read-out's block and the probes' blocks) and a diagnostics dict or
None.  It returns one entry per realization: the values, a general method's
(phi, w, alpha, d, beta) as ProcessParams.folded stores them, or the failure
(_ESTIMATOR_FAILURES) that stopped it, reading row k of the columns that
ESTIMATORS says it reads.  phase_var counts its clamps into diagnostics, and
a general method fills in its realization's diagnostics for a one-row block
only.  est_<name> prepares its ESTIMATORS entry as a run does, checks its
moments (_check_moments), applies the same function to one-row blocks of
them and returns that row's values (a general method's as an
EstimateReport) or raises its failure; a Monte-Carlo run applies it once
to all its realizations and books the entries.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .gaussian_core import (_ISOTROPIC_TOL, DecompositionError, ProcessParams, fold_angle,
                           fold_axis, polar_pair)
from .interferometer import SetupConfig, _process_pair, _sigma, response
from .measurement import InsufficientDataError, MomentBlock, MomentEstimate, Scheme
from .noise import IDEAL_NOISE, NoiseParams


class UnidentifiableError(ValueError):
    """The requested parameter carries no signal in this configuration."""


class EstimationError(RuntimeError):
    """An estimator failed to converge or produce a usable value."""


class FitRejectedError(EstimationError):
    """Model-vs-data residual too large: likely model mismatch."""


#: The failures an estimate books for a realization rather than raising.
_ESTIMATOR_FAILURES = (EstimationError, UnidentifiableError, InsufficientDataError,
                       DecompositionError)


#: Absolute probe phases of the three-input mean protocol: two opposite
#: phases isolate the displacement, the quarter-turn input separates the
#: linear part.
PROBE_PHASES = (0.0, math.pi, math.pi / 2)

#: Below this squeezing exponent the squeeze axis is treated as undefined.
AXIS_UNDEFINED_W = 1e-4

#: Largest squeezing exponent a covariance fit may return (q = e^3, about 20).
W_MAX = 3.0

#: Relative covariance residual above which a fit is taken for model mismatch.
RESIDUAL_REL_TOL = 0.5

#: Relative distance (spectral norm, |dm0| + |dm1| for pairs, see _dot) below
#: which two process matrices are one solution.  Coincident preimages (the
#: fit itself, the two branches on the image boundary, a double root of
#: either branch) come out of a square root of a quantity known to a few eps,
#: so they scatter by ~1e-8 (a few sqrt(eps)); distinct solutions lie O(1) apart.
_SAME_PROCESS_TOL = 1e-6

_PARAM_PERIODS = {"phi": 2 * math.pi, "alpha": math.pi, "beta": 2 * math.pi}


@dataclass(frozen=True)
class EstimateReport:
    params: ProcessParams
    method: str
    diagnostics: dict = field(default_factory=dict)


def _check_moments(moments=None, probes=None):
    """ValueError when probes are given but not one per PROBE_PHASES, then
    EstimationError naming each moment that is not finite, if any: the
    mean, c0, c1 and (homodyne3) pi/4 mean of the single read-out and of
    each probe, numbered in PROBE_PHASES order.  The est_* entry points
    check their data here; of the prepared estimates that a Monte-Carlo run
    applies to moments of finite records, only cov_method's calls it, on
    data its fit could not take."""
    if probes is not None and len(probes) != len(PROBE_PHASES):
        raise ValueError(f"expected {len(PROBE_PHASES)} probe moments, one per PROBE_PHASES, "
                         f"got {len(probes)}")
    sets = [("", moments)] if moments is not None else []
    sets += [(f"probe {k} ", m) for k, m in enumerate(probes or ())]
    bad = [f"{label}{name} {value!r}" for label, m in sets for name, value in
           (("mean", m.z), ("c0", m.c0), ("c1", m.c1), ("mean_diag", m.mean_diag))
           if value is not None and not cmath.isfinite(value)]
    if bad:
        raise EstimationError(f"the moments are not finite: {', '.join(bad)}")


def _per_row(values, diagnostics, *columns) -> list:
    """values(*row, diagnostics) of each row of the columns in turn, or the
    failure that stopped it.  Only a one-row block, as est_<name> reads, is
    given the diagnostics to fill in; a longer block pays for none."""
    if len(columns[0]) != 1:
        diagnostics = None
    out = []
    for row in zip(*columns):
        try:
            out.append(values(*row, diagnostics))
        except _ESTIMATOR_FAILURES as exc:
            out.append(exc)
    return out


def _one(name, setup, noise, single=None, probes=None, diagnostics=None):
    """The values of ESTIMATORS[name], prepared as a run prepares it, on one
    realization's MomentEstimates (the single read-out, the probes), checked
    (_check_moments) and read as one-row blocks; raises the failure that stopped it."""
    estimate = ESTIMATORS[name].prepare(setup, noise, single and single.scheme)
    _check_moments(single, probes)
    (entry,) = estimate(None if single is None else MomentBlock.of(single),
                        [MomentBlock.of(m) for m in probes or ()], diagnostics)
    if isinstance(entry, Exception):
        raise entry
    return entry


def _report(name, setup, noise, single=None, probes=None) -> EstimateReport:
    """_one of a general method, its values and diagnostics as an EstimateReport."""
    diagnostics = {}
    values = _one(name, setup, noise, single, probes, diagnostics)
    return EstimateReport(ProcessParams(*values), name, diagnostics)


# ---------------------------------------------------------------------------
# Displacement-only estimation


def est_displacement(moments: MomentEstimate, setup: SetupConfig,
                     noise: NoiseParams = IDEAL_NOISE) -> tuple[float, float]:
    """Invert the measured mean for (d, beta), assuming a displacement-only process.

    The baseline is the model mean with the process switched off (A = I); the
    gain is sqrt(t2 t_c) for every topology.
    """
    return _one("displacement", setup, noise, moments)


def prepare_displacement(setup: SetupConfig, noise: NoiseParams = IDEAL_NOISE):
    """est_displacement for one setup and channel; UnidentifiableError when t2 = 0."""
    resp = response(setup, noise)
    if resp.g_d == 0.0:
        raise UnidentifiableError("t2 = 0: displacement does not reach the detector")
    baseline = (resp.through + resp.direct) * setup.light_mean  # mean at A = I, d = 0
    g_d = resp.g_d

    def estimate(single: MomentBlock, probes=(), diagnostics: dict | None = None) -> list:
        out = []
        for z in single.z:
            d_vec = (z - baseline) / g_d
            out.append((abs(d_vec), cmath.phase(d_vec)))
        return out

    return estimate


# ---------------------------------------------------------------------------
# Phase-only estimation


def est_phase_var(moments: MomentEstimate, setup: SetupConfig, noise: NoiseParams = IDEAL_NOISE,
                  *, diagnostics: dict | None = None) -> float:
    """Variance-based phase estimator: arccos of the centered mean variance.

    Under A = R(phi) and the channel noise the response covariance is (a +
    e + 2 b cos(phi)) I, so the phase signal is 2 b, which vanishes wherever
    the response has no linear term: the blocked beam, the simplistic
    topology, cold matter (V = 1) and t1 or t2 in {0, 1}.  The arccos
    argument is clamped to [-1, 1] (clamp events are counted in the
    diagnostics dict when given); the sign is resolved through the mean's
    p-component when the probe is bright, otherwise the magnitude is returned.
    """
    return _one("phase_var", setup, noise, moments, diagnostics=diagnostics)[0]


def prepare_phase_var(setup: SetupConfig, noise: NoiseParams = IDEAL_NOISE):
    """est_phase_var for one setup and channel; UnidentifiableError when b = 0."""
    resp = response(setup, noise)
    if resp.b == 0.0:
        raise UnidentifiableError("b = 0: the output variance carries no phase signal")
    centre, signal = resp.a + resp.e, 2.0 * resp.b
    frame = cmath.rect(1.0, -setup.probe_phase) if setup.r_amp > 0.0 else None

    def estimate(single: MomentBlock, probes=(), diagnostics: dict | None = None) -> list:
        out = []
        for z, (c0, _) in zip(single.z, single.conditioned):
            arg = (c0 - centre) / signal
            if abs(arg) > 1.0:
                if diagnostics is not None:
                    diagnostics["clamped"] = diagnostics.get("clamped", 0) + 1
                arg = max(-1.0, min(1.0, arg))
            phi = math.acos(arg)
            if frame is not None and (z * frame).imag < 0.0:
                phi = -phi
            out.append((fold_angle(phi),))
        return out

    return estimate


def est_phase_mean(moments: MomentEstimate, setup: SetupConfig) -> float:
    """Mean-based phase estimator: two-argument arctangent of the displaced
    mean, the same under any channel, which scales through R(phi) m_in alone."""
    return _one("phase_mean", setup, IDEAL_NOISE, moments)[0]


def prepare_phase_mean(setup: SetupConfig):
    """est_phase_mean for one setup; UnidentifiableError when r = 0 or through = 0."""
    if setup.r_amp <= 0.0:
        raise UnidentifiableError("r = 0: the output mean carries no phase signal")
    resp = response(setup)
    if resp.through == 0.0:
        raise UnidentifiableError(
            "no probe light passes the process (simplistic topology, t1 = 0 or t2 = 0): "
            "the output mean carries no phase signal")
    frame, offset = cmath.rect(1.0, -setup.probe_phase), setup.r_amp * resp.direct

    def estimate(single: MomentBlock, probes=(), diagnostics: dict | None = None) -> list:
        out = []
        for z in single.z:
            turned = z * frame  # probe phase -> 0
            out.append((math.atan2(turned.imag, turned.real - offset),))
        return out

    return estimate


def _phase_terms(resp, sets) -> dict:
    """The data sets `sets` ((p, added, set), see _data_sets) reduced per
    added variance to (K, S0, S1, S2, P0) under A = (e^{i phi}, 0): K =
    sum_j n_j k_j, the spread sum_j n_j (tr S_j + |delta_j|^2) = S0 + Re(S1
    e^{i phi}) + Re(S2 e^{2i phi}) and sum_j n_j |mu'_P|^2 = P0 - Re(S2 e^{2i
    phi}), delta = c - u e^{i phi} and mu' = i u e^{i phi} for c = mean -
    direct m and u = through m, read as x = conj(c) and w = u by paired
    records and as x = Re(conj(p) c) and w = conj(p) u along p."""
    terms, direct, through = {}, resp.direct, resp.through
    for p, added, (n, m, _, mean, (f0, _), _) in sets:
        k, s0, s1, s2, p0 = terms.get(added, (0.0, 0.0, 0j, 0j, 0.0))
        k, s0 = k + (2.0 * n if p is None else n), s0 + 2.0 * n * f0
        if mean is not None:
            c, u = mean - direct * m, through * m
            x, w, half = ((c.conjugate(), u, 1.0) if p is None
                          else ((p.conjugate() * c).real, p.conjugate() * u, 0.5))
            q = half * n * (w * w.conjugate()).real
            s0, s1, p0 = s0 + n * (x * x.conjugate()).real + q, s1 - 2.0 * n * x * w, p0 + q
            s2 += (1.0 - half) * n * w * w
        terms[added] = k, s0, s1, s2, p0
    return terms


def _phase_kernel(phi, resp, terms):
    """Log-likelihood of the data sets behind terms (see _phase_terms) under
    a pure phase shift, with its score and information (the phi entries of
    _joint_fit), for phi an array (one pass over a grid) or a float (plain
    Python arithmetic, the same operations): per added variance, v = a + e +
    added + 2 b cos(phi) and the spread S give ll = -(K log v + S / v) / 2,
    score (v' (S / v - K) - S') / (2 v), information (P0 - Re(S2 e^{2i phi})
    + K v'^2 / (2 v)) / v."""
    if isinstance(phi, float):
        turn, log = complex(math.cos(phi), math.sin(phi)), math.log
    else:
        turn, log = np.exp(1j * phi), np.log
    var, d_var = resp.a + resp.e + 2.0 * resp.b * turn.real, -2.0 * resp.b * turn.imag
    ll = score = info = 0.0
    for added, (k, s0, s1, s2, p0) in terms.items():
        v, first, second = var + added, s1 * turn, s2 * turn * turn
        spread = s0 + first.real + second.real
        ll = ll - 0.5 * (k * log(v) + spread / v)
        score = score + 0.5 * (first.imag + 2.0 * second.imag + d_var * (spread / v - k)) / v
        info = info + (p0 - second.real + 0.5 * k * d_var * d_var / v) / v
    return ll, score, info


def _phase_loglik(phi, resp, blocks):
    """_phase_kernel at phi of the data sets in blocks (see _blocks)."""
    sets = ((p, added, data_set) for p, added, _, block in blocks for data_set in block)
    return _phase_kernel(phi, resp, _phase_terms(resp, sets))


#: Scan of est_phase_ml: 64 phases over (-pi, pi], its basis's columns 1 (to
#: become log v), 1, cos, -sin, cos 2 phi and -sin 2 phi before their division
#: by v, and the grid as Python floats with its step; no setup enters them.
_PHASE_GRID = np.linspace(-math.pi, math.pi, 65)[1:]
_GRID_TRIG = np.column_stack([np.ones(64), np.ones(64), np.cos(_PHASE_GRID), -np.sin(_PHASE_GRID),
                              np.cos(2.0 * _PHASE_GRID), -np.sin(2.0 * _PHASE_GRID)])
_GRID = _PHASE_GRID.tolist()
_GRID_STEP = _GRID[1] - _GRID[0]


#: Cap on the polishing steps of est_phase_ml; bisection alone meets it.
_MAX_PHASE_STEPS = 60

#: Phase step (rad) below which est_phase_ml's polish has converged.
_PHASE_TOL = 1e-12


def est_phase_ml(moments: MomentEstimate, setup: SetupConfig,
                 noise: NoiseParams = IDEAL_NOISE) -> float:
    """Maximum-likelihood phase estimate over (-pi, pi]: the Gaussian
    likelihood of est_combined's data sets (see _data_sets), restricted to
    a pure phase shift (mean and variance both phase-dependent).

    The data enter once, as _phase_terms' six terms.  A 64-point scan, one
    product of them with a basis formed once per run, brackets the maximum
    within a grid step either side; the polish solves the stationarity
    condition there on _phase_kernel's phi score and information at Python
    floats: a Fisher-scoring step, then secant steps, which follow the
    observed curvature where the expected one misleads (a flat likelihood,
    r ~ 1).  A step leaving the bracket, or a score that does not fall,
    bisects it instead, and each score's sign narrows it, so the polish
    converges to rounding of the score.  With a dark probe only the variance
    carries the phase, the likelihood is even in phi, and the non-negative
    one of the two mirror maxima is returned, as est_phase_var returns
    |phi|.  Raises UnidentifiableError when neither moment depends on the
    phase: no probe light passes the process (simplistic topology, a dark
    probe, t1 = 0) and the covariance has no linear term (b = 0).
    """
    return _one("phase_ml", setup, noise, moments)[0]


def prepare_phase_ml(setup: SetupConfig, noise: NoiseParams = IDEAL_NOISE):
    """est_phase_ml for one setup and channel; UnidentifiableError when
    through r = b = 0.  The scan's basis, -1/2 [log v, 1/v, cos/v, -sin/v,
    cos 2 phi/v, -sin 2 phi/v] on the grid, is formed once per added variance."""
    resp = response(setup, noise)
    dark = resp.through * setup.r_amp == 0.0  # the likelihood is even in phi
    if dark and resp.b == 0.0:
        raise UnidentifiableError(
            "neither the output mean nor its variance depends on the phase")
    m, var, bases = setup.light_mean, resp.a + resp.e + 2.0 * resp.b * _GRID_TRIG[:, 2], {}

    def values(single: MomentBlock, row: int, diagnostics: dict | None = None) -> tuple:
        terms = _phase_terms(resp, _data_sets(single, row, m))
        ((added, (k, s0, s1, s2, _)),) = terms.items()  # one read-out, one added variance
        if added not in bases:
            v = var + added
            bases[added] = basis = _GRID_TRIG / (-2.0 * v[:, None])
            basis[:, 0] = -0.5 * np.log(v)
        phi = _GRID[int((bases[added] @ (k, s0, s1.real, s1.imag, s2.real, s2.imag)).argmax())]
        lo, hi, last = phi - _GRID_STEP, phi + _GRID_STEP, None
        for _ in range(_MAX_PHASE_STEPS):
            _, s, info = _phase_kernel(phi, resp, terms)
            lo, hi = (phi, hi) if s > 0.0 else (lo, phi)
            # Curvature of the log-likelihood: minus the information, then secants.
            slope = -info if last is None else (s - last[1]) / (phi - last[0])
            trial = phi - s / slope if slope < 0.0 else 0.5 * (lo + hi)
            if abs(trial - phi) < _PHASE_TOL:
                return (abs(fold_angle(trial)) if dark else fold_angle(trial),)
            if not lo < trial < hi:
                trial = 0.5 * (lo + hi)
            last, phi = (phi, s), trial
        raise EstimationError(f"phase polish did not converge within {_MAX_PHASE_STEPS} steps")

    return lambda single, probes=(), diagnostics=None: _per_row(
        functools.partial(values, single), diagnostics, range(len(single.z)))


# ---------------------------------------------------------------------------
# General-process estimation


def _dot(x, y):
    """Frobenius product tr(X^T Y) of two 2x2 matrices in the pair form of
    the general process: a quadrature pair (x, p) is z = x + ip and a real
    2x2 M the pair (m0, m1) with M z = m0 z + m1 conj(z), as a -> mu a + nu
    a^dagger.  The product XY is (x0 y0 + x1 conj(y1), x0 y1 + x1 conj(y0)),
    R(phi) S(w, alpha) is (e^{i phi} cosh w, e^{i (phi + 2 alpha)} sinh w),
    M^T (conj(m0), m1), tr M = 2 Re m0, det M = |m0|^2 - |m1|^2, z m^T = (z
    conj(m), z m) / 2; the singular values are |m0| +- |m1|, and a
    symmetric M (m0 real) has the eigenvalues m0 +- |m1|, the larger along
    the axis arg(m1) / 2."""
    return 2.0 * (x[0].conjugate() * y[0] + x[1].conjugate() * y[1]).real


def _cov_constants(resp) -> tuple:
    """What _cov_preimages and _fit_cov read of a response, formed once per
    run as they would form it: (a, lam = -b/a, shift = e - b^2/a, |shift|,
    1 - lam^2, 1 + lam^2, 3, 4, 8 and 16 eps, 2 sqrt(eps), sinh W_MAX)."""
    eps = sys.float_info.epsilon
    lam, shift = -resp.b / resp.a, resp.e - resp.b * resp.b / resp.a
    return (resp.a, lam, shift, abs(shift), 1.0 - lam * lam, 1.0 + lam * lam, 3.0 * eps,
            4.0 * eps, 8.0 * eps, 16.0 * eps, 2.0 * math.sqrt(eps), math.sinh(W_MAX))


def _cov_preimages(cov, constants):
    """All process matrices A (pairs, see _dot), squeezing at most W_MAX
    (|m1| <= sinh W_MAX), with Sigma(A) = cov = (c0, c1) under the response
    whose _cov_constants are given.  Needs a > 0 and lam = -b/a away from 0
    (est_general_cov rejects both): without a linear term the rotation part
    is unidentifiable.

    Writing A = P O + lam I, the lam cross term cancels, so cov pins only
    P P^T = Q = (cov - shift I) / a, shift = e - b^2 / a; O runs over the
    orthogonal matrices satisfying det A = 1.  That leaves up to four
    discrete solutions (two proper, two improper), so the covariance alone
    cannot identify the process.  For Q = (q0, q1), P = (q0 + s, q1) / tr P
    with s = det P = sqrt(q0^2 - |q1|^2) and tr P = sqrt(2 (q0 + s)); O =
    R(th) = (e^{i th}, 0) gives A = (p0 e^{i th} + lam, p1 e^{-i th}), a
    reflection (0, e^{i psi}) A = (p1 e^{-i psi} + lam, p0 e^{i psi}).

    On the boundary of the image Q is singular, P has rank one, and each
    improper solution coincides with a proper one.  A best fit to data off
    the image lands there, so a determinant within rounding of zero counts
    as zero: scale = (|c0| + |c1| + |shift|) / |a| bounds |q0| + |q1|, and
    q0 and q1 come from operands of magnitude at most |a| scale through at
    most three roundings (the model covariance, the shift, the division),
    so each is off by at most 3 eps scale and q0^2 - |q1|^2 by 6 eps
    scale^2 through them and 4 eps scale^2 through its own operations,
    within 16 eps scale^2.

    A fit on the symmetric face puts the proper branch at a double root, cos
    th = c = +-1, where rounding over a small lam decides between no root
    and two twins, so a c within rounding of +-1 counts as +-1.  In c = (1 -
    lam^2 - s) / (lam tr P), s is off by err_s = 8 eps scale^2 / s (4
    sqrt(eps) scale if that counted as zero), the numerator by 3 eps (1 +
    lam^2 + s) more, tr P relatively by (3 eps scale + err_s) / tr(P)^2 + 2
    eps and the quotient by 2 eps, so c by (err_s + 3 eps (1 + lam^2 + s)) /
    |lam tr P| + (3 eps scale + err_s) / tr(P)^2 + 4 eps near |c| = 1."""
    (c0, c1), (a, lam, shift, abs_shift, one_minus, one_plus, eps3, eps4, eps8, eps16, root_eps2,
               sinh_w_max) = cov, constants
    q0, q1 = (c0 - shift) / a, c1 / a
    scale = (abs(c0) + abs(c1) + abs_shift) / a
    det_q = q0 * q0 - (q1 * q1.conjugate()).real
    if abs(det_q) <= eps16 * scale * scale:
        det_q = 0.0
    if det_q < 0.0 or q0 <= 0.0:
        return []
    s = math.sqrt(det_q)
    tr_p = math.sqrt(2.0 * (q0 + s))
    p0, p1 = 0.5 * tr_p, q1 / tr_p
    out = []
    # Proper branch: det(P R(th) + lam I) = 1 fixes cos(th).
    c = (one_minus - s) / (lam * tr_p)
    err_s = eps8 * scale * scale / max(s, root_eps2 * scale)
    if abs(abs(c) - 1.0) <= ((err_s + eps3 * (one_plus + s)) / abs(lam * tr_p)
                             + (eps3 * scale + err_s) / (tr_p * tr_p) + eps4):
        c = math.copysign(1.0, c)
    if abs(c) <= 1.0:
        th = math.acos(c)
        for turn in (cmath.rect(1.0, th), cmath.rect(1.0, -th)):
            out.append((p0 * turn + lam, p1 * turn.conjugate()))
    # Improper branch: reflections with tr(P F(psi)) = 2 Re(p1 e^{-i psi}) on target.
    target = (one_minus + s) / lam
    amp = 2.0 * abs(p1)
    if amp >= abs(target) > 0.0 or (target == 0.0 and amp > 0.0):
        delta = math.acos(max(-1.0, min(1.0, target / amp)))
        for psi in (cmath.phase(p1) + delta, cmath.phase(p1) - delta):
            turn = cmath.rect(1.0, psi)
            out.append((p1 * turn.conjugate() + lam, p0 * turn))
    return [m for m in out if abs(m[1]) <= sinh_w_max]


#: _symmetric_face's companion matrix without its first column: numpy's polyroots layout.
_SHIFT = np.eye(8, k=1)


def _symmetric_face(mu, lam):
    """Points x to try for the symmetric process matrices V diag(x, 1/x) V^T.

    With V the eigenvectors of P P^T and mu its eigenvalues, such a matrix
    lies at squared distance f(x) = ((x - lam)^2 - mu[0])^2 + ((1/x - lam)^2
    - mu[1])^2 from P P^T, and x < 0 gives phi = pi.  The minimum of f over
    e^-W_MAX <= |x| <= e^W_MAX lies among the real parts of the roots of
    x^5 f'(x) / 4 = x^5 (x - lam) ((x - lam)^2 - mu[0]) - (1 - lam x) ((1 -
    lam x)^2 - mu[1] x^2), the ends of the range and the points x = lam,
    1/lam where the face meets the rank-one face.  That polynomial is monic
    of degree 8 with the coefficients [-1, 3 lam, mu[1] - 3 lam^2, lam^3 -
    mu[1] lam, 0, mu[0] lam - lam^3, 3 lam^2 - mu[0], -3 lam, 1] of x^0 ...
    x^8, and its roots are the eigenvalues of its companion matrix (a copy
    of _SHIFT), one eigvals call per covariance off the image.  Returns the
    points in range; x and 1/x give the two pairings of eigenvalues.
    """
    lam2 = lam * lam
    companion = _SHIFT.copy()
    companion[:, 0] = [3.0 * lam, mu[0] - 3.0 * lam2, lam * (lam2 - mu[0]), 0.0,
                       lam * (mu[1] - lam2), 3.0 * lam2 - mu[1], -3.0 * lam, 1.0]
    lo, hi = math.exp(-W_MAX), math.exp(W_MAX)
    points = np.linalg.eigvals(companion).real.tolist()
    points += [lam, 1.0 / lam, lo, hi, -lo, -hi]
    return [x for x in points if lo <= abs(x) <= hi]


def _fit_cov(cov, resp, constants):
    """Process matrices (pairs, see _dot), squeezing at most W_MAX, whose
    model covariance under resp (its _cov_constants given) is nearest to
    cov in the Frobenius norm: every preimage of that covariance (see
    _cov_preimages), the fit first; returns (matrices, off_image).

    The model covariance is a M M^T + shift I with M = A - lam I (see
    _cov_preimages), so the fit is the point S = M M^T nearest to Q = (cov
    - shift I) / a.  An exact preimage of cov is that point.  Otherwise the
    nearest S lies on the boundary of the set of S, which is invariant
    under orthogonal conjugation (U A U^T keeps det A = 1): it shares Q's
    eigenvectors, and only two eigenvalues are left to fit.  The boundary is
    made of the rank-one M and the critical points of A -> S on det A = 1,
    where the derivative loses rank; for lam != 0 these are exactly the
    symmetric A.  So the candidates are the preimages of Q = (q0, q1) with
    its smaller eigenvalue q0 - |q1| clipped to 0 and the best symmetric A
    on Q's axis: the points of _symmetric_face (the roots of one
    closed-form polynomial) are scored by their f on Python floats, and
    only the best becomes a matrix.  A boundary at w = W_MAX is not
    searched: data whose fit would sit there are far off the model.
    """
    exact = _cov_preimages(cov, constants)
    if exact:
        return exact, False
    a, lam, shift = constants[:3]
    q0, q1 = (cov[0] - shift) / a, cov[1] / a
    radius = abs(q1)
    axis = q1 / radius if radius > 0.0 else 1.0  # e^{2i theta} of the larger eigenvalue
    mu = (q0 - radius, q0 + radius)
    x = min(_symmetric_face(mu, lam),
            key=lambda x: ((x - lam) ** 2 - mu[0]) ** 2 + ((1.0 / x - lam) ** 2 - mu[1]) ** 2)
    candidates = [(0.5 * (x + 1.0 / x), 0.5 * (1.0 / x - x) * axis)]
    if mu[1] > 0.0:
        half = 0.5 * a * mu[1]
        candidates += _cov_preimages((half + shift, half * axis), constants)

    def distance(m):  # |S - Q|^2, which is |Sigma(A) - cov|^2 / a^2 without its cancellation
        m0 = m[0] - lam
        gap = ((m0 * m0.conjugate() + m[1] * m[1].conjugate()).real - q0, 2.0 * m0 * m[1] - q1)
        return _dot(gap, gap)

    best = min(candidates, key=distance)
    # The other preimages are those of the covariance that the fit reproduces.
    return [best, *_cov_preimages(_sigma(best, resp), constants)], True


def est_general_cov(moments: MomentEstimate, setup: SetupConfig,
                    noise: NoiseParams = IDEAL_NOISE) -> EstimateReport:
    """Method (i): fit (phi, w, alpha) to the empirical covariance, then read
    the displacement off the residual mean.

    The fit minimises the Frobenius distance between the model output
    covariance and the measured one, in closed form (see _fit_cov): the
    exact inversion when the covariance lies on the image of the covariance
    map, else its nearest boundary point ('off_image' in the diagnostics).
    The covariance only determines the process matrix up to a discrete set
    of alternatives (see _cov_preimages), which a single read-out cannot
    distinguish; the reported solution is the canonical one among the
    preimages of the fitted covariance (least squeezing, then most
    axis-aligned, then largest rotation), and the others, decomposed for
    this call alone (see prepare_general_cov), are listed as rivals in the
    diagnostics.  A covariance off the image fits to a point on its
    boundary, where the rivals include a twin with equal squeezing.

    Raises UnidentifiableError when the covariance response has no linear
    term (cold matter V = 1, the blocked beam, t2 = 0): the covariance then
    carries no rotation signal, InsufficientDataError when the read-out
    lacks the full covariance, and EstimationError when the mean or the
    covariance is not finite.
    """
    return _report("cov_method", setup, noise, moments)


def prepare_general_cov(setup: SetupConfig, noise: NoiseParams, full_cov: bool):
    """est_general_cov for one setup and channel, on a read-out that pins
    Cov(x, p) when full_cov (else InsufficientDataError).  Of a fit's
    preimages (_fit_cov), each kept once with polar_pair's w, only those
    within 1e-3 of the least w are decomposed to choose the pick: the least
    |alpha| within 1e-3, then the largest phi, the first of equals.  The
    others are decomposed for a diagnostics dict alone (a one-row block)."""
    if not full_cov:
        raise InsufficientDataError(
            "covariance-based estimation needs the full covariance "
            "(homodyne 3-angle split, heterodyne or joint read-out)")
    resp = response(setup, noise)
    if resp.a <= 0.0 or abs(resp.b / resp.a) < 1e-12:
        raise UnidentifiableError(
            "the output covariance has no term linear in the process matrix, "
            "so it carries no rotation signal")
    m_in, constants = setup.light_mean, _cov_constants(resp)

    def folded(m0, m1):  # polar_pair's alpha is folded already
        phi, w, alpha = polar_pair(m0, m1)
        return fold_angle(phi), max(w, 0.0), alpha

    def values(z: complex, cov_emp: tuple, mean_diag, diagnostics: dict | None = None) -> tuple:
        if not all(map(cmath.isfinite, (z, *cov_emp))):
            _check_moments(MomentEstimate(z, *cov_emp, mean_diag=mean_diag))  # raises
        mats, off_image = _fit_cov(cov_emp, resp, constants)
        # Each process matrix of the fit once, in order, with polar_pair's w as
        # folded clips it; the conditional expressions give max()'s bits at half its cost.
        found = []
        for m0, m1 in mats:
            r0, r1 = abs(m0), abs(m1)
            tol = _SAME_PROCESS_TOL * (r0 + r1 if r0 + r1 > 1.0 else 1.0)
            for n0, n1, _ in found:
                if abs(m0 - n0) + abs(m1 - n1) <= tol:
                    break
            else:
                if r0 <= r1:
                    polar_pair(m0, m1)  # raises DecompositionError
                w = math.log(r0 if 2.0 * r1 <= _ISOTROPIC_TOL * r0 else r0 + r1)
                found.append((m0, m1, 0.0 if w < 0.0 else w))
        w_cut, near = min(w for _, _, w in found) + 1e-3, []
        for k, (m0, m1, w) in enumerate(found):
            if w <= w_cut:
                phi, _, alpha = polar_pair(m0, m1)
                near.append((k, fold_angle(phi), w, alpha))
        a_cut, pick = min(abs(c[3]) for c in near) + 1e-3, None
        for c in near:  # the largest phi, the first of equals
            if abs(c[3]) <= a_cut and (pick is None or c[1] > pick[1]):
                pick = c
        k_pick, phi, w, alpha = pick
        m0, m1 = pair = _process_pair(phi, w, alpha)
        s0, s1 = _sigma(pair, resp)
        gap = (s0 - cov_emp[0], s1 - cov_emp[1])
        residual = math.sqrt(_dot(gap, gap))
        rel = residual / max(math.sqrt(_dot(cov_emp, cov_emp)), 1e-300)
        if rel > RESIDUAL_REL_TOL:
            raise FitRejectedError(
                f"covariance residual {rel:.3g} exceeds tolerance {RESIDUAL_REL_TOL}")
        if diagnostics is not None:
            diagnostics.update(residual=residual, residual_rel=rel, off_image=off_image,
                               ambiguity_order=len(found))
            rivals = [folded(m0, m1) for k, (m0, m1, _) in enumerate(found) if k != k_pick]
            if rivals:
                diagnostics["rival_fits"] = rivals
            if w < AXIS_UNDEFINED_W:
                diagnostics["axis_undefined"] = True
        if w < AXIS_UNDEFINED_W:
            alpha, (m0, m1) = 0.0, _process_pair(phi, w, 0.0)
        d_vec = (z - resp.through * (m0 * m_in + m1 * m_in.conjugate())
                 - resp.direct * m_in) / resp.g_d
        return phi, w, alpha, abs(d_vec), fold_angle(cmath.phase(d_vec))  # pick is folded

    return lambda single, probes=(), diagnostics=None: _per_row(
        values, diagnostics, single.z, single.conditioned,
        single.mean_diag or itertools.repeat(None))


def _probe_inversion(m_a, m_b, m_c, r):
    """Offset k and linear part M = (m0, m1) (see _dot) of the affine response
    mu = M m_in + k, read off the complex probe means m_a, m_b, m_c at
    PROBE_PHASES of amplitude r: the opposite phases cancel M and give k and
    M 1 = m0 + m1, the quarter-turn probe gives M i = i (m0 - m1).  Returns
    (k, (m0, m1))."""
    k_hat = 0.5 * (m_a + m_b)
    first, second = (m_a - m_b) / (2.0 * r), (m_c - k_hat) / r
    return k_hat, (0.5 * (first - 1j * second), 0.5 * (first + 1j * second))


def est_general_mean(probe_moments, setup: SetupConfig,
                     noise: NoiseParams = IDEAL_NOISE) -> EstimateReport:
    """Method (ii): three coherent probes (phases 0, pi, pi/2) expose the full
    affine response; opposite phases cancel the linear part and isolate the
    displacement, the quarter-turn probe fills the second column.

    The linear inversion weighs the probe means alike, though their
    covariance Sigma(A) is anisotropic, so its phi and alpha MSE sit 2-3x
    above the bound of the means; a weighted (GLS) fit of the same means
    reaches ~1.  est_combined, started here, is the efficient estimator.
    """
    return _report("mean_method", setup, noise, probes=probe_moments)


def prepare_general_mean(setup: SetupConfig, noise: NoiseParams = IDEAL_NOISE):
    """est_general_mean for one setup and channel; UnidentifiableError when r = 0 or through = 0.
    It reads the probes' mean columns alone."""
    values = _general_mean(setup, noise)
    return lambda single, probes, diagnostics=None: _per_row(
        values, diagnostics, *(probe.z for probe in probes))


def _general_mean(setup: SetupConfig, noise: NoiseParams):
    """prepare_general_mean's estimate of one realization, from its three
    probe means, which est_combined starts from."""
    r = setup.r_amp
    if r <= 0.0:
        raise UnidentifiableError("r = 0: mean-based estimation needs a bright probe")
    resp = response(setup, noise)
    if resp.through == 0.0:
        raise UnidentifiableError(
            "no probe light passes the process (simplistic topology, t1 = 0 or t2 = 0): "
            "the mean carries no signal of the linear part")

    def values(m_a: complex, m_b: complex, m_c: complex, diagnostics: dict | None = None) -> tuple:
        k_hat, (m0, m1) = _probe_inversion(m_a, m_b, m_c, r)
        d_vec = k_hat / resp.g_d
        b0, b1 = (m0 - resp.direct) / resp.through, m1 / resp.through
        phi, w, alpha = polar_pair(b0, b1)
        if diagnostics is not None:
            diagnostics.update(det_b=(b0 * b0.conjugate() - b1 * b1.conjugate()).real, w_raw=w)
            if abs(w) < AXIS_UNDEFINED_W:
                diagnostics["axis_undefined"] = True
        if w < AXIS_UNDEFINED_W:
            alpha = 0.0
        return fold_angle(phi), max(w, 0.0), alpha, abs(d_vec), fold_angle(cmath.phase(d_vec))

    return values


# ---------------------------------------------------------------------------
# Joint maximum likelihood

#: Caps on the Fisher-scoring steps of est_combined and on the halvings of a step.
_MAX_SCORING_STEPS, _MAX_HALVINGS = 20, 30

#: Newton decrement s^T F^-1 s below which the scoring has converged.
_DECREMENT_TOL = 1e-9

#: Rounding bound of a deviance in units of sum_j n_j (|tr(C^-1 R)| + k +
#: |log(det S / det C)|), the size of the terms it sums.  At the optimum of
#: 2162 random converged fits, moving the chart point by 1e-14 (40 times
#: each) changed the deviance by up to 26 eps of that unit, 99% of fits
#: below 3.5; a trial and its start together allow 32.
_DEVIANCE_ROUNDING = 16.0 * sys.float_info.epsilon

#: Deviance excess over its degrees of freedom, in standard deviations
#: sqrt(2 dof) of its chi-square law, above which the fit is inconsistent.
_INCONSISTENT_SIGMA = 5.0


def chart(process: ProcessParams):
    """Chart point x = (phi, w cos 2alpha, w sin 2alpha, d cos beta, d sin beta),
    regular at w = 0 and d = 0 where alpha and beta are undefined, and its
    Jacobian dx / d(phi, w, alpha, d, beta)."""
    p, jac = process, np.eye(5)
    for i, r, angle, k in ((1, p.w, p.alpha, 2.0), (3, p.d, p.beta, 1.0)):
        c, s = math.cos(k * angle), math.sin(k * angle)
        jac[i:i + 2, i:i + 2] = [[c, -k * r * s], [s, k * r * c]]
    return np.array(_chart_point(p.phi, p.w, p.alpha, p.d, p.beta)), jac


def _chart_point(phi, w, alpha, d, beta) -> list:
    """The chart point x of chart, of the values of a process, as a list of floats."""
    double = 2.0 * alpha
    return [phi, w * math.cos(double), w * math.sin(double), d * math.cos(beta), d * math.sin(beta)]


#: Unit vector of the homodyne records along (x + p) / sqrt 2, in the pair form.
_DIAGONAL = (1 + 1j) * math.sqrt(0.5)


def _data_sets(block, k, m) -> list:
    """The Gaussian data sets behind row k of a MomentBlock probed by the
    complex input m, in their pair form: n records of P z ~ N(P mu, P Sigma
    P^T + added), one set of paired records (P = I; heterodyne adds the
    vacuum unit back) or one per homodyne angle (P = p^T, p its unit vector;
    homodyne3's pi/4 mean only if kept), each (p or None, added, (n, m,
    conj(m), P^T mean or None, P^T S P, det S)).  Missing shot counts fail
    with InsufficientDataError naming them, a singular scatter with
    EstimationError."""
    n, m_conj, scheme = block.n_effective, m.conjugate(), block.scheme
    z, (c0, c1) = block.z[k], block.conditioned[k]
    paired = scheme is Scheme.JOINT or scheme is Scheme.HETERODYNE
    try:
        if paired:
            added = 1.0 if scheme is Scheme.HETERODYNE else 0.0
            f0 = c0 + added
            sets = [(None, added, (float(n["mean_x"]), m, m_conj, z, (f0, c1),
                                   f0 * f0 - (c1 * c1.conjugate()).real))]
        else:  # the records along x, p and (x + p) / sqrt 2: size, p, mean, variance
            quads = [(n["mean_x"], 1 + 0j, z.real, c0 + c1.real),
                     (n["mean_p"], 1j, z.imag, c0 - c1.real)]
            if scheme is Scheme.HOMODYNE_SPLIT3:
                quads.append((n["cov_xp"], _DIAGONAL, block.mean_diag and block.mean_diag[k],
                              c0 + c1.imag))
            sets = [(p, 0.0, (float(n_j), m, m_conj, None if mean is None else p * mean,
                              (0.5 * var, 0.5 * var * p * p), var)) for n_j, p, mean, var in quads]
    except KeyError:  # e.g. MomentEstimate(mean=..., cov=...), which keeps no counts
        read = 1 if paired else 3 if scheme is Scheme.HOMODYNE_SPLIT3 else 2
        missing = [key for key in ("mean_x", "mean_p", "cov_xp")[:read] if key not in n]
        raise InsufficientDataError(f"a {scheme.value} data set has no shot count for "
                                    + ", ".join(missing)) from None
    for _, _, data_set in sets:
        if not data_set[-1] > 0.0:
            raise EstimationError("a data set's scatter is singular")
    return sets


def _blocks(data, k, m_in) -> list:
    """The data sets (see _data_sets) of row k of the MomentBlocks in data
    probed by the inputs m_in, in blocks of one P and added variance: p
    (None for P = I), the added variance, the sums N = sum_j n_j, N_h =
    sum_j n_j h_j, M1 = sum_j n_j h_j m_j, M2 = sum_j n_j h_j m_j m_j^T and
    sum_j n_j P^T S_j P over its sets j (h_j has-mean, m_j the probe input),
    and the sets."""
    groups = {}  # the sets of each (p, added), in order of first use
    for block, m in zip(data, m_in):
        for p, added, data_set in _data_sets(block, k, m):
            groups.setdefault((p, added), []).append(data_set)
    blocks = []
    for (p, added), sets in groups.items():
        n_all = n_mean = m1 = m2_0 = m2_1 = s0 = s1 = 0.0  # running sums over the sets, in order
        for n, m, _, mean, form, _ in sets:
            n_all, s0, s1 = n_all + n, s0 + n * form[0], s1 + n * form[1]
            if mean is not None:
                n_mean, m1 = n_mean + n, m1 + n * m
                m2_0, m2_1 = m2_0 + n * abs(m) ** 2, m2_1 + n * m * m
        blocks.append((p, added, (n_all, n_mean, m1, (m2_0 / 2, m2_1 / 2), (s0, s1)), sets))
    return blocks


def _joint_fit(x, blocks, resp):
    """Deviance of the chart point x (see chart) from the saturated Gaussians
    of the data sets in blocks (see _blocks), score and information, closed
    form in the 2x2 algebra of A = R(phi) S(u, v), S = exp(u sz + v sx):
    the mean is through A m + direct m + g_d (c, s) and Sigma = a A A^T + b
    (A + A^T) + e I.  Per block C = P Sigma P^T + added, W = P^T C^-1 P; per
    set delta = P^T mean - mu (0 without a mean), R = S + delta delta^T and
    the deviance n [tr(C^-1 R) - k - log(det S / det C)].  The Gaussian
    information dmu^T C^-1 dmu + 1/2 tr(C^-1 dC C^-1 dC) and the score,
    summed by linearity, read the sets through the pooled sums of _blocks,
    E = sum_j n_j delta_j m_j^T and R_pool = sum_j n_j P^T R_j P:

        I(A_i, A_l) = through^2 tr(dA_i^T W dA_l M2) + N/2 tr(W dSig_i W dSig_l)
        I(A_i, d) = through g_d W dA_i M1,   I(d, d) = g_d^2 N_h W
        s(A_i) = through tr(dA_i^T W E) + 1/2 tr(dSig_i (W R_pool W - N W))
        s(d) = g_d W sum_j n_j delta_j

    S is the ddof=1 scatter, so the score has zero mean at the truth and
    exact moments are a fixed point whatever their n.  x is any sequence of
    five floats.  Returns (deviance, score, information, rounding bound of
    the deviance), the score a list of five floats and the information a
    list of five rows; a C not finite and positive definite gives deviance
    +inf and no score.  The pair algebra (see _dot) is written out on plain
    Python scalars, with the 15 information entries and the gradient pair
    in locals."""
    phi, u, v, c, s = map(float, x)
    a, b, through, g_d = resp.a, resp.b, resp.through, resp.g_d
    w = math.hypot(u, v)
    if w > 700.0:  # cosh overflows beyond ~710
        return math.inf, None, None, 0.0
    ch, sh = math.cosh(w), math.sinh(w)
    # S = cosh(w) I + c1 K, dS/du = c1 (u I + sz) + u c2 K, K = u sz + v sx, c1 = sinh(w) / w,
    # c2 = (w cosh w - sinh w) / w^3; c2 cancels, so below w = 0.1 both are series to w^8.
    if w < 0.1:
        w2 = w * w
        c1 = 1.0 + w2 / 6.0 * (1.0 + w2 / 20.0 * (1.0 + w2 / 42.0 * (1.0 + w2 / 72.0)))
        c2 = (1.0 + w2 / 10.0 * (1.0 + w2 / 28.0 * (1.0 + w2 / 54.0 * (1.0 + w2 / 88.0)))) / 3.0
    else:
        c1, c2 = sh / w, (w * ch - sh) / w ** 3
    rot, zeta = complex(math.cos(phi), math.sin(phi)), complex(u, v)
    rc1 = rot * c1
    al, be = rot * ch, rc1 * zeta
    # The pairs dA_i = (da_i, db_i) for the chart coordinates phi, u, v, lin = a A + b I,
    # Sigma and dSig_i = (ds_i, dt_i); a conjugate of a real entry is left out.
    da0, db0, da1, db1 = 1j * al, 1j * be, rc1 * u, rot * (c1 + c2 * u * zeta)
    da2, db2 = rc1 * v, rot * (1j * c1 + c2 * v * zeta)
    da0c, db0c, da1c, db1c, da2c, db2c = (da0.conjugate(), db0.conjugate(), da1.conjugate(),
                                          db1.conjugate(), da2.conjugate(), db2.conjugate())
    lin0, lin1 = a * al + b, a * be
    lin0c, lin1c = lin0.conjugate(), lin1.conjugate()
    sig0, sig1 = _sigma((al, be), resp)
    ds0, dt0 = 2.0 * (lin0c * da0 + lin1c * db0).real, 2.0 * (lin1 * da0 + lin0 * db0)
    ds1, dt1 = 2.0 * (lin0c * da1 + lin1c * db1).real, 2.0 * (lin1 * da1 + lin0 * db1)
    ds2, dt2 = 2.0 * (lin0c * da2 + lin1c * db2).real, 2.0 * (lin1 * da2 + lin0 * db2)
    dt0c, dt1c, dt2c = dt0.conjugate(), dt1.conjugate(), dt2.conjugate()
    mu0, mu1, shift = through * al + resp.direct, through * be, g_d * complex(c, s)
    tt, tg, gg = through * through, through * g_d, g_d * g_d
    deviance = scale = score_d = g0 = g1 = 0.0  # g = (g0, g1): the gradient pair
    i00 = i01 = i02 = i03 = i04 = i11 = i12 = i13 = i14 = i22 = i23 = i24 = i33 = i34 = i44 = 0.0
    for p, added, (n_all, n_mean, m1, (m20, m21), (pool0, pool1)), sets in blocks:
        if p is None:  # C = Sigma + added I, W = C^-1
            k, c0 = 2, sig0 + added
            det = c0 * c0 - (sig1 * sig1.conjugate()).real
        else:  # C = p^T Sigma p + added, W = p p^T / C
            k, p_conj = 1, p.conjugate()
            det = c0 = sig0 + (sig1 * p_conj * p_conj).real + added
        if not (0.0 < det < math.inf and c0 > 0.0):
            return math.inf, None, None, 0.0
        w0, w1 = (c0 / det, -sig1 / det) if p is None else (0.5 / det, 0.5 * p * p / det)
        w1c = w1.conjugate()
        e_conj, e_plain, drift = 0.0, 0.0, 0.0  # pool = (pool0, pool1) from the scatter
        for n, m, m_conj, mean, (f0, f1), det_s in sets:
            ratio, log_ratio = 2.0 * (w0 * f0 + w1c * f1).real, math.log(det_s / det)
            if mean is not None:
                delta = mean - mu0 * m - mu1 * m_conj - shift
                if p is not None:  # the measured quadrature alone, for precision
                    delta = p * (p_conj * delta).real
                weighted, square = n * delta, (delta * delta.conjugate()).real
                ratio += w0 * square + (w1c * delta * delta).real
                e_conj, e_plain, drift = (e_conj + weighted * m_conj, e_plain + weighted * m,
                                          drift + weighted)
                pool0, pool1 = pool0 + 0.5 * n * square, pool1 + 0.5 * weighted * delta
            deviance += n * (ratio - k - log_ratio)
            scale += n * (abs(ratio) + k + abs(log_ratio))
        # s(A_i) = <dA_i, grad>: 1/2 tr(dSig_i T) = <dA_i, T (a A + b I)>, T = W R_pool W - N W.
        t0, t1 = w0 * pool0 + w1 * pool1.conjugate(), w0 * pool1 + w1 * pool0  # W R_pool
        t0, t1 = t0 * w0 + t1 * w1c - n_all * w0, t0 * w1 + t1 * w0 - n_all * w1  # T
        h0, h1 = 0.5 * e_conj, 0.5 * e_plain
        g0 = g0 + through * (w0 * h0 + w1 * h1.conjugate()) + (t0 * lin0 + t1 * lin1c)
        g1 = g1 + through * (w0 * h1 + w1 * h0.conjugate()) + (t0 * lin1 + t1 * lin0c)
        score_d += g_d * (w0 * drift + w1 * drift.conjugate())
        # W dA_i = (wa_i, wb_i), dA_i M2 = (ma_i, mb_i) and G_i = W dSig_i = (ws_i, wt_i):
        # I(A_i, A_j) += through^2 <W dA_i, dA_j M2> + N/2 <G_i^T, G_j>, <G_i^T, G_j> = tr(G_i G_j).
        wa0, wb0 = w0 * da0 + w1 * db0c, w0 * db0 + w1 * da0c
        wa1, wb1 = w0 * da1 + w1 * db1c, w0 * db1 + w1 * da1c
        wa2, wb2 = w0 * da2 + w1 * db2c, w0 * db2 + w1 * da2c
        ma0, mb0 = da0 * m20 + db0 * m21.conjugate(), da0 * m21 + db0 * m20
        ma1, mb1 = da1 * m20 + db1 * m21.conjugate(), da1 * m21 + db1 * m20
        ma2, mb2 = da2 * m20 + db2 * m21.conjugate(), da2 * m21 + db2 * m20
        ws0, wt0 = w0 * ds0 + w1 * dt0c, w0 * dt0 + w1 * ds0
        ws1, wt1 = w0 * ds1 + w1 * dt1c, w0 * dt1 + w1 * ds1
        ws2, wt2 = w0 * ds2 + w1 * dt2c, w0 * dt2 + w1 * ds2
        wa0c, wb0c, wa1c, wb1c, wa2c, wb2c = (
            wa0.conjugate(), wb0.conjugate(), wa1.conjugate(), wb1.conjugate(),
            wa2.conjugate(), wb2.conjugate())
        wt0c, wt1c, wt2c = wt0.conjugate(), wt1.conjugate(), wt2.conjugate()
        i00 += tt * (2.0 * (wa0c * ma0 + wb0c * mb0).real) + n_all * (ws0 * ws0 + wt0c * wt0).real
        i01 += tt * (2.0 * (wa0c * ma1 + wb0c * mb1).real) + n_all * (ws0 * ws1 + wt0c * wt1).real
        i02 += tt * (2.0 * (wa0c * ma2 + wb0c * mb2).real) + n_all * (ws0 * ws2 + wt0c * wt2).real
        i11 += tt * (2.0 * (wa1c * ma1 + wb1c * mb1).real) + n_all * (ws1 * ws1 + wt1c * wt1).real
        i12 += tt * (2.0 * (wa1c * ma2 + wb1c * mb2).real) + n_all * (ws1 * ws2 + wt1c * wt2).real
        i22 += tt * (2.0 * (wa2c * ma2 + wb2c * mb2).real) + n_all * (ws2 * ws2 + wt2c * wt2).real
        # I(A_i, d) = through g_d W dA_i M1.
        m1c = m1.conjugate()
        mixed = tg * (wa0 * m1 + wb0 * m1c)
        i03, i04 = i03 + mixed.real, i04 + mixed.imag
        mixed = tg * (wa1 * m1 + wb1 * m1c)
        i13, i14 = i13 + mixed.real, i14 + mixed.imag
        mixed = tg * (wa2 * m1 + wb2 * m1c)
        i23, i24 = i23 + mixed.real, i24 + mixed.imag
        dd = gg * n_mean  # g_d^2 N_h W as a real matrix
        i33, i34 = i33 + dd * (w0 + w1.real), i34 + dd * w1.imag
        i44 += dd * (w0 - w1.real)
    score = [2.0 * (da0c * g0 + db0c * g1).real, 2.0 * (da1c * g0 + db1c * g1).real,
             2.0 * (da2c * g0 + db2c * g1).real, score_d.real, score_d.imag]
    info = [[i00, i01, i02, i03, i04], [i01, i11, i12, i13, i14], [i02, i12, i22, i23, i24],
            [i03, i13, i23, i33, i34], [i04, i14, i24, i34, i44]]
    return deviance, score, info, _DEVIANCE_ROUNDING * scale


def _pivot_root(pivot):
    """The root of a Cholesky pivot of _newton_step, which must be finite and
    positive."""
    if not 0.0 < pivot < math.inf:
        raise EstimationError("the information matrix is not positive definite")
    return math.sqrt(pivot)


def _newton_step(info, score):
    """The scoring step F^-1 s and the Newton decrement s^T F^-1 s for the
    information F and score s of _joint_fit (five rows, five floats), by
    the Cholesky factor F = L L^T written out on Python floats: forward
    substitution gives y = L^-1 s, whose square |y|^2 is the decrement, and
    back substitution the step L^-T y.  Only the lower triangle of F is
    read."""
    (f00, _, _, _, _), (f10, f11, _, _, _), (f20, f21, f22, _, _), (f30, f31, f32, f33, _), (
        f40, f41, f42, f43, f44) = info
    s0, s1, s2, s3, s4 = score
    l00 = _pivot_root(f00)
    l10, l20, l30, l40 = f10 / l00, f20 / l00, f30 / l00, f40 / l00
    l11 = _pivot_root(f11 - l10 * l10)
    l21, l31, l41 = (f21 - l20 * l10) / l11, (f31 - l30 * l10) / l11, (f41 - l40 * l10) / l11
    l22 = _pivot_root(f22 - l20 * l20 - l21 * l21)
    l32, l42 = (f32 - l30 * l20 - l31 * l21) / l22, (f42 - l40 * l20 - l41 * l21) / l22
    l33 = _pivot_root(f33 - l30 * l30 - l31 * l31 - l32 * l32)
    l43 = (f43 - l40 * l30 - l41 * l31 - l42 * l32) / l33
    l44 = _pivot_root(f44 - l40 * l40 - l41 * l41 - l42 * l42 - l43 * l43)
    y0 = s0 / l00
    y1 = (s1 - l10 * y0) / l11
    y2 = (s2 - l20 * y0 - l21 * y1) / l22
    y3 = (s3 - l30 * y0 - l31 * y1 - l32 * y2) / l33
    y4 = (s4 - l40 * y0 - l41 * y1 - l42 * y2 - l43 * y3) / l44
    x4 = y4 / l44
    x3 = (y3 - l43 * x4) / l33
    x2 = (y2 - l32 * x3 - l42 * x4) / l22
    x1 = (y1 - l21 * x2 - l31 * x3 - l41 * x4) / l11
    x0 = (y0 - l10 * x1 - l20 * x2 - l30 * x3 - l40 * x4) / l00
    return [x0, x1, x2, x3, x4], y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3 + y4 * y4


def est_combined(single_moments: MomentEstimate, probe_moments, setup: SetupConfig,
                 noise: NoiseParams = IDEAL_NOISE) -> EstimateReport:
    """Joint maximum-likelihood estimate from the single read-out and the
    three probes, the efficient estimator of the general process: Fisher
    scoring in the chart x (see chart), regular at w = 0 and d = 0, from
    method (ii), which is consistent and has no twins (the probe means alone
    identify the process, so the information is positive definite).  The
    four data sets share Sigma(A): each evaluation is one closed-form
    _joint_fit call on the pooled sums of their blocks (see _blocks), whose
    information is fisher_matrix's.  Steps are halved until the deviance
    does not rise by more than the rounding bound of the two deviances
    (_DEVIANCE_ROUNDING).  Each step F^-1 s and its Newton decrement
    s^T F^-1 s = |L^-1 s|^2 come from the closed-form Cholesky factor F =
    L L^T of the information (_newton_step); scoring stops at a decrement
    below _DECREMENT_TOL and fails with EstimationError after
    _MAX_SCORING_STEPS steps or _MAX_HALVINGS halvings of one, on a start
    whose model covariance is not positive definite, or on an information
    that is not ("the information matrix is not positive definite").  The
    deviance D against the saturated per-set Gaussians is chi-square with
    dof = statistics - 5 under the model; 'model_inconsistent' flags
    (D - dof) / sqrt(2 dof) > _INCONSISTENT_SIGMA.  Fails as
    est_general_mean does when the probes cannot start it.
    """
    return _report("combined", setup, noise, single_moments, probe_moments)


def prepare_combined(setup: SetupConfig, noise: NoiseParams = IDEAL_NOISE):
    """est_combined for one setup and channel, failing as its start does: each
    realization starts from mean_method's values of its probe means
    (_general_mean) and scores on Python floats, _joint_fit for the
    deviance, score and information and _newton_step for the step and the
    decrement."""
    start = _general_mean(setup, noise)
    resp = response(setup, noise)
    m_in = [cmath.rect(setup.r_amp, p) for p in (setup.probe_phase, *PROBE_PHASES)]

    def values(data: list, row: int, diagnostics: dict | None = None) -> tuple:
        _, m_a, m_b, m_c = data
        x = _chart_point(*start(m_a.z[row], m_b.z[row], m_c.z[row]))
        blocks = _blocks(data, row, m_in)
        deviance, score, info, rounding = _joint_fit(x, blocks, resp)
        if score is None:
            raise EstimationError("the start point's model covariance is not positive definite")
        for steps in range(_MAX_SCORING_STEPS + 1):
            step, decrement = _newton_step(info, score)
            if decrement < _DECREMENT_TOL:
                break
            if steps == _MAX_SCORING_STEPS:
                raise EstimationError(
                    f"Fisher scoring did not converge within {_MAX_SCORING_STEPS} steps")
            for _ in range(_MAX_HALVINGS):
                point = [t + d for t, d in zip(x, step)]
                trial = _joint_fit(point, blocks, resp)
                if trial[0] <= deviance + rounding + trial[3]:  # no rise beyond rounding
                    break
                step = [0.5 * d for d in step]
            else:
                raise EstimationError("no step along the scoring direction lowers the deviance")
            x, (deviance, score, info, rounding) = point, trial
        phi, u, v, c, s = x
        w = math.hypot(u, v)
        undefined = w < AXIS_UNDEFINED_W
        if diagnostics is not None:
            dof = -5  # per set 2 k - 1 scatter entries and k mean components, k = 2 for P = I
            for p, _, _, sets in blocks:
                k = 2 if p is None else 1
                for data_set in sets:
                    dof += k * (2 + (data_set[3] is not None)) - 1
            sigma = (deviance - dof) / math.sqrt(2.0 * dof)
            diagnostics.update(deviance=deviance, dof=dof, deviance_sigma=sigma,
                               scoring_steps=steps, model_inconsistent=sigma > _INCONSISTENT_SIGMA,
                               axis_undefined=undefined)
        return (fold_angle(phi), w, 0.0 if undefined else fold_axis(0.5 * math.atan2(v, u)),
                math.hypot(c, s), fold_angle(math.atan2(s, c)))

    return lambda single, probes, diagnostics=None: _per_row(
        functools.partial(values, [single, *probes]), diagnostics, range(len(single.z)))


# ---------------------------------------------------------------------------
# The estimators of a Monte-Carlo run

#: What an estimator reads of a data set, in increasing order: nothing, the
#: means, or the means and the conditioned scatters.
NOTHING, MEANS, SCATTERS = 0, 1, 2


class Estimator(NamedTuple):
    params: tuple          # the parameters of its entries, w in place of q
    prepare: Callable      # its prepared estimate of a run's setup, assumed channel and scheme
    single: int            # what it reads of the single read-out
    probes: int = NOTHING  # and of the three probes


_PROCESS = ("phi", "q", "alpha", "d", "beta")

#: Every estimator by name: what it reports, how a run prepares it from setup s,
#: assumed channel n and scheme, and what it reads.  Each prepare calls its
#: prepare_<name> by its name here, so that a rebound name is the one called.
ESTIMATORS = {
    "displacement": Estimator(("d", "beta"), lambda s, n, _: prepare_displacement(s, n), MEANS),
    "phase_var": Estimator(("phi",), lambda s, n, _: prepare_phase_var(s, n), SCATTERS),
    "phase_mean": Estimator(("phi",), lambda s, n, _: prepare_phase_mean(s), MEANS),
    "phase_ml": Estimator(("phi",), lambda s, n, _: prepare_phase_ml(s, n), SCATTERS),
    "cov_method": Estimator(_PROCESS, lambda s, n, scheme: prepare_general_cov(
        s, n, scheme.has_full_cov), SCATTERS),
    "mean_method": Estimator(_PROCESS, lambda s, n, _: prepare_general_mean(s, n), NOTHING, MEANS),
    "combined": Estimator(_PROCESS, lambda s, n, _: prepare_combined(s, n), SCATTERS, SCATTERS),
}

#: Parameters reported by each estimator.
ESTIMATOR_PARAMS = {name: estimator.params for name, estimator in ESTIMATORS.items()}

#: The variance- and mean-based phase estimators, whose MSEs harness.find_r_crit crosses.
PHASE_CROSSING = ("phase_var", "phase_mean")
