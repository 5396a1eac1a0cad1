"""Parameter estimators: displacement-only, phase-only, the two general-process
methods (covariance- and mean-based) and their joint maximum likelihood, with
naive and calibrated variants selected through the assumed NoiseParams.

prepare_<name> reads the response and the probe inputs of one setup and
channel, raises the estimator's data-independent failures, and returns the
estimate as a function of the moments; est_<name> applies it at once, a
Monte-Carlo run to every realization.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .gaussian_core import ProcessParams, fold_angle, fold_axis, polar_pair
from .interferometer import SetupConfig, _process_pair, _sigma, response
from .measurement import InsufficientDataError, MomentEstimate, Scheme
from .noise import IDEAL_NOISE, NoiseParams

__all__ = [
    "NoiseParams",
    "IDEAL_NOISE",
    "EstimateReport",
    "UnidentifiableError",
    "EstimationError",
    "FitRejectedError",
    "est_displacement",
    "est_phase_var",
    "est_phase_mean",
    "est_phase_ml",
    "est_general_cov",
    "est_general_mean",
    "est_combined",
    "PROBE_PHASES",
]


class UnidentifiableError(ValueError):
    """The requested parameter carries no signal in this configuration."""


class EstimationError(RuntimeError):
    """An estimator failed to converge or produce a usable value."""


class FitRejectedError(EstimationError):
    """Model-vs-data residual too large: likely model mismatch."""


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


# ---------------------------------------------------------------------------
# Displacement-only estimation


def est_displacement(moments: MomentEstimate, setup: SetupConfig,
                     noise: NoiseParams = IDEAL_NOISE) -> tuple[float, float]:
    """Invert the measured mean for (d, beta), assuming a displacement-only process.

    The baseline is the model mean with the process switched off (A = I); the
    gain is sqrt(t2 t_c) for every topology.
    """
    return prepare_displacement(setup, noise)(moments)


def prepare_displacement(setup: SetupConfig, noise: NoiseParams = IDEAL_NOISE):
    """est_displacement for one setup and channel; UnidentifiableError when t2 = 0."""
    resp = response(setup, noise)
    if resp.g_d == 0.0:
        raise UnidentifiableError("t2 = 0: displacement does not reach the detector")
    baseline = (resp.through + resp.direct) * setup.light_mean  # mean at A = I, d = 0

    def estimate(moments: MomentEstimate) -> tuple[float, float]:
        d_vec = (moments.z - baseline) / resp.g_d
        return abs(d_vec), cmath.phase(d_vec)

    return estimate


# ---------------------------------------------------------------------------
# Phase-only estimation


def est_phase_var(moments: MomentEstimate, setup: SetupConfig, diagnostics: dict | None = None,
                  *, noise: NoiseParams = IDEAL_NOISE) -> float:
    """Variance-based phase estimator: arccos of the centered mean variance.

    Under A = R(phi) and the channel noise the response covariance is (a +
    e + 2 b cos(phi)) I, so the phase signal is 2 b, which vanishes wherever
    the response has no linear term: the blocked beam, the simplistic
    topology, cold matter (V = 1) and t1 or t2 in {0, 1}.  The arccos
    argument is clamped to [-1, 1] (clamp events are counted in the
    diagnostics dict when given); the sign is resolved through the mean's
    p-component when the probe is bright, otherwise the magnitude is returned.
    """
    return prepare_phase_var(setup, noise)(moments, diagnostics)


def prepare_phase_var(setup: SetupConfig, noise: NoiseParams = IDEAL_NOISE):
    """est_phase_var for one setup and channel; UnidentifiableError when b = 0."""
    resp = response(setup, noise)
    if resp.b == 0.0:
        raise UnidentifiableError("b = 0: the output variance carries no phase signal")
    centre, signal = resp.a + resp.e, 2.0 * resp.b
    frame = cmath.rect(1.0, -setup.probe_phase) if setup.r_amp > 0.0 else None

    def estimate(moments: MomentEstimate, diagnostics: dict | None = None) -> float:
        arg = (moments.c0 - centre) / signal
        if abs(arg) > 1.0:
            if diagnostics is not None:
                diagnostics["clamped"] = diagnostics.get("clamped", 0) + 1
            arg = max(-1.0, min(1.0, arg))
        phi = math.acos(arg)
        if frame is not None and (moments.z * frame).imag < 0.0:
            phi = -phi
        return fold_angle(phi)

    return estimate


def est_phase_mean(moments: MomentEstimate, setup: SetupConfig) -> float:
    """Mean-based phase estimator: two-argument arctangent of the displaced
    mean, the same under any channel, which scales through R(phi) m_in alone."""
    return prepare_phase_mean(setup)(moments)


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

    def estimate(moments: MomentEstimate) -> float:
        turned = moments.z * frame  # probe phase -> 0
        return math.atan2(turned.imag, turned.real - offset)

    return estimate


def _phase_loglik(phi, resp, blocks):
    """Log-likelihood of the data sets in blocks (see _blocks) under a pure
    phase shift A = (e^{i phi}, 0), with its score and information (the phi
    entries of _joint_fit), for phi an array (one pass over a grid) or a
    float (plain Python arithmetic, the same operations): mean mu = (through
    e^{i phi} + direct) m, mu' = i through e^{i phi} m, covariance v I, v = a
    + e + 2 b cos(phi) plus the block's added variance.  A set of n records
    of k components, delta and mu'_P the parts of mean - mu (0 without a
    mean) and mu' it measures, spread = tr S + |delta|^2 = 2 c0 + |delta|^2,
    adds n [<delta, mu'_P> / v + v' (spread / v - k) / (2 v)] to the score
    and n [|mu'_P|^2 / v + k (v' / v)^2 / 2] to the information."""
    if isinstance(phi, float):
        turn, log = complex(math.cos(phi), math.sin(phi)), math.log
    else:
        turn, log = np.exp(1j * phi), np.log
    var, d_var = resp.a + resp.e + 2.0 * resp.b * turn.real, -2.0 * resp.b * turn.imag
    ll = score = info = 0.0
    for p, added, (n_all, *_, scatter), sets in blocks:
        k, v = (2 if p is None else 1), var + added
        spread, drift, pull = 2.0 * scatter[0], 0.0, 0.0  # n-weighted sums over the sets
        for n, m, _, mean, _, _ in sets:
            if mean is None:
                continue
            moved = resp.through * m * turn  # through R(phi) m
            delta, d_mu = mean - resp.direct * m - moved, 1j * moved
            if p is not None:  # the measured quadrature alone
                delta, d_mu = (p.conjugate() * delta).real, (p.conjugate() * d_mu).real
            spread = spread + n * (delta * delta.conjugate()).real
            drift, pull = drift + n * (delta.conjugate() * d_mu).real, pull + n * abs(d_mu) ** 2
        ll = ll - 0.5 * (n_all * k * log(v) + spread / v)
        score = score + (drift + 0.5 * d_var * (spread / v - n_all * k)) / v
        info = info + (pull + 0.5 * n_all * k * d_var * d_var / v) / v
    return ll, score, info


#: Scan of est_phase_ml: 64 phases over (-pi, pi], their e^{i phi}, and the
#: grid as Python floats with its step; no setup enters them.
_PHASE_GRID = np.linspace(-math.pi, math.pi, 65)[1:]
_PHASE_TURN = np.exp(1j * _PHASE_GRID)
_GRID = _PHASE_GRID.tolist()
_GRID_STEP = _GRID[1] - _GRID[0]


def _phase_scan(resp, m):
    """_phase_loglik(_PHASE_GRID, resp, blocks)[0], bit for bit, as a
    function of the blocks of data probed by m alone: v and log v for
    either added variance (0, and 1 for heterodyne) and the moved mean
    through e^{i phi} m are formed once, and each call subtracts the moved
    mean from the set's mean - direct m and projects the difference after,
    in the grid pass's order."""
    var = resp.a + resp.e + 2.0 * resp.b * _PHASE_TURN.real
    laws = {added: (var + added, np.log(var + added)) for added in (0.0, 1.0)}
    offset, moved = resp.direct * m, resp.through * m * _PHASE_TURN

    def loglik(blocks):
        ll = 0.0
        for p, added, (n_all, *_, scatter), sets in blocks:
            k, (v, log_v) = (2 if p is None else 1), laws[added]
            spread = 2.0 * scatter[0]
            for n, _, _, mean, _, _ in sets:
                if mean is None:
                    continue
                delta = mean - offset - moved
                if p is not None:
                    delta = (p.conjugate() * delta).real
                spread = spread + n * (delta * delta.conjugate()).real
            ll = ll - 0.5 * (n_all * k * log_v + spread / v)
        return ll

    return loglik


#: Cap on the polishing steps of est_phase_ml; bisection alone meets it.
_MAX_PHASE_STEPS = 60

#: Phase step (rad) below which est_phase_ml's polish has converged.
_PHASE_TOL = 1e-12


def est_phase_ml(moments: MomentEstimate, setup: SetupConfig,
                 noise: NoiseParams = IDEAL_NOISE) -> float:
    """Maximum-likelihood phase estimate over (-pi, pi]: the Gaussian
    likelihood of est_combined's blocks (see _blocks), restricted to a pure
    phase shift (mean and variance both phase-dependent).

    A 64-point scan of its closed form (_phase_loglik's log-likelihood, bit
    for bit, from the grid terms no data enters, which prepare_phase_ml
    forms once per run: see _phase_scan) brackets the maximum within a grid
    step either side, and the polish solves the stationarity
    condition in that bracket, on the closed-form phi score and information
    of the same _phase_loglik, not on _joint_fit: a Fisher-scoring step
    first, then secant steps, which follow the observed curvature where the
    expected one misleads (a flat likelihood, r ~ 1).  A step that would
    leave the bracket, or a score that does not fall, bisects it instead,
    and the sign of each score narrows it.  So the polish converges to
    rounding of the score where comparisons of likelihood values cannot
    resolve the maximum.  When no probe light passes the process (a dark
    probe) only the variance carries the phase, the likelihood is even in
    phi, and the non-negative one of the two mirror maxima is returned, as
    est_phase_var returns |phi|.  Raises UnidentifiableError when
    neither moment depends on the phase: no probe light passes the process
    (simplistic topology, a dark probe, t1 = 0) and the covariance has no
    linear term (b = 0).
    """
    return prepare_phase_ml(setup, noise)(moments)


def prepare_phase_ml(setup: SetupConfig, noise: NoiseParams = IDEAL_NOISE):
    """est_phase_ml for one setup and channel; UnidentifiableError when through r = b = 0."""
    resp = response(setup, noise)
    dark = resp.through * setup.r_amp == 0.0  # the likelihood is even in phi
    if dark and resp.b == 0.0:
        raise UnidentifiableError(
            "neither the output mean nor its variance depends on the phase")
    m_in = [setup.light_mean]
    scan = _phase_scan(resp, m_in[0])

    def estimate(moments: MomentEstimate) -> float:
        blocks = _blocks([moments], m_in)
        phi = _GRID[int(np.argmax(scan(blocks)))]
        lo, hi, last = phi - _GRID_STEP, phi + _GRID_STEP, None
        for _ in range(_MAX_PHASE_STEPS):
            _, s, info = _phase_loglik(phi, resp, blocks)
            lo, hi = (phi, hi) if s > 0.0 else (lo, phi)
            # Curvature of the log-likelihood: minus the information, then secants.
            slope = -info if last is None else (s - last[1]) / (phi - last[0])
            trial = phi - s / slope if slope < 0.0 else 0.5 * (lo + hi)
            if abs(trial - phi) < _PHASE_TOL:
                return abs(fold_angle(trial)) if dark else fold_angle(trial)
            if not lo < trial < hi:
                trial = 0.5 * (lo + hi)
            last, phi = (phi, s), trial
        raise EstimationError(f"phase polish did not converge within {_MAX_PHASE_STEPS} steps")

    return estimate


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


def _cov_preimages(cov, resp):
    """All process matrices A (pairs, see _dot), squeezing at most W_MAX
    (|m1| <= sinh W_MAX), with Sigma(A) = cov = (c0, c1).  Needs lam = -b/a
    away from 0 (est_general_cov rejects |b/a| < 1e-12): without a linear
    term the rotation part is unidentifiable.

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
    eps = np.finfo(float).eps
    lam, shift = -resp.b / resp.a, resp.e - resp.b * resp.b / resp.a
    (c0, c1), a = cov, resp.a
    q0, q1 = (c0 - shift) / a, c1 / a
    scale = (abs(c0) + abs(c1) + abs(shift)) / abs(a)
    det_q = q0 * q0 - (q1 * q1.conjugate()).real
    if abs(det_q) <= 16.0 * eps * scale * scale:
        det_q = 0.0
    if det_q < 0.0 or q0 <= 0.0:
        return []
    s = math.sqrt(det_q)
    tr_p = math.sqrt(2.0 * (q0 + s))
    p0, p1 = 0.5 * tr_p, q1 / tr_p
    out = []
    # Proper branch: det(P R(th) + lam I) = 1 fixes cos(th).
    c = (1.0 - lam * lam - s) / (lam * tr_p)
    err_s = 8.0 * eps * scale * scale / max(s, 2.0 * math.sqrt(eps) * scale)
    if abs(abs(c) - 1.0) <= ((err_s + 3.0 * eps * (1.0 + lam * lam + s)) / abs(lam * tr_p)
                             + (3.0 * eps * scale + err_s) / (tr_p * tr_p) + 4.0 * eps):
        c = math.copysign(1.0, c)
    if abs(c) <= 1.0:
        th = math.acos(c)
        for turn in (cmath.rect(1.0, th), cmath.rect(1.0, -th)):
            out.append((p0 * turn + lam, p1 * turn.conjugate()))
    # Improper branch: reflections with tr(P F(psi)) = 2 Re(p1 e^{-i psi}) on target.
    target = (1.0 - lam * lam + s) / lam
    amp = 2.0 * abs(p1)
    if amp >= abs(target) > 0.0 or (target == 0.0 and amp > 0.0):
        delta = math.acos(max(-1.0, min(1.0, target / amp)))
        for psi in (cmath.phase(p1) + delta, cmath.phase(p1) - delta):
            turn = cmath.rect(1.0, psi)
            out.append((p1 * turn.conjugate() + lam, p0 * turn))
    return [m for m in out if abs(m[1]) <= math.sinh(W_MAX)]


def _symmetric_face(mu, lam):
    """Points x to try for the symmetric process matrices V diag(x, 1/x) V^T.

    With V the eigenvectors of P P^T and mu its eigenvalues, such a matrix
    lies at squared distance f(x) = ((x - lam)^2 - mu[0])^2 + ((1/x - lam)^2
    - mu[1])^2 from P P^T, and x < 0 gives phi = pi.  The minimum of f over
    e^-W_MAX <= |x| <= e^W_MAX lies among the real parts of the roots of
    x^5 f'(x) / 4 (a degree-8 polynomial), the ends of the range and the
    points x = lam, 1/lam where the face meets the rank-one face.  Returns
    those in range; x and 1/x give the two pairings of eigenvalues.
    """
    poly = np.polynomial.polynomial
    xl = [-lam, 1.0]  # x - lam
    ol = [1.0, -lam]  # 1 - lam x
    first = poly.polymul([0.0] * 5 + [1.0],
                         poly.polymul(xl, poly.polysub(poly.polymul(xl, xl), [mu[0]])))
    second = poly.polymul(ol, poly.polysub(poly.polymul(ol, ol), [0.0, 0.0, mu[1]]))
    lo, hi = math.exp(-W_MAX), math.exp(W_MAX)
    points = [float(x) for x in poly.polyroots(poly.polysub(first, second)).real]
    points += [lam, 1.0 / lam, lo, hi, -lo, -hi]
    return [x for x in points if lo <= abs(x) <= hi]


def _fit_cov(cov, resp):
    """Process matrices (pairs, see _dot), squeezing at most W_MAX, whose
    model covariance is Frobenius-nearest to cov: every preimage of that
    covariance (see _cov_preimages), the fit first; returns (matrices,
    off_image).

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
    (see _symmetric_face), on Q's axis.  A boundary at w = W_MAX is not
    searched: data whose fit would sit there are far off the model.
    """
    exact = _cov_preimages(cov, resp)
    if exact:
        return exact, False
    lam, shift = -resp.b / resp.a, resp.e - resp.b * resp.b / resp.a
    q0, q1 = (cov[0] - shift) / resp.a, cov[1] / resp.a
    radius = abs(q1)
    axis = q1 / radius if radius > 0.0 else 1.0  # e^{2i theta} of the larger eigenvalue
    mu = (q0 - radius, q0 + radius)
    candidates = [(0.5 * (x + 1.0 / x), 0.5 * (1.0 / x - x) * axis)
                  for x in _symmetric_face(mu, lam)]
    if mu[1] > 0.0:
        half = 0.5 * resp.a * mu[1]
        candidates += _cov_preimages((half + shift, half * axis), resp)

    def distance(m):  # |S - Q|^2, which is |Sigma(A) - cov|^2 / a^2 without its cancellation
        m0 = m[0] - lam
        gap = ((m0 * m0.conjugate() + m[1] * m[1].conjugate()).real - q0, 2.0 * m0 * m[1] - q1)
        return _dot(gap, gap)

    best = min(candidates, key=distance)
    # The other preimages are those of the covariance that the fit reproduces.
    return [best, *_cov_preimages(_sigma(best, resp), resp)], True


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
    axis-aligned, then largest rotation), and the other preimages are listed
    as rivals in the diagnostics.  A covariance off the image fits to a
    point on its boundary, where the rivals include a twin with equal
    squeezing.

    Raises UnidentifiableError when the covariance response has no linear
    term (cold matter V = 1, the blocked beam, t2 = 0): the covariance then
    carries no rotation signal, and InsufficientDataError when the read-out
    lacks the full covariance.
    """
    return prepare_general_cov(setup, noise, moments.scheme.has_full_cov)(moments)


def prepare_general_cov(setup: SetupConfig, noise: NoiseParams, full_cov: bool):
    """est_general_cov for one setup and channel, on a read-out that pins
    Cov(x, p) when full_cov (else InsufficientDataError)."""
    if not full_cov:
        raise InsufficientDataError(
            "covariance-based estimation needs the full covariance "
            "(homodyne 3-angle split, heterodyne or joint read-out)")
    resp = response(setup, noise)
    if resp.a <= 0.0 or abs(resp.b / resp.a) < 1e-12:
        raise UnidentifiableError(
            "the output covariance has no term linear in the process matrix, "
            "so it carries no rotation signal")
    m_in = setup.light_mean

    def estimate(moments: MomentEstimate) -> EstimateReport:
        # Every process matrix consistent with the fitted covariance, once each;
        # the canonical representative is the pick.
        cov_emp = moments.c0, moments.c1
        mats, off_image = _fit_cov(cov_emp, resp)
        candidates, seen = [], []
        for m0, m1 in mats:
            tol = _SAME_PROCESS_TOL * max(1.0, abs(m0) + abs(m1))
            if any(abs(m0 - n0) + abs(m1 - n1) <= tol for n0, n1 in seen):
                continue
            phi, w, alpha = polar_pair(m0, m1)
            seen.append((m0, m1))
            candidates.append((fold_angle(phi), max(w, 0.0), fold_axis(alpha)))
        w_min = min(w for _, w, _ in candidates)
        short = [c for c in candidates if c[1] <= w_min + 1e-3]
        a_min = min(abs(al) for _, _, al in short)
        short = [c for c in short if abs(c[2]) <= a_min + 1e-3]
        pick = max(short, key=lambda c: c[0])
        rivals = [c for c in candidates if c is not pick]

        gap = [s - c for s, c in zip(_sigma(_process_pair(*pick), resp), cov_emp)]
        residual = math.sqrt(_dot(gap, gap))
        rel = residual / max(math.sqrt(_dot(cov_emp, cov_emp)), 1e-300)
        if rel > RESIDUAL_REL_TOL:
            raise FitRejectedError(
                f"covariance residual {rel:.3g} exceeds tolerance {RESIDUAL_REL_TOL}")
        diagnostics = {"residual": residual, "residual_rel": rel, "off_image": off_image,
                       "ambiguity_order": len(candidates)}
        if rivals:
            diagnostics["rival_fits"] = rivals
        phi, w, alpha = pick
        if w < AXIS_UNDEFINED_W:
            alpha, diagnostics["axis_undefined"] = 0.0, True
        m0, m1 = _process_pair(phi, w, alpha)
        d_vec = (moments.z - resp.through * (m0 * m_in + m1 * m_in.conjugate())
                 - resp.direct * m_in) / resp.g_d
        params = ProcessParams.folded(phi, w, alpha, abs(d_vec), cmath.phase(d_vec))
        return EstimateReport(params=params, method="cov_method", diagnostics=diagnostics)

    return estimate


def _probe_inversion(probe_moments, r):
    """Offset k and linear part M = (m0, m1) (see _dot) of the affine response
    mu = M m_in + k, read off the complex probe means at PROBE_PHASES of
    amplitude r: the opposite phases cancel M and give k and M 1 = m0 + m1,
    the quarter-turn probe gives M i = i (m0 - m1).  Returns (k, (m0, m1))."""
    m_a, m_b, m_c = (m.z for m in probe_moments)
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
    return prepare_general_mean(setup, noise)(probe_moments)


def prepare_general_mean(setup: SetupConfig, noise: NoiseParams = IDEAL_NOISE):
    """est_general_mean for one setup and channel; UnidentifiableError when r = 0 or through = 0."""
    r = setup.r_amp
    if r <= 0.0:
        raise UnidentifiableError("r = 0: mean-based estimation needs a bright probe")
    resp = response(setup, noise)
    if resp.through == 0.0:
        raise UnidentifiableError(
            "no probe light passes the process (simplistic topology, t1 = 0 or t2 = 0): "
            "the mean carries no signal of the linear part")

    def estimate(probe_moments) -> EstimateReport:
        k_hat, (m0, m1) = _probe_inversion(probe_moments, r)
        d_vec = k_hat / resp.g_d
        b0, b1 = (m0 - resp.direct) / resp.through, m1 / resp.through
        phi, w, alpha = polar_pair(b0, b1)
        diagnostics = {"det_b": (b0 * b0.conjugate() - b1 * b1.conjugate()).real, "w_raw": w}
        if w < AXIS_UNDEFINED_W:
            alpha = 0.0
            if abs(w) < AXIS_UNDEFINED_W:
                diagnostics["axis_undefined"] = True
        params = ProcessParams.folded(phi, w, alpha, abs(d_vec), cmath.phase(d_vec))
        return EstimateReport(params=params, method="mean_method", diagnostics=diagnostics)

    return estimate


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
    jac = np.eye(5)
    for i, r, angle, k in ((1, process.w, process.alpha, 2.0), (3, process.d, process.beta, 1.0)):
        c, s = math.cos(k * angle), math.sin(k * angle)
        jac[i:i + 2, i:i + 2] = [[c, -k * r * s], [s, k * r * c]]
    return np.array(_chart_point(process)), jac


def _chart_point(process: ProcessParams) -> list:
    """The chart point x of chart as a list of floats."""
    p, double = process, 2.0 * process.alpha
    return [p.phi, p.w * math.cos(double), p.w * math.sin(double),
            p.d * math.cos(p.beta), p.d * math.sin(p.beta)]


#: Unit vector of the homodyne records along (x + p) / sqrt 2, in the pair form.
_DIAGONAL = (1 + 1j) * math.sqrt(0.5)


def _blocks(data, m_in) -> list:
    """The Gaussian data sets behind the MomentEstimates in data, probed by
    the complex inputs m_in, in their pair form: n records of P z ~ N(P mu,
    P Sigma P^T + added), one set of paired records (P = I, heterodyne
    adds the vacuum unit back) or one per homodyne angle (P = p^T, p the
    angle's unit vector; homodyne3's pi/4 mean only if kept), in blocks of
    one P and added variance.  Per block: p (None for P = I), the added
    variance, the sums N = sum_j n_j, N_h = sum_j n_j h_j, M1 = sum_j n_j h_j
    m_j, M2 = sum_j n_j h_j m_j m_j^T and sum_j n_j P^T S_j P over its sets j
    (h_j has-mean, m_j the probe input), and per set (n, m, conj(m), P^T
    mean or None, P^T S P, det S)."""
    keys, groups = [], []  # (p, added) of each block and its sets, in order of first use
    for moments, m in zip(data, m_in):
        n = moments.n_effective
        z, c0, c1, scheme = moments.z, moments.c0, moments.c1, moments.scheme
        if scheme is Scheme.JOINT or scheme is Scheme.HETERODYNE:
            added = 1.0 if scheme is Scheme.HETERODYNE else 0.0
            f0 = c0 + added
            sets = [(n["mean_x"], None, added, z, (f0, c1), f0 * f0 - (c1 * c1.conjugate()).real)]
        else:  # the records along x, p and (x + p) / sqrt 2: size, p, mean, variance
            quads = [(n["mean_x"], 1 + 0j, z.real, c0 + c1.real),
                     (n["mean_p"], 1j, z.imag, c0 - c1.real)]
            if scheme is Scheme.HOMODYNE_SPLIT3:
                quads.append((n["cov_xp"], _DIAGONAL, moments.mean_diag, c0 + c1.imag))
            sets = [(n_j, p, 0.0, None if mean is None else p * mean,
                     (0.5 * var, 0.5 * var * p * p), var) for n_j, p, mean, var in quads]
        for n_j, p, added, mean, form, det_s in sets:
            if not det_s > 0.0:
                raise EstimationError("a data set's scatter is singular")
            key = (p, added)
            if key not in keys:
                keys.append(key)
                groups.append([])
            groups[keys.index(key)].append((float(n_j), m, m.conjugate(), mean, form, det_s))
    blocks = []
    for (p, added), sets in zip(keys, groups):
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
    (_DEVIANCE_ROUNDING); scoring stops at a Newton decrement s^T F^-1 s
    below _DECREMENT_TOL and fails with EstimationError after
    _MAX_SCORING_STEPS steps or _MAX_HALVINGS halvings of one, or on a start
    or information it cannot use.  The deviance D against the saturated
    per-set Gaussians is chi-square with dof = statistics - 5 under the
    model; 'model_inconsistent' flags (D - dof) / sqrt(2 dof) >
    _INCONSISTENT_SIGMA.  Fails as est_general_mean does when the probes
    cannot start it.
    """
    return prepare_combined(setup, noise)(single_moments, probe_moments)


def prepare_combined(setup: SetupConfig, noise: NoiseParams = IDEAL_NOISE):
    """est_combined for one setup and channel, failing as its start does: each
    estimate starts from prepare_general_mean's estimate."""
    start = prepare_general_mean(setup, noise)
    resp = response(setup, noise)
    m_in = [cmath.rect(setup.r_amp, p) for p in (setup.probe_phase, *PROBE_PHASES)]

    def estimate(single_moments: MomentEstimate, probe_moments) -> EstimateReport:
        x = _chart_point(start(probe_moments).params)
        blocks = _blocks([single_moments, *probe_moments], m_in)
        deviance, score, info, rounding = _joint_fit(x, blocks, resp)
        if score is None:
            raise EstimationError("the start point's model covariance is not positive definite")
        for steps in range(_MAX_SCORING_STEPS + 1):
            score = np.array(score)
            try:
                step = np.linalg.solve(np.array(info), score)
            except np.linalg.LinAlgError:
                raise EstimationError("the information matrix is singular") from None
            if score @ step < _DECREMENT_TOL:  # numpy's dot: a Python sum rounds differently
                break
            if steps == _MAX_SCORING_STEPS:
                raise EstimationError(
                    f"Fisher scoring did not converge within {_MAX_SCORING_STEPS} steps")
            step = step.tolist()
            for _ in range(_MAX_HALVINGS):
                point = [t + d for t, d in zip(x, step)]
                trial = _joint_fit(point, blocks, resp)
                if trial[0] <= deviance + rounding + trial[3]:  # no rise beyond rounding
                    break
                step = [0.5 * d for d in step]
            else:
                raise EstimationError("no step along the scoring direction lowers the deviance")
            x, (deviance, score, info, rounding) = point, trial
        # Per set k (k + 1) / 2 = 2 k - 1 scatter entries and k mean components, k = 2 for P = I.
        dof = -5
        for p, _, _, sets in blocks:
            k = 2 if p is None else 1
            for data_set in sets:
                dof += k * (2 + (data_set[3] is not None)) - 1
        sigma = (deviance - dof) / math.sqrt(2.0 * dof)
        phi, u, v, c, s = x
        w = math.hypot(u, v)
        undefined = w < AXIS_UNDEFINED_W
        params = ProcessParams.folded(phi=phi, w=w,
                                      alpha=0.0 if undefined else 0.5 * math.atan2(v, u),
                                      d=math.hypot(c, s), beta=math.atan2(s, c))
        return EstimateReport(params=params, method="combined", diagnostics={
            "deviance": deviance, "dof": dof, "deviance_sigma": sigma, "scoring_steps": steps,
            "model_inconsistent": sigma > _INCONSISTENT_SIGMA, "axis_undefined": undefined})

    return estimate
