"""Shared fixtures: the benchmark working point used throughout the paper-style
figures (interferometric coupling T=0.1, hot matter V=100, bright probe r=100)
and helpers to turn exact forward moments into MomentEstimate objects.
"""
import dataclasses
import math

import numpy as np
import pytest

from lmint import ProcessParams, SetupConfig, Topology, forward
from lmint.estimators import (PROBE_PHASES, W_MAX, est_combined, est_displacement,
                              est_general_cov, est_general_mean, est_phase_mean, est_phase_ml,
                              est_phase_var)
from lmint.gaussian_core import rotation
from lmint.interferometer import Response, response
from lmint.measurement import MomentEstimate, Scheme, _cholesky, _condition
from lmint.noise import IDEAL_NOISE

FULL_N_EFF = {"mean_x": 1, "mean_p": 1, "var_x": 1, "var_p": 1, "cov_xp": 1}

#: No channel (IDEAL_NOISE) as a test parameter, under the id "None".
NO_CHANNEL = pytest.param(IDEAL_NOISE, id="None")


@pytest.fixture
def bench_setup():
    return SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.1, t2=0.1,
                       v_thermal=100.0, r_amp=100.0)


@pytest.fixture
def bench_process():
    return ProcessParams.from_q(phi=0.7, q=2.0, alpha=-0.3, d=4.0, beta=0.5)


def exact_moments(state) -> MomentEstimate:
    """Wrap noise-free forward moments as a full-covariance estimate."""
    return MomentEstimate(mean=state.mean, cov=state.cov, n_effective=FULL_N_EFF)


def block_rows(block) -> list:
    """Each row of a MomentBlock as the MomentEstimate of its columns."""
    return [MomentEstimate(z, c0, c1, block.n_effective, block.scheme, mean_diag)
            for z, (c0, c1), mean_diag in zip(block.z, block.conditioned,
                                              block.mean_diag or [None] * len(block.z))]


def exact_probe_moments(setup, process, noise=IDEAL_NOISE):
    """Noise-free moments for the three-probe protocol."""
    out = []
    for phase in PROBE_PHASES:
        st = forward(dataclasses.replace(setup, probe_phase=phase), process, noise)
        out.append(exact_moments(st))
    return out


def reference_symmetric_face(mu, lam):
    """The points estimators._symmetric_face returns, with the face
    polynomial x^5 (x - lam) ((x - lam)^2 - mu[0]) - (1 - lam x) ((1 - lam
    x)^2 - mu[1] x^2) built by numpy.polynomial products and its roots from
    polyroots: the reference for the closed-form coefficients and the single
    eigenvalue call."""
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


def reference_draw(law_args, seed, word, m) -> list:
    """(z, c0, c1, mean_diag, n_effective, scheme) of each of the m draws of
    the law record_laws(*law_args) on the streams keyed (seed, word + v),
    formed as the draw is specified: a fresh Generator(Philox(key=[seed,
    word + v])) per variate kind v, the normals an (m, k) array from v = 0
    and gamma column i from v = i + 1, and every constant of the law (group
    sizes, roots, gamma shapes, the heterodyne vacuum unit) and the shot
    counts formed again per draw.  The reference for measurement's
    draw_variates and form_moments, which read them off the law."""
    z, (s_xx, s_xp, s_pp), scheme, n_samples = law_args

    def stream(v):
        return np.random.Generator(np.random.Philox(key=np.array([seed, word + v], np.uint64)))

    m_x, m_p = z.real, z.imag
    if scheme in (Scheme.HOMODYNE_SPLIT2, Scheme.HOMODYNE_SPLIT3):
        groups = 2 if scheme is Scheme.HOMODYNE_SPLIT2 else 3
        sizes = [n_samples // groups] * groups
        sizes[0] += n_samples - sizes[0] * groups
        laws = ((m_x, s_xx), (m_p, s_pp),
                ((m_x + m_p) / math.sqrt(2.0), 0.5 * (s_xx + s_pp) + s_xp))
        normals = stream(0).standard_normal((m, groups))
        gammas = [stream(v).standard_gamma(0.5 * (n - 1), size=m)
                  for v, n in enumerate(sizes, start=1)]
        out = []
        for k in range(m):
            stats = [(n, mu + math.sqrt(var / n) * float(normals[k, i]),
                      var * (2.0 * float(gammas[i][k])) / (n - 1))
                     for i, (n, (mu, var)) in enumerate(zip(sizes, laws))]
            (n_x, mean_x, var_x), (n_p, mean_p, var_p), *diagonal = stats
            n_eff = {"mean_x": n_x, "mean_p": n_p, "var_x": n_x, "var_p": n_p, "cov_xp": 0}
            cov_xp, mean_diag = 0.0, None
            if diagonal:
                ((n_d, mean_diag, var_d),) = diagonal
                cov_xp = var_d - 0.5 * (var_x + var_p)
                n_eff["cov_xp"] = n_d
            out.append((complex(mean_x, mean_p), *_condition(var_x, cov_xp, var_p), mean_diag,
                        n_eff, scheme))
        return out
    if scheme is Scheme.HETERODYNE:
        s_xx, s_pp = s_xx + 1.0, s_pp + 1.0
    n = n_samples
    l00, l10, l11 = _cholesky(((s_xx, s_xp), (s_xp, s_pp)))
    normals = stream(0).standard_normal((m, 3))
    gammas_1 = stream(1).standard_gamma(0.5 * (n - 1), size=m)
    gammas_2 = stream(2).standard_gamma(0.5 * (n - 2), size=m)
    out = []
    for k in range(m):
        a11 = math.sqrt(2.0 * float(gammas_1[k]))
        a21, z0, z1 = (float(x) for x in normals[k])
        a22 = math.sqrt(2.0 * float(gammas_2[k]))
        r11, r21, r22 = l00 * a11, l10 * a11 + l11 * a21, l11 * a22
        mean = complex(m_x + l00 * z0 / math.sqrt(n), m_p + (l10 * z0 + l11 * z1) / math.sqrt(n))
        c_xx, c_xp = r11 * r11 / (n - 1), r11 * r21 / (n - 1)
        c_pp = (r21 * r21 + r22 * r22) / (n - 1)
        if scheme is Scheme.HETERODYNE:
            c_xx, c_pp = c_xx - 1.0, c_pp - 1.0
        n_eff = dict.fromkeys(("mean_x", "mean_p", "var_x", "var_p", "cov_xp"), n)
        out.append((mean, *_condition(c_xx, c_xp, c_pp), None, n_eff, scheme))
    return out


def public_entry(name, setup, noise, single, probes, diagnostics=None) -> tuple:
    """The values of the public est_<name> on one realization's MomentEstimates
    (single read-out, probes), in ESTIMATOR_PARAMS order with a general
    method's w in place of q: the entry a Monte-Carlo run books for it.
    phase_var counts its clamps into diagnostics."""
    if name == "displacement":
        return est_displacement(single, setup, noise)
    if name == "phase_var":
        return (est_phase_var(single, setup, noise, diagnostics=diagnostics),)
    if name == "phase_mean":
        return (est_phase_mean(single, setup),)
    if name == "phase_ml":
        return (est_phase_ml(single, setup, noise),)
    if name == "cov_method":
        report = est_general_cov(single, setup, noise)
    elif name == "mean_method":
        report = est_general_mean(probes, setup, noise)
    else:
        report = est_combined(single, probes, setup, noise)
    p = report.params
    return p.phi, p.w, p.alpha, p.d, p.beta


#: Parameter order of fisher_matrix rows, as in the Monte-Carlo MSE cells.
FISHER_PARAMS = ("phi", "q", "alpha", "d", "beta")


def _forward_moments(setup, theta, noise):
    phi, q, alpha, d, beta = theta
    state = forward(setup, ProcessParams.from_q(phi=phi, q=q, alpha=alpha, d=d, beta=beta),
                    noise)
    return state.mean, state.cov


def fisher_matrix(setup, process, noise=IDEAL_NOISE, *, mean_only=False):
    """Per-sample 5x5 Fisher matrix of one joint read-out in (phi, q, alpha, d, beta).

    Gaussian identity (as in lmint.fisher):
    I_ij = dmu_i^T S^-1 dmu_j + 1/2 tr(S^-1 dS_i S^-1 dS_j),
    with central differences of the forward moments; mean_only keeps the
    first term.
    """
    step = 1e-5
    theta = np.array([process.phi, process.q, process.alpha, process.d, process.beta])
    _, cov = _forward_moments(setup, theta, noise)
    inv = np.linalg.inv(cov)
    dmu, dcov = [], []
    for i in range(len(theta)):
        h = np.zeros_like(theta)
        h[i] = step
        mu_p, cov_p = _forward_moments(setup, theta + h, noise)
        mu_m, cov_m = _forward_moments(setup, theta - h, noise)
        dmu.append((mu_p - mu_m) / (2.0 * step))
        dcov.append(inv @ (cov_p - cov_m) / (2.0 * step))
    info = np.array([[a @ inv @ b for b in dmu] for a in dmu])
    if not mean_only:
        info += 0.5 * np.array([[np.trace(a @ b) for b in dcov] for a in dcov])
    return info


def three_probe_bounds(setup, process, noise, n_samples):
    """Mean-only Cramer-Rao variances [F^-1]_ii of the three-probe protocol,
    keyed by parameter, with n_samples // 3 shots at each probe phase."""
    n_each = n_samples // len(PROBE_PHASES)
    info = sum(n_each * fisher_matrix(dataclasses.replace(setup, probe_phase=phase),
                                      process, noise, mean_only=True)
               for phase in PROBE_PHASES)
    return dict(zip(FISHER_PARAMS, np.diag(np.linalg.inv(info))))


# The model derivatives and the Gaussian information one data set at a
# time: the reference that the closed-form kernel estimators._joint_fit is
# checked against.

_J = np.array([[0.0, -1.0], [1.0, 0.0]])  # generator of rotations: R' = J R
_SIGMA_Z = np.diag([1.0, -1.0])
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


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


def response_mean(resp: Response, mat, d_vec, z_in) -> np.ndarray:
    """The matrix form of Response's mean, (through A + direct I) m_in + g_d
    d_vec, for A = mat, at the complex input z_in or an array of k of them
    (k x 2)."""
    m_in = np.stack([np.real(z_in), np.imag(z_in)], axis=-1)
    return m_in @ (resp.through * mat + resp.direct * np.eye(2)).T + resp.g_d * d_vec


def response_cov(resp: Response, mat) -> np.ndarray:
    """The matrix form of Response's covariance, a A A^T + b (A + A^T) + e I, for A = mat."""
    return resp.a * (mat @ mat.T) + resp.b * (mat + mat.T) + resp.e * np.eye(2)


def moment_derivatives(resp: Response, x, z_in):
    """Sigma and dSigma (5 x 2 x 2) of the measured mode along the chart x
    (see estimators.chart), with A = R(phi) S, and mu (k x 2) and dmu (k x 5 x 2) for
    each of the k complex probe inputs z_in, on which Sigma does not depend.

    dA/dphi = J A and dA/du, dA/dv = R(phi) dS/du, R(phi) dS/dv.  The mean
    moves with through dA m_in and with g_d along (c, s); the covariance
    moves with a (dA A^T + A dA^T) + b (dA + dA^T) and not with (c, s).
    """
    m_in = np.array([[z.real, z.imag] for z in z_in])
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
    return (response_mean(resp, mat, np.array([x[3], x[4]]), z_in), response_cov(resp, mat),
            d_mu, d_sig)


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


def mean_cov(moments: MomentEstimate) -> tuple:
    """The mean (x, p) and the covariance matrix of a MomentEstimate, as
    numpy arrays, from its pair form z, c0 and c1."""
    c0, c1 = moments.c0, moments.c1
    return (np.array([moments.z.real, moments.z.imag]),
            np.array([[c0 + c1.real, c1.imag], [c1.imag, c0 - c1.real]]))


def reference_data_sets(moments: MomentEstimate) -> list:
    """(n, projection P, added covariance, mean or None, scatter) of each
    Gaussian data set behind a MomentEstimate, as numpy arrays: n records of
    P z ~ N(P mu, P Sigma P^T + added).  Paired records are one set
    (heterodyne adds the vacuum unit back), a homodyne split one set per
    angle; homodyne3's pi/4 group counts with its mean when the estimate
    keeps it.  The reference layout for estimators._blocks, which holds the
    same sets in the pair form."""
    n, (mean, cov) = moments.n_effective, mean_cov(moments)
    if moments.scheme in (Scheme.JOINT, Scheme.HETERODYNE):
        added = np.eye(2) if moments.scheme is Scheme.HETERODYNE else np.zeros((2, 2))
        return [(n["mean_x"], np.eye(2), added, mean, cov + added)]
    zero = np.zeros((1, 1))
    out = [(n["mean_x"], np.array([[1.0, 0.0]]), zero, mean[:1], cov[:1, :1]),
           (n["mean_p"], np.array([[0.0, 1.0]]), zero, mean[1:], cov[1:, 1:])]
    if moments.scheme is Scheme.HOMODYNE_SPLIT3:
        diag = np.full((1, 2), math.sqrt(0.5))  # angle pi/4
        mean = None if moments.mean_diag is None else np.array([moments.mean_diag])
        out.append((n["cov_xp"], diag, zero, mean, diag @ cov @ diag.T))
    return out


def reference_joint_fit(x, sets, noise):
    """Deviance, score and information of the joint likelihood, one data set
    at a time: sets lists (setup, reference_data_sets(moments)), and every
    data set gets its own moment_derivatives call, model covariance, inverse
    and determinants.  The reference for estimators._joint_fit, which scores
    the data sets in blocks of one model covariance."""
    deviance, score, info = 0.0, np.zeros(5), np.zeros((5, 5))
    for setup, groups in sets:
        mu, sig, d_mu, d_sig = moment_derivatives(response(setup, noise), x,
                                                  [setup.light_mean])
        for n, proj, added, mean, scatter in groups:
            cov = proj @ sig @ proj.T + added
            d_mean, d_cov = d_mu[0] @ proj.T, proj @ d_sig @ proj.T
            if mean is None:
                d_mean, delta = 0.0 * d_mean, np.zeros(len(cov))
            else:
                delta = mean - proj @ mu[0]
            inv = np.linalg.inv(cov)
            ratio = inv @ (scatter + np.outer(delta, delta))
            deviance += n * (np.trace(ratio) - len(cov)
                             - np.log(np.linalg.det(scatter) / np.linalg.det(cov)))
            score += n * (d_mean @ (inv @ delta) + 0.5 * np.einsum(
                "iab,ba->i", inv @ d_cov, ratio - np.eye(len(cov))))
            info += n * gaussian_information(cov, d_mean, d_cov)
    return float(deviance), score, info


def reference_phase_loglik(phi, resp, blocks):
    """Log-likelihood of the data sets in blocks (see _blocks) under a pure
    phase shift A = (e^{i phi}, 0), with its score and information (the phi
    entries of _joint_fit), for phi an array (one pass over a grid) or a
    float (plain Python arithmetic, the same operations): mean mu = (through
    e^{i phi} + direct) m, mu' = i through e^{i phi} m, covariance v I, v = a
    + e + 2 b cos(phi) plus the block's added variance.  A set of n records
    of k components, delta and mu'_P the parts of mean - mu (0 without a
    mean) and mu' it measures, spread = tr S + |delta|^2 = 2 c0 + |delta|^2,
    adds n [<delta, mu'_P> / v + v' (spread / v - k) / (2 v)] to the score
    and n [|mu'_P|^2 / v + k (v' / v)^2 / 2] to the information.  The
    per-set reference for estimators._phase_loglik, which reduces the sets
    to their phase terms once."""
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
