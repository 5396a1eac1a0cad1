"""Correctness checks of lmint's outputs against the closed-form reference.

Every check returns a list of failure messages (empty when it holds).  The
expected values come from reference.py, never from a stored copy of an
earlier run; the tolerances are derived below next to each check.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import math

import numpy as np

from lmint import estimators, fisher, interferometer
from lmint.estimators import EstimationError
from lmint.fisher import NumericFisherError
from lmint.gaussian_core import DecompositionError, ProcessParams
from lmint.interferometer import SetupConfig, Topology
from lmint.measurement import MomentEstimate
from lmint.noise import NoiseParams

import reference as ref

#: Window factors on MSE / Cramer-Rao bound.  Measured ratios at the working
#: point are 0.6-1.0 (cov_method, T = 0.1), 0.8-1.1 (phase_ml) and 0.7-3.7
#: (calibrated mean_method, whose 2x2 inversion ignores det B = 1); the
#: factors leave room for the chi-square spread of a pooled MSE over ~50
#: realizations and still trip on a sqrt(t_c)-scaled estimate.
COV_FACTOR = 5.0
PHASE_ML_FACTOR = 5.0
MEAN_FACTOR = 8.0

#: A single estimate may sit this many bound standard deviations from the
#: truth.  The least efficient estimator checked (mean_method alpha, MSE
#: 3.7x its bound) is then still 5 of its own standard deviations inside.
ESTIMATE_SDS = 10.0

#: Calibration and bias windows, in standard deviations of the statistic.
STAT_SDS = 6.0

#: False-alarm probability of each side of a chi-square window.
CHI2_TAIL = 1e-6

_PERIODS = {"phi": 2 * math.pi, "beta": 2 * math.pi, "alpha": math.pi}
_FULL_N_EFF = {"mean_x": 1, "mean_p": 1, "var_x": 1, "var_p": 1, "cov_xp": 1}


def _angle_error(value, truth, parameter):
    period = _PERIODS.get(parameter)
    err = value - truth
    if period is not None:
        err = (err + period / 2) % period - period / 2
    return err


def _lmint_setup(setup: ref.Setup) -> SetupConfig:
    return SetupConfig(topology=Topology(setup.topology), t1=setup.t1, t2=setup.t2,
                       v_thermal=setup.v, r_amp=setup.r, probe_phase=setup.probe_phase)


def _lmint_process(point: ref.Point) -> ProcessParams:
    return ProcessParams.from_q(phi=point.phi, q=point.q, alpha=point.alpha,
                                d=point.d, beta=point.beta)


def _noise(point: ref.Point) -> NoiseParams:
    return NoiseParams(t_c=point.t_c, v_c=point.v_c)


def random_point(rng, topology="interferometric", balanced=True):
    """A seeded (setup, process, channel) away from unidentifiable corners:
    q >= 1.2 keeps the squeeze axis defined, d >= 0.5 the displacement
    direction, r >= 20 the mean-based methods."""
    t1, t2 = rng.uniform(0.03, 0.3, 2)
    setup = ref.Setup(topology, t1, t1 if balanced else t2, rng.uniform(20.0, 200.0),
                      rng.uniform(20.0, 200.0))
    point = ref.Point(rng.uniform(-math.pi, math.pi), rng.uniform(1.2, 3.0),
                      rng.uniform(-1.5, 1.5), rng.uniform(0.5, 6.0), rng.uniform(-3.0, 3.0),
                      rng.uniform(0.5, 1.0), rng.uniform(1.0, 2.0))
    return setup, point


def forward_agrees(rng, count=6):
    """`forward` against the reference moments on every topology; both are
    exact, so they agree to rounding (1e-9 of the largest entry)."""
    fails = []
    for k in range(count):
        topology = ("interferometric", "blocked_beam", "simplistic")[k % 3]
        setup, point = random_point(rng, topology, balanced=False)
        setup = dataclasses.replace(setup, probe_phase=rng.uniform(-math.pi, math.pi))
        mean, cov = ref.moments(setup, point)
        state = interferometer.forward(_lmint_setup(setup), _lmint_process(point),
                                       _noise(point))
        scale = max(1.0, float(np.abs(cov).max()), float(np.abs(mean).max()))
        err = max(float(np.abs(state.mean - mean).max()), float(np.abs(state.cov - cov).max()))
        if err > 1e-9 * scale:
            fails.append(f"forward off the reference by {err:.3g} at {setup}, {point}")
    return fails


def _process_matrix(phi, w, alpha):
    h = ref.rot(alpha)
    return ref.rot(phi) @ h @ np.diag([math.exp(w), math.exp(-w)]) @ h.T


def _exact(mean, cov):
    return MomentEstimate(mean=mean, cov=cov, n_effective=_FULL_N_EFF)


def _probe_moments(setup, point):
    return [_exact(*ref.moments(dataclasses.replace(setup, probe_phase=phase), point))
            for phase in ref.PROBE_PHASES]


def inversions_exact(rng, count=3):
    """Both general-process methods on noise-free reference moments.

    The mean method inverts uniquely, so it must return the truth.  The
    covariance pins the process matrix only up to a discrete set; the
    canonical pick must reproduce the reference moments and the truth must
    be among the pick and its rivals.  At the working point (q 2, alpha -0.3)
    the truth is the canonical pick itself.
    """
    fails = []
    work = ref.Setup("interferometric", 0.1, 0.1, 100.0, 100.0)
    cases = [(work, ref.Point(0.7, 2.0, -0.3, 4.0, 0.5))]
    cases += [random_point(rng) for _ in range(count)]
    for idx, (setup, point) in enumerate(cases):
        lsetup, noise = _lmint_setup(setup), _noise(point)
        mean, cov = ref.moments(setup, point)
        try:
            report = estimators.est_general_cov(_exact(mean, cov), lsetup, noise)
            q = estimators.est_general_mean(_probe_moments(setup, point), lsetup, noise).params
        except (EstimationError, DecompositionError) as exc:
            fails.append(f"noise-free inversion raised {exc!r} at {point}")
            continue
        p = report.params
        got = ref.Point(p.phi, p.q, p.alpha, p.d, p.beta, point.t_c, point.v_c)
        g_mean, g_cov = ref.moments(setup, got)
        err = max(float(np.abs(g_cov - cov).max()) / float(np.abs(cov).max()),
                  float(np.abs(g_mean - mean).max()) / max(1.0, float(np.abs(mean).max())))
        truth = _process_matrix(point.phi, math.log(point.q), point.alpha)
        picks = [(p.phi, p.w, p.alpha)] + list(report.diagnostics.get("rival_fits", []))
        dist = [float(np.abs(_process_matrix(*c) - truth).max()) for c in picks]
        if err > 1e-6:
            fails.append(f"cov_method pick misses the reference moments by {err:.3g} at {point}")
        if min(dist) > 1e-5:
            fails.append(f"cov_method candidates exclude the truth at {point}")
        if idx == 0 and dist[0] > 1e-6:
            fails.append(f"cov_method pick is not the truth at the working point: {p}")
        worst = max(abs(_angle_error(getattr(q, name), getattr(point, name), name))
                    for name in ref.PARAMS)
        if worst > 1e-7:
            fails.append(f"mean_method misses the truth by {worst:.3g} at {point}")
    return fails


def fisher_numeric_agrees(rng, count=2):
    """`fisher_numeric` (central differences) and `fisher_displacement`
    (closed forms) against the analytic reference information."""
    fails = []
    for k in range(count):
        topology = ("interferometric", "blocked_beam")[k % 2]
        setup, point = random_point(rng, topology)
        info = ref.fisher(setup, point)
        for i, name in enumerate(("phi", "w", "alpha", "d", "beta")):
            want = info[i, i] * (point.q ** 2 if name == "w" else 1.0)
            try:
                got = fisher.fisher_numeric(_lmint_setup(setup), _lmint_process(point),
                                            _noise(point), name).value
            except NumericFisherError as exc:
                fails.append(f"fisher_numeric {name} raised {exc!r} at {point}")
                continue
            if abs(got - want) > 1e-4 * abs(want):
                fails.append(f"fisher_numeric {name} {got:.6g} vs reference {want:.6g}")
    for topology in ("interferometric", "blocked_beam", "simplistic"):
        setup, _ = random_point(rng, topology)
        want = ref.fisher(setup, ref.Point(0.0, 1.0, 0.0, 1.0, 0.0))[3, 3]
        got = fisher.fisher_displacement(_lmint_setup(setup)).value
        if abs(got - want) > 1e-9 * abs(want):
            fails.append(f"fisher_displacement {topology} {got:.6g} vs reference {want:.6g}")
    return fails


#: Setup and process of the fig3_left preset that `lmint fisher` runs on.
FIG3_SETUP = ref.Setup("interferometric", 0.1, 0.1, 100.0, 100.0)
FIG3_POINT = ref.Point(0.0, 1.0, 0.0, 4.0, 0.5)


def fisher_table_agrees(tables):
    """Rows of `lmint fisher --preset fig3_left` against the reference: the
    closed-form displacement rows per topology and the numeric rows at the
    preset process (rows the CLI skips are not required)."""
    fails = []
    info = ref.fisher(FIG3_SETUP, FIG3_POINT)
    scale = float(np.abs(np.diag(info)).max())
    numeric = dict(zip(("phi", "w", "alpha", "d", "beta"), np.diag(info)))
    for text in tables:
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            fails.append("lmint fisher wrote no rows")
        for row in rows:
            value = float(row["value"])
            if row["method"] == "numeric_gaussian":
                want = numeric[row["parameter"]]
            else:
                setup = dataclasses.replace(FIG3_SETUP, topology=row["topology"])
                want = ref.fisher(setup, ref.Point(0.0, 1.0, 0.0, 1.0, 0.0))[3, 3]
            if abs(value - want) > 1e-4 * abs(want) + 1e-6 * scale:
                fails.append(f"lmint fisher row {row} vs reference {want:.6g}")
    return fails


def crossing_agrees(reports):
    """compare_blocked_vs_interferometric: both information curves against
    the reference phase information, and the same sign changes."""
    fails = []
    setups = {t: ref.Setup(t, 0.1, 0.1, 100.0, 100.0)
              for t in ("interferometric", "blocked_beam")}
    for rep in reports:
        want = {t: np.array([ref.fisher(s, ref.Point(p, 1.0, 0.0, 0.0, 0.0))[0, 0]
                             for p in rep.phi_grid]) for t, s in setups.items()}
        for t, got in (("interferometric", rep.info_interferometric),
                       ("blocked_beam", rep.info_blocked)):
            err = float(np.abs(got - want[t]).max())
            if err > 1e-4 * float(np.abs(want[t]).max()):
                fails.append(f"phase information of {t} off the reference by {err:.3g}")
        diff = want["interferometric"] - want["blocked_beam"]
        n_sign = int(np.sum(np.sign(diff[:-1]) != np.sign(diff[1:])))
        if len(rep.crossings) != n_sign:
            fails.append(f"{len(rep.crossings)} crossings reported, reference has {n_sign}")
    return fails


def mse_within_factor(ledger, point, estimator, bounds, factor):
    """Pooled Monte-Carlo MSE within [1/factor, factor] of its bound."""
    fails = []
    for parameter, bound in bounds.items():
        n, mse, _, _ = ledger.pooled(point, estimator, parameter)
        if n == 0:
            continue
        ratio = mse / bound
        if not 1.0 / factor <= ratio <= factor:
            fails.append(f"{estimator} {parameter} at {point}: MSE/bound {ratio:.3g} "
                         f"outside [1/{factor:g}, {factor:g}] over {n} realizations")
    return fails


def estimates_near_truth(outputs, truth, bounds):
    """Each `lmint estimate` value within ESTIMATE_SDS bound standard
    deviations of the truth; bounds maps estimator -> parameter -> variance."""
    fails = []
    for reports in outputs:
        for report in reports:
            for parameter, var in bounds.get(report["estimator"], {}).items():
                err = _angle_error(report["params"][parameter], getattr(truth, parameter),
                                   parameter)
                if abs(err) > ESTIMATE_SDS * math.sqrt(var):
                    fails.append(f"lmint estimate {report['estimator']} {parameter} is "
                                 f"{abs(err) / math.sqrt(var):.1f} bound sd from the truth")
    return fails


def displacement_variance(setup, point, scheme, n_shots):
    """Variance of the displacement estimate d_hat on one read-out scheme:
    the mean estimate's covariance projected on the displacement direction,
    divided by the gain t2 t_c.  Homodyne groups split the shots as lmint's
    plan does (the remainder goes to the first angle)."""
    _, cov = ref.moments(setup, point)
    if scheme == "joint":
        mean_cov = cov / n_shots
    elif scheme == "heterodyne":
        mean_cov = (cov + np.eye(2)) / n_shots
    else:
        groups = len(ref.HOMODYNE_ANGLES[scheme])
        n_x = n_shots // groups + n_shots % groups
        mean_cov = np.diag([cov[0, 0] / n_x, cov[1, 1] / (n_shots // groups)])
    unit = np.array([math.cos(point.beta), math.sin(point.beta)])
    return float(unit @ mean_cov @ unit) / (setup.t2 * point.t_c)


def chi2_window(label, mse, var, n):
    """An unbiased Gaussian estimate over n realizations has MSE / var ~
    chi2_n / n; the window holds with probability 1 - 2 CHI2_TAIL."""
    from scipy.stats import chi2  # slow to import; only the checks need it

    if n == 0:
        return []
    lo, hi = chi2.ppf(CHI2_TAIL, n) / n, chi2.isf(CHI2_TAIL, n) / n
    ratio = mse / var
    if lo <= ratio <= hi:
        return []
    return [f"{label}: MSE*N*I {ratio:.3g} outside [{lo:.3g}, {hi:.3g}] for {n} realizations"]


def naive_bias(ledger, loss, expected):
    """The naive mean method reads d through a gain sqrt(t2) in place of
    sqrt(t2 t_c), so its d bias is -d (1 - sqrt(t_c))."""
    n, _, bias, var = ledger.pooled(loss, "naive_mean_method", "d")
    if n == 0:
        return []
    tol = STAT_SDS * math.sqrt(var / n) + 1e-2 * abs(expected)
    if abs(bias - expected) <= tol:
        return []
    return [f"naive d bias {bias:.4g} at loss {loss}, expected {expected:.4g} +- {tol:.2g}"]


def calibration_sds(setup, noise, n_shots):
    """Delta-method standard deviations of calibrate's (t_c, v_c).

    The gain is half the sum of two mean differences over the probe
    amplitude, Var = (S_xx / 2 + 3 S_pp / 2) / (4 n r^2) with n shots per
    probe, and t_c = ((gain - direct) / sqrt(t1 t2))^2.  v_c comes from the
    mean half trace of three sample covariances, Var = tr(S^2) / (6 (n - 1)),
    less the model half trace at the estimated t_c.
    """
    n = n_shots // len(ref.PROBE_PHASES)
    off = ref.Point(0.0, 1.0, 0.0, 0.0, 0.0, noise.t_c, noise.v_c)
    _, cov = ref.moments(setup, off)
    var_gain = (cov[0, 0] / 2.0 + 1.5 * cov[1, 1]) / (4.0 * n * setup.r ** 2)
    sd_t = 2.0 * math.sqrt(noise.t_c / (setup.t1 * setup.t2)) * math.sqrt(var_gain)
    var_half = float(np.trace(cov @ cov)) / (6.0 * (n - 1))

    def half_trace(t_c):
        c = ref.moments(setup, dataclasses.replace(off, t_c=t_c, v_c=1.0))[1]
        return 0.5 * (c[0, 0] + c[1, 1])

    measured = 0.5 * (cov[0, 0] + cov[1, 1])

    def v_hat(t_c):
        return 1.0 + (measured - half_trace(t_c)) / ((1.0 - t_c) * setup.t2)

    h = 1e-6
    dv_dt = (v_hat(noise.t_c + h) - v_hat(noise.t_c - h)) / (2.0 * h)
    dv_dm = 1.0 / ((1.0 - noise.t_c) * setup.t2)
    sd_v = math.sqrt(dv_dm ** 2 * var_half + dv_dt ** 2 * sd_t ** 2)
    return sd_t, sd_v


def calibration_near_truth(estimates, setup, noise, n_shots):
    """Each calibrate result within STAT_SDS of the true channel."""
    sd_t, sd_v = calibration_sds(setup, noise, n_shots)
    fails = []
    for t_c, v_c in estimates:
        if abs(t_c - noise.t_c) > STAT_SDS * sd_t or abs(v_c - noise.v_c) > STAT_SDS * sd_v:
            fails.append(f"calibrate gave t_c {t_c:.5g}, v_c {v_c:.5g}; truth "
                         f"{noise.t_c}, {noise.v_c} (sd {sd_t:.2g}, {sd_v:.2g})")
    return fails
