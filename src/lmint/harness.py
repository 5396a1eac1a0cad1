"""Monte-Carlo MSE benchmarking, parameter sweeps, scaling fits, the
phase-estimator crossover locator, and the two-step noise calibration.

A run is prepared before its first draw: each estimator for its assumed
channel (estimators.prepare_<name>), and each data set's record law
(measurement.record_laws) from the scalars of interferometer.measured_moments:
one covariance, and the mean at its probe phase.  An estimator that fails
its data-independent checks books m_reps failures of that reason unrun, and
a run with none left draws nothing.  Then each data set draws the variates
of all its realizations, one call per stream (measurement.draw_variates),
and realizations are formed from them _BLOCK at a time
(measurement.form_moments); each estimator runs over a block, in order,
before the next is formed.  Variate kind v of data set j at sweep point p
comes from the Philox stream keyed (base_seed, p 2^32 + j 2^8 + v): j = 0
is the single read-out, 1 to 3 the probes and 4 to 6 the point's
calibration probes; v = 0 the normals and 1, 2, ... one per gamma column.
Philox streams under distinct keys are independent by design, so results
are reproducible and order-independent with no hash of the seed.
Realization k is row k - 1 of every stream, so it does not depend on m_reps.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .estimators import (
    _PARAM_PERIODS,
    EstimationError,
    PROBE_PHASES,
    UnidentifiableError,
    _probe_inversion,
    prepare_combined,
    prepare_displacement,
    prepare_general_cov,
    prepare_general_mean,
    prepare_phase_mean,
    prepare_phase_ml,
    prepare_phase_var,
)
from .gaussian_core import IDENTITY_PROCESS, DecompositionError, ProcessParams, circular_diff
from .interferometer import SetupConfig, measured_moments, response
from .measurement import (InsufficientDataError, MeasurementPlan, draw_variates, form_moments,
                          record_laws)
from .noise import IDEAL_NOISE, NoiseParams


class CalibrationError(RuntimeError):
    """The calibration run produced an unphysical channel estimate."""


_ESTIMATOR_FAILURES = (EstimationError, UnidentifiableError, InsufficientDataError,
                       DecompositionError)

#: Parameters reported by each estimator.
ESTIMATOR_PARAMS = {
    "displacement": ("d", "beta"),
    "phase_var": ("phi",),
    "phase_mean": ("phi",),
    "phase_ml": ("phi",),
    "cov_method": ("phi", "q", "alpha", "d", "beta"),
    "mean_method": ("phi", "q", "alpha", "d", "beta"),
    "combined": ("phi", "q", "alpha", "d", "beta"),
}

#: Estimators that consume the three-probe mean protocol.
_THREE_PROBE = {"mean_method", "combined"}

#: Realizations per block.  CPU us per realization of a cov + mean sweep point (T = 0.1,
#: 2048 reps, one Xeon core) at blocks of 1/4/16/64/256/1024: 71.7/60.6/55.6/55.1/56.8/55.6.
#: A run draws the variates of all m_reps up front, 8 bytes each and about 5 per data set
#: per realization (1.6 MB for 4 data sets at 10 000), but builds MomentEstimates, 2.5 KB
#: per realization, one block at a time.
_BLOCK = 64


def base_name(estimator: str) -> str:
    return estimator[6:] if estimator.startswith("naive_") else estimator


@dataclass(frozen=True)
class MonteCarloConfig:
    setup: SetupConfig
    process: ProcessParams
    plan: MeasurementPlan
    estimators: tuple
    noise: NoiseParams = IDEAL_NOISE           # true channel used in simulation
    calibration: str = "true"                  # "true" | "auto"
    calibration_samples: int | None = None     # probe shots for "auto"; defaults to plan.n_samples
    m_reps: int = 10_000
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        check_run_keys(self.m_reps, self.base_seed, self.calibration, self.estimators)
        if self.calibration_samples is not None:
            _check_probe_shots(self.plan.scheme, self.calibration_samples, "calibration_samples")
        if ({base_name(n) for n in self.estimators} & _THREE_PROBE
                or self.calibration == "auto" and self.calibration_samples is None):
            _check_probe_shots(self.plan.scheme, self.plan.n_samples, "n_samples")


def check_run_keys(m_reps: int, base_seed: int, calibration: str, estimators) -> None:
    """Raise ValueError, naming the key, on an m_reps, base_seed,
    calibration mode or estimator name that no Monte-Carlo run accepts;
    load_config checks them for every command, not only those that run."""
    if m_reps < 2:
        raise ValueError(f"m_reps must be >= 2, got {m_reps}")
    if not 0 <= base_seed < 2 ** 64:
        raise ValueError(f"base_seed must lie in [0, 2**64), got {base_seed}")
    if calibration not in ("true", "auto"):
        raise ValueError(f"unknown calibration mode {calibration!r}")
    for name in estimators:
        if base_name(name) not in ESTIMATOR_PARAMS:
            raise ValueError(f"unknown estimator {name!r}")


def _check_probe_shots(scheme, n: int, name: str) -> None:
    """Raise ValueError unless n shots over the three probes make valid plans."""
    try:
        MeasurementPlan(scheme, n // len(PROBE_PHASES), seed=0)
    except ValueError as exc:
        raise ValueError(f"{name} = {n} over the {len(PROBE_PHASES)} probes: {exc}") from None


@dataclass(frozen=True)
class CellStats:
    mse: float
    bias: float
    variance: float
    n_ok: int
    n_failed: int
    n_clamped: int       # arccos clamps of this estimator (phase_var only)
    unreliable: bool
    failures: dict = field(default_factory=dict)  # exception class name -> count


@dataclass(frozen=True)
class MSEReport:
    cells: dict  # (estimator, parameter) -> CellStats
    config: MonteCarloConfig
    wall_time: float

    def mse(self, estimator: str, parameter: str) -> float:
        return self.cells[(estimator, parameter)].mse


def param_error(estimate: float, truth: float, parameter: str) -> float:
    """Signed error, on the circle for angular parameters."""
    period = _PARAM_PERIODS.get(parameter)
    if period is None:
        return estimate - truth
    return circular_diff(estimate, truth, period)


# ---------------------------------------------------------------------------
# Single-realization pipeline


def _record_laws(setup: SetupConfig, process: ProcessParams, noise, scheme, sets) -> list:
    """The record laws of data sets (probe phase, shot count) read out on
    `scheme`: one covariance and the mean at each distinct probe phase, which
    data sets may share."""
    phases = list(dict.fromkeys(phase for phase, _ in sets))
    means, cov = measured_moments(setup, process, noise, phases)
    mean_at = dict(zip(phases, means))
    return [record_laws(mean_at[phase], cov, scheme, n) for phase, n in sets]


def _stream_word(point: int, data_set: int) -> int:
    """The second Philox key word of a data set at a sweep point, p 2^32 +
    j 2^8, to which each variate kind adds its v."""
    return point << 32 | data_set << 8


def _simulate_realizations(cfg: MonteCarloConfig, point: int, bases, m: int | None = None):
    """Moments of realizations 1 to m (default m_reps) at sweep point
    `point`, as pairs (single read-out, three probes) for the estimators
    `bases`: data set 0 when one other than mean_method reads it, and data
    sets 1 to 3 when mean_method or combined does (else None and []).  Their
    laws are formed and all their variates drawn before the first
    realization, which are then formed _BLOCK at a time."""
    single = bool(bases - {"mean_method"})
    n_each = cfg.plan.n_samples // len(PROBE_PHASES)
    sets = (([(cfg.setup.probe_phase, cfg.plan.n_samples)] if single else [])
            + ([(phase, n_each) for phase in PROBE_PHASES] if bases & _THREE_PROBE else []))
    laws = _record_laws(cfg.setup, cfg.process, cfg.noise, cfg.plan.scheme, sets)
    data_sets = range(len(laws)) if single else range(1, len(laws) + 1)
    m = cfg.m_reps if m is None else m
    variates = [draw_variates(law, cfg.base_seed, _stream_word(point, j), m)
                for law, j in zip(laws, data_sets)]
    for start in range(0, m, _BLOCK):
        rows = slice(start, start + _BLOCK)
        block = [form_moments(law, drawn, rows) for law, drawn in zip(laws, variates)]
        for moments in zip(*block):
            yield (moments[0], list(moments[1:])) if single else (None, list(moments))


#: Per estimator: its prepare function of the run's config and channel, called by
#: its name here so that a rebound name is the one called, and the data its
#: estimate reads, a slice of a realization's (single read-out, three probes).
_PREPARED = {
    "displacement": (lambda cfg, noise: prepare_displacement(cfg.setup, noise), slice(1)),
    "phase_var": (lambda cfg, noise: prepare_phase_var(cfg.setup, noise), slice(1)),
    "phase_mean": (lambda cfg, noise: prepare_phase_mean(cfg.setup), slice(1)),
    "phase_ml": (lambda cfg, noise: prepare_phase_ml(cfg.setup, noise), slice(1)),
    "cov_method": (lambda cfg, noise: prepare_general_cov(cfg.setup, noise,
                                                          cfg.plan.scheme.has_full_cov), slice(1)),
    "mean_method": (lambda cfg, noise: prepare_general_mean(cfg.setup, noise), slice(1, 2)),
    "combined": (lambda cfg, noise: prepare_combined(cfg.setup, noise), slice(2)),
}


def _prepare(name: str, cfg: MonteCarloConfig, noise: NoiseParams):
    """Estimator `name` prepared for a run under the channel `noise`: a function
    of one realization's data and the run's diagnostics dict (phase_var's clamps)
    that returns its values in ESTIMATOR_PARAMS order, q = e^w as ProcessParams.q
    forms it.  Raises the estimator's data-independent failure."""
    base = base_name(name)
    prepare, reads = _PREPARED[base]
    estimate, n_values = prepare(cfg, noise), len(ESTIMATOR_PARAMS[base])

    def row(single, probes, diagnostics):
        if n_values == 5:
            phi, w, alpha, d, beta = estimate(*(single, probes)[reads])
            return phi, math.exp(w), alpha, d, beta
        if n_values == 2:
            return estimate(single)
        return (estimate(single, diagnostics) if base == "phase_var" else estimate(single),)

    return row


def _resolve_assumed(cfg: MonteCarloConfig, name: str,
                     calibrated: NoiseParams | None) -> NoiseParams:
    if name.startswith("naive_"):
        return IDEAL_NOISE
    if cfg.calibration == "auto":
        return calibrated
    return cfg.noise


def _calibrated_noise(cfg: MonteCarloConfig, point: int) -> NoiseParams | None:
    """The channel estimate of a calibration="auto" run, None in the other
    modes: one calibrate call with the process switched off, at
    cfg.calibration_samples shots (default plan.n_samples), on the
    calibration probes of the point (data sets 4 to 6), so that every run of
    the config sees the same one."""
    if cfg.calibration != "auto":
        return None
    n_cal = cfg.calibration_samples or cfg.plan.n_samples
    return calibrate(cfg.setup, MeasurementPlan(cfg.plan.scheme, n_cal, cfg.base_seed),
                     cfg.noise, point=point)


def estimate_once(cfg: MonteCarloConfig) -> list:
    """Parameter values of each of cfg.estimators, in order, on the data of
    realization 1 of run_mc; an estimator's failure propagates."""
    calibrated = _calibrated_noise(cfg, 0)
    data = next(_simulate_realizations(cfg, 0, {base_name(n) for n in cfg.estimators}, 1))
    return [dict(zip(ESTIMATOR_PARAMS[base_name(name)],
                     _prepare(name, cfg, _resolve_assumed(cfg, name, calibrated))(*data, {})))
            for name in cfg.estimators]


def run_mc(cfg: MonteCarloConfig) -> MSEReport:
    """Estimate MSE/bias tables over cfg.m_reps independent realizations."""
    return _run_point(cfg, 0)


def _run_point(cfg: MonteCarloConfig, point: int) -> MSEReport:
    """run_mc on the streams of sweep point `point` (run_mc itself is point 0).
    Each estimator is prepared once; one that fails its data-independent
    checks counts m_reps failures of that reason.  Each live estimator, in
    cfg.estimators order, runs over a block of _BLOCK realizations before the
    next is drawn, so it sees them in order, as if each right after its draw."""
    t0 = time.perf_counter()
    calibrated = _calibrated_noise(cfg, point)
    failures = {name: {} for name in cfg.estimators}  # exception class name -> count
    rows = {name: [] for name in cfg.estimators}      # the values of each success
    diagnostics = {name: {} for name in cfg.estimators}
    live = {}  # name -> prepared estimator
    for name in cfg.estimators:
        try:
            live[name] = _prepare(name, cfg, _resolve_assumed(cfg, name, calibrated))
        except _ESTIMATOR_FAILURES as exc:
            reason = type(exc).__name__
            failures[name][reason] = failures[name].get(reason, 0) + cfg.m_reps
    loop = [(live[n], rows[n], diagnostics[n], failures[n]) for n in cfg.estimators if n in live]
    realizations = _simulate_realizations(cfg, point, {base_name(n) for n in live})  # lazy
    while loop and (block := list(itertools.islice(realizations, _BLOCK))):
        for estimate, done, diag, failed in loop:
            for single, probes in block:
                try:
                    done.append(estimate(single, probes, diag))
                except _ESTIMATOR_FAILURES as exc:
                    reason = type(exc).__name__
                    failed[reason] = failed.get(reason, 0) + 1
    cells = {}
    for name in cfg.estimators:
        cells.update(_cell_stats(cfg, name, rows[name], failures[name],
                                 diagnostics[name].get("clamped", 0)))
    return MSEReport(cells=cells, config=cfg, wall_time=time.perf_counter() - t0)


def _cell_stats(cfg: MonteCarloConfig, name: str, rows: list, failures: dict,
                n_clamped: int) -> dict:
    """The CellStats of each parameter of estimator `name`, from its values on
    the successful realizations (one row each): per parameter, the means of
    the squared errors, of the errors and of the squared deviations from
    that, each summed on Python floats by math.fsum (correctly rounded); unreliable
    when failures and clamps exceed 5% of m_reps.  A general method's value that
    ProcessParams refuses (NaN, infinite w or d) raises as est_<name> does."""
    params = ESTIMATOR_PARAMS[base_name(name)]
    n_failed = sum(failures.values())
    n_ok, unreliable = cfg.m_reps - n_failed, n_failed + n_clamped > 0.05 * cfg.m_reps
    if not rows:
        cell = CellStats(math.nan, math.nan, math.nan, 0, n_failed, n_clamped, True, failures)
        return dict.fromkeys(((name, p) for p in params), cell)
    cells = {}
    for p, column in zip(params, zip(*rows)):
        truth, period = getattr(cfg.process, p), _PARAM_PERIODS.get(p)
        errs = ([v - truth for v in column] if period is None  # param_error, by column
                else [math.remainder(v - truth, period) for v in column])
        bias = math.fsum(errs) / len(errs)
        if len(params) == 5 and not math.isfinite(bias):  # a value est_<name> would refuse
            phi, q, alpha, d, beta = next(r for r in rows if not all(map(math.isfinite, r)))
            ProcessParams(phi, math.log(q), alpha, d, beta)  # raises, naming it
        cells[name, p] = CellStats(math.fsum([e * e for e in errs]) / len(errs), bias,
                                   math.fsum([(e - bias) * (e - bias) for e in errs]) / len(errs),
                                   n_ok, n_failed, n_clamped, unreliable, failures)
    return cells


# ---------------------------------------------------------------------------
# Sweeps and fits

#: Axes a sweep can run over.
AXES = ("r", "V", "T", "loss", "Phi")


def apply_axis(cfg: MonteCarloConfig, axis: str, value: float) -> MonteCarloConfig:
    """cfg at the sweep point value of axis; ValueError when the value lies
    outside the axis's range (the setup, channel or process rejects it)."""
    if axis == "r":
        return dc_replace(cfg, setup=dc_replace(cfg.setup, r_amp=float(value)))
    if axis == "V":
        return dc_replace(cfg, setup=dc_replace(cfg.setup, v_thermal=float(value)))
    if axis == "T":
        return dc_replace(cfg, setup=dc_replace(cfg.setup, t1=float(value), t2=float(value)))
    if axis == "loss":
        return dc_replace(cfg, noise=NoiseParams(t_c=1.0 - float(value), v_c=cfg.noise.v_c))
    if axis == "Phi":
        return dc_replace(cfg, process=ProcessParams.folded(
            phi=float(value), w=cfg.process.w, alpha=cfg.process.alpha,
            d=cfg.process.d, beta=cfg.process.beta))
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {AXES}")


def sweep(cfg: MonteCarloConfig, axis: str, grid) -> list:
    """One MSEReport per grid value; deterministic under a fixed base_seed."""
    return [(float(value), _run_point(apply_axis(cfg, axis, value), idx + 1))
            for idx, value in enumerate(grid)]


@dataclass(frozen=True)
class ExponentFit:
    c: float        # MSE ~ axis^(-c)
    r_squared: float
    reliable: bool  # r_squared >= _R2_RELIABLE


#: The r^2 from which an exponent fit counts as reliable.
_R2_RELIABLE = 0.9


def fit_exponent(table) -> dict:
    """Least-squares power-law exponents of log MSE vs log axis value, over
    the grid points where the axis value is positive and the cell's MSE
    finite and positive (an empty cell has none; a loss of 0 or a phase of
    0 or below has no logarithm); with fewer than 4 such points c and
    r_squared are NaN.

    Returns (estimator, parameter) -> ExponentFit for every cell in the table.
    """
    if len(table) < 4:
        raise ValueError(f"need at least 4 grid points for an exponent fit, got {len(table)}")
    out = {}
    for key in table[0][1].cells:
        points = [(v, rep.cells[key].mse) for v, rep in table
                  if v > 0.0 and 0.0 < rep.cells[key].mse < math.inf]
        if len(points) < 4:
            out[key] = ExponentFit(c=math.nan, r_squared=math.nan, reliable=False)
            continue
        xs, ys = np.log([v for v, _ in points]), np.log([mse for _, mse in points])
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = ys - (slope * xs + intercept)
        ss_tot = float(((ys - ys.mean()) ** 2).sum())
        r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 0.0
        out[key] = ExponentFit(c=-float(slope), r_squared=r2, reliable=r2 >= _R2_RELIABLE)
    return out


@dataclass(frozen=True)
class RCritResult:
    r_crit: float
    bracket_low: float
    bracket_high: float


#: find_r_crit bisects until its bracket is narrower than this in log r.
_R_CRIT_WIDTH = 0.02


def find_r_crit(cfg: MonteCarloConfig, r_range) -> RCritResult | None:
    """Locate the probe amplitude where the variance- and mean-based phase
    estimators have equal MSE, by bisection in log r; None when there is no
    crossing in range, or when an MSE the search reads is not finite (an
    estimator that succeeds in no realization there): a NaN difference
    passes no sign test, so the search could not tell where it crosses."""
    cfg = dc_replace(cfg, estimators=("phase_var", "phase_mean"))

    def diff(log_r):
        rep = run_mc(apply_axis(cfg, "r", math.exp(log_r)))
        return rep.mse("phase_var", "phi") - rep.mse("phase_mean", "phi")

    lo, hi = math.log(r_range[0]), math.log(r_range[1])
    d_lo, d_hi = diff(lo), diff(hi)
    if not (math.isfinite(d_lo) and math.isfinite(d_hi)) or d_lo * d_hi > 0.0:
        return None
    if d_lo == 0.0:
        return RCritResult(math.exp(lo), math.exp(lo), math.exp(lo))
    if d_hi == 0.0:
        return RCritResult(math.exp(hi), math.exp(hi), math.exp(hi))
    while hi - lo >= _R_CRIT_WIDTH:
        mid = 0.5 * (lo + hi)
        d_mid = diff(mid)
        if not math.isfinite(d_mid):
            return None
        if d_mid == 0.0:
            lo = hi = mid
            break
        if d_lo * d_mid < 0.0:
            hi = mid
        else:
            lo, d_lo = mid, d_mid
    return RCritResult(r_crit=math.exp(0.5 * (lo + hi)),
                       bracket_low=math.exp(lo), bracket_high=math.exp(hi))


# ---------------------------------------------------------------------------
# Calibration


#: calibrate fails on a gain that implies t_c above (1 + _GAIN_MARGIN)^2.
_GAIN_MARGIN = 0.10


def calibrate(setup: SetupConfig, plan: MeasurementPlan,
              true_noise: NoiseParams, *, point: int = 0) -> NoiseParams:
    """Estimate the decoherence channel with the unknown process switched off.

    Runs the three-probe mean protocol against the identity process: the mean
    gain pins t_c, the variance residual pins v_c.  The probes draw as the
    calibration probes (data sets 4 to 6) of sweep point `point` under the
    base seed plan.seed.  Estimates are clamped to the physical ranges; a
    gain beyond the clamping margin raises CalibrationError, and too few
    shots for the three probes ValueError.
    """
    _check_probe_shots(plan.scheme, plan.n_samples, "n_samples")
    r = setup.r_amp
    if r <= 0.0:
        raise CalibrationError("calibration needs a bright probe (r > 0)")
    ideal = response(setup)
    if ideal.through == 0.0:
        raise CalibrationError("calibration needs probe light through the process "
                               "(interferometric or blocked beam, t1 > 0)")
    n_each = plan.n_samples // len(PROBE_PHASES)
    laws = _record_laws(setup, IDENTITY_PROCESS, true_noise, plan.scheme,
                        [(phase, n_each) for phase in PROBE_PHASES])
    moments = [form_moments(law, draw_variates(law, plan.seed, _stream_word(point, j), 1))[0]
               for j, law in enumerate(laws, start=4)]
    gain = _probe_inversion(moments, r)[1][0].real  # half the trace of the linear part
    through_part = (gain - ideal.direct) / ideal.through
    t_c_hat = through_part * through_part if through_part > 0.0 else 0.0
    if t_c_hat > (1.0 + _GAIN_MARGIN) ** 2 or t_c_hat <= 0.0:
        raise CalibrationError(f"estimated gain implies t_c = {t_c_hat:.4g}, outside (0, 1]")
    t_c_hat = min(t_c_hat, 1.0)
    if 1.0 - t_c_hat < 1e-9:
        return NoiseParams(t_c=1.0, v_c=1.0)
    var_meas = sum(m.c0 for m in moments) / len(moments)  # half the trace
    # Response variance at A = I; it is affine in v_c with slope (1 - t_c) t2.
    model = response(setup, NoiseParams(t_c=t_c_hat, v_c=1.0))
    var_model = model.a + 2.0 * model.b + model.e
    v_c_hat = 1.0 + (var_meas - var_model) / ((1.0 - t_c_hat) * setup.t2)
    return NoiseParams(t_c=t_c_hat, v_c=max(v_c_hat, 1.0))
