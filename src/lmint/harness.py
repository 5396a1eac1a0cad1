"""Monte-Carlo MSE benchmarking, parameter sweeps, scaling fits, the
phase-estimator crossover locator, and the two-step noise calibration.

A run is prepared before its first draw: each estimator for its assumed
channel (estimators.prepare_<name>), and each data set's record law
(measurement.record_laws) from the scalars of interferometer.measured_moments:
one covariance, and the mean at its probe phase.  An estimator that fails
its data-independent checks books m_reps failures of that reason unrun, and
a run with none left draws nothing.  A realization only keys its streams,
draws (measurement.draw_from_laws) and estimates.
Data set j of realization k at sweep point p draws from the stream
np.random.SeedSequence(base_seed, spawn_key=(p, k, j)), the child
SeedSequence(base_seed).spawn gives, so streams are independent by
construction and results reproducible and order-independent.  The seed of
each child is computed bit for bit as SeedSequence computes it, from shared
prefixes: the state after the base seed once per seed, after p once per
point, after k once per realization, and only j per data set.  Keys are
formed as realizations are drawn, so reading realization 1 costs the same
at any m_reps.  Realizations run k = 1..m_reps; realization 0 is the
point's calibration.
"""
from __future__ import annotations

import functools
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
from .measurement import InsufficientDataError, MeasurementPlan, draw_from_laws, record_laws
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
# Stream keys: the seeds of numpy's SeedSequence children, from shared prefixes

_MASK32 = 0xFFFF_FFFF
# SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx).
_MULT_A, _MIX_L, _MIX_R = 0x931E8875, 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_OUT_1 = _INIT_B * _MULT_B & _MASK32  # generate_state's hash constants, words 0 and 1
_OUT_2 = _OUT_1 * _MULT_B & _MASK32
_MULT_A2 = _MULT_A * _MULT_A & _MASK32  # the hashes of pool words 2 and 3
_ROOT_HASH = 0x43B0D7E5 * pow(_MULT_A, 16, 2 ** 32) & _MASK32  # INIT_A after the pool's 16 hashes


@functools.lru_cache(maxsize=8)
def _key_root(entropy: int) -> tuple:
    """The state of SeedSequence(entropy, spawn_key=key) before its first key
    word, for entropy < 2**128: pool words 0 and 1 and the hash constant.  A
    spawn key pads the entropy with zero words to the 4-word pool, which hash
    into the pool as the missing words of an unspawned SeedSequence(entropy)
    do, so its pool is this state, after 4 + 12 hashes.  A seed reads pool
    words 0 and 1 alone, and each word mixes only its own past, so words 2
    and 3 are not carried."""
    pool = np.random.SeedSequence(entropy).pool
    return int(pool[0]), int(pool[1]), _ROOT_HASH


def _key_child(prefix: tuple, entry: int) -> tuple:
    """The state of SeedSequence after one more spawn-key entry: each of its
    32-bit words, least significant first, is hashed into every pool word,
    and the hash constant advances over all four."""
    x0, x1, h = prefix
    while True:
        word, h1 = entry & _MASK32, h * _MULT_A & _MASK32
        h2 = h1 * _MULT_A & _MASK32
        v0, v1 = (word ^ h) * h1 & _MASK32, (word ^ h1) * h2 & _MASK32
        v0 = (_MIX_L * x0 - _MIX_R * (v0 ^ v0 >> 16)) & _MASK32
        v1 = (_MIX_L * x1 - _MIX_R * (v1 ^ v1 >> 16)) & _MASK32
        x0, x1, h, entry = v0 ^ v0 >> 16, v1 ^ v1 >> 16, h2 * _MULT_A2 & _MASK32, entry >> 32
        if not entry:
            return x0, x1, h


def _key_seed(prefix: tuple, entry: int) -> int:
    """SeedSequence(entropy, spawn_key=key + (entry,)).generate_state(1,
    np.uint64)[0], for prefix the state of (entropy, key): the first two pool
    words, hashed, are the low and high half."""
    x0, x1, _ = _key_child(prefix, entry)
    low = (x0 ^ _INIT_B) * _OUT_1 & _MASK32
    high = (x1 ^ _OUT_1) * _OUT_2 & _MASK32
    return (high ^ high >> 16) << 32 | low ^ low >> 16


def _plan_seed(entropy: int, *key: int) -> int:
    """The seed of SeedSequence(entropy, spawn_key=key)'s stream; distinct
    keys give independent streams."""
    prefix = _key_root(entropy)
    for entry in key[:-1]:
        prefix = _key_child(prefix, entry)
    return _key_seed(prefix, key[-1])


def _report_values(report) -> tuple:
    p = report.params
    return p.phi, p.q, p.alpha, p.d, p.beta


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


def _simulate_realizations(cfg: MonteCarloConfig, point: int, bases):
    """Moments of realizations 1 to m_reps at sweep point `point`, as pairs
    (single read-out, three probes) for the estimators `bases`: data set 0
    when one other than mean_method reads it, and data sets 1 to 3 when
    mean_method or combined does (else None and []).  Their laws are formed
    once, before the first draw."""
    single = bool(bases - {"mean_method"})
    n_each = cfg.plan.n_samples // len(PROBE_PHASES)
    sets = (([(cfg.setup.probe_phase, cfg.plan.n_samples)] if single else [])
            + ([(phase, n_each) for phase in PROBE_PHASES] if bases & _THREE_PROBE else []))
    laws = _record_laws(cfg.setup, cfg.process, cfg.noise, cfg.plan.scheme, sets)
    at_point = _key_child(_key_root(cfg.base_seed), point)
    for k in range(1, cfg.m_reps + 1):
        at_k = _key_child(at_point, k)
        drawn = [draw_from_laws(law, _key_seed(at_k, j))
                 for j, law in enumerate(laws, start=0 if single else 1)]
        yield (drawn[0], drawn[1:]) if single else (None, drawn)


def _prepare(name: str, cfg: MonteCarloConfig, noise: NoiseParams):
    """Estimator `name` prepared for a run under the channel `noise`: a
    function of one realization's data (single read-out, three probes) and
    the run's diagnostics dict that returns its values in ESTIMATOR_PARAMS
    order.  Raises the estimator's data-independent failure."""
    base, setup = base_name(name), cfg.setup
    if base == "displacement":
        est = prepare_displacement(setup, noise)
        return lambda single, probes, diagnostics: est(single)
    if base == "phase_var":
        est = prepare_phase_var(setup, noise)
        return lambda single, probes, diagnostics: (est(single, diagnostics),)
    if base == "phase_mean":
        est = prepare_phase_mean(setup)
        return lambda single, probes, diagnostics: (est(single),)
    if base == "phase_ml":
        est = prepare_phase_ml(setup, noise)
        return lambda single, probes, diagnostics: (est(single),)
    if base == "cov_method":
        est = prepare_general_cov(setup, noise, cfg.plan.scheme.has_full_cov)
        return lambda single, probes, diagnostics: _report_values(est(single))
    if base == "mean_method":
        est = prepare_general_mean(setup, noise)
        return lambda single, probes, diagnostics: _report_values(est(probes))
    est = prepare_combined(setup, noise)
    return lambda single, probes, diagnostics: _report_values(est(single, probes))


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
    cfg.calibration_samples shots (default plan.n_samples), on realization 0
    of the point, so that every run of the config sees the same one."""
    if cfg.calibration != "auto":
        return None
    n_cal = cfg.calibration_samples or cfg.plan.n_samples
    return calibrate(cfg.setup, MeasurementPlan(cfg.plan.scheme, n_cal,
                                                _plan_seed(cfg.base_seed, point, 0, 0)),
                     cfg.noise)


def estimate_once(cfg: MonteCarloConfig) -> list:
    """Parameter values of each of cfg.estimators, in order, on the data of
    realization 1 of run_mc; an estimator's failure propagates."""
    calibrated = _calibrated_noise(cfg, 0)
    data = next(_simulate_realizations(cfg, 0, {base_name(n) for n in cfg.estimators}))
    return [dict(zip(ESTIMATOR_PARAMS[base_name(name)],
                     _prepare(name, cfg, _resolve_assumed(cfg, name, calibrated))(*data, {})))
            for name in cfg.estimators]


def run_mc(cfg: MonteCarloConfig) -> MSEReport:
    """Estimate MSE/bias tables over cfg.m_reps independent realizations."""
    return _run_point(cfg, 0)


def _run_point(cfg: MonteCarloConfig, point: int) -> MSEReport:
    """run_mc on the streams of sweep point `point` (run_mc itself is point 0).
    Each estimator is prepared once; one that fails its data-independent
    checks counts m_reps failures of that reason."""
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
    if loop:
        for single, probes in _simulate_realizations(cfg, point, {base_name(n) for n in live}):
            for estimate, done, diag, failed in loop:
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
    that, each summed on Python floats by math.fsum (correctly rounded)."""
    params = ESTIMATOR_PARAMS[base_name(name)]
    n_failed = sum(failures.values())
    n_ok, unreliable = cfg.m_reps - n_failed, n_failed > 0.05 * cfg.m_reps
    if not rows:
        cell = CellStats(math.nan, math.nan, math.nan, 0, n_failed, n_clamped, True, failures)
        return dict.fromkeys(((name, p) for p in params), cell)
    cells = {}
    for p, column in zip(params, zip(*rows)):
        truth, period = getattr(cfg.process, p), _PARAM_PERIODS.get(p)
        errs = ([v - truth for v in column] if period is None  # param_error, by column
                else [math.remainder(v - truth, period) for v in column])
        bias = math.fsum(errs) / len(errs)
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
              true_noise: NoiseParams) -> NoiseParams:
    """Estimate the decoherence channel with the unknown process switched off.

    Runs the three-probe mean protocol against the identity process: the mean
    gain pins t_c, the variance residual pins v_c.  Estimates are clamped to
    the physical ranges; a gain beyond the clamping margin raises
    CalibrationError, and too few shots for the three probes ValueError.
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
    moments = [draw_from_laws(law, _plan_seed(plan.seed, j)) for j, law in enumerate(laws)]
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
