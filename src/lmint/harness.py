"""Monte-Carlo MSE benchmarking, parameter sweeps, scaling fits, the
phase-estimator crossover locator, and the two-step noise calibration.

A realization's data are moment statistics drawn from their exact law
(measurement.draw_moments) around the measured state of the closed-form
response (interferometer.measured_state), computed once per config and
probe phase.  Data set j of realization k at sweep point p draws from the
stream np.random.SeedSequence(base_seed, spawn_key=(p, k, j)), the child
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
    est_combined,
    est_displacement,
    est_general_cov,
    est_general_mean,
    est_phase_mean,
    est_phase_ml,
    est_phase_var,
)
from .gaussian_core import IDENTITY_PROCESS, DecompositionError, ProcessParams, circular_diff
from .interferometer import SetupConfig, measured_state, response
from .measurement import InsufficientDataError, MeasurementPlan, draw_moments
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
    noise: NoiseParams | None = None           # true channel used in simulation
    assumed_noise: NoiseParams | None = None   # channel handed to the estimators
    calibration: str = "true"                  # "true" | "auto" | "ideal"
    calibration_samples: int | None = None     # probe shots for "auto"; defaults to plan.n_samples
    m_reps: int = 10_000
    base_seed: int = 0

    def __post_init__(self):
        if self.m_reps < 2:
            raise ValueError(f"m_reps must be >= 2, got {self.m_reps}")
        if not 0 <= self.base_seed < 2 ** 64:
            raise ValueError(f"base_seed must lie in [0, 2**64), got {self.base_seed}")
        if self.calibration not in ("true", "auto", "ideal"):
            raise ValueError(f"unknown calibration mode {self.calibration!r}")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        for name in self.estimators:
            if base_name(name) not in ESTIMATOR_PARAMS:
                raise ValueError(f"unknown estimator {name!r}")
        if self.calibration_samples is not None:
            _check_probe_shots(self.plan.scheme, self.calibration_samples, "calibration_samples")
        if ({base_name(n) for n in self.estimators} & _THREE_PROBE
                or self.calibration == "auto" and self.calibration_samples is None):
            _check_probe_shots(self.plan.scheme, self.plan.n_samples, "n_samples")


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


def _truth_value(process: ProcessParams, parameter: str) -> float:
    if parameter == "q":
        return process.q
    return getattr(process, parameter)


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
_ROOT_HASH = 0x43B0D7E5 * pow(_MULT_A, 16, 2 ** 32) & _MASK32  # INIT_A after the pool's 16 hashes


@functools.lru_cache(maxsize=8)
def _key_root(entropy: int) -> tuple:
    """The (pool, hash constant) state of SeedSequence(entropy, spawn_key=key)
    before its first key word, for entropy < 2**128.  A spawn key pads the
    entropy with zero words to the 4-word pool, which hash into the pool as
    the missing words of an unspawned SeedSequence(entropy) do, so its pool
    is this state, after 4 + 12 hashes."""
    return tuple(np.random.SeedSequence(entropy).pool.tolist()), _ROOT_HASH


def _key_child(prefix: tuple, entry: int) -> tuple:
    """The state of SeedSequence after one more spawn-key entry: each of its
    32-bit words, least significant first, is hashed into every pool word."""
    pool, h = prefix
    while True:
        word, mixed = entry & _MASK32, []
        for x in pool:
            v = word ^ h
            h = h * _MULT_A & _MASK32
            v = v * h & _MASK32
            v = (_MIX_L * x - _MIX_R * (v ^ v >> 16)) & _MASK32
            mixed.append(v ^ v >> 16)
        pool, entry = mixed, entry >> 32
        if not entry:
            return pool, h


def _key_seed(prefix: tuple, entry: int) -> int:
    """SeedSequence(entropy, spawn_key=key + (entry,)).generate_state(1,
    np.uint64)[0], for prefix the state of (entropy, key): the first two pool
    words, hashed, are the low and high half."""
    pool, _ = _key_child(prefix, entry)
    low = (pool[0] ^ _INIT_B) * _OUT_1 & _MASK32
    high = (pool[1] ^ _OUT_1) * _OUT_2 & _MASK32
    return (high ^ high >> 16) << 32 | low ^ low >> 16


def _plan_seed(entropy: int, *key: int) -> int:
    """The seed of SeedSequence(entropy, spawn_key=key)'s stream; distinct
    keys give independent streams."""
    prefix = _key_root(entropy)
    for entry in key[:-1]:
        prefix = _key_child(prefix, entry)
    return _key_seed(prefix, key[-1])


def _report_values(report) -> dict:
    p = report.params
    return {"phi": p.phi, "q": p.q, "alpha": p.alpha, "d": p.d, "beta": p.beta}


# ---------------------------------------------------------------------------
# Single-realization pipeline


def _simulate_realizations(cfg: MonteCarloConfig, point: int):
    """Moments of realizations 1 to m_reps at sweep point `point`, as pairs
    (single read-out, three probes): data set 0, drawn when an estimator
    other than mean_method reads it, and data sets 1 to 3, drawn when
    mean_method or combined does (else None and []).  The measured state is
    formed once per probe phase, which a probe and the single read-out may
    share."""
    bases = {base_name(n) for n in cfg.estimators}
    state_at = functools.cache(lambda phase: measured_state(
        dc_replace(cfg.setup, probe_phase=phase), cfg.process, cfg.noise))
    single = state_at(cfg.setup.probe_phase) if bases - {"mean_method"} else None
    probes = [state_at(phase) for phase in PROBE_PHASES] if bases & _THREE_PROBE else []
    n_each = cfg.plan.n_samples // len(PROBE_PHASES)
    at_point = _key_child(_key_root(cfg.base_seed), point)

    def draw(state, n, at_k, j):
        return draw_moments(state, MeasurementPlan(cfg.plan.scheme, n, _key_seed(at_k, j)))

    for k in range(1, cfg.m_reps + 1):
        at_k = _key_child(at_point, k)
        yield (None if single is None else draw(single, cfg.plan.n_samples, at_k, 0),
               [draw(state, n_each, at_k, j) for j, state in enumerate(probes, start=1)])


def _estimate_one(name: str, setup: SetupConfig, data, assumed: NoiseParams,
                  diagnostics: dict) -> dict:
    base = base_name(name)
    single, probes = data
    if base == "displacement":
        d, beta = est_displacement(single, setup, assumed)
        return {"d": d, "beta": beta}
    if base == "phase_var":
        return {"phi": est_phase_var(single, setup, diagnostics, noise=assumed)}
    if base == "phase_mean":
        return {"phi": est_phase_mean(single, setup)}
    if base == "phase_ml":
        return {"phi": est_phase_ml(single, setup, assumed)}
    if base == "cov_method":
        return _report_values(est_general_cov(single, setup, assumed))
    if base == "mean_method":
        return _report_values(est_general_mean(probes, setup, assumed))
    if base == "combined":
        return _report_values(est_combined(single, probes, setup, assumed))
    raise ValueError(f"unknown estimator {name!r}")


def _resolve_assumed(cfg: MonteCarloConfig, name: str,
                     calibrated: NoiseParams | None) -> NoiseParams:
    if name.startswith("naive_") or cfg.calibration == "ideal":
        return IDEAL_NOISE
    if cfg.assumed_noise is not None:
        return cfg.assumed_noise
    if cfg.calibration == "auto":
        return calibrated if calibrated is not None else IDEAL_NOISE
    return cfg.noise if cfg.noise is not None else IDEAL_NOISE


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
    data = next(_simulate_realizations(cfg, 0))
    return [_estimate_one(name, cfg.setup, data, _resolve_assumed(cfg, name, calibrated), {})
            for name in cfg.estimators]


def run_mc(cfg: MonteCarloConfig) -> MSEReport:
    """Estimate MSE/bias tables over cfg.m_reps independent realizations."""
    return _run_point(cfg, 0)


def _run_point(cfg: MonteCarloConfig, point: int) -> MSEReport:
    """run_mc on the streams of sweep point `point` (run_mc itself is point 0)."""
    t0 = time.perf_counter()
    calibrated = _calibrated_noise(cfg, point)
    # Per run, not per realization: each estimator's channel, each truth.
    assumed = {name: _resolve_assumed(cfg, name, calibrated) for name in cfg.estimators}
    errors = {name: {p: [] for p in ESTIMATOR_PARAMS[base_name(name)]}
              for name in cfg.estimators}
    truth = {p: _truth_value(cfg.process, p) for params in errors.values() for p in params}
    failures = {name: {} for name in cfg.estimators}  # exception class name -> count
    n_clamped = dict.fromkeys(cfg.estimators, 0)
    for data in _simulate_realizations(cfg, point):
        for name in cfg.estimators:
            diagnostics = {}
            try:
                values = _estimate_one(name, cfg.setup, data, assumed[name], diagnostics)
            except _ESTIMATOR_FAILURES as exc:
                reason = type(exc).__name__
                failures[name][reason] = failures[name].get(reason, 0) + 1
            else:
                for p, errs in errors[name].items():
                    errs.append(param_error(values[p], truth[p], p))
            n_clamped[name] += diagnostics.get("clamped", 0)

    cells = {}
    for name in cfg.estimators:
        n_failed = sum(failures[name].values())
        n_ok = cfg.m_reps - n_failed
        unreliable = n_failed > 0.05 * cfg.m_reps
        for p, errs in errors[name].items():
            errs = np.asarray(errs)
            if errs.size == 0:
                cells[(name, p)] = CellStats(math.nan, math.nan, math.nan, 0, n_failed,
                                             n_clamped[name], True, failures[name])
                continue
            mse = float((errs ** 2).mean())
            bias = float(errs.mean())
            variance = float(((errs - bias) ** 2).mean())
            cells[(name, p)] = CellStats(mse=mse, bias=bias, variance=variance,
                                         n_ok=n_ok, n_failed=n_failed,
                                         n_clamped=n_clamped[name],
                                         unreliable=unreliable, failures=failures[name])
    return MSEReport(cells=cells, config=cfg, wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Sweeps and fits

_AXES = ("r", "V", "T", "loss", "Phi")


def _apply_axis(cfg: MonteCarloConfig, axis: str, value: float) -> MonteCarloConfig:
    if axis == "r":
        return dc_replace(cfg, setup=dc_replace(cfg.setup, r_amp=float(value)))
    if axis == "V":
        return dc_replace(cfg, setup=dc_replace(cfg.setup, v_thermal=float(value)))
    if axis == "T":
        return dc_replace(cfg, setup=dc_replace(cfg.setup, t1=float(value), t2=float(value)))
    if axis == "loss":
        v_c = cfg.noise.v_c if cfg.noise is not None else 1.0
        t_c = 1.0 - float(value)
        noise = None if t_c >= 1.0 and v_c == 1.0 else NoiseParams(t_c=t_c, v_c=v_c)
        return dc_replace(cfg, noise=noise)
    if axis == "Phi":
        return dc_replace(cfg, process=ProcessParams.folded(
            phi=float(value), w=cfg.process.w, alpha=cfg.process.alpha,
            d=cfg.process.d, beta=cfg.process.beta))
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {_AXES}")


def sweep(cfg: MonteCarloConfig, axis: str, grid) -> list:
    """One MSEReport per grid value; deterministic under a fixed base_seed."""
    return [(float(value), _run_point(_apply_axis(cfg, axis, value), idx + 1))
            for idx, value in enumerate(grid)]


@dataclass(frozen=True)
class ExponentFit:
    c: float        # MSE ~ axis^(-c)
    r_squared: float
    reliable: bool  # False when r_squared < 0.9


def fit_exponent(table, r2_threshold: float = 0.9) -> dict:
    """Least-squares power-law exponents of log MSE vs log axis value.

    Returns (estimator, parameter) -> ExponentFit for every cell in the table.
    """
    if len(table) < 4:
        raise ValueError(f"need at least 4 grid points for an exponent fit, got {len(table)}")
    xs = np.log([v for v, _ in table])
    out = {}
    for key in table[0][1].cells:
        ys = np.log([rep.cells[key].mse for _, rep in table])
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = ys - (slope * xs + intercept)
        ss_tot = float(((ys - ys.mean()) ** 2).sum())
        r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 0.0
        out[key] = ExponentFit(c=-float(slope), r_squared=r2, reliable=r2 >= r2_threshold)
    return out


@dataclass(frozen=True)
class RCritResult:
    r_crit: float
    bracket_low: float
    bracket_high: float


def find_r_crit(cfg: MonteCarloConfig, r_range, tol_log: float = 0.02,
                max_iter: int = 40) -> RCritResult | None:
    """Locate the probe amplitude where the variance- and mean-based phase
    estimators have equal MSE; None when there is no crossing in range."""
    cfg = dc_replace(cfg, estimators=("phase_var", "phase_mean"))

    def diff(log_r):
        point = _apply_axis(cfg, "r", math.exp(log_r))
        rep = run_mc(point)
        return rep.mse("phase_var", "phi") - rep.mse("phase_mean", "phi")

    lo, hi = math.log(r_range[0]), math.log(r_range[1])
    d_lo, d_hi = diff(lo), diff(hi)
    if d_lo == 0.0:
        return RCritResult(math.exp(lo), math.exp(lo), math.exp(lo))
    if d_hi == 0.0:
        return RCritResult(math.exp(hi), math.exp(hi), math.exp(hi))
    if d_lo * d_hi > 0.0:
        return None
    for _ in range(max_iter):
        if hi - lo < tol_log:
            break
        mid = 0.5 * (lo + hi)
        d_mid = diff(mid)
        if d_mid == 0.0:
            lo = hi = mid
            break
        if d_lo * d_mid < 0.0:
            hi, d_hi = mid, d_mid
        else:
            lo, d_lo = mid, d_mid
    return RCritResult(r_crit=math.exp(0.5 * (lo + hi)),
                       bracket_low=math.exp(lo), bracket_high=math.exp(hi))


# ---------------------------------------------------------------------------
# Calibration


def calibrate(setup: SetupConfig, plan: MeasurementPlan,
              true_noise: NoiseParams | None, margin: float = 0.10) -> NoiseParams:
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
    moments = [draw_moments(measured_state(dc_replace(setup, probe_phase=phase),
                                           IDENTITY_PROCESS, true_noise),
                            MeasurementPlan(plan.scheme, n_each, _plan_seed(plan.seed, j)))
               for j, phase in enumerate(PROBE_PHASES)]
    gain = _probe_inversion(moments, r)[1][0].real  # half the trace of the linear part
    through_part = (gain - ideal.direct) / ideal.through
    t_c_hat = through_part * through_part if through_part > 0.0 else 0.0
    if t_c_hat > (1.0 + margin) ** 2 or t_c_hat <= 0.0:
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
