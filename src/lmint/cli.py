"""Command-line driver: config parsing, the five workflows, CSV/JSON emission.

Exit codes: 0 success, 1 usage/config/validation error, 2 runtime estimation failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from enum import Enum
from pathlib import Path

import numpy as np

from .estimators import EstimationError, UnidentifiableError
from .fisher import PARAMETERS, fisher_displacement, fisher_matrix
from .gaussian_core import DecompositionError, ProcessParams
from .harness import (AXES, CalibrationError, MonteCarloConfig, apply_axis, calibrate,
                      check_run_keys, estimate_once, sweep)
from .interferometer import SetupConfig, Topology, measured_state
from .measurement import InsufficientDataError, MeasurementPlan, Scheme, sample
from .noise import NoiseParams

SWEEP_CSV_HEADER = ["axis", "value", "estimator", "parameter",
                    "mse", "bias", "variance", "n_samples", "m_reps", "seed"]

#: The shipped figure presets, next to this module.
_PRESETS = Path(__file__).with_name("presets")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config parsing / validation


def _require(mapping, path, allowed, required=()):
    unknown = set(mapping) - set(allowed)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown key: {path}{key}")
    for key in required:
        if key not in mapping:
            raise ConfigError(f"missing key: {path}{key}")


_REQUIRED = object()  # the default of a key that must be given

#: What each kind of key accepts, and its name in the error message.
_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}


def _finite(value) -> bool:
    """A JSON number that is a finite float (no NaN, no infinity, no
    integer beyond the float range)."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max)


def _read(mapping, path, key, kind, default=_REQUIRED, low=None):
    """mapping[key] as kind: a finite float (at least low, if given), an int,
    a str or a value of an Enum class.  The default stands in for an absent
    key, and for null when the default is None."""
    value = mapping.get(key)
    if key not in mapping or value is None and default is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing key: {path}{key}")
        return default
    if issubclass(kind, Enum):
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(f"{path}{key}: unknown {key} {value!r}") from None
    types, name = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{path}{key}: expected {name}, got {value!r}")
    if kind is not float:
        return value
    if not _finite(value):
        raise ConfigError(f"{path}{key}: expected a finite number, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{path}{key}: must be >= {low:g}, got {value!r}")
    return float(value)


#: Each section's class and keys, key -> (kind[, default[, least value]]); a
#: key without a default is required.  The plan draws under base_seed.
_SECTIONS = {
    "setup": (SetupConfig, {"topology": (Topology,), "t1": (float, 0.0), "t2": (float,),
                            "v_thermal": (float,), "r_amp": (float,),
                            "probe_phase": (float, 0.0)}),
    "process": (ProcessParams.from_q, {"phi": (float, 0.0), "q": (float, 1.0, 1.0),
                                       "alpha": (float, 0.0), "d": (float, 0.0, 0.0),
                                       "beta": (float, 0.0)}),
    "noise": (NoiseParams, {"t_c": (float, 1.0), "v_c": (float, 1.0)}),
    "plan": (MeasurementPlan, {"scheme": (Scheme,), "n_samples": (int,)}),
}

#: The key each option overrides, option -> (section or None, key).
_OVERRIDES = {"n_samples": ("plan", "n_samples"), "seed": (None, "base_seed"),
              "m_reps": (None, "m_reps"), "out": (None, "out"), "axis": ("sweep", "axis"),
              "grid": ("sweep", "grid")}

#: The top-level keys other than the sections, "estimators" and "sweep".
_TOP = {"m_reps": (int, 500), "base_seed": (int, 0), "calibration": (str, "true"),
        "calibration_samples": (int, None), "out": (str, None)}


def _section(raw, name, **given):
    """The section `name` of a config, built from its keys by _SECTIONS and `given`."""
    build, keys = _SECTIONS[name]
    _require(raw, f"{name}.", keys)
    values = {key: _read(raw, f"{name}.", key, *spec) for key, spec in keys.items()}
    try:
        return build(**values, **given)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _grid_spec(spec):
    """sweep.grid checked, not yet spaced out: the floats of a list, or the numpy
    spacing and its (lo, hi, n) for a 'log:lo:hi:n' / 'lin:lo:hi:n' string."""
    if isinstance(spec, list):
        if not all(_finite(v) for v in spec):
            raise ConfigError("sweep.grid: expected numbers")
        if not spec:
            raise ConfigError("sweep.grid: need at least one point")
        return [float(v) for v in spec]
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 4 or parts[0] not in ("log", "lin"):
            raise ConfigError(f"sweep.grid: malformed grid spec {spec!r}")
        try:
            lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("a bound is not finite")
        except ValueError:
            raise ConfigError(f"sweep.grid: malformed grid spec {spec!r}") from None
        if n < 1:
            raise ConfigError("sweep.grid: need at least one point")
        if parts[0] == "log" and (lo <= 0 or hi <= 0):
            raise ConfigError("sweep.grid: log grid needs positive bounds")
        return (np.geomspace if parts[0] == "log" else np.linspace), lo, hi, n
    raise ConfigError(f"sweep.grid: expected a list or a grid spec string, got {spec!r}")


def parse_grid(spec) -> list:
    """Grid given either as a list of numbers or 'log:lo:hi:n' / 'lin:lo:hi:n'."""
    grid = _grid_spec(spec)
    if isinstance(grid, list):
        return grid
    space, *bounds = grid
    return list(space(*bounds))


def load_config(path: str, overrides) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _require(raw, "", {*_SECTIONS, *_TOP, "estimators", "sweep"}, ("setup", "plan"))
    for section in (*_SECTIONS, "sweep"):
        if section in raw and not isinstance(raw[section], dict):
            raise ConfigError(f"{section}: expected an object")
    for option, (section, key) in _OVERRIDES.items():
        if getattr(overrides, option) is not None:
            (raw.setdefault(section, {}) if section else raw)[key] = getattr(overrides, option)
    # The process and noise sections may be absent: no process, IDEAL_NOISE.
    cfg = {name: _section(raw.get(name, {}), name) for name in ("setup", "process", "noise")}
    cfg.update({key: _read(raw, "", key, *spec) for key, spec in _TOP.items()})
    cfg["estimators"] = raw.get("estimators", [])
    if not isinstance(cfg["estimators"], list) or not all(
            isinstance(e, str) for e in cfg["estimators"]):
        raise ConfigError("estimators: expected a list of names")
    try:
        check_run_keys(cfg["m_reps"], cfg["base_seed"], cfg["calibration"], cfg["estimators"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg["plan"] = _section(raw["plan"], "plan", seed=cfg["base_seed"])  # base_seed checked above
    if "sweep" in raw:
        sw = raw["sweep"]
        _require(sw, "sweep.", {"axis", "grid"}, ("axis", "grid"))
        if sw["axis"] not in AXES:
            raise ConfigError(f"sweep.axis: unknown axis {sw['axis']!r}; expected one of {AXES}")
        _grid_spec(sw["grid"])  # checked by every command, spaced out by sweep alone
        cfg["sweep"] = {"axis": sw["axis"], "grid": sw["grid"]}
    return cfg


def _mc_config(cfg) -> MonteCarloConfig:
    fields = dataclasses.fields(MonteCarloConfig)  # each a key of the config
    try:
        return MonteCarloConfig(**{field.name: cfg[field.name] for field in fields})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _preset_path(name: str) -> str:
    candidate = _PRESETS / f"{name}.json"
    if not candidate.is_file():
        raise ConfigError(f"unknown preset {name!r}")
    return str(candidate)


def _fmt(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(cfg, args) -> int:
    state = measured_state(cfg["setup"], cfg["process"], cfg["noise"])
    payload = {"mean": list(state.mean), "cov": [list(row) for row in state.cov]}
    if args.samples:
        records = sample(state, cfg["plan"])
        if records.quad is not None:
            rows = [(repr(float(theta)), repr(float(v)), "")
                    for theta, values in records.quad.items() for v in values]
        else:
            tag = "het" if cfg["plan"].scheme is Scheme.HETERODYNE else "joint"
            rows = [(tag, repr(float(x)), repr(float(p))) for x, p in records.pairs]
        _write_text(cfg["out"], _csv_text(["shot_index", "angle_rad_or_het", "value_x", "value_p"],
                                          ((idx, *row) for idx, row in enumerate(rows))))
    else:
        _write_text(cfg["out"], json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_estimate(cfg, args) -> int:
    mc = _mc_config(cfg)
    reports = [{"estimator": name, "params": values}
               for name, values in zip(mc.estimators, estimate_once(mc))]
    _write_text(cfg["out"], json.dumps(reports, indent=2) + "\n")
    return 0


def cmd_fisher(cfg, args) -> int:
    setup = cfg["setup"]
    rows = []
    for topology, method in ((Topology.SIMPLISTIC, "analytic_simplistic"),
                             (Topology.BLOCKED_BEAM, "analytic_blocked"),
                             (Topology.INTERFEROMETRIC, "analytic_interferometric")):
        fi = fisher_displacement(dataclasses.replace(setup, topology=topology), cfg["noise"])
        rows.append([topology.value, fi.parameter, method, fi.value])
    info = fisher_matrix(setup, cfg["process"], cfg["noise"])
    for k, parameter in enumerate(PARAMETERS):
        rows.append([setup.topology.value, parameter, "numeric_gaussian",
                     max(float(info[k, k]), 0.0)])
    _write_text(cfg["out"], _csv_text(["topology", "parameter", "method", "value"], rows))
    return 0


def sweep_csv(axis, table, plan, m_reps, base_seed) -> str:
    rows = ([axis, value, estimator, parameter, cell.mse, cell.bias, cell.variance,
             plan.n_samples, m_reps, base_seed]
            for value, report in table for (estimator, parameter), cell in report.cells.items())
    return _csv_text(SWEEP_CSV_HEADER, rows)


def cmd_sweep(cfg, args) -> int:
    if "sweep" not in cfg:
        raise ConfigError("missing key: sweep")
    mc = _mc_config(cfg)
    axis, grid = cfg["sweep"]["axis"], parse_grid(cfg["sweep"]["grid"])
    try:  # every grid value, before the first run; estimator failures are ValueErrors too
        for value in grid:
            apply_axis(mc, axis, value)
    except ValueError as exc:
        raise ConfigError(f"sweep.grid: {exc}") from None
    table = sweep(mc, axis, grid)
    _write_text(cfg["out"], sweep_csv(axis, table, mc.plan, mc.m_reps, mc.base_seed))
    empty = [(value, key, cell) for value, report in table
             for key, cell in report.cells.items() if cell.n_ok == 0]
    for value, (estimator, parameter), cell in empty:
        reasons = ", ".join(f"{name} x{count}" for name, count in sorted(cell.failures.items()))
        print(f"estimation failed: {axis}={value!r} {estimator}/{parameter}: "
              f"no realization succeeded ({reasons})", file=sys.stderr)
    # Exit 2 only when an estimator succeeds at no grid point.
    cells = table[0][1].cells if table else {}
    return 2 if any(all(report.cells[key].n_ok == 0 for _, report in table)
                    for key in cells) else 0


def cmd_calibrate(cfg, args) -> int:
    try:
        est = calibrate(cfg["setup"], cfg["plan"], cfg["noise"])
    except ValueError as exc:  # too few shots for the three probes
        raise ConfigError(f"plan: {exc}") from None
    _write_text(cfg["out"], json.dumps({"t_c": est.t_c, "v_c": est.v_c}, indent=2) + "\n")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "fisher": cmd_fisher,
    "sweep": cmd_sweep,
    "calibrate": cmd_calibrate,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache  # built on first use, not at import, and shared by later calls
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lmint",
        description="Gaussian light-matter interferometry simulation and estimation",
    )
    parser.add_argument("command", choices=_COMMANDS)
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a JSON run config")
    src.add_argument("--preset", help="name of a shipped figure preset")
    parser.add_argument("--seed", type=int, default=None, help="override base seed")
    parser.add_argument("--m-reps", type=int, default=None, help="override repetition count")
    parser.add_argument("--n-samples", type=int, default=None, help="override sample count")
    parser.add_argument("--out", default=None, help="output path ('-' for stdout)")
    parser.add_argument("--axis", default=None, help="sweep axis override")
    parser.add_argument("--grid", default=None, help="sweep grid override, e.g. log:1:300:15")
    parser.add_argument("--samples", action="store_true",
                        help="simulate only: dump sample records as CSV instead of the state")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.samples and args.command != "simulate":  # read by simulate alone
            raise ConfigError("unrecognized arguments: --samples")
        path = args.config if args.config else _preset_path(args.preset)
        return _COMMANDS[args.command](load_config(path, args), args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EstimationError, UnidentifiableError, InsufficientDataError, CalibrationError,
            DecompositionError) as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
