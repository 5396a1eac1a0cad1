import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lmint
from lmint.cli import (
    SWEEP_CSV_HEADER,
    ConfigError,
    _preset_path,
    build_parser,
    load_config,
    main,
    parse_grid,
)

PRESETS = ("fig3_left", "fig3_right", "fig4_left", "fig4_right",
           "fig5_left", "fig5_right")

SMALL_CONFIG = {
    "setup": {"topology": "interferometric", "t1": 0.1, "t2": 0.1,
              "v_thermal": 100.0, "r_amp": 100.0},
    "process": {"phi": 0.7, "q": 2.0, "alpha": -0.3, "d": 4.0, "beta": 0.5},
    "plan": {"scheme": "joint", "n_samples": 600, "seed": 0},
    "estimators": ["mean_method"],
    "m_reps": 3,
    "base_seed": 5,
}


class Overrides:
    n_samples = None
    seed = None
    m_reps = None
    out = None
    axis = None
    grid = None


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# Config parsing


def test_load_config_minimal(tmp_path):
    cfg = load_config(write_config(tmp_path, SMALL_CONFIG), Overrides())
    assert cfg["m_reps"] == 3
    assert cfg["plan"].n_samples == 600
    assert cfg["process"].q == pytest.approx(2.0)
    assert cfg["noise"] == lmint.IDEAL_NOISE  # no noise section


def test_unknown_keys_rejected_with_field_path(tmp_path):
    bad = dict(SMALL_CONFIG, bogus=1)
    with pytest.raises(ConfigError, match="unknown key: bogus"):
        load_config(write_config(tmp_path, bad), Overrides())
    bad = dict(SMALL_CONFIG, setup=dict(SMALL_CONFIG["setup"], zeta=2))
    with pytest.raises(ConfigError, match="unknown key: setup.zeta"):
        load_config(write_config(tmp_path, bad), Overrides())


def test_range_violations_name_the_field(tmp_path):
    bad = dict(SMALL_CONFIG, setup=dict(SMALL_CONFIG["setup"], v_thermal=0.5))
    with pytest.raises(ConfigError, match="setup"):
        load_config(write_config(tmp_path, bad), Overrides())
    bad = dict(SMALL_CONFIG, noise={"t_c": 1.5})
    with pytest.raises(ConfigError, match="noise"):
        load_config(write_config(tmp_path, bad), Overrides())


def test_q_and_w_are_exclusive(tmp_path):
    bad = dict(SMALL_CONFIG, process={"q": 2.0, "w": 0.5})
    with pytest.raises(ConfigError, match="either q or w"):
        load_config(write_config(tmp_path, bad), Overrides())


def test_parse_grid():
    assert parse_grid([1, 2.5]) == [1.0, 2.5]
    grid = parse_grid("log:1:300:15")
    assert len(grid) == 15
    assert grid[0] == pytest.approx(1.0)
    assert grid[-1] == pytest.approx(300.0)
    assert parse_grid("lin:0:1:3") == pytest.approx([0.0, 0.5, 1.0])
    for bad in ("geo:1:2:3", "log:1:2", "log:0:2:3", ["a"]):
        with pytest.raises(ConfigError):
            parse_grid(bad)


def test_all_presets_load():
    for name in PRESETS:
        cfg = load_config(_preset_path(name), Overrides())
        assert cfg["estimators"]
        assert "sweep" in cfg


def test_unknown_preset():
    with pytest.raises(ConfigError):
        _preset_path("fig9_left")


# ---------------------------------------------------------------------------
# Commands (driven through main for exit-code coverage)


def test_sweep_csv_shape_and_header(tmp_path):
    out = tmp_path / "sweep.csv"
    payload = dict(SMALL_CONFIG, sweep={"axis": "r", "grid": "log:1:300:3"})
    code = main(["sweep", "--config", write_config(tmp_path, payload),
                 "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == SWEEP_CSV_HEADER
    assert len(rows) == 1 + 3 * 1 * 5  # grid x estimators x parameters


def test_sweep_is_byte_identical_across_runs(tmp_path):
    payload = dict(SMALL_CONFIG, sweep={"axis": "r", "grid": [5.0, 50.0]})
    path = write_config(tmp_path, payload)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_axis_grid_overrides(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", write_config(tmp_path, SMALL_CONFIG),
                 "--axis", "V", "--grid", "lin:50:100:2", "--out", str(out)])
    assert code == 0
    values = {row[1] for row in read_rows(out)[1:]}
    assert values == {"50.0", "100.0"}


def test_estimate_json_roundtrip(tmp_path):
    out = tmp_path / "est.json"
    cfg_path = write_config(tmp_path, SMALL_CONFIG)
    assert main(["estimate", "--config", cfg_path, "--out", str(out)]) == 0
    first = json.loads(out.read_text())
    assert main(["estimate", "--config", cfg_path, "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == first
    (report,) = first
    assert report["estimator"] == "mean_method"
    assert set(report["params"]) == {"phi", "q", "alpha", "d", "beta"}
    assert all(math.isfinite(v) for v in report["params"].values())


def test_estimate_honours_auto_calibration(tmp_path):
    # A lossy channel (t_c = 0.5) that only a calibration run reveals: the
    # calibrated estimate sees through it, the naive one loses a factor
    # sqrt(t_c) of d and q.
    payload = dict(SMALL_CONFIG, noise={"t_c": 0.5, "v_c": 1.2}, calibration="auto",
                   estimators=["mean_method", "naive_mean_method"], base_seed=16384,
                   plan={"scheme": "joint", "n_samples": 100_000, "seed": 0})
    out = tmp_path / "est.json"
    assert main(["estimate", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    calibrated, naive = (r["params"] for r in json.loads(out.read_text()))
    assert calibrated["d"] == pytest.approx(4.0, abs=0.3)
    assert calibrated["q"] == pytest.approx(2.0, abs=0.05)
    assert naive["d"] == pytest.approx(4.0 * math.sqrt(0.5), abs=0.3)
    assert naive["q"] == pytest.approx(math.sqrt(2.0), abs=0.05)


def test_fisher_reference_values(tmp_path):
    out = tmp_path / "fisher.csv"
    cfg_path = write_config(tmp_path, dict(SMALL_CONFIG, process={"d": 4.0, "beta": 0.5}))
    assert main(["fisher", "--config", cfg_path, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["topology", "parameter", "method", "value"]
    assert [row[2] for row in rows[1:]] == [
        "analytic_simplistic", "analytic_blocked", "analytic_interferometric",
        *["numeric_gaussian"] * 5]
    closed = {row[0]: float(row[3]) for row in rows[1:4]}
    assert closed["simplistic"] == pytest.approx(0.0091743, abs=5e-8)
    assert closed["blocked_beam"] == pytest.approx(0.1 / 9.91)
    assert closed["interferometric"] == pytest.approx(0.1)


def test_fisher_displacement_rows_see_the_channel(tmp_path):
    # t_c = 0.5, v_c = 1.2 at T = 0.1, V = 100: the interferometric row is
    # g_d^2 / (a + 2b + e) of the channel, not the lossless 0.1, and equals
    # the process's d row at A = I.
    out = tmp_path / "fisher.csv"
    cfg_path = write_config(tmp_path, dict(SMALL_CONFIG, process={"d": 4.0, "beta": 0.5},
                                           noise={"t_c": 0.5, "v_c": 1.2}))
    assert main(["fisher", "--config", cfg_path, "--out", str(out)]) == 0
    rows = read_rows(out)
    closed = {row[0]: float(row[3]) for row in rows[1:4]}
    t, v, t_c, v_c = 0.1, 100.0, 0.5, 1.2
    a = t * t_c * ((1 - t) * v + t)
    b = math.sqrt(t * (1 - t) * t * (1 - t) * t_c) * (1 - v)
    e = t * (1 - t_c) * v_c + (1 - t) * (t * v + 1 - t)
    assert closed["interferometric"] == pytest.approx(t * t_c / (a + 2 * b + e), rel=1e-12)
    assert closed["interferometric"] == pytest.approx(0.0282, abs=5e-5)
    process_d = [float(row[3]) for row in rows[4:] if row[1] == "d"]
    assert process_d == [pytest.approx(closed["interferometric"], rel=1e-12)]


def test_simulate_state_json(tmp_path, capsys):
    assert main(["simulate", "--config", write_config(tmp_path, SMALL_CONFIG),
                 "--out", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["mean"]) == 2
    assert np.asarray(payload["cov"]).shape == (2, 2)


def test_simulate_samples_csv(tmp_path):
    out = tmp_path / "shots.csv"
    assert main(["simulate", "--config", write_config(tmp_path, SMALL_CONFIG),
                 "--samples", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["shot_index", "angle_rad_or_het", "value_x", "value_p"]
    assert len(rows) == 1 + 600


def test_successive_calls_share_the_parser_not_the_options(tmp_path, capsys):
    # The parser is built once per process; an option given to one call
    # (simulate --samples) does not leak into the next call without it.
    assert build_parser() is build_parser()
    path = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "shots.csv"
    assert main(["simulate", "--config", path, "--samples", "--out", str(out)]) == 0
    assert len(read_rows(out)) == 1 + 600
    capsys.readouterr()
    assert main(["simulate", "--config", path, "--out", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["cov", "mean"]
    assert main(["simulate", "--preset", "fig3_right", "--out", "-"]) == 0
    assert sorted(json.loads(capsys.readouterr().out)) == ["cov", "mean"]


def test_calibrate_json(tmp_path):
    out = tmp_path / "cal.json"
    payload = dict(SMALL_CONFIG, noise={"t_c": 0.8, "v_c": 1.2},
                   plan={"scheme": "joint", "n_samples": 100_000, "seed": 3})
    assert main(["calibrate", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    est = json.loads(out.read_text())
    assert est["t_c"] == pytest.approx(0.8, abs=0.02)
    assert est["v_c"] >= 1.0


def test_seed_override_changes_output(tmp_path):
    payload = dict(SMALL_CONFIG, sweep={"axis": "r", "grid": [5.0]})
    path = write_config(tmp_path, payload)
    texts = []
    for seed in ("11", "22"):
        out = tmp_path / f"s{seed}.csv"
        assert main(["sweep", "--config", path, "--seed", seed,
                     "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] != texts[1]


# ---------------------------------------------------------------------------
# Exit codes


def test_exit_code_1_on_config_errors(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 1
    bad = write_config(tmp_path, dict(SMALL_CONFIG, bogus=1))
    assert main(["sweep", "--config", bad]) == 1
    no_sweep = write_config(tmp_path, SMALL_CONFIG, "nosweep.json")
    assert main(["sweep", "--config", no_sweep]) == 1
    assert main(["estimate", "--preset", "fig9_left"]) == 1
    assert main(["estimate", "--preset", "fig4_left", "--seed", "-1"]) == 1
    capsys.readouterr()
    # Too few shots for the three probes: 12 homodyne3 shots leave each probe
    # 4, under 2 for each of 3 angle groups; 4 calibration shots and 5 shots to
    # calibrate with leave 1.
    few = write_config(tmp_path, dict(SMALL_CONFIG, plan={"scheme": "homodyne3",
                                                          "n_samples": 12, "seed": 0}), "few.json")
    cal = write_config(tmp_path, dict(SMALL_CONFIG, estimators=["displacement"],
                                      calibration="auto", calibration_samples=4), "cal.json")
    for argv in (["estimate", "--config", few], ["estimate", "--config", cal],
                 ["calibrate", "--preset", "fig3_left", "--n-samples", "5"]):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "over the 3 probes" in err, argv


def test_config_errors_name_their_key(tmp_path, capsys):
    # The integer fields and the sweep overrides, which load_config applies
    # with the others: each error names its key path and exits 1.
    cases = [(dict(SMALL_CONFIG, m_reps="3"), [], "m_reps: expected an integer"),
             (dict(SMALL_CONFIG, calibration_samples=2.5), [], "calibration_samples: expected"),
             (dict(SMALL_CONFIG, plan=dict(SMALL_CONFIG["plan"], seed=True)), [],
              "plan.seed: expected an integer"),
             (SMALL_CONFIG, ["--axis", "zeta", "--grid", "lin:1:2:2"], "sweep.axis: unknown axis"),
             (SMALL_CONFIG, ["--axis", "V"], "missing key: sweep.grid"),
             (SMALL_CONFIG, ["--axis", "V", "--grid", "geo:1:2:3"], "sweep.grid: malformed")]
    for payload, extra, message in cases:
        assert main(["sweep", "--config", write_config(tmp_path, payload), *extra]) == 1
        assert message in capsys.readouterr().err, message


def test_config_sections_must_be_objects(tmp_path, capsys):
    # A section that is not an object is named, with exit 1, before any
    # override reads it: no "unknown key: plan.1" from its entries and no
    # traceback from --seed writing into a list.
    cases = [dict(SMALL_CONFIG, plan=[1]), dict(SMALL_CONFIG, setup="abc"),
             dict(SMALL_CONFIG, process=[0.7]), dict(SMALL_CONFIG, noise=1.0)]
    for payload in cases:
        section = next(key for key in ("setup", "process", "noise", "plan")
                       if not isinstance(payload.get(key, {}), dict))
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match=f"^{section}: expected an object$"):
            load_config(path, Overrides())
        for extra in ([], ["--seed", "3"], ["--n-samples", "900"]):
            assert main(["estimate", "--config", path, *extra]) == 1, (section, extra)
            assert capsys.readouterr().err == f"error: {section}: expected an object\n"


def run_error(argv, capsys):
    """main's exit code and its one stderr line, which must be an error."""
    code = main(argv)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return code, err.rstrip("\n")


def test_out_of_range_and_non_finite_values_exit_1_by_name(tmp_path, capsys):
    # q <= 0 once ended in a traceback, and q < 1, w < 0 and d < 0 were
    # silently clamped to the identity squeeze or no displacement; NaN and
    # infinity passed every check.
    process = {key: value for key, value in SMALL_CONFIG["process"].items() if key != "q"}
    cases = [("process", dict(process, q=0), "process.q: must be >= 1, got 0"),
             ("process", dict(process, q=0.5), "process.q: must be >= 1, got 0.5"),
             ("process", dict(process, w=-0.5), "process.w: must be >= 0, got -0.5"),
             ("process", dict(SMALL_CONFIG["process"], d=-1), "process.d: must be >= 0, got -1"),
             ("setup", dict(SMALL_CONFIG["setup"], r_amp=math.nan),
              "setup.r_amp: expected a finite number, got nan"),
             ("setup", dict(SMALL_CONFIG["setup"], v_thermal=math.inf),
              "setup.v_thermal: expected a finite number, got inf")]
    for section, value, message in cases:
        path = write_config(tmp_path, dict(SMALL_CONFIG, **{section: value}))
        assert run_error(["estimate", "--config", path], capsys) == (1, f"error: {message}")


def test_out_must_be_a_string(tmp_path, capsys):
    path = write_config(tmp_path, dict(SMALL_CONFIG, out=5))
    assert run_error(["simulate", "--config", path], capsys) == (
        1, "error: out: expected a string, got 5")


def test_usage_errors_exit_1(tmp_path, capsys):
    # Exit 2 is reserved for estimation failures; a malformed command line
    # is a config error like any other.
    path = write_config(tmp_path, SMALL_CONFIG)
    choices = "'simulate', 'estimate', 'fisher', 'sweep', 'calibrate'"
    cases = [(["estimate"], "--config --preset is required"),
             (["estimate", "--config", path, "--seed", "abc"],
              "argument --seed: invalid int value: 'abc'"),
             (["estimate", "--config", path, "--bogus"], "unrecognized arguments: --bogus"),
             ([], "error: the following arguments are required: command"),
             (["simulte", "--config", path],
              f"error: argument command: invalid choice: 'simulte' (choose from {choices})"),
             (["fisher", "--config", path, "--preset", "fig3_left"],
              "error: argument --preset: not allowed with argument --config"),
             (["sweep", "--config", path, "--m-reps", "2.5"],
              "error: argument --m-reps: invalid int value: '2.5'"),
             (["calibrate", "--config"], "error: argument --config: expected one argument"),
             (["estimate", "--config", path, "extra"], "error: unrecognized arguments: extra")]
    for argv, message in cases:
        code, err = run_error(argv, capsys)
        assert code == 1 and message in err, argv


#: The Namespace of an argv that gives no option but --preset.
DEFAULTS = {"config": None, "preset": "fig4_left", "seed": None, "m_reps": None,
            "n_samples": None, "out": None, "axis": None, "grid": None, "samples": False}

#: Each option with the argv words that give it and the field they set.
OPTIONS = [(["--config", "c.json"], {"config": "c.json", "preset": None}),
           (["--seed", "7"], {"seed": 7}), (["--m-reps", "20"], {"m_reps": 20}),
           (["--n-samples", "900"], {"n_samples": 900}), (["--out", "-"], {"out": "-"}),
           (["--axis", "V"], {"axis": "V"}), (["--grid", "log:1:300:15"], {"grid": "log:1:300:15"}),
           (["--seed=0", "--out=x.csv"], {"seed": 0, "out": "x.csv"})]


@pytest.mark.parametrize("command", ["simulate", "estimate", "fisher", "sweep", "calibrate"])
@pytest.mark.parametrize("words, fields", [([], {})] + OPTIONS,
                         ids=["no_option"] + [" ".join(words) for words, _ in OPTIONS])
def test_parser_fields(command, words, fields):
    # One parser for every command: each option sets its field alone, the
    # others keep their defaults, and --preset fig4_left stands unless
    # --config replaces it.
    source = [] if "config" in fields else ["--preset", "fig4_left"]
    args = build_parser().parse_args([command, *source, *words])
    assert vars(args) == {"command": command, **DEFAULTS, **fields}


def test_parser_samples_field():
    args = build_parser().parse_args(["simulate", "--preset", "fig4_left", "--samples"])
    assert vars(args) == {"command": "simulate", **DEFAULTS, "samples": True}


@pytest.mark.parametrize("command", ["estimate", "fisher", "sweep", "calibrate"])
def test_samples_belongs_to_simulate_alone(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--preset", "fig3_left", "--samples", "--out", str(out)]
    assert run_error(argv, capsys) == (1, "error: unrecognized arguments: --samples")
    assert not out.exists()


@pytest.mark.parametrize("preset", PRESETS)
def test_only_sweep_spaces_out_the_grid(capsys, monkeypatch, preset):
    # Every preset's sweep.grid is a spec string: the other commands check
    # it as the config loads but build no grid, so they run with numpy's
    # spacing functions broken.
    def broken(*args, **kwargs):
        raise AssertionError("a grid was spaced out")

    monkeypatch.setattr(np, "geomspace", broken)
    monkeypatch.setattr(np, "linspace", broken)
    for command in ("simulate", "estimate", "fisher", "calibrate"):
        assert main([command, "--preset", preset, "--out", "-"]) == 0, command
    capsys.readouterr()


@pytest.mark.parametrize("command", ["simulate", "estimate", "fisher", "sweep", "calibrate"])
def test_malformed_grid_fails_every_command(tmp_path, capsys, command):
    # An empty list is refused as the string form with no point is.
    raw = json.loads(Path(_preset_path("fig4_left")).read_text())
    for grid, message in (("log:0:2:3", "log grid needs positive bounds"),
                          ([], "need at least one point")):
        raw["sweep"]["grid"] = grid
        argv = [command, "--config", write_config(tmp_path, raw),
                "--out", str(tmp_path / "out")]
        assert run_error(argv, capsys) == (1, f"error: sweep.grid: {message}"), grid
        assert not (tmp_path / "out").exists()


def test_calibration_ideal_is_not_a_mode(tmp_path, capsys):
    # The naive_ prefix assumes an ideal channel per estimator.
    path = write_config(tmp_path, dict(SMALL_CONFIG, calibration="ideal"))
    assert run_error(["estimate", "--config", path], capsys) == (
        1, "error: unknown calibration mode 'ideal'")


@pytest.mark.parametrize("command", ["simulate", "estimate", "fisher", "sweep", "calibrate"])
def test_run_keys_are_checked_by_every_command(tmp_path, capsys, command):
    # The keys of a Monte-Carlo run are checked as the config loads, so a
    # config that one command rejects, no other command accepts.
    cases = [(dict(SMALL_CONFIG, calibration="bogus"), "unknown calibration mode 'bogus'"),
             (dict(SMALL_CONFIG, m_reps=1), "m_reps must be >= 2, got 1"),
             (dict(SMALL_CONFIG, base_seed=-1), "base_seed must lie in [0, 2**64), got -1"),
             (dict(SMALL_CONFIG, estimators=["mean_method", "phase_mll"]),
              "unknown estimator 'phase_mll'")]
    for payload, message in cases:
        path = write_config(tmp_path, payload)
        argv = [command, "--config", path, "--out", str(tmp_path / "out")]
        assert run_error(argv, capsys) == (1, f"error: {message}"), message
    assert not (tmp_path / "out").exists()


def test_only_estimate_and_sweep_need_an_estimator(tmp_path, capsys):
    payload = {key: value for key, value in SMALL_CONFIG.items() if key != "estimators"}
    path = write_config(tmp_path, dict(payload, sweep={"axis": "r", "grid": [10.0, 100.0]}))
    for command in ("simulate", "fisher", "calibrate"):
        assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 0, command
    for command in ("estimate", "sweep"):
        argv = [command, "--config", path, "--out", str(tmp_path / command)]
        assert run_error(argv, capsys) == (
            1, "error: estimators: at least one estimator is required"), command


@pytest.mark.parametrize("axis, grid, message", [
    ("T", "lin:0.5:2:2", "t1 must be in [0, 1], got 2.0"),
    ("loss", "lin:0:1:2", "t_c must be in (0, 1], got 0.0"),
    ("loss", "lin:-0.5:0:2", "t_c must be in (0, 1], got 1.5"),
    ("V", "lin:0.5:1:2", "v_thermal must be >= 1, got 0.5")])
def test_sweep_grid_values_out_of_range_exit_1(tmp_path, capsys, axis, grid, message):
    # Every grid point is applied before the first run: a value outside its
    # axis's range names sweep.grid and exits 1, with nothing written.
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--preset", "fig3_left", "--axis", axis, "--grid", grid, "--out", str(out)]
    assert run_error(argv, capsys) == (1, f"error: sweep.grid: {message}")
    assert not out.exists()


#: The keys a config must give, as the README lists them.
REQUIRED_KEYS = {"setup", "plan", "setup.topology", "setup.t2", "setup.v_thermal",
                 "setup.r_amp", "plan.scheme", "plan.n_samples", "sweep.axis", "sweep.grid"}


@pytest.mark.parametrize("preset", PRESETS)
def test_every_preset_key_fails_by_its_path(tmp_path, capsys, preset):
    # Every key the preset gives, each in turn: a value of the wrong type
    # (an object) and a non-finite one exit 1 naming its path; leaving it
    # out exits 1 naming it when it is required and loads when it is not.
    text = Path(_preset_path(preset)).read_text()
    keys = [(section, key) for section, value in json.loads(text).items()
            for key in (value if isinstance(value, dict) else [None])]
    for section, key in keys:
        keypath = section if key is None else f"{section}.{key}"

        def edited(change):
            raw = json.loads(text)
            parent, name = (raw, section) if key is None else (raw[section], key)
            change(parent, name)
            return write_config(tmp_path, raw)

        for bad in ({}, math.nan, math.inf):
            path = edited(lambda parent, name: parent.__setitem__(name, bad))
            code, err = run_error(["estimate", "--config", path], capsys)
            assert code == 1 and err.startswith(f"error: {keypath}: "), (keypath, bad, err)
        path = edited(lambda parent, name: parent.pop(name))
        if keypath in REQUIRED_KEYS:
            assert run_error(["estimate", "--config", path], capsys) == (
                1, f"error: missing key: {keypath}")
        else:
            load_config(path, Overrides())


def test_exit_code_2_on_estimation_failure(tmp_path, capsys):
    # Cold matter and dark probe: the phase carries no signal anywhere.
    payload = dict(SMALL_CONFIG,
                   setup={"topology": "interferometric", "t1": 0.1, "t2": 0.1,
                          "v_thermal": 1.0, "r_amp": 0.0},
                   estimators=["phase_var"])
    assert main(["estimate", "--config", write_config(tmp_path, payload)]) == 2
    capsys.readouterr()


def test_exit_code_2_when_the_readout_lacks_the_covariance(tmp_path, capsys):
    payload = dict(SMALL_CONFIG, estimators=["cov_method"],
                   plan={"scheme": "homodyne2", "n_samples": 600, "seed": 0})
    assert main(["estimate", "--config", write_config(tmp_path, payload)]) == 2
    assert "full covariance" in capsys.readouterr().err


def test_exit_code_2_for_mean_method_on_the_simplistic_topology(tmp_path, capsys):
    payload = dict(SMALL_CONFIG,
                   setup={"topology": "simplistic", "t2": 0.1, "v_thermal": 100.0,
                          "r_amp": 100.0})
    assert main(["estimate", "--config", write_config(tmp_path, payload)]) == 2
    assert "estimation failed" in capsys.readouterr().err


def test_exit_code_2_when_the_polar_decomposition_fails(tmp_path, capsys):
    # Weak coupling, dim probe: at 600 shots the three-probe estimate of
    # the process matrix has det <= 0 on realization 1 of seed 2.
    payload = dict(SMALL_CONFIG,
                   setup={"topology": "interferometric", "t1": 0.01, "t2": 0.01,
                          "v_thermal": 100.0, "r_amp": 3.0})
    assert main(["estimate", "--config", write_config(tmp_path, payload),
                 "--seed", "2"]) == 2
    assert "polar decomposition" in capsys.readouterr().err


def test_sweep_exit_code_2_names_the_failed_cells(tmp_path, capsys):
    # Simplistic topology: mean_method never succeeds.  The CSV is still
    # written, and each empty cell is named on stderr with its reason.
    payload = dict(SMALL_CONFIG,
                   setup={"topology": "simplistic", "t2": 0.1, "v_thermal": 100.0,
                          "r_amp": 100.0},
                   sweep={"axis": "r", "grid": [100.0]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 2
    rows = read_rows(out)
    assert rows[0] == SWEEP_CSV_HEADER
    assert len(rows) == 1 + 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5
    for line in err:
        assert "mean_method/" in line
        assert "UnidentifiableError x3" in line


#: Rows of each preset sweep: grid values x (estimator, parameter) cells.
#: cov_method and mean_method report five parameters, displacement two and
#: a phase estimator one.
PRESET_ROWS = {"fig3_left": 13 * 2, "fig3_right": 13 * 3, "fig4_left": 13 * 10,
               "fig4_right": 13 * 10, "fig5_left": 9 * 10, "fig5_right": 6 * 15}


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_sweeps_end_with_their_exit_code(tmp_path, capsys, preset):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--preset", preset, "--m-reps", "20", "--out", str(out)])
    rows = read_rows(out)
    assert rows[0] == SWEEP_CSV_HEADER
    assert len(rows) == 1 + PRESET_ROWS[preset]
    err = capsys.readouterr().err.splitlines()
    if preset != "fig4_right":
        assert code == 0
        assert err == []
        return
    # The V grid starts at cold matter, V = 1, where the covariance carries
    # no rotation signal: every cov_method cell of that point is empty and
    # named on stderr.  cov_method succeeds at the other points, so the
    # sweep exits 0.
    assert code == 0
    assert len(err) == 5
    for line in err:
        assert "V=1.0 cov_method/" in line
        assert "UnidentifiableError x20" in line


# ---------------------------------------------------------------------------
# Packaging


def test_import_leaves_scipy_out():
    # numpy is the only runtime dependency; importing scipy would also add
    # about half a second to every CLI start.
    src = str(Path(lmint.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, lmint, lmint.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.strip() == "False"


def test_off_image_fit_leaves_numpy_polynomial_out():
    # The covariance fit off the image takes its face roots from one
    # eigenvalue call on a closed-form companion matrix, so numpy.polynomial
    # stays out of the import surface.
    src = str(Path(lmint.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "\n".join([
        "import sys",
        "from lmint import ProcessParams, SetupConfig, Topology, est_general_cov, forward, response",
        "from lmint.measurement import MomentEstimate",
        "setup = SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.1, t2=0.1,",
        "                    v_thermal=100.0, r_amp=100.0)",
        "state = forward(setup, ProcessParams.folded(phi=0.02, w=0.03, alpha=0.5, d=4.0))",
        "exact = MomentEstimate(mean=state.mean, cov=state.cov)",
        "shrunk = MomentEstimate(z=exact.z, c0=exact.c0 - 0.005 * response(setup).a, c1=exact.c1)",
        "report = est_general_cov(shrunk, setup)",
        "print(report.diagnostics['off_image'], 'numpy.polynomial' in sys.modules)",
    ])
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.split() == ["True", "False"]
