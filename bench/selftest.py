"""Quick self-test of the benchmark at tiny budgets (a few seconds).

    python3 bench/selftest.py

It checks the reference model against lmint's `forward` and Fisher
information, shows that each correctness check trips on one wrong input
(an estimate scaled by sqrt(t_c), a shifted forward mean, an inflated MSE,
an off calibration, a perturbed Fisher row), that the tracer reports a
missing layer as 0 calls, and that BENCHMARK.json names exactly the
metrics the runs print.  Exit code 0 when all hold.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

from lmint import harness, interferometer  # noqa: E402
from lmint.harness import MonteCarloConfig  # noqa: E402
from lmint.measurement import MeasurementPlan, Scheme  # noqa: E402
from lmint.noise import NoiseParams  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

OUT = ROOT / ".bench_out"
FAILURES = []


def expect(label, fails, should_fail):
    ok = bool(fails) == should_fail
    print(f"{'ok  ' if ok else 'FAIL'} {label}: "
          f"{'tripped' if fails else 'held'}{' - ' + fails[0] if fails else ''}")
    if not ok:
        FAILURES.append(label)


def reference_against_lmint(rng):
    expect("forward agrees with the reference", checks.forward_agrees(rng, 9), False)
    expect("fisher_numeric agrees with the reference", checks.fisher_numeric_agrees(rng), False)
    expect("noise-free inversions are exact", checks.inversions_exact(rng, 1), False)
    real = interferometer.forward

    def shifted(setup, process, noise=None):
        state = real(setup, process, noise)
        return dataclasses.replace(state, mean=state.mean * (1.0 + 1e-6))

    interferometer.forward = shifted
    try:
        expect("a forward mean off by 1e-6 trips", checks.forward_agrees(rng, 3), True)
    finally:
        interferometer.forward = real


def reference_schemes():
    """Displacement information per scheme where it is known in closed form:
    with no process on a balanced interferometer the output covariance is
    the vacuum's, so d carries t2 per joint shot, half that per heterodyne
    shot (one added vacuum unit) and the mean of the homodyne angles'
    cos^2(theta - beta) shares per homodyne shot."""
    setup = ref.Setup("interferometric", 0.2, 0.2, 50.0, 30.0)
    point = ref.Point(0.0, 1.0, 0.0, 2.0, 0.4)
    d = ref.PARAMS.index("d")
    want = {"joint": 0.2, "heterodyne": 0.1}
    for scheme, angles in ref.HOMODYNE_ANGLES.items():
        want[scheme] = 0.2 * sum(math.cos(a - point.beta) ** 2 for a in angles) / len(angles)
    fails = []
    for scheme, value in want.items():
        got = ref.fisher(setup, point, scheme, mean_only=True)[d, d]
        if abs(got - value) > 1e-12:
            fails.append(f"{scheme}: reference d information {got} against {value}")
    expect("reference scheme information in closed form", fails, False)


def loss_point_checks():
    """mean_method at loss 0.5 with the true channel, 20 realizations."""
    loss = 0.5
    cfg = MonteCarloConfig(setup=wl.SETUP, process=wl.FULL, plan=wl.JOINT,
                           estimators=("mean_method", "naive_mean_method"),
                           noise=NoiseParams(t_c=1.0 - loss, v_c=1.2), m_reps=20,
                           base_seed=0x5EED5EED5EED)
    ledger = wl.Ledger()
    ledger.mc(loss, harness.run_mc(cfg))
    truth = dataclasses.replace(wl.REF_FULL, t_c=1.0 - loss, v_c=1.2)
    bounds = ref.bounds(ref.three_probe_fisher(wl.REF_SETUP, truth), wl.N_SHOTS)
    expected = wl.REF_FULL.d * (math.sqrt(1.0 - loss) - 1.0)
    expect("calibrated mean_method within its bound factor",
           checks.mse_within_factor(ledger, loss, "mean_method", bounds, checks.MEAN_FACTOR),
           False)
    expect("naive d bias matches -d(1 - sqrt(t_c))", checks.naive_bias(ledger, loss, expected),
           False)
    # The naive estimate is the calibrated one with d scaled by sqrt(t_c).
    wrong = copy.deepcopy(ledger)
    for p in ref.PARAMS:
        wrong.cells[(loss, "mean_method", p)] = ledger.cells[(loss, "naive_mean_method", p)]
    expect("a sqrt(t_c)-scaled mean_method trips the bound factor",
           checks.mse_within_factor(wrong, loss, "mean_method", bounds, checks.MEAN_FACTOR),
           True)
    expect("a naive bias against a zero expectation trips", checks.naive_bias(ledger, loss, 0.0),
           True)


def estimate_checks():
    workload = wl.GeneralProcess(OUT)
    ledger = wl.Ledger()
    workload.estimates(ledger, wl.round_seeds(0x5EED, 0)[:1])
    outputs = ledger.outputs["estimate"]
    bounds = workload.estimate_bounds()
    expect("lmint estimate near the truth",
           checks.estimates_near_truth(outputs, wl.REF_FULL, bounds), False)
    wrong = copy.deepcopy(outputs)
    for report in wrong[0]:
        if report["estimator"] == "mean_method":
            report["params"]["d"] *= math.sqrt(0.5)
    expect("a sqrt(t_c)-scaled estimate trips",
           checks.estimates_near_truth(wrong, wl.REF_FULL, bounds), True)


def displacement_checks():
    truth = wl.ShotsCalibration.ESTIMATE_TRUTH
    var = checks.displacement_variance(wl.REF_SETUP, truth, "heterodyne", wl.N_SHOTS)
    cfg = MonteCarloConfig(setup=wl.SETUP, process=wl.ShotsCalibration.DISP,
                           plan=MeasurementPlan(Scheme.HETERODYNE, wl.N_SHOTS, 0),
                           estimators=("displacement",), m_reps=100, base_seed=0x5EED5EED)
    mse = harness.run_mc(cfg).mse("displacement", "d")
    expect("heterodyne displacement MSE in its chi-square window",
           checks.chi2_window("heterodyne", mse, var, 100), False)
    expect("the same MSE judged as a joint read-out (half the variance) trips",
           checks.chi2_window("heterodyne as joint", mse,
                              checks.displacement_variance(wl.REF_SETUP, truth, "joint",
                                                           wl.N_SHOTS), 100), True)


def calibration_checks():
    shots = 200_000
    est = harness.calibrate(wl.SETUP, MeasurementPlan(Scheme.JOINT, shots, 0x5EED),
                            wl.CAL_NOISE)
    got = [(est.t_c, est.v_c)]
    expect("calibrate within its shot-noise tolerance",
           checks.calibration_near_truth(got, wl.REF_SETUP, wl.CAL_NOISE, shots), False)
    expect("a 5% high t_c trips",
           checks.calibration_near_truth([(est.t_c * 1.05, est.v_c)], wl.REF_SETUP,
                                         wl.CAL_NOISE, shots), True)


def fisher_checks():
    workload = wl.PhaseFisher(OUT)
    ledger = wl.Ledger()
    workload.fisher_tables(ledger, wl.round_seeds(0x5EED, 0)[:1])
    table = ledger.outputs["fisher_table"][0]
    expect("lmint fisher table agrees", checks.fisher_table_agrees([table]), False)
    expect("phase comparison agrees", checks.crossing_agrees(ledger.outputs["crossing"]), False)
    lines = table.splitlines()
    last = lines[-1].rsplit(",", 1)
    lines[-1] = f"{last[0]},{float(last[1]) * 1.01!r}"
    expect("a 1% off Fisher row trips", checks.fisher_table_agrees(["\n".join(lines)]), True)


def tracer_checks():
    tracer = Tracer()
    tracer.install()
    try:
        interferometer.forward(wl.SETUP, wl.FULL)
    finally:
        tracer.uninstall()
    got = tracer.metrics(["interferometer.forward.calls", "interferometer.gone.calls",
                          "measurement.sample.shots"])
    ok = got == {"interferometer.forward.calls": 1.0, "interferometer.gone.calls": 0.0,
                 "measurement.sample.shots": 0.0}
    expect("tracer counts one call and reports absent layers as 0", [] if ok else [str(got)],
           False)
    expect("tracer restores the unwrapped functions",
           [] if not hasattr(interferometer.forward, "__wrapped__") else ["still wrapped"], False)


def benchmark_json_checks():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fails = []
    if [m["name"] for m in spec["per_layer"]] != list(run.per_layer_units()):
        fails.append("per_layer names differ from run.per_layer_units()")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        fails.append("end_to_end names or units differ from run.END_TO_END")
    ledger = wl.Ledger()
    for name in ("realization_ms", "estimate_ms", "fisher_s", "calibrate_s"):
        ledger.sample(name, 1.0)
    ledger.mc_realizations, ledger.mc_seconds = 1, 1.0
    timed = set(wl.Workload.metrics(None, ledger)) | {"setup_s", "peak_rss_mb"}
    if timed != set(run.END_TO_END):
        fails.append(f"the workloads report {sorted(timed)}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(wl.WORKLOADS):
        fails.append("workload names differ")
    expect("BENCHMARK.json matches the metrics the runs print", fails, False)


def main() -> int:
    OUT.mkdir(exist_ok=True)
    rng = np.random.default_rng(0x5EED)
    for part in (reference_against_lmint, reference_schemes, loss_point_checks, estimate_checks,
                 displacement_checks, calibration_checks, fisher_checks, tracer_checks,
                 benchmark_json_checks):
        part(*([rng] if part is reference_against_lmint else []))
    print("selftest", "FAILED: " + ", ".join(FAILURES) if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
