"""Benchmark of lmint: one workload for a fixed time, checked against the
closed-form reference, with every metric printed as the last line of JSON.

    python3 bench/run.py --workload general_process --seed 7919 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the same rounds with every public lmint function wrapped in a span and
prints the per-layer metrics instead.  Spans and run outputs go to
.bench_out/ in the checkout.  Exit code 0 on a completed run (the `correct`
field says whether the checks held), 2 when lmint's source is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5

#: End-to-end metrics of every workload and their units.
END_TO_END = {
    "setup_s": "s",
    "mc_realizations_per_s": "1/s",
    "realization_ms": "ms",
    "estimate_ms": "ms",
    "fisher_s": "s",
    "calibrate_s": "s",
    "peak_rss_mb": "MB",
}

#: Layers reported by the traced run, each with calls, self_s, call_ms_p50
#: and call_ms_p90; plus the counts read at two of them.
TRACED_LAYERS = (
    "interferometer.forward",
    "measurement.sample",
    "measurement.estimate_moments",
    "estimators.est_general_cov",
    "estimators.est_general_mean",
    "estimators.est_combined",
    "estimators.est_phase_var",
    "estimators.est_phase_mean",
    "estimators.est_phase_ml",
    "estimators.est_displacement",
    "fisher.fisher_numeric",
    "fisher.fisher_displacement",
    "fisher.compare_blocked_vs_interferometric",
    "harness.run_mc",
    "harness.sweep",
    "harness.calibrate",
    "cli.main",
)
LAYER_STATS = (("calls", "count"), ("self_s", "s"), ("call_ms_p50", "ms"), ("call_ms_p90", "ms"))
LAYER_COUNTS = (("estimators.est_general_cov.nfev", "count"),
                ("measurement.sample.shots", "count"))
TRACE_TOTALS = (("trace.run_s", "s"), ("trace.self_share", "ratio"),
                ("trace.overhead_s", "s"), ("trace.reference_loop_ms", "ms"))


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.{stat}": unit for layer in TRACED_LAYERS for stat, unit in LAYER_STATS}
    units.update(LAYER_COUNTS)
    units.update(TRACE_TOTALS)
    return units


def measure_setup(workload: str) -> float:
    """Median set-up time over SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_rounds(workload, ledger, seed, seconds, tracer=None):
    """Whole rounds, at least one, until `seconds` of wall time have passed;
    returns the CPU seconds of each round."""
    import workloads

    cpu = []
    start = time.monotonic()
    while not cpu or time.monotonic() - start < seconds:
        if tracer is not None:
            tracer.round = len(cpu)
        t0 = time.process_time()
        workload.run_round(ledger, workloads.round_seeds(seed, len(cpu)))
        cpu.append(time.process_time() - t0)
    return cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("general_process", "phase_fisher", "shots_calibration"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lmint" / "__init__.py").is_file():
        print(f"error: no lmint source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Runs stay serial: run_mc forks a process pool when LMI_THREADS > 1,
    # and BLAS threads only spin on these shapes.  Set before numpy loads;
    # the set-up probes inherit it.
    os.environ.pop("LMI_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    OUT.mkdir(exist_ok=True)
    setup_s = measure_setup(args.workload) if not args.trace else None

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import numpy as np

    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload](OUT)
    workload.warm_up()
    ledger = workloads.Ledger()
    tracer = None
    if args.trace:
        # Round 0 untraced, then the traced rounds from round 0 again: the
        # difference between the two round-0 CPU times is the tracing overhead.
        plain = run_rounds(workload, workloads.Ledger(), args.seed, 0.0)[0]
        tracer = Tracer()
        tracer.install()
        try:
            rounds = run_rounds(workload, ledger, args.seed, args.seconds, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    else:
        rounds = run_rounds(workload, ledger, args.seed, args.seconds)
    cpu = sum(rounds)

    # The check points depend on the seed only, not on how many rounds ran.
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 2**32]))
    failures = workload.check(ledger, rng)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)

    if args.trace:
        units = per_layer_units()
        values = tracer.metrics([m for m in units if not m.startswith("trace.")])
        values["trace.run_s"] = cpu
        values["trace.self_share"] = tracer.self_seconds() / cpu
        values["trace.overhead_s"] = rounds[0] - plain
        values["trace.reference_loop_ms"] = 1e3 * statistics.median(ledger.clock.loops)
    else:
        units = END_TO_END
        values = workload.metrics(ledger)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "correct": not failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
