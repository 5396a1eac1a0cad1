"""The benchmark's three workloads.

Each workload is a fixed round of operations on the paper's interferometric
working point (T = 0.1, V = 100, r = 100, N = 1e5 joint shots); a run
repeats whole rounds until its time is up.  Every random stream of a round
is keyed by a 64-bit seed drawn from SeedSequence([seed, round]), so the
same --seed gives the same inputs.  Library calls go through module
attributes (``harness.sweep``, ``cli.main``) so that the traced run sees
them.

Timings are CPU seconds of the benchmark process at a fixed reference
speed (speed.py).  The load is serial, so on an idle machine CPU time equals
wall time; on a shared virtual machine it leaves out the time the host hands
the CPU to other guests, which makes wall time swing by a factor of two.

Every workload reports every end-to-end metric.  Its main part loads one
layer; the operations behind the other metrics (one Fisher table, one
calibration, a few `lmint estimate` runs) are small by comparison.
"""
from __future__ import annotations

import dataclasses
import json
import math
import statistics
from pathlib import Path

import numpy as np

from lmint import cli, fisher, harness
from lmint.gaussian_core import ProcessParams
from lmint.harness import ESTIMATOR_PARAMS, CalibrationError, MonteCarloConfig
from lmint.interferometer import SetupConfig, Topology
from lmint.measurement import MeasurementPlan, Scheme
from lmint.noise import NoiseParams

import checks
import reference as ref
from speed import Clock

N_SHOTS = 100_000
CAL_SHOTS = 2_000_000
SETUP = SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.1, t2=0.1,
                    v_thermal=100.0, r_amp=100.0)
REF_SETUP = ref.Setup("interferometric", 0.1, 0.1, 100.0, 100.0)
FULL = ProcessParams.from_q(phi=0.7, q=2.0, alpha=-0.3, d=4.0, beta=0.5)
REF_FULL = ref.Point(0.7, 2.0, -0.3, 4.0, 0.5)
JOINT = MeasurementPlan(Scheme.JOINT, N_SHOTS, 0)
#: Channel of the standalone calibrations: half the light lost, a warm bath.
CAL_NOISE = NoiseParams(t_c=0.5, v_c=1.2)

#: Seeds each round draws: 4 for the main part, 4 for estimates, 3 for
#: Fisher grids, 2 for calibrations.
SEEDS_PER_ROUND = 13


def round_seeds(seed: int, index: int, count: int = SEEDS_PER_ROUND) -> list:
    """Independent 64-bit seeds for round `index` of a run."""
    state = np.random.SeedSequence([seed, index]).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


class Ledger:
    """Operations attempted and failed, plus the timings and outputs that
    the metrics and checks read."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mc_seconds = 0.0
        self.mc_realizations = 0
        self.samples = {}     # metric name -> list of values
        self.cells = {}       # (point, estimator, parameter) -> [n, sum n*mse, sum n*bias]
        self.outputs = {}     # output kind -> list of outputs
        self.clock = Clock()

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def output(self, kind, value):
        self.outputs.setdefault(kind, []).append(value)

    def median(self, name):
        return statistics.median(self.samples[name])

    def mc(self, point, report):
        """Book one MSEReport: realizations x estimators attempted."""
        cfg = report.config
        self.mc_realizations += cfg.m_reps
        for name in cfg.estimators:
            params = ESTIMATOR_PARAMS[harness.base_name(name)]
            self.attempted += cfg.m_reps
            self.failed += report.cells[(name, params[0])].n_failed
            for p in params:
                cell = report.cells[(name, p)]
                acc = self.cells.setdefault((point, name, p), [0, 0.0, 0.0])
                if cell.n_ok:
                    acc[0] += cell.n_ok
                    acc[1] += cell.n_ok * cell.mse
                    acc[2] += cell.n_ok * cell.bias

    def pooled(self, point, estimator, parameter):
        """(n, mse, bias, variance) pooled over every round of the run."""
        n, s_mse, s_bias = self.cells.get((point, estimator, parameter), (0, 0.0, 0.0))
        if n == 0:
            return 0, math.nan, math.nan, math.nan
        mse, bias = s_mse / n, s_bias / n
        return n, mse, bias, max(mse - bias * bias, 0.0)


class Workload:
    name = ""
    #: Preset of the workload's `lmint estimate` runs and the truth it holds.
    ESTIMATE_PRESET = ""
    ESTIMATE_TRUTH = None
    ESTIMATES = 0
    FISHER = 1
    CALIBRATIONS = 1

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def warm_up(self):
        """One small call through the workload's main path."""
        harness.run_mc(dataclasses.replace(self.warm_cfg, m_reps=2))

    # -- operations shared by the workloads -------------------------------

    def run_mc(self, ledger, point, cfg, latency=False):
        report, spent = ledger.clock.timed(harness.run_mc, cfg)
        ledger.mc_seconds += spent
        ledger.mc(point, report)
        if latency:
            ledger.sample("realization_ms", 1e3 * spent / cfg.m_reps)

    def sweep(self, ledger, cfg, axis, grid):
        try:
            table, spent = ledger.clock.timed(harness.sweep, cfg, axis, grid)
        except CalibrationError:
            ops = len(grid) * cfg.m_reps * len(cfg.estimators)
            ledger.attempted += ops
            ledger.failed += ops
            return
        ledger.mc_seconds += spent
        for value, report in table:
            ledger.mc(value, report)

    def cli_run(self, ledger, argv, out_name):
        """One in-process `lmint` command; returns (seconds, output text or None)."""
        out = self.out_dir / out_name
        code, spent = ledger.clock.timed(cli.main, argv + ["--out", str(out)])
        ledger.attempted += 1
        if code != 0:
            ledger.failed += 1
            return spent, None
        return spent, out.read_text()

    def estimates(self, ledger, seeds):
        for seed in seeds[:self.ESTIMATES]:
            spent, text = self.cli_run(
                ledger, ["estimate", "--preset", self.ESTIMATE_PRESET, "--seed", str(seed)],
                "estimate.json")
            ledger.sample("estimate_ms", 1e3 * spent)
            if text is not None:
                ledger.output("estimate", json.loads(text))

    def fisher_tables(self, ledger, seeds):
        """`lmint fisher` on fig3_left plus the blocked-vs-interferometric
        phase information on a 24-point grid with a seeded offset."""
        for seed in seeds[:self.FISHER]:
            shift = seed / 2.0 ** 64 * 2.0 * math.pi / 24
            grid = np.linspace(-math.pi, math.pi, 25)[:-1] + shift
            spent, text = self.cli_run(ledger, ["fisher", "--preset", "fig3_left"], "fisher.csv")
            crossing, spent_cmp = ledger.clock.timed(
                fisher.compare_blocked_vs_interferometric, SETUP, grid)
            ledger.sample("fisher_s", spent + spent_cmp)
            if text is not None:
                ledger.output("fisher_table", text)
            ledger.output("crossing", crossing)

    def calibrations(self, ledger, seeds):
        for seed in seeds[:self.CALIBRATIONS]:
            plan = MeasurementPlan(Scheme.JOINT, CAL_SHOTS, seed)
            ledger.attempted += 1
            try:
                est, spent = ledger.clock.timed(harness.calibrate, SETUP, plan, CAL_NOISE)
            except CalibrationError:
                ledger.failed += 1
                continue
            ledger.sample("calibrate_s", spent)
            ledger.output("calibration", (est.t_c, est.v_c))

    def run_round(self, ledger, seeds):
        self.main_part(ledger, seeds[:4])
        self.estimates(ledger, seeds[4:8])
        self.fisher_tables(ledger, seeds[8:11])
        self.calibrations(ledger, seeds[11:13])

    # -- metrics and checks -----------------------------------------------

    def metrics(self, ledger) -> dict:
        """The timed end-to-end metrics; run.py adds set-up time and memory."""
        return {
            "mc_realizations_per_s": ledger.mc_realizations / ledger.mc_seconds,
            "realization_ms": ledger.median("realization_ms"),
            "estimate_ms": ledger.median("estimate_ms"),
            "fisher_s": ledger.median("fisher_s"),
            "calibrate_s": ledger.median("calibrate_s"),
        }

    def check(self, ledger, rng):
        fails = checks.forward_agrees(rng)
        fails += checks.fisher_table_agrees(ledger.outputs.get("fisher_table", []))
        fails += checks.crossing_agrees(ledger.outputs.get("crossing", []))
        fails += checks.calibration_near_truth(ledger.outputs.get("calibration", []),
                                               REF_SETUP, CAL_NOISE, CAL_SHOTS)
        fails += checks.estimates_near_truth(ledger.outputs.get("estimate", []),
                                             self.ESTIMATE_TRUTH, self.estimate_bounds())
        return fails + self.check_main(ledger, rng)


class GeneralProcess(Workload):
    """Covariance and mean methods on the full process at T = 0.01 and 0.1,
    the combined estimator, and `lmint estimate` on fig4_left."""

    name = "general_process"
    SWEEP_REPS = 8
    ESTIMATE_PRESET = "fig4_left"
    ESTIMATE_TRUTH = REF_FULL
    ESTIMATES = 3
    FISHER = 3

    def __init__(self, out_dir):
        super().__init__(out_dir)
        self.sweep_cfg = MonteCarloConfig(setup=SETUP, process=FULL, plan=JOINT,
                                          estimators=("cov_method", "mean_method"),
                                          m_reps=self.SWEEP_REPS)
        self.combined_cfg = MonteCarloConfig(setup=SETUP, process=FULL, plan=JOINT,
                                             estimators=("combined",), m_reps=2)
        self.warm_cfg = self.sweep_cfg

    def main_part(self, ledger, seeds):
        self.sweep(ledger, dataclasses.replace(self.sweep_cfg, base_seed=seeds[0]),
                   "T", [0.01, 0.1])
        self.run_mc(ledger, "combined",
                    dataclasses.replace(self.combined_cfg, base_seed=seeds[1]), latency=True)

    def estimate_bounds(self):
        return {"cov_method": ref.bounds(ref.fisher(REF_SETUP, REF_FULL), N_SHOTS),
                "mean_method": ref.bounds(ref.three_probe_fisher(REF_SETUP, REF_FULL),
                                          N_SHOTS)}

    def check_main(self, ledger, rng):
        fails = checks.inversions_exact(rng)
        fails += checks.mse_within_factor(ledger, 0.1, "cov_method",
                                          self.estimate_bounds()["cov_method"],
                                          checks.COV_FACTOR)
        return fails


class PhaseFisher(Workload):
    """Phase-only estimators in the variance- and mean-based regimes
    (r = 1, 100), phase_ml alone at r = 100, two Fisher tables and
    `lmint estimate` on fig3_right."""

    name = "phase_fisher"
    SWEEP_REPS = 12
    ML_REPS = 4
    ESTIMATE_PRESET = "fig3_right"
    ESTIMATE_TRUTH = ref.Point(0.7, 1.0, 0.0, 0.0, 0.0)
    ESTIMATES = 4
    FISHER = 2
    PHASE = ProcessParams.folded(phi=0.7)

    def __init__(self, out_dir):
        super().__init__(out_dir)
        self.sweep_cfg = MonteCarloConfig(setup=SETUP, process=self.PHASE, plan=JOINT,
                                          estimators=("phase_var", "phase_mean", "phase_ml"),
                                          m_reps=self.SWEEP_REPS)
        self.ml_cfg = dataclasses.replace(self.sweep_cfg, estimators=("phase_ml",),
                                          m_reps=self.ML_REPS)
        self.warm_cfg = self.sweep_cfg

    def main_part(self, ledger, seeds):
        self.sweep(ledger, dataclasses.replace(self.sweep_cfg, base_seed=seeds[0]),
                   "r", [1.0, 100.0])
        self.run_mc(ledger, "ml", dataclasses.replace(self.ml_cfg, base_seed=seeds[1]),
                    latency=True)

    def estimate_bounds(self):
        truth = self.ESTIMATE_TRUTH
        full = ref.fisher(REF_SETUP, truth)
        mean_only = ref.fisher(REF_SETUP, truth, mean_only=True)
        return {
            "phase_var": {"phi": ref.phase_var_variance(REF_SETUP, truth, N_SHOTS)},
            "phase_mean": ref.block_bounds(mean_only, ["phi"], N_SHOTS),
            "phase_ml": ref.block_bounds(full, ["phi"], N_SHOTS),
        }

    def check_main(self, ledger, rng):
        fails = checks.fisher_numeric_agrees(rng)
        for point, r in ((1.0, 1.0), (100.0, 100.0), ("ml", 100.0)):
            info = ref.fisher(dataclasses.replace(REF_SETUP, r=r), self.ESTIMATE_TRUTH)
            fails += checks.mse_within_factor(ledger, point, "phase_ml",
                                              ref.block_bounds(info, ["phi"], N_SHOTS),
                                              checks.PHASE_ML_FACTOR)
        return fails


class ShotsCalibration(Workload):
    """Shot sampling and moment recovery: displacement runs on three
    schemes, the calibrated fig5_right loss sweep at loss 0 and 0.5, three
    standalone 2e6-shot calibrations and `lmint estimate` on fig3_left."""

    name = "shots_calibration"
    DISP_REPS = 20
    LOSS_REPS = 20
    SCHEMES = ("joint", "heterodyne", "homodyne3")
    LOSS_GRID = (0.0, 0.5)
    ESTIMATE_PRESET = "fig3_left"
    ESTIMATE_TRUTH = ref.Point(0.0, 1.0, 0.0, 4.0, 0.5)
    ESTIMATES = 2
    CALIBRATIONS = 2
    DISP = ProcessParams.folded(d=4.0, beta=0.5)

    def __init__(self, out_dir):
        super().__init__(out_dir)
        self.disp_cfgs = {
            scheme: MonteCarloConfig(setup=SETUP, process=self.DISP,
                                     plan=MeasurementPlan(Scheme(scheme), N_SHOTS, 0),
                                     estimators=("displacement",), m_reps=self.DISP_REPS)
            for scheme in self.SCHEMES
        }
        self.loss_cfg = MonteCarloConfig(setup=SETUP, process=FULL, plan=JOINT,
                                         estimators=("mean_method", "naive_mean_method"),
                                         noise=NoiseParams(t_c=1.0, v_c=1.2),
                                         calibration="auto", calibration_samples=CAL_SHOTS,
                                         m_reps=self.LOSS_REPS)
        self.warm_cfg = self.disp_cfgs["joint"]

    def main_part(self, ledger, seeds):
        for seed, scheme in zip(seeds, self.SCHEMES):
            self.run_mc(ledger, scheme, dataclasses.replace(self.disp_cfgs[scheme],
                                                            base_seed=seed),
                        latency=scheme == "joint")
        self.sweep(ledger, dataclasses.replace(self.loss_cfg, base_seed=seeds[3]),
                   "loss", list(self.LOSS_GRID))

    def estimate_bounds(self):
        info = ref.fisher(REF_SETUP, self.ESTIMATE_TRUTH)
        return {"displacement": ref.block_bounds(info, ["d", "beta"], N_SHOTS)}

    def check_main(self, ledger, rng):
        fails = []
        truth = self.ESTIMATE_TRUTH
        for scheme in self.SCHEMES:
            n, mse, _, _ = ledger.pooled(scheme, "displacement", "d")
            var = checks.displacement_variance(REF_SETUP, truth, scheme, N_SHOTS)
            fails += checks.chi2_window(f"displacement {scheme} d", mse, var, n)
        for loss in self.LOSS_GRID:
            channel = dataclasses.replace(REF_FULL, t_c=1.0 - loss, v_c=1.2)
            bounds = ref.bounds(ref.three_probe_fisher(REF_SETUP, channel), N_SHOTS)
            fails += checks.mse_within_factor(ledger, loss, "mean_method", bounds,
                                              checks.MEAN_FACTOR)
            fails += checks.naive_bias(ledger, loss, REF_FULL.d * (math.sqrt(1.0 - loss) - 1.0))
        return fails


WORKLOADS = {w.name: w for w in (GeneralProcess, PhaseFisher, ShotsCalibration)}
