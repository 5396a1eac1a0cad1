import dataclasses
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from lmint import (
    IDEAL_NOISE,
    MeasurementPlan,
    MonteCarloConfig,
    NoiseParams,
    ProcessParams,
    Scheme,
    SetupConfig,
    Topology,
    calibrate,
    find_r_crit,
    fit_exponent,
    forward,
    run_mc,
    sweep,
)
from lmint import harness, measurement
from lmint.estimators import PROBE_PHASES, EstimateReport, est_general_mean, prepare_displacement
from lmint.fisher import fisher_matrix
from lmint.interferometer import measured_moments
from lmint.measurement import MomentEstimate
from lmint.harness import (
    CalibrationError,
    ESTIMATOR_PARAMS,
    apply_axis,
    estimate_once,
    param_error,
)


def mc(setup, process, *, estimators, n=2000, m_reps=20, seed=123, **kw):
    plan = MeasurementPlan(scheme=Scheme.JOINT, n_samples=n, seed=0)
    return MonteCarloConfig(setup=setup, process=process, plan=plan,
                            estimators=estimators, m_reps=m_reps,
                            base_seed=seed, **kw)


def test_config_validation(bench_setup, bench_process):
    with pytest.raises(ValueError):
        mc(bench_setup, bench_process, estimators=("displacement",), m_reps=1)
    with pytest.raises(ValueError):
        mc(bench_setup, bench_process, estimators=("nope",))
    with pytest.raises(ValueError):
        mc(bench_setup, bench_process, estimators=("displacement",), calibration="bogus")
    with pytest.raises(ValueError):
        mc(bench_setup, bench_process, estimators=("displacement",), calibration_samples=1)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError):
            mc(bench_setup, bench_process, estimators=("displacement",), seed=seed)


def test_param_error_is_circular():
    assert param_error(3.1, -3.1, "phi") == pytest.approx(6.2 - 2 * math.pi)
    assert param_error(1.5, -1.5, "alpha") == pytest.approx(3.0 - math.pi)
    assert param_error(5.0, 1.0, "d") == pytest.approx(4.0)


def test_cell_stats_match_a_numpy_reduction(bench_setup):
    # _cell_stats sums each parameter's errors on Python floats (math.fsum).
    # It must agree with numpy's mean of e^2, mean, and mean squared
    # deviation about that mean within a few ulps of scale (the MSE, or
    # the mean |e| for the bias), at any size and for angular errors that
    # wrap near +-pi.
    few = 4 * np.finfo(float).eps
    rng = np.random.default_rng(4242)
    process = ProcessParams.from_q(phi=3.0, q=2.0, alpha=1.4, d=4.0, beta=-3.1)
    params = ESTIMATOR_PARAMS["cov_method"]
    truth = [getattr(process, p) for p in params]
    for n in (1, 2, *rng.integers(3, 2001, size=12).tolist()):
        cfg = mc(bench_setup, process, estimators=("cov_method",), m_reps=max(n, 2))
        rows = []
        for _ in range(n):
            row = []
            for p, t in zip(params, truth):
                period = harness._PARAM_PERIODS.get(p)
                if period is None:
                    row.append(t + rng.normal(0.0, rng.choice([1e-3, 1.0])))
                else:  # an error of nearly half a period, either sign
                    side = rng.choice([-1.0, 1.0])
                    row.append(math.remainder(
                        t + side * (0.5 * period - abs(rng.normal(0.0, 0.05))), period))
            rows.append(tuple(row))
        cells = harness._cell_stats(cfg, "cov_method", rows, {}, 0)
        for i, p in enumerate(params):
            errs = np.array([param_error(row[i], truth[i], p) for row in rows])
            mse, bias = np.mean(errs ** 2), np.mean(errs)
            cell = cells[("cov_method", p)]
            assert abs(cell.mse - mse) <= few * mse
            assert abs(cell.bias - bias) <= few * np.mean(np.abs(errs))
            assert abs(cell.variance - np.mean((errs - bias) ** 2)) <= few * mse
            # The sums are correctly rounded: the exact sum of the floats, rounded once.
            assert cell.bias == float(sum(Fraction(e) for e in errs.tolist())) / n
            assert cell.mse == float(sum(Fraction(e * e) for e in errs.tolist())) / n
            assert (cell.n_ok, cell.n_failed, cell.failures) == (cfg.m_reps, 0, {})


def test_cell_stats_of_empty_and_failed_cells(bench_setup, bench_process):
    # A cell with no success keeps NaN statistics and books its failures;
    # more than 5% failed marks a cell unreliable.
    cfg = mc(bench_setup, bench_process, estimators=("phase_ml",), m_reps=20)
    for failures in ({"UnidentifiableError": 20}, {"EstimationError": 12, "FitRejectedError": 8}):
        (cell,) = harness._cell_stats(cfg, "phase_ml", [], failures, 3).values()
        assert math.isnan(cell.mse) and math.isnan(cell.bias) and math.isnan(cell.variance)
        assert (cell.n_ok, cell.n_failed, cell.n_clamped) == (0, 20, 3)
        assert cell.unreliable and cell.failures == failures
    rows = [(bench_process.phi + 0.01,)] * 18
    (cell,) = harness._cell_stats(cfg, "phase_ml", rows, {"EstimationError": 2}, 0).values()
    assert (cell.n_ok, cell.n_failed, cell.unreliable) == (18, 2, True)
    assert cell.bias == pytest.approx(0.01) and cell.variance == pytest.approx(0.0, abs=1e-30)
    (cell,) = harness._cell_stats(cfg, "phase_ml", rows[:1] * 19, {"EstimationError": 1},
                                  0).values()
    assert (cell.n_ok, cell.n_failed, cell.unreliable) == (19, 1, False)


def test_clamps_make_a_cell_unreliable(bench_setup, bench_process):
    # A clamp is a realization whose variance lies outside the model's
    # range, as unusable as a failure: failures and clamps together above 5%
    # of m_reps mark the cell.  At r = 10, phi = 2.9 and 600 shots phase_var
    # clamps in every realization and its variance reads ~1e-33; the cell
    # is unreliable though none failed.
    setup = dataclasses.replace(bench_setup, r_amp=10.0)
    cfg = mc(setup, ProcessParams.from_q(phi=2.9, q=2.0), estimators=("phase_var",), n=600,
             m_reps=100, seed=16384)
    cell = run_mc(cfg).cells[("phase_var", "phi")]
    assert (cell.n_ok, cell.n_failed, cell.n_clamped, cell.unreliable) == (100, 0, 100, True)
    assert cell.variance < 1e-30
    cfg = mc(bench_setup, bench_process, estimators=("phase_var",), m_reps=20)
    rows = [(bench_process.phi,)] * 19
    for n_failed, n_clamped, unreliable in ((0, 1, False), (0, 2, True), (1, 1, True)):
        failures = {"EstimationError": n_failed} if n_failed else {}
        (cell,) = harness._cell_stats(cfg, "phase_var", rows, failures, n_clamped).values()
        assert cell.unreliable is unreliable, (n_failed, n_clamped)


def test_run_mc_builds_no_report_per_realization(bench_setup, bench_process, monkeypatch):
    # The prepared general methods return bare values: a run builds neither
    # an EstimateReport nor a ProcessParams per realization, and its cells
    # are those of the values.
    cfg = mc(bench_setup, bench_process, estimators=("cov_method", "mean_method", "combined"),
             n=3000, m_reps=5)
    built = []
    post_init, init = ProcessParams.__post_init__, EstimateReport.__init__
    monkeypatch.setattr(ProcessParams, "__post_init__",
                        lambda self: built.append("ProcessParams") or post_init(self))
    monkeypatch.setattr(EstimateReport, "__init__",
                        lambda self, *a, **k: built.append("EstimateReport") or init(self, *a, **k))
    report = run_mc(cfg)
    assert built == []
    assert all(cell.n_ok == 5 for cell in report.cells.values())


def test_a_run_books_no_value_that_the_public_path_refuses(bench_setup, bench_process,
                                                           monkeypatch):
    # Finite probe means near the float limit put mean_method's displacement
    # past it (d = inf), which ProcessParams refuses.  est_general_mean raises
    # its ValueError, and a run of the same data raises the same one rather
    # than booking the value.
    probe = MomentEstimate(z=8e307 + 0j, c0=1.0, c1=0j, n_effective={"mean_x": 200})
    with pytest.raises(ValueError) as public:
        est_general_mean([probe] * 3, bench_setup)
    assert str(public.value) == "d must be finite, got inf"
    monkeypatch.setattr(harness, "form_moments",
                        lambda laws, variates, rows: [probe] * len(variates[0][rows]))
    with pytest.raises(ValueError) as run:
        run_mc(mc(bench_setup, bench_process, estimators=("mean_method",), n=600, m_reps=3))
    assert str(run.value) == str(public.value)


def test_run_mc_shape_and_determinism(bench_setup, bench_process):
    cfg = mc(bench_setup, bench_process, estimators=("cov_method", "mean_method"),
             n=1200, m_reps=3)
    a = run_mc(cfg)
    assert set(a.cells) == {(e, p) for e in ("cov_method", "mean_method")
                            for p in ESTIMATOR_PARAMS["cov_method"]}
    b = run_mc(cfg)
    for key, cell in a.cells.items():
        assert cell.mse == b.cells[key].mse
        assert cell.bias == b.cells[key].bias
    c = run_mc(dataclasses.replace(cfg, base_seed=999))
    assert any(a.cells[k].mse != c.cells[k].mse for k in a.cells)


def test_run_mc_displacement_is_unbiased(bench_setup):
    truth = ProcessParams.folded(d=4.0, beta=0.5)
    report = run_mc(mc(bench_setup, truth, estimators=("displacement",),
                       n=10_000, m_reps=50))
    cell = report.cells[("displacement", "d")]
    assert cell.n_failed == 0
    assert not cell.unreliable
    assert abs(cell.bias) < 3.0 * math.sqrt(cell.variance / cell.n_ok)
    assert cell.mse == pytest.approx(cell.variance + cell.bias ** 2, rel=1e-9)


def test_run_mc_marks_failing_estimator_unreliable(bench_setup, bench_process):
    plan = MeasurementPlan(scheme=Scheme.HOMODYNE_SPLIT2, n_samples=600, seed=0)
    cfg = MonteCarloConfig(setup=bench_setup, process=bench_process, plan=plan,
                           estimators=("cov_method",), m_reps=3, base_seed=1)
    report = run_mc(cfg)
    cell = report.cells[("cov_method", "phi")]
    assert cell.n_failed == 3
    assert cell.unreliable
    assert math.isnan(cell.mse)


def test_run_mc_records_failure_reasons(bench_setup, bench_process):
    # Simplistic topology: no probe light passes the process, so every
    # mean_method realization fails, and the cell says why.
    setup = dataclasses.replace(bench_setup, topology=Topology.SIMPLISTIC, t1=0.0)
    report = run_mc(mc(setup, bench_process, estimators=("mean_method", "displacement"),
                       n=600, m_reps=3))
    for p in ESTIMATOR_PARAMS["mean_method"]:
        cell = report.cells[("mean_method", p)]
        assert (cell.n_ok, cell.n_failed) == (0, 3)
        assert cell.failures == {"UnidentifiableError": 3}
    assert report.cells[("displacement", "d")].failures == {}


def test_run_mc_counts_failed_polar_decompositions():
    # Weak coupling, dim probe, 600 shots: the three-probe estimate of the
    # process matrix has det <= 0 on 2 of 12 realizations.
    setup = SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.01, t2=0.01,
                        v_thermal=100.0, r_amp=3.0)
    truth = ProcessParams.from_q(phi=0.7, q=2.0, alpha=-0.3, d=4.0, beta=0.5)
    report = run_mc(mc(setup, truth, estimators=("mean_method",), n=600, m_reps=12,
                       seed=0))
    for p in ESTIMATOR_PARAMS["mean_method"]:
        cell = report.cells[("mean_method", p)]
        assert (cell.n_ok, cell.n_failed) == (10, 2)
        assert cell.failures == {"DecompositionError": 2}


def test_estimate_once_sees_the_data_of_run_mc(bench_setup, monkeypatch):
    # run_mc runs realizations 1, 2, ... in order, so its first estimate is
    # that of realization 1, which estimate_once reports.  The spy records
    # what the displacement estimator, prepared once per run, returns.
    seen = []

    def spy(*args):
        estimate = prepare_displacement(*args)

        def recorded(moments):
            seen.append(estimate(moments))
            return seen[-1]

        return recorded

    monkeypatch.setattr(harness, "prepare_displacement", spy)
    truth = ProcessParams.folded(d=4.0, beta=0.5)
    cfg = mc(bench_setup, truth, estimators=("displacement",), n=1000, m_reps=2)
    run_mc(cfg)
    assert seen[0] != seen[1]
    d, beta = seen[0]
    assert estimate_once(cfg) == [{"d": d, "beta": beta}]


def _per_realization_cells(cfg):
    """run_mc's cells by the per-realization order: draw one realization,
    apply every prepared estimator to it, then draw the next."""
    calibrated = harness._calibrated_noise(cfg, 0)
    failures = {name: {} for name in cfg.estimators}
    rows = {name: [] for name in cfg.estimators}
    diagnostics = {name: {} for name in cfg.estimators}
    live = {}
    for name in cfg.estimators:
        try:
            live[name] = harness._prepare(name, cfg,
                                          harness._resolve_assumed(cfg, name, calibrated))
        except harness._ESTIMATOR_FAILURES as exc:
            failures[name][type(exc).__name__] = cfg.m_reps
    bases = {harness.base_name(name) for name in live}
    for single, probes in (harness._simulate_realizations(cfg, 0, bases) if live else ()):
        for name, estimate in live.items():
            try:
                rows[name].append(estimate(single, probes, diagnostics[name]))
            except harness._ESTIMATOR_FAILURES as exc:
                reason = type(exc).__name__
                failures[name][reason] = failures[name].get(reason, 0) + 1
    cells = {}
    for name in cfg.estimators:
        cells.update(harness._cell_stats(cfg, name, rows[name], failures[name],
                                         diagnostics[name].get("clamped", 0)))
    return cells


def test_blocks_give_the_cells_of_the_per_realization_order():
    # run_mc runs each estimator over a block of realizations before it
    # draws the next block.  Every estimator still sees the realizations in
    # order, so every cell (failure reasons and their order, clamp counts,
    # and the statistics, compared through repr so that NaNs and signed
    # zeros count) is that of the per-realization order, across two block
    # boundaries.  At T = 0.1, r = 10 and 600 shots the set fails by three
    # reasons, combined by two in the same run, and phase_var clamps.
    setup = SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.1, t2=0.1,
                        v_thermal=100.0, r_amp=10.0)
    process = ProcessParams.from_q(phi=2.9, q=2.0, alpha=-0.3, d=4.0, beta=0.5)
    reasons, clamps = set(), 0
    for scheme in Scheme:
        for estimators in (("displacement", "phase_var", "phase_mean", "phase_ml"),
                           ("cov_method", "mean_method"), ("combined",)):
            for noise, calibration in ((IDEAL_NOISE, "true"),
                                       (NoiseParams(t_c=0.9, v_c=1.2), "auto")):
                cfg = MonteCarloConfig(setup=setup, process=process,
                                       plan=MeasurementPlan(scheme, 600, seed=0),
                                       estimators=estimators, noise=noise,
                                       calibration=calibration,
                                       m_reps=2 * harness._BLOCK + 3, base_seed=16384)
                cells = run_mc(cfg).cells
                assert repr(cells) == repr(_per_realization_cells(cfg)), cfg
                for cell in cells.values():
                    reasons |= set(cell.failures)
                    clamps += cell.n_clamped
    assert len(reasons) >= 2
    assert clamps > 0


def test_a_run_holds_at_most_one_block(bench_setup, bench_process, monkeypatch):
    # The first estimator runs over each block before the next is drawn:
    # at each of its calls at most _BLOCK realizations are drawn and not
    # yet seen by it, and a run of 3 * _BLOCK reps draws in three blocks.
    drawn, seen, ahead = [0], [0], []
    simulate, prepare = harness._simulate_realizations, harness._prepare

    def counted(*args):
        for realization in simulate(*args):
            drawn[0] += 1
            yield realization

    def watched(name, *args):
        estimate = prepare(name, *args)
        if name != "displacement":
            return estimate

        def first(*data):
            assert drawn[0] - seen[0] <= harness._BLOCK
            ahead.append(drawn[0])
            seen[0] += 1
            return estimate(*data)

        return first

    monkeypatch.setattr(harness, "_simulate_realizations", counted)
    monkeypatch.setattr(harness, "_prepare", watched)
    run_mc(mc(bench_setup, bench_process, estimators=("displacement", "phase_mean"),
              n=600, m_reps=3 * harness._BLOCK))
    assert drawn[0] == seen[0] == 3 * harness._BLOCK
    assert sorted(set(ahead)) == [harness._BLOCK * b for b in (1, 2, 3)]


def test_plan_seeds_of_a_calibrated_sweep_are_distinct(bench_setup, bench_process,
                                                       monkeypatch):
    # Every stream of a sweep (each point's calibration probes, and the
    # single read-out and three probes of every realization at each point)
    # has a Philox key of its own, packed as the harness documents: variate
    # kind v of data set j at point p draws from the key (base_seed, p 2^32
    # + j 2^8 + v), with j = 4..6 the calibration probes, and v = 0 the
    # normals and 1, 2 the two gamma columns of paired records.  Each data
    # set draws all its realizations in one call per stream.
    keys, rows = [], []

    def spy(seed, word):
        keys.append((seed, word))
        return rng(seed, word)

    def counted(laws, seed, word, m):
        rows.append(m)
        return draw_variates(laws, seed, word, m)

    rng, draw_variates = measurement._rng, harness.draw_variates
    monkeypatch.setattr(measurement, "_rng", spy)
    monkeypatch.setattr(harness, "draw_variates", counted)
    cfg = mc(bench_setup, bench_process, estimators=("mean_method", "combined"), n=600,
             m_reps=5, seed=16384, noise=NoiseParams(t_c=0.9, v_c=1.2), calibration="auto")
    sweep(cfg, "loss", [0.0, 0.1, 0.3, 0.5])
    assert len(set(keys)) == len(keys) == 4 * 7 * 3
    want = [(16384, p << 32 | j << 8 | v) for p in range(1, 5)
            for j in (4, 5, 6, 0, 1, 2, 3) for v in range(3)]
    assert keys == want
    assert rows == [1, 1, 1, 5, 5, 5, 5] * 4


def test_run_mc_forms_each_state_once_without_forward(bench_setup, bench_process,
                                                      monkeypatch):
    # The laws are formed once per distinct state, whatever the number of
    # realizations: the measured mean once per probe phase, which the single
    # read-out shares at probe phase 0, and once per calibration probe.
    # The symplectic forward is the tests' reference and never runs here.
    calls, forward_calls = [], []

    def counting(setup, process, noise, phases):
        calls.extend(phases)
        return measured_moments(setup, process, noise, phases)

    def forbidden(*args):
        forward_calls.append(args)
        return forward(*args)

    monkeypatch.setattr(harness, "measured_moments", counting)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "lmint" and getattr(module, "forward", None) is forward:
            monkeypatch.setattr(module, "forward", forbidden)
    for probe_phase, states in ((0.0, 3 + 3), (0.3, 1 + 3 + 3)):
        setup = dataclasses.replace(bench_setup, probe_phase=probe_phase)
        for m_reps in (2, 7):
            calls.clear()
            cfg = mc(setup, bench_process, estimators=("cov_method", "combined"),
                     n=600, m_reps=m_reps, noise=NoiseParams(t_c=0.9, v_c=1.2),
                     calibration="auto")
            run_mc(cfg)
            assert len(calls) == states
            estimate_once(cfg)
    calibrate(bench_setup, cal_plan(1000), NoiseParams(t_c=0.9, v_c=1.2))
    assert forward_calls == []


def test_combined_far_trials_fail_by_name_in_run_mc():
    # A scoring trial far from the start (here at w ~ 19) leaves the model
    # covariance singular or of negative determinant; it counts as a
    # deviance rise, so run_mc completes and counts any failure by a named
    # reason instead of dying on an unnamed linear-algebra error.
    setup = SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.06, t2=0.344,
                        v_thermal=100.0, r_amp=1.0, probe_phase=-2.09)
    process = ProcessParams.folded(phi=2.38, w=1.384, alpha=-1.084, d=2.87, beta=2.97)
    cfg = MonteCarloConfig(setup=setup, process=process,
                           plan=MeasurementPlan(Scheme.HETERODYNE, 600, seed=0),
                           estimators=("combined",), m_reps=12, base_seed=1)
    cell = run_mc(cfg).cells[("combined", "phi")]
    assert cell.n_ok + cell.n_failed == 12
    assert sum(cell.failures.values()) == cell.n_failed
    assert set(cell.failures) <= {"EstimationError", "DecompositionError"}
    assert cell.failures.get("EstimationError", 0) > 0


def test_clamps_are_counted_per_estimator(bench_setup):
    # At phi = pi the arccos argument of phase_var sits at -1, so sampling
    # noise pushes it over about half the time; phase_mean never clamps.
    report = run_mc(mc(bench_setup, ProcessParams.folded(phi=math.pi),
                       estimators=("phase_var", "phase_mean"), n=2000, m_reps=20))
    assert report.cells[("phase_var", "phi")].n_clamped > 0
    assert report.cells[("phase_mean", "phi")].n_clamped == 0


def test_naive_variant_ignores_the_channel(bench_setup, bench_process):
    noise = NoiseParams(t_c=0.5, v_c=1.2)
    cfg = mc(bench_setup, bench_process,
             estimators=("mean_method", "naive_mean_method"),
             n=30_000, m_reps=10, noise=noise, calibration="true")
    report = run_mc(cfg)
    # The calibrated estimator sees through the loss; the naive one does not.
    assert report.mse("mean_method", "d") < 0.1 * report.mse("naive_mean_method", "d")


def test_phase_var_reads_the_channel_in_run_mc(bench_setup):
    # run_mc hands phase_var the channel and naive_phase_var an ideal one;
    # under t_c = 0.8, v_c = 1.2 only the naive variant keeps the -0.0301 rad
    # bias of exact moments.
    cfg = mc(bench_setup, ProcessParams.folded(phi=0.7),
             estimators=("phase_var", "naive_phase_var"), n=100_000, m_reps=10,
             noise=NoiseParams(t_c=0.8, v_c=1.2), calibration="true")
    report = run_mc(cfg)
    assert abs(report.cells[("phase_var", "phi")].bias) < 0.005
    assert report.cells[("naive_phase_var", "phi")].bias == pytest.approx(-0.0301, abs=0.005)


def test_combined_estimator_runs(bench_setup, bench_process):
    cfg = mc(bench_setup, bench_process, estimators=("combined",), n=900, m_reps=2)
    report = run_mc(cfg)
    assert ("combined", "phi") in report.cells
    assert np.isfinite(report.mse("combined", "phi"))


@pytest.mark.parametrize("t", [0.02, 0.1])
def test_combined_beats_both_methods_at_the_joint_bound(bench_setup, bench_process, t):
    # N = 1e5 joint shots, 60 realizations: on every parameter the joint
    # maximum-likelihood estimate is no worse than the better of the two
    # methods, and its MSE stays within 2x the Cramer-Rao bound of the four
    # data sets (the single read-out and N // 3 shots at each probe phase;
    # q = e^w by the chain rule).
    n = 100_000
    setup = dataclasses.replace(bench_setup, t1=t, t2=t)
    cfg = mc(setup, bench_process, estimators=("cov_method", "mean_method", "combined"),
             n=n, m_reps=60, seed=16384)
    report = run_mc(cfg)
    info = n * fisher_matrix(setup, bench_process) + sum(
        n // 3 * fisher_matrix(dataclasses.replace(setup, probe_phase=p), bench_process)
        for p in PROBE_PHASES)
    bound = np.diag(np.linalg.inv(info)) * [1.0, bench_process.q ** 2, 1.0, 1.0, 1.0]
    for par, b in zip(("phi", "q", "alpha", "d", "beta"), bound):
        combined = report.cells[("combined", par)]
        assert combined.n_failed == 0
        assert combined.mse <= min(report.mse("cov_method", par),
                                   report.mse("mean_method", par)), par
        assert combined.mse <= 2.0 * b, (par, combined.mse / b)


# ---------------------------------------------------------------------------
# Qualitative behaviour mirrored from the figures (reduced budgets)


def test_cov_method_improves_with_hot_matter(bench_setup, bench_process):
    cfg = mc(bench_setup, bench_process, estimators=("cov_method",),
             n=20_000, m_reps=20)
    table = sweep(cfg, "V", [10.0, 300.0])
    for par in ("phi", "q"):
        assert table[1][1].mse("cov_method", par) < table[0][1].mse("cov_method", par)


def test_mean_method_brightness_tradeoff(bench_setup, bench_process):
    cfg = mc(bench_setup, bench_process, estimators=("mean_method",),
             n=30_000, m_reps=30)
    table = sweep(cfg, "r", [10.0, 300.0])
    for par in ("phi", "q"):
        ratio = table[0][1].mse("mean_method", par) / table[1][1].mse("mean_method", par)
        # 1/r^2 trend gives a nominal 900x gain; the ratio of two M=30 MSE
        # estimates is heavy-tailed, so only the order of magnitude is pinned.
        assert 150.0 < ratio < 4000.0
    d_ratio = table[0][1].mse("mean_method", "d") / table[1][1].mse("mean_method", "d")
    assert 0.5 < d_ratio < 2.0  # displacement error indifferent to brightness


# ---------------------------------------------------------------------------
# Sweeps and fits


def test_sweep_axes(bench_setup, bench_process):
    cfg = mc(bench_setup, bench_process, estimators=("displacement",),
             noise=NoiseParams(t_c=0.9, v_c=1.3))
    assert apply_axis(cfg, "r", 5.0).setup.r_amp == 5.0
    assert apply_axis(cfg, "V", 50.0).setup.v_thermal == 50.0
    point = apply_axis(cfg, "T", 0.25)
    assert (point.setup.t1, point.setup.t2) == (0.25, 0.25)
    point = apply_axis(cfg, "loss", 0.4)
    assert point.noise == NoiseParams(t_c=0.6, v_c=1.3)
    assert apply_axis(cfg, "loss", 0.0).noise == NoiseParams(t_c=1.0, v_c=1.3)
    assert apply_axis(cfg, "Phi", 0.9).process.phi == pytest.approx(0.9)
    with pytest.raises(ValueError):
        apply_axis(cfg, "zeta", 1.0)


def test_sweep_empty_grid(bench_setup, bench_process):
    cfg = mc(bench_setup, bench_process, estimators=("displacement",))
    assert sweep(cfg, "r", []) == []


def test_fit_exponent_exact_power_law(bench_setup, bench_process):
    cfg = mc(bench_setup, bench_process, estimators=("displacement",), m_reps=2, n=100)

    class FakeCell:
        def __init__(self, mse):
            self.mse = mse

    class FakeReport:
        def __init__(self, t):
            self.cells = {("displacement", "d"): FakeCell(7.0 * t ** -2)}

    table = [(t, FakeReport(t)) for t in (0.01, 0.02, 0.05, 0.1)]
    fit = fit_exponent(table)[("displacement", "d")]
    assert fit.c == pytest.approx(2.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.reliable
    with pytest.raises(ValueError):
        fit_exponent(table[:3])


def test_fit_exponent_skips_non_positive_axis_values():
    # A loss grid from 0 (fig5_right's lin:0.0:0.5:6) and a phase grid
    # through 0 hold axis values with no logarithm: the fit reads the
    # positive ones alone, and with fewer than 4 of them gives no exponent.
    def table(grid):
        return [(v, SimpleNamespace(cells={("e", "p"): SimpleNamespace(
            mse=7.0 * abs(v) ** -2 if v else 3.0)})) for v in grid]

    loss = np.linspace(0.0, 0.5, 6).tolist()
    assert fit_exponent(table(loss)) == fit_exponent(table(loss[1:]))
    assert fit_exponent(table(loss))[("e", "p")].c == pytest.approx(2.0, abs=1e-9)
    phases = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    fit = fit_exponent(table(phases))[("e", "p")]
    assert math.isnan(fit.c) and math.isnan(fit.r_squared) and not fit.reliable
    assert fit_exponent(table(phases + [3.0]))[("e", "p")].c == pytest.approx(2.0, abs=1e-9)


def test_fit_exponent_reads_only_the_cells_with_an_mse(bench_setup, bench_process):
    # Cold matter (V = 1) carries no rotation signal, so cov_method fails in
    # every realization there and its MSE is NaN: the fit reads the other
    # four points, and with three left it reports no exponent.
    cfg = mc(bench_setup, bench_process, estimators=("cov_method",), m_reps=10)
    table = sweep(cfg, "V", [1.0, 3.0, 10.0, 30.0, 100.0])
    assert math.isnan(table[0][1].mse("cov_method", "phi"))
    fits = fit_exponent(table)
    assert fits == fit_exponent(table[1:])
    assert all(math.isfinite(fit.c) and fit.r_squared > 0.0 for fit in fits.values())
    for fit in fit_exponent(table[:4]).values():
        assert math.isnan(fit.c) and math.isnan(fit.r_squared) and not fit.reliable


# ---------------------------------------------------------------------------
# Phase-estimator crossover


def test_find_r_crit_locates_crossing(bench_setup):
    cfg = mc(bench_setup, ProcessParams.folded(phi=0.7),
             estimators=("phase_var", "phase_mean"), n=2000, m_reps=30)
    result = find_r_crit(cfg, (5.0, 300.0))
    assert result is not None
    assert result.bracket_low <= result.r_crit <= result.bracket_high
    assert 10.0 < result.r_crit < 200.0


def test_find_r_crit_none_when_no_crossing(bench_setup):
    cfg = mc(bench_setup, ProcessParams.folded(phi=0.7),
             estimators=("phase_var", "phase_mean"), n=2000, m_reps=30)
    assert find_r_crit(cfg, (150.0, 300.0)) is None


def test_find_r_crit_none_when_an_mse_is_undefined(bench_setup):
    # Blocked beam: the covariance carries no phase (b = 0), so phase_var
    # fails at every r and its MSE is NaN; no crossing can be located.
    blocked = dataclasses.replace(bench_setup, topology=Topology.BLOCKED_BEAM)
    cfg = mc(blocked, ProcessParams.folded(phi=0.7),
             estimators=("phase_var", "phase_mean"), n=2000, m_reps=30)
    assert math.isnan(run_mc(cfg).mse("phase_var", "phi"))
    assert find_r_crit(cfg, (1.0, 300.0)) is None


# ---------------------------------------------------------------------------
# Calibration


def cal_plan(n, seed=0):
    return MeasurementPlan(scheme=Scheme.JOINT, n_samples=n, seed=seed)


def test_calibrate_ideal_channel(bench_setup):
    est = calibrate(bench_setup, cal_plan(100_000), IDEAL_NOISE)
    assert est.t_c == pytest.approx(1.0, abs=0.01)


def test_calibrate_recovers_lossy_channel(bench_setup):
    truth = NoiseParams(t_c=0.8, v_c=1.2)
    est = calibrate(bench_setup, cal_plan(400_000, seed=9), truth)
    assert est.t_c == pytest.approx(0.8, abs=0.01)
    # v_c is weakly identifiable: the variance residual has slope
    # (1 - t_c) t2 = 0.02, so only a loose check is meaningful.
    assert 1.0 <= est.v_c < 3.0


def test_calibrate_needs_bright_probe(bench_setup):
    dark = dataclasses.replace(bench_setup, r_amp=0.0)
    with pytest.raises(CalibrationError):
        calibrate(dark, cal_plan(1000), IDEAL_NOISE)


def test_calibrate_needs_probe_light_through_the_process(bench_setup):
    simplistic = dataclasses.replace(bench_setup, topology=Topology.SIMPLISTIC, t1=0.0)
    with pytest.raises(CalibrationError):
        calibrate(simplistic, cal_plan(1000), IDEAL_NOISE)


def test_auto_calibration_budget_knob(bench_setup, bench_process):
    noise = NoiseParams(t_c=0.7, v_c=1.2)
    small = mc(bench_setup, bench_process, estimators=("mean_method",),
               n=2000, m_reps=3, noise=noise, calibration="auto")
    big = dataclasses.replace(small, calibration_samples=200_000)
    mse_small = run_mc(small).mse("mean_method", "q")
    mse_big = run_mc(big).mse("mean_method", "q")
    assert mse_small != mse_big  # the budget actually reaches the calibration
    assert np.isfinite(mse_big)
