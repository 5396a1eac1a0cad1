"""A Monte-Carlo run is prepared once: the record laws of its data sets and
its estimators, each for its assumed channel.  What the prepared run books
for each realization must be, bit for bit, what the public path gives: the
public est_<name> on the moments of measured_state drawn by the reference
draw (conftest.reference_draw) on the realization's row of each stream."""
import dataclasses
import hashlib
import math

import pytest

from lmint import (
    MeasurementPlan,
    MonteCarloConfig,
    NoiseParams,
    ProcessParams,
    Scheme,
    SetupConfig,
    Topology,
    est_combined,
    est_displacement,
    est_general_cov,
    est_general_mean,
    est_phase_mean,
    est_phase_ml,
    est_phase_var,
    measured_state,
    run_mc,
)
from lmint import harness
from lmint.estimators import PROBE_PHASES
from lmint.measurement import MomentEstimate
from lmint.noise import IDEAL_NOISE

from conftest import reference_draw
from test_golden import FAMILIES, GOLDEN, SETUP

#: Where the prepared run is checked: the golden working point, a blocked
#: beam (b = 0, so phase_var and cov_method fail before any draw) and the
#: golden point under a channel handed to the estimators.
SETUPS = {
    "golden": (SETUP, IDEAL_NOISE),
    "blocked": (dataclasses.replace(SETUP, topology=Topology.BLOCKED_BEAM, t1=0.3, t2=0.4),
                IDEAL_NOISE),
    "noisy": (SETUP, NoiseParams(t_c=0.8, v_c=1.2)),
}

#: The golden estimator families, and the three probes read alone (no single read-out).
RUNS = {**FAMILIES, "probes": (("mean_method",), FAMILIES["general"][1])}

N_SHOTS, M_REPS, BASE_SEED = 60_000, 3, 0x9E3779B97F4A7C15


def _public(name, setup, noise, single, probes) -> tuple:
    """The values of the public estimator `name`, in ESTIMATOR_PARAMS order."""
    if name == "displacement":
        return est_displacement(single, setup, noise)
    if name == "phase_var":
        return (est_phase_var(single, setup, diagnostics={}, noise=noise),)
    if name == "phase_mean":
        return (est_phase_mean(single, setup),)
    if name == "phase_ml":
        return (est_phase_ml(single, setup, noise),)
    if name == "cov_method":
        report = est_general_cov(single, setup, noise)
    elif name == "mean_method":
        report = est_general_mean(probes, setup, noise)
    else:
        report = est_combined(single, probes, setup, noise)
    p = report.params
    return p.phi, p.q, p.alpha, p.d, p.beta


def _reference_moments(setup, process, noise, scheme, n, data_set) -> list:
    """The moments of realizations 1 to M_REPS of data set `data_set` at
    sweep point 0 of BASE_SEED: reference_draw of measured_state's law."""
    state = measured_state(setup, process, noise)
    (m_x, m_p), ((s_xx, s_xp), (_, s_pp)) = state.mean.tolist(), state.cov.tolist()
    law_args = (complex(m_x, m_p), (s_xx, s_xp, s_pp), scheme, n)
    return [MomentEstimate(z, c0, c1, n_effective, scheme, mean_diag)
            for z, c0, c1, mean_diag, n_effective, scheme
            in reference_draw(law_args, BASE_SEED, data_set << 8, M_REPS)]


def _recording(booked):
    """harness._prepare, recording per estimator each value or failure
    class it books; a failed preparation books that class for every
    realization."""
    prepare = harness._prepare

    def recording(name, cfg, noise):
        try:
            estimate = prepare(name, cfg, noise)
        except harness._ESTIMATOR_FAILURES as exc:
            booked[name] = [type(exc).__name__] * cfg.m_reps
            raise

        def recorded(single, probes, diagnostics):
            try:
                value = estimate(single, probes, diagnostics)
            except harness._ESTIMATOR_FAILURES as exc:
                booked[name].append(type(exc).__name__)
                raise
            booked[name].append(value)
            return value

        return recorded

    return recording


@pytest.mark.parametrize("family", sorted(RUNS))
@pytest.mark.parametrize("where", sorted(SETUPS))
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_prepared_run_books_the_public_estimates(scheme, where, family, monkeypatch):
    setup, noise = SETUPS[where]
    estimators, process = RUNS[family]
    booked = {name: [] for name in estimators}
    monkeypatch.setattr(harness, "_prepare", _recording(booked))
    cfg = MonteCarloConfig(setup=setup, process=process,
                           plan=MeasurementPlan(scheme, N_SHOTS, 0), estimators=estimators,
                           noise=noise, calibration="true", m_reps=M_REPS, base_seed=BASE_SEED)
    report = run_mc(cfg)
    single = _reference_moments(setup, process, noise, scheme, N_SHOTS, 0)
    probes = [_reference_moments(dataclasses.replace(setup, probe_phase=phase), process, noise,
                                 scheme, N_SHOTS // len(PROBE_PHASES), j)
              for j, phase in enumerate(PROBE_PHASES, start=1)]
    for k, (single_k, *probes_k) in enumerate(zip(single, *probes), start=1):
        for name in estimators:
            try:
                want = _public(name, setup, noise, single_k, probes_k)
            except harness._ESTIMATOR_FAILURES as exc:
                want = type(exc).__name__
            assert booked[name][k - 1] == want, (name, k)
    for name in estimators:
        failed = [v for v in booked[name] if isinstance(v, str)]
        for param in harness.ESTIMATOR_PARAMS[name]:
            cell = report.cells[(name, param)]
            assert (cell.n_ok, cell.n_failed) == (M_REPS - len(failed), len(failed))
            assert cell.failures == {r: failed.count(r) for r in set(failed)}


def test_unidentifiable_estimators_cost_no_draw(monkeypatch):
    # Cold matter (V = 1) leaves the output covariance without a linear
    # term, so cov_method and phase_var fail their checks before any draw:
    # such a run forms no law and draws nothing, and one beside displacement
    # draws the single read-out alone, all 7 realizations in one call.
    draws = []

    def counting(laws, seed, word, m):
        draws.append((seed, word, m))
        return real(laws, seed, word, m)

    real = harness.draw_variates
    monkeypatch.setattr(harness, "draw_variates", counting)
    cold = SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.1, t2=0.1, v_thermal=1.0,
                       r_amp=100.0)
    process = ProcessParams.from_q(phi=0.7, q=2.0, alpha=-0.3, d=4.0, beta=0.5)
    for estimators, want in ((("cov_method", "phase_var"), []),
                             (("cov_method", "displacement"), [(5, 0, 7)])):
        draws.clear()
        cfg = MonteCarloConfig(setup=cold, process=process,
                               plan=MeasurementPlan(Scheme.JOINT, 3000, 0),
                               estimators=estimators, m_reps=7, base_seed=5)
        report = run_mc(cfg)
        assert draws == want
        for name in ("cov_method", "phase_var"):
            for param in harness.ESTIMATOR_PARAMS[name] if name in estimators else ():
                cell = report.cells[(name, param)]
                assert (cell.n_ok, cell.n_failed) == (0, 7)
                assert cell.failures == {"UnidentifiableError": 7}
                assert math.isnan(cell.mse)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_realizations_do_not_depend_on_m_reps(scheme, monkeypatch):
    # Realization k is row k - 1 of every stream: realizations 1 to 5,
    # their calibration included, book the same values or failures at
    # m_reps = 5 and at 130, where the run forms three blocks, and
    # estimate_once gives realization 1's values or failure.
    estimators = ("displacement", "phase_var", "cov_method", "mean_method", "combined")
    cfg = MonteCarloConfig(setup=SETUP, process=FAMILIES["general"][1],
                           plan=MeasurementPlan(scheme, 6000, 0), estimators=estimators,
                           noise=NoiseParams(t_c=0.8, v_c=1.2), calibration="auto", m_reps=5,
                           base_seed=BASE_SEED)
    booked = []
    for m_reps in (5, 130):
        booked.append({name: [] for name in estimators})
        monkeypatch.setattr(harness, "_prepare", _recording(booked[-1]))
        run_mc(dataclasses.replace(cfg, m_reps=m_reps))
        monkeypatch.undo()
    assert {name: values[:5] for name, values in booked[1].items()} == booked[0]
    for name in estimators:
        first = booked[0][name][0]
        once = dataclasses.replace(cfg, estimators=(name,))
        if isinstance(first, str):
            with pytest.raises(harness._ESTIMATOR_FAILURES) as failed:
                harness.estimate_once(once)
            assert type(failed.value).__name__ == first
        else:
            assert tuple(harness.estimate_once(once)[0].values()) == first, name


def test_golden_cells_are_not_regenerated():
    # The prepared run reproduces the pinned golden cells without a rewrite
    # of golden_run_mc.json; this pins the file the golden test reads.
    digest = hashlib.sha256(GOLDEN.read_bytes()).hexdigest()
    assert digest == "518a11c997018b1717c7aac5bd55bd785da2ac21a03becf1099e95c246b2b283"
