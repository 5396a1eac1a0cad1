"""A Monte-Carlo run is prepared once: the record laws of its data sets and
its estimators, each for its assumed channel.  What the prepared run books
for each realization must be, bit for bit, what the public path gives: the
public est_<name> on draw_moments of measured_state, seeded with the
realization's SeedSequence child."""
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
    draw_moments,
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
from lmint.noise import IDEAL_NOISE

from conftest import seed_sequence_child
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
        return (est_phase_var(single, setup, {}, noise=noise),)
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
    for k in range(1, M_REPS + 1):
        single = draw_moments(measured_state(setup, process, noise), MeasurementPlan(
            scheme, N_SHOTS, seed_sequence_child(BASE_SEED, (0, k, 0))))
        probes = [draw_moments(measured_state(dataclasses.replace(setup, probe_phase=phase),
                                              process, noise),
                               MeasurementPlan(scheme, N_SHOTS // len(PROBE_PHASES),
                                               seed_sequence_child(BASE_SEED, (0, k, j))))
                  for j, phase in enumerate(PROBE_PHASES, start=1)]
        for name in estimators:
            try:
                want = _public(name, setup, noise, single, probes)
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
    # draws the single read-out alone.
    draws = []

    def counting(laws, seed):
        draws.append(seed)
        return real(laws, seed)

    real = harness.draw_from_laws
    monkeypatch.setattr(harness, "draw_from_laws", counting)
    cold = SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.1, t2=0.1, v_thermal=1.0,
                       r_amp=100.0)
    process = ProcessParams.from_q(phi=0.7, q=2.0, alpha=-0.3, d=4.0, beta=0.5)
    for estimators, want in ((("cov_method", "phase_var"), 0),
                             (("cov_method", "displacement"), 7)):
        draws.clear()
        cfg = MonteCarloConfig(setup=cold, process=process,
                               plan=MeasurementPlan(Scheme.JOINT, 3000, 0),
                               estimators=estimators, m_reps=7, base_seed=5)
        report = run_mc(cfg)
        assert len(draws) == want
        for name in ("cov_method", "phase_var"):
            for param in harness.ESTIMATOR_PARAMS[name] if name in estimators else ():
                cell = report.cells[(name, param)]
                assert (cell.n_ok, cell.n_failed) == (0, 7)
                assert cell.failures == {"UnidentifiableError": 7}
                assert math.isnan(cell.mse)


def test_golden_cells_are_not_regenerated():
    # The prepared run reproduces the pinned golden cells without a rewrite
    # of golden_run_mc.json; this pins the file the golden test reads.
    digest = hashlib.sha256(GOLDEN.read_bytes()).hexdigest()
    assert digest == "cf90ecacc4bf3ea06ac7f292e7aa3563979cb2256ee086d440a8536a1b033215"
