"""Golden Monte-Carlo cells: run_mc over every scheme, every estimator family
and a run with and without a calibrated channel, pinned at 1e-9 relative.

The pinned values in golden_run_mc.json were computed by the code that
keys each stream of a run directly by its Philox key (base_seed, p 2^32 +
j 2^8 + v) and draws each data set's variates for all realizations at once.
A cell that moves by more than 1e-9 means a stream, a law or an estimator
changed.  After a deliberate change of results, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

and say why in CHANGES.md.
"""
import json
import math
from pathlib import Path

from lmint import MeasurementPlan, MonteCarloConfig, NoiseParams, ProcessParams, Scheme, run_mc
from lmint import SetupConfig, Topology

GOLDEN = Path(__file__).with_name("golden_run_mc.json")

#: Estimator families and the process each runs on.
FAMILIES = {
    "displacement": (("displacement",), ProcessParams.folded(d=4.0, beta=0.5)),
    "phase": (("phase_var", "phase_mean", "phase_ml"), ProcessParams.folded(phi=0.7)),
    "general": (("cov_method", "mean_method", "combined"),
                ProcessParams.from_q(phi=0.7, q=2.0, alpha=-0.3, d=4.0, beta=0.5)),
}

#: Working point with the single read-out off the probe phases.
SETUP = SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.1, t2=0.1, v_thermal=100.0,
                    r_amp=100.0, probe_phase=0.3)


def golden_cells() -> dict:
    """'scheme/family/channel' -> {'estimator/parameter': [mse, bias, variance,
    n_ok, n_failed, n_clamped]} of a 6-realization run_mc at N = 1e5; the
    channel run calibrates t_c = 0.8, v_c = 1.2 from 2e6 probe shots."""
    out = {}
    for scheme in Scheme:
        for family, (estimators, process) in FAMILIES.items():
            for channel in ("none", "calibrated"):
                extra = {} if channel == "none" else {
                    "noise": NoiseParams(t_c=0.8, v_c=1.2), "calibration": "auto",
                    "calibration_samples": 2_000_000}
                cfg = MonteCarloConfig(setup=SETUP, process=process,
                                       plan=MeasurementPlan(scheme, 100_000, 0),
                                       estimators=estimators, m_reps=6, base_seed=0x60D,
                                       **extra)
                report = run_mc(cfg)
                out[f"{scheme.value}/{family}/{channel}"] = {
                    f"{name}/{param}": [c.mse, c.bias, c.variance, c.n_ok, c.n_failed,
                                        c.n_clamped]
                    for (name, param), c in report.cells.items()}
    return out


def _close(got: float, want: float, scale: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= 1e-9 * scale


def test_run_mc_cells_match_the_pinned_values():
    want = json.loads(GOLDEN.read_text())
    got = golden_cells()
    assert sorted(got) == sorted(want)
    moved = []
    for run, cells in want.items():
        assert sorted(got[run]) == sorted(cells), run
        for cell, (mse, bias, variance, *counts) in cells.items():
            g_mse, g_bias, g_variance, *g_counts = got[run][cell]
            # The bias is pinned against its own size or the RMS error, whichever is larger.
            rms = math.sqrt(mse) if mse == mse else math.nan
            if not (_close(g_mse, mse, abs(mse)) and _close(g_variance, variance, abs(variance))
                    and _close(g_bias, bias, max(abs(bias), rms)) and g_counts == counts):
                moved.append((run, cell, got[run][cell], [mse, bias, variance, *counts]))
    assert not moved, moved


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_cells(), indent=1, sort_keys=True) + "\n")
