"""Phase-only estimation: variance-based versus mean-based read-out.

The variance-based estimator ignores the probe amplitude, so its error is
flat in r; the mean-based estimator improves as 1/r^2.  The two curves
cross at a critical amplitude, above which the bright probe wins.
"""
from lmint import (
    IDEAL_NOISE,
    MeasurementPlan,
    MonteCarloConfig,
    ProcessParams,
    Scheme,
    SetupConfig,
    Topology,
    crb,
    find_r_crit,
    fisher_numeric,
    sweep,
)

process = ProcessParams.folded(phi=0.7)
setup = SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.1, t2=0.1,
                    v_thermal=100.0, r_amp=100.0)
plan = MeasurementPlan(scheme=Scheme.JOINT, n_samples=20_000, seed=0)
cfg = MonteCarloConfig(setup=setup, process=process, plan=plan,
                       estimators=("phase_var", "phase_mean", "phase_ml"),
                       m_reps=60, base_seed=3)

print(f"{'r':>8s} {'var-based':>12s} {'mean-based':>12s} {'max-lik':>12s} {'CRB':>12s}")
for r, report in sweep(cfg, "r", [2.0, 10.0, 50.0, 250.0]):
    point = SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.1, t2=0.1,
                        v_thermal=100.0, r_amp=r)
    bound = crb(fisher_numeric(point, process, IDEAL_NOISE, "phi"), plan.n_samples)
    print(f"{r:8.1f} {report.mse('phase_var', 'phi'):12.3e}"
          f" {report.mse('phase_mean', 'phi'):12.3e}"
          f" {report.mse('phase_ml', 'phi'):12.3e} {bound:12.3e}")

print("\nlocating the crossover amplitude ...")
result = find_r_crit(
    MonteCarloConfig(setup=setup, process=process, plan=plan,
                     estimators=("phase_var", "phase_mean"),
                     m_reps=120, base_seed=5),
    (5.0, 300.0),
)
if result is None:
    print("no crossing inside the bracket")
else:
    print(f"r_crit = {result.r_crit:.1f}"
          f"  (bracket {result.bracket_low:.1f} .. {result.bracket_high:.1f})")
