"""Decoherence between the interfaces, and what calibration buys back.

The probe arm sees a loss channel (transmittance t_c, bath variance v_c).
An estimator that assumes an ideal channel mis-scales the recovered
displacement and squeezing; a calibration pass with the process switched
off recovers the channel parameters and restores the estimates.
"""
from lmint import (
    MeasurementPlan,
    MonteCarloConfig,
    NoiseParams,
    ProcessParams,
    Scheme,
    SetupConfig,
    Topology,
    calibrate,
    run_mc,
)

truth = ProcessParams.from_q(phi=0.7, q=2.0, alpha=-0.3, d=4.0, beta=0.5)
setup = SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.1, t2=0.1,
                    v_thermal=100.0, r_amp=100.0)
plan = MeasurementPlan(scheme=Scheme.JOINT, n_samples=100_000, seed=9)

print("== calibration run (process off) ==")
true_noise = NoiseParams(t_c=0.7, v_c=1.2)
est = calibrate(setup, plan, true_noise)
print(f"true channel: t_c={true_noise.t_c}, v_c={true_noise.v_c}")
print(f"estimated   : t_c={est.t_c:.4f}, v_c={est.v_c:.4f}")

print("\n== naive versus calibrated estimation under loss ==")
print(f"{'loss':>5s} {'naive d MSE':>12s} {'cal d MSE':>12s}"
      f" {'naive q MSE':>12s} {'cal q MSE':>12s}")
for loss in (0.0, 0.3, 0.5):
    report = run_mc(MonteCarloConfig(
        setup=setup, process=truth, plan=plan,
        estimators=("mean_method", "naive_mean_method"),
        noise=NoiseParams(t_c=1.0 - loss, v_c=1.2), calibration="auto", m_reps=30, base_seed=17,
    ))
    print(f"{loss:5.1f} {report.mse('naive_mean_method', 'd'):12.3e}"
          f" {report.mse('mean_method', 'd'):12.3e}"
          f" {report.mse('naive_mean_method', 'q'):12.3e}"
          f" {report.mse('mean_method', 'q'):12.3e}")

print("\nThe naive displacement and squeezing degrade with loss; the phase")
print("estimate is gain-insensitive, so naive and calibrated phase coincide.")
