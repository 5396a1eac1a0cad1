import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmint import (
    IDENTITY_PROCESS,
    NoiseParams,
    ProcessParams,
    SetupConfig,
    Topology,
    forward,
    mean_map,
)
from lmint.gaussian_core import is_physical, make_coherent


def test_setup_validation():
    with pytest.raises(ValueError):
        SetupConfig(Topology.INTERFEROMETRIC, t1=1.2, t2=0.1, v_thermal=100.0, r_amp=100.0)
    with pytest.raises(ValueError):
        SetupConfig(Topology.INTERFEROMETRIC, t1=0.1, t2=0.1, v_thermal=0.5, r_amp=100.0)
    with pytest.raises(ValueError):
        SetupConfig(Topology.INTERFEROMETRIC, t1=0.1, t2=0.1, v_thermal=100.0, r_amp=-1.0)


@given(st.floats(0.0, 1.0), st.floats(0.0, 300.0), st.floats(1.0, 300.0),
       st.floats(-math.pi, math.pi))
@settings(max_examples=60, deadline=None)
def test_interferometer_cancels_identity_process(t, r, v, probe_phase):
    # Equal couplings undo each other for any transmittance: the read-out
    # light leaves in its input coherent state.
    setup = SetupConfig(Topology.INTERFEROMETRIC, t1=t, t2=t, v_thermal=v,
                        r_amp=r, probe_phase=probe_phase)
    out = forward(setup, IDENTITY_PROCESS)
    ref = make_coherent(r, probe_phase)
    assert np.abs(out.mean - ref.mean).max() < 1e-10 * max(1.0, r)
    assert np.abs(out.cov - ref.cov).max() < 1e-10 * v


def test_phase_only_mean(bench_setup):
    # <x_o> = r sqrt((1-T1)(1-T2)) + r sqrt(T1 T2) cos(phi), and the sine
    # component on p; at T=0.1, r=100, phi=0.7 this is (97.648..., 6.442...).
    out = forward(bench_setup, ProcessParams.folded(phi=0.7))
    assert out.mean[0] == pytest.approx(90.0 + 10.0 * math.cos(0.7), abs=1e-9)
    assert out.mean[1] == pytest.approx(10.0 * math.sin(0.7), abs=1e-9)
    assert out.mean[0] == pytest.approx(97.648, abs=1e-3)
    assert out.mean[1] == pytest.approx(6.442, abs=1e-3)


def test_phase_only_variance_cosine_law(bench_setup):
    # Var(x_o) = u + v cos(phi) with u = 1 - T1 - T2 + 2 T1 T2 + (T1 + T2) V
    # - 2 T1 T2 V and v = 2 (1 - V) sqrt((1-T1)(1-T2) T1 T2).
    u, v = 18.82, -17.82
    for phi in (0.0, 0.7, 2.0):
        out = forward(bench_setup, ProcessParams.folded(phi=phi))
        assert out.cov[0, 0] == pytest.approx(u + v * math.cos(phi), abs=1e-9)
    assert forward(bench_setup, IDENTITY_PROCESS).cov[0, 0] == pytest.approx(1.0)


def test_probe_phase_rotates_frame(bench_setup):
    rotated = dataclasses.replace(bench_setup, probe_phase=math.pi / 2)
    out = forward(rotated, ProcessParams.folded(phi=0.7))
    base = forward(bench_setup, ProcessParams.folded(phi=0.7))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(out.mean, rot @ base.mean)


def test_simplistic_output_moments():
    # x_o = sqrt(T2) x_matter + sqrt(1-T2) x_light.
    setup = SetupConfig(Topology.SIMPLISTIC, t1=0.0, t2=0.1, v_thermal=100.0, r_amp=100.0)
    out = forward(setup, IDENTITY_PROCESS)
    assert np.allclose(out.mean, [math.sqrt(0.9) * 100.0, 0.0])
    assert np.allclose(out.cov, (0.1 * 100.0 + 0.9) * np.eye(2))


def test_blocked_beam_sees_vacuum_on_second_coupler():
    setup = SetupConfig(Topology.BLOCKED_BEAM, t1=0.1, t2=0.1, v_thermal=100.0, r_amp=100.0)
    out = forward(setup, IDENTITY_PROCESS)
    # No direct light path: the mean is the matter leak only.
    mm = mean_map(setup)
    assert mm.direct == 0.0
    assert np.allclose(out.mean, mm.through * setup.light_mean)


def test_displacement_gain(bench_setup):
    p = ProcessParams.folded(d=5.0, beta=0.9)
    out = forward(bench_setup, p)
    base = forward(bench_setup, IDENTITY_PROCESS)
    assert np.allclose(out.mean - base.mean, math.sqrt(0.1) * p.d_vec)


def test_forward_with_noise_is_physical(bench_setup, bench_process):
    out = forward(bench_setup, bench_process, NoiseParams(t_c=0.5, v_c=1.2))
    assert is_physical(out)
    assert out.n_modes == 1


# ---------------------------------------------------------------------------
# Mean-map decomposition


def test_mean_map_identity_is_identity(bench_setup):
    mm = mean_map(bench_setup)
    assert np.allclose(mm.linear(IDENTITY_PROCESS), np.eye(2))
    assert mm.g_d == pytest.approx(math.sqrt(0.1))
    assert mm.through == pytest.approx(0.1)
    assert mm.direct == pytest.approx(0.9)


def test_mean_map_displacement_contribution(bench_setup):
    p = ProcessParams.folded(d=5.0, beta=math.atan2(4.0, 3.0))
    mm = mean_map(bench_setup)
    assert np.allclose(mm.g_d * p.d_vec, math.sqrt(0.1) * np.array([3.0, 4.0]))


def test_mean_map_with_loss(bench_setup):
    mm = mean_map(bench_setup, NoiseParams(t_c=0.9, v_c=1.2))
    assert mm.g_d == pytest.approx(0.3)
    assert mm.through == pytest.approx(math.sqrt(0.01 * 0.9))


def test_mean_map_predicts_forward(bench_setup, bench_process):
    for noise in (None, NoiseParams(t_c=0.7, v_c=1.2)):
        mm = mean_map(bench_setup, noise)
        predicted = mm.predict(bench_process, bench_setup.light_mean)
        actual = forward(bench_setup, bench_process, noise).mean
        assert np.allclose(predicted, actual, atol=1e-9)


def test_mean_map_simplistic_predicts_forward(bench_process):
    # No probe light passes the process: only the displacement reaches the mean.
    setup = SetupConfig(Topology.SIMPLISTIC, t1=0.0, t2=0.3, v_thermal=100.0,
                        r_amp=100.0, probe_phase=0.4)
    for noise in (None, NoiseParams(t_c=0.7, v_c=1.2)):
        mm = mean_map(setup, noise)
        assert mm.through == 0.0
        assert mm.direct == pytest.approx(math.sqrt(0.7))
        predicted = mm.predict(bench_process, setup.light_mean)
        actual = forward(setup, bench_process, noise).mean
        assert np.allclose(predicted, actual, atol=1e-9)
