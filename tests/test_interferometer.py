import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmint import (
    IDEAL_NOISE,
    IDENTITY_PROCESS,
    NoiseParams,
    ProcessParams,
    SetupConfig,
    Topology,
    forward,
    measured_state,
    response,
)
from lmint.estimators import W_MAX
from lmint.gaussian_core import is_physical, make_coherent, rotation, squeeze_matrix
from lmint.interferometer import measured_moments


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
    resp = response(setup)
    assert resp.direct == 0.0
    z = resp.through * setup.light_mean
    assert np.allclose(out.mean, [z.real, z.imag])


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
# Closed-form response: the mean map (through, direct, g_d) and the
# covariance scalars (a, b, e)


def _matrix(process):
    return rotation(process.phi) @ squeeze_matrix(process.w, process.alpha)


def test_mean_map_identity_is_identity(bench_setup):
    resp = response(bench_setup)
    m_in = bench_setup.light_mean
    assert np.allclose(resp.mean(np.eye(2), np.zeros(2), m_in), [m_in.real, m_in.imag])
    assert resp.g_d == pytest.approx(math.sqrt(0.1))
    assert resp.through == pytest.approx(0.1)
    assert resp.direct == pytest.approx(0.9)


def test_mean_map_displacement_contribution(bench_setup):
    p = ProcessParams.folded(d=5.0, beta=math.atan2(4.0, 3.0))
    resp = response(bench_setup)
    assert np.allclose(resp.mean(np.eye(2), p.d_vec, np.zeros(2)),
                       math.sqrt(0.1) * np.array([3.0, 4.0]))


def test_mean_map_with_loss(bench_setup):
    resp = response(bench_setup, NoiseParams(t_c=0.9, v_c=1.2))
    assert resp.g_d == pytest.approx(0.3)
    assert resp.through == pytest.approx(math.sqrt(0.01 * 0.9))


def test_mean_map_predicts_forward(bench_setup, bench_process):
    for noise in (IDEAL_NOISE, NoiseParams(t_c=0.7, v_c=1.2)):
        resp = response(bench_setup, noise)
        predicted = resp.mean(_matrix(bench_process), bench_process.d_vec,
                              bench_setup.light_mean)
        actual = forward(bench_setup, bench_process, noise).mean
        assert np.allclose(predicted, actual, atol=1e-9)


def test_mean_map_simplistic_predicts_forward(bench_process):
    # No probe light passes the process: only the displacement reaches the mean.
    setup = SetupConfig(Topology.SIMPLISTIC, t1=0.0, t2=0.3, v_thermal=100.0,
                        r_amp=100.0, probe_phase=0.4)
    for noise in (IDEAL_NOISE, NoiseParams(t_c=0.7, v_c=1.2)):
        resp = response(setup, noise)
        assert resp.through == 0.0
        assert resp.direct == pytest.approx(math.sqrt(0.7))
        predicted = resp.mean(_matrix(bench_process), bench_process.d_vec, setup.light_mean)
        actual = forward(setup, bench_process, noise).mean
        assert np.allclose(predicted, actual, atol=1e-9)


def test_response_reference_values(bench_setup):
    # Working point T = 0.1, V = 100: a = T ((1 - T) V + T), b = T (1 - T) (1 - V),
    # e = (1 - T) (T V + 1 - T); a + 2 b + e = 1 (the identity process
    # leaves the probe's vacuum covariance).
    resp = response(bench_setup)
    assert (resp.a, resp.b, resp.e) == pytest.approx((9.01, -8.91, 9.81), rel=1e-12)
    assert resp.a + 2.0 * resp.b + resp.e == pytest.approx(1.0, rel=1e-12)


@given(topology=st.sampled_from(list(Topology)),
       t1=st.floats(0.0, 1.0), t2=st.floats(0.0, 1.0), v=st.floats(1.0, 300.0),
       r=st.floats(0.0, 300.0), probe_phase=st.floats(-math.pi, math.pi),
       phi=st.floats(-math.pi, math.pi), w=st.floats(0.0, W_MAX),
       alpha=st.floats(-math.pi / 2, math.pi / 2), d=st.floats(0.0, 20.0),
       beta=st.floats(-math.pi, math.pi),
       noise=st.just(IDEAL_NOISE) | st.builds(NoiseParams, t_c=st.floats(0.01, 1.0),
                                   v_c=st.floats(1.0, 5.0)))
@settings(max_examples=200, deadline=None)
def test_response_matches_forward(topology, t1, t2, v, r, probe_phase, phi, w, alpha,
                                  d, beta, noise):
    setup = SetupConfig(topology, t1=t1, t2=t2, v_thermal=v, r_amp=r,
                        probe_phase=probe_phase)
    process = ProcessParams.folded(phi=phi, w=w, alpha=alpha, d=d, beta=beta)
    state = forward(setup, process, noise)
    resp = response(setup, noise)
    mat = _matrix(process)
    mean = resp.mean(mat, process.d_vec, setup.light_mean)
    cov = resp.cov(mat)
    assert np.abs(mean - state.mean).max() <= 1e-9 * max(1.0, np.abs(state.mean).max())
    assert np.abs(cov - state.cov).max() <= 1e-9 * np.abs(state.cov).max()
    # The simulated data draw from measured_state, the response's own state.
    drawn = measured_state(setup, process, noise)
    assert np.abs(drawn.mean - state.mean).max() <= 1e-12 * max(1.0, np.abs(state.mean).max())
    assert np.abs(drawn.cov - state.cov).max() <= 1e-12 * np.abs(state.cov).max()


def test_pair_form_matches_matrix_form_and_forward():
    # measured_moments runs the response in pair form on Python scalars.
    # Each entry must agree with the matrix form (Response.mean and .cov of
    # R(phi) S(w, alpha)) and with forward to a few eps of the size its
    # docstring names: (through s + direct) r + g_d d for the mean and
    # a s^2 + 2 |b| s + e for the covariance, s = |m0| + |m1| = e^w.
    # measured_state is those very numbers as a GaussianState.
    few = 8 * np.finfo(float).eps
    rng = np.random.default_rng(2323)
    for topology in Topology:
        for noisy in (False, True):
            for _ in range(40):
                noise = (NoiseParams(t_c=rng.uniform(0.01, 1.0), v_c=rng.uniform(1.0, 5.0))
                         if noisy else IDEAL_NOISE)
                setup = SetupConfig(topology, t1=rng.uniform(), t2=rng.uniform(),
                                    v_thermal=rng.uniform(1.0, 300.0),
                                    r_amp=rng.uniform(0.0, 300.0),
                                    probe_phase=rng.uniform(-math.pi, math.pi))
                process = ProcessParams.folded(
                    phi=rng.uniform(-math.pi, math.pi), w=rng.uniform(0.0, W_MAX),
                    alpha=rng.uniform(-math.pi / 2, math.pi / 2), d=rng.uniform(0.0, 20.0),
                    beta=rng.uniform(-math.pi, math.pi))
                phases = [0.0, math.pi / 2, math.pi, rng.uniform(-math.pi, math.pi)]
                means, (s_xx, s_xp, s_pp) = measured_moments(setup, process, noise, phases)
                resp, s = response(setup, noise), math.exp(process.w)
                mean_tol = few * ((resp.through * s + resp.direct) * setup.r_amp
                                  + resp.g_d * process.d)
                cov_tol = few * (resp.a * s * s + 2.0 * abs(resp.b) * s + resp.e)
                cov = np.array([[s_xx, s_xp], [s_xp, s_pp]])
                assert np.abs(cov - resp.cov(_matrix(process))).max() <= cov_tol
                for phase, z in zip(phases, means):
                    at_phase = dataclasses.replace(setup, probe_phase=phase)
                    mean = np.array([z.real, z.imag])
                    want = resp.mean(_matrix(process), process.d_vec, at_phase.light_mean)
                    assert np.abs(mean - want).max() <= mean_tol
                    state = forward(at_phase, process, noise)
                    assert np.abs(mean - state.mean).max() <= mean_tol
                    assert np.abs(cov - state.cov).max() <= cov_tol
                    drawn = measured_state(at_phase, process, noise)
                    assert drawn.mean.tolist() == mean.tolist()
                    assert drawn.cov.tolist() == cov.tolist()
