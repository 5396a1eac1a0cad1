import cmath
import dataclasses
import math
import re

import numpy as np
import pytest

from lmint import (
    IDEAL_NOISE,
    NoiseParams,
    ProcessParams,
    SetupConfig,
    Topology,
    est_combined,
    est_displacement,
    est_general_cov,
    est_general_mean,
    est_phase_mean,
    est_phase_ml,
    est_phase_var,
    forward,
    response,
)
from lmint.estimators import (
    PROBE_PHASES,
    EstimationError,
    FitRejectedError,
    UnidentifiableError,
)
from lmint.gaussian_core import circular_diff, fold_angle, rotation, squeeze_matrix
from lmint.measurement import (
    InsufficientDataError,
    MeasurementPlan,
    MomentEstimate,
    Scheme,
    draw_moments,
    estimate_moments,
    sample,
)

from conftest import (
    NO_CHANNEL,
    exact_moments,
    exact_probe_moments,
    reference_data_sets,
    reference_joint_fit,
    reference_symmetric_face,
    response_cov,
)


def assert_params_close(got, want, tol):
    assert abs(circular_diff(got.phi, want.phi)) < tol
    assert abs(got.w - want.w) < tol
    assert abs(circular_diff(got.alpha, want.alpha, math.pi)) < tol
    assert abs(got.d - want.d) < tol
    assert abs(circular_diff(got.beta, want.beta)) < tol


# ---------------------------------------------------------------------------
# Displacement-only


def test_displacement_exact_inversion_simplistic():
    setup = SetupConfig(Topology.SIMPLISTIC, t1=0.0, t2=0.1, v_thermal=100.0, r_amp=0.0)
    truth = ProcessParams.folded(d=4.0, beta=0.5)
    d, beta = est_displacement(exact_moments(forward(setup, truth)), setup)
    assert (d, beta) == pytest.approx((4.0, 0.5), abs=1e-12)


def test_displacement_exact_inversion_every_topology(bench_setup):
    truth = ProcessParams.folded(d=4.0, beta=0.5)
    for topology in Topology:
        setup = dataclasses.replace(bench_setup, topology=topology)
        d, beta = est_displacement(exact_moments(forward(setup, truth)), setup)
        assert (d, beta) == pytest.approx((4.0, 0.5), abs=1e-9)


def test_displacement_calibrated_inversion(bench_setup):
    truth = ProcessParams.folded(d=4.0, beta=0.5)
    noise = NoiseParams(t_c=0.7, v_c=1.2)
    moments = exact_moments(forward(bench_setup, truth, noise))
    d, beta = est_displacement(moments, bench_setup, noise)
    assert (d, beta) == pytest.approx((4.0, 0.5), abs=1e-9)


def test_displacement_unidentifiable_without_coupling(bench_setup):
    setup = dataclasses.replace(bench_setup, t2=0.0)
    moments = exact_moments(forward(setup, ProcessParams.folded(d=4.0)))
    with pytest.raises(UnidentifiableError):
        est_displacement(moments, setup)


# ---------------------------------------------------------------------------
# Phase-only


def test_phase_uv_reference_values(bench_setup):
    # Under a pure phase the output variance is u + v cos(phi), with
    # u = a + e and v = 2b of the response.
    resp = response(bench_setup)
    assert resp.a + resp.e == pytest.approx(18.82)
    assert 2.0 * resp.b == pytest.approx(-17.82)
    for phi in (0.0, 0.7, -2.5):
        cov = forward(bench_setup, ProcessParams.folded(phi=phi)).cov
        assert cov == pytest.approx((18.82 - 17.82 * math.cos(phi)) * np.eye(2), abs=1e-9)


def test_phase_uv_no_signal_cases(bench_setup):
    assert response(dataclasses.replace(bench_setup, v_thermal=1.0)).b == 0.0
    resp = response(dataclasses.replace(bench_setup, t1=0.0))
    assert resp.b == 0.0
    assert resp.a + resp.e == pytest.approx(1.0 - 0.1 + 0.1 * 100.0)
    # Off the interferometric topology the variance has no phase term, so
    # the variance-based estimator has nothing to invert.
    for topology in (Topology.SIMPLISTIC, Topology.BLOCKED_BEAM):
        setup = dataclasses.replace(bench_setup, topology=topology)
        assert response(setup).b == 0.0
        moments = exact_moments(forward(setup, ProcessParams.folded(phi=0.7)))
        with pytest.raises(UnidentifiableError):
            est_phase_var(moments, setup)


def test_phase_var_exact(bench_setup):
    moments = exact_moments(forward(bench_setup, ProcessParams.folded(phi=0.7)))
    assert est_phase_var(moments, bench_setup) == pytest.approx(0.7, abs=1e-9)


def test_phase_var_sign_from_mean(bench_setup):
    moments = exact_moments(forward(bench_setup, ProcessParams.folded(phi=-0.7)))
    assert est_phase_var(moments, bench_setup) == pytest.approx(-0.7, abs=1e-9)


def test_phase_var_clamps_out_of_range_argument(bench_setup):
    resp = response(bench_setup)
    bad = MomentEstimate(mean=np.array([100.0, 1.0]),
                         cov=(resp.a + resp.e + 1.02 * 2.0 * resp.b) * np.eye(2))
    diagnostics = {}
    assert est_phase_var(bad, bench_setup, diagnostics=diagnostics) == pytest.approx(0.0)
    assert diagnostics["clamped"] == 1


def test_phase_var_unidentifiable_cold_matter(bench_setup):
    cold = dataclasses.replace(bench_setup, v_thermal=1.0)
    with pytest.raises(UnidentifiableError):
        est_phase_var(exact_moments(forward(cold, ProcessParams.folded(phi=0.7))), cold)


def test_phase_var_reads_the_assumed_channel(bench_setup):
    # On exact moments under a channel, phase_var given that channel returns
    # the truth; naive phase_var (an ideal channel assumed) keeps its bias,
    # and phase_mean needs no channel.
    noise = NoiseParams(t_c=0.8, v_c=1.2)
    moments = exact_moments(forward(bench_setup, ProcessParams.folded(phi=0.7), noise))
    assert est_phase_var(moments, bench_setup, noise=noise) == pytest.approx(0.7, abs=1e-9)
    assert est_phase_var(moments, bench_setup) == pytest.approx(0.6699, abs=1e-4)
    assert est_phase_mean(moments, bench_setup) == pytest.approx(0.7, abs=1e-9)


def test_phase_var_takes_the_channel_third_as_every_estimator_does(bench_setup):
    # A channel passed by position is the channel assumed: on drawn joint
    # moments under t_c = 0.7, phase_var reads 0.700 with it and 0.661
    # with none.
    noise = NoiseParams(t_c=0.7, v_c=1.2)
    state = forward(bench_setup, ProcessParams.folded(phi=0.7), noise)
    moments = draw_moments(state, MeasurementPlan(Scheme.JOINT, 100_000, 1))
    got = est_phase_var(moments, bench_setup, noise)
    assert got == est_phase_var(moments, bench_setup, noise=noise)
    assert got == pytest.approx(0.700, abs=5e-4)
    assert est_phase_var(moments, bench_setup) == pytest.approx(0.661, abs=5e-4)


def test_phase_mean_exact(bench_setup):
    moments = exact_moments(forward(bench_setup, ProcessParams.folded(phi=0.7)))
    assert est_phase_mean(moments, bench_setup) == pytest.approx(0.7, abs=1e-9)


def test_phase_mean_near_pi_keeps_sign(bench_setup):
    moments = exact_moments(forward(bench_setup, ProcessParams.folded(phi=3.0)))
    assert est_phase_mean(moments, bench_setup) == pytest.approx(3.0, abs=1e-9)


def test_phase_mean_unidentifiable_dark_probe(bench_setup):
    dark = dataclasses.replace(bench_setup, r_amp=0.0)
    with pytest.raises(UnidentifiableError):
        est_phase_mean(exact_moments(forward(dark, ProcessParams.folded(phi=0.7))), dark)


def test_phase_ml_noise_free_records(bench_setup):
    # Exact moments: the score vanishes at the truth, so the polish lands on it.
    state = forward(bench_setup, ProcessParams.folded(phi=0.7))
    assert est_phase_ml(exact_moments(state), bench_setup) == pytest.approx(0.7, abs=1e-9)


def test_phase_ml_on_sampled_records(bench_setup):
    state = forward(bench_setup, ProcessParams.folded(phi=-2.5))
    moments = estimate_moments(sample(state, MeasurementPlan(Scheme.JOINT, 20_000, seed=4)))
    assert est_phase_ml(moments, bench_setup) == pytest.approx(-2.5, abs=0.02)


def test_phase_ml_dark_probe_lands_on_a_maximum(bench_setup):
    # With a dark probe the likelihood is even in phi: at a small phase its
    # maxima at +-phi flank a minimum at 0, where the scan lands and the
    # score vanishes; the polish must leave that stationary point.
    dark = dataclasses.replace(bench_setup, r_amp=0.0)
    state = forward(dark, ProcessParams.folded(phi=0.05))
    assert abs(est_phase_ml(exact_moments(state), dark)) == pytest.approx(0.05, abs=1e-9)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_phase_ml_dark_probe_returns_the_non_negative_mirror(scheme):
    # The likelihood of a dark probe is even in phi, so +-phi fit alike and
    # the estimate is the non-negative one, as est_phase_var returns |phi|.
    # Left to the scan's rounding, nearly every draw here read a negative phase.
    setup = SetupConfig(Topology.INTERFEROMETRIC, t1=0.737, t2=0.453, v_thermal=182.0,
                        r_amp=0.0)
    for seed in range(25):
        for phi in (1.9934, -1.9934):
            state = forward(setup, ProcessParams.folded(phi=phi))
            got = est_phase_ml(draw_moments(state, MeasurementPlan(scheme, 600, seed)), setup)
            assert 0.0 <= got <= math.pi, (seed, phi, got)


@pytest.mark.parametrize("case", ["simplistic", "cold_dark"])
def test_phase_ml_unidentifiable_without_phase_signal(bench_setup, case):
    # Simplistic topology: no probe light passes the process and the
    # variance has no phase term.  Cold matter and a dark probe: neither
    # moment depends on the phase.
    if case == "simplistic":
        setup = dataclasses.replace(bench_setup, topology=Topology.SIMPLISTIC, t1=0.0)
    else:
        setup = dataclasses.replace(bench_setup, v_thermal=1.0, r_amp=0.0)
    state = forward(setup, ProcessParams.folded(phi=0.7))
    with pytest.raises(UnidentifiableError):
        est_phase_ml(exact_moments(state), setup)


def _loglik(moments, state_mean, state_cov):
    """Gaussian log-likelihood of the data sets of a MomentEstimate (see
    reference_data_sets: ddof=1 scatter, the mean of every set that keeps
    one) under given output moments, for any covariance (the reference for
    the closed form of est_phase_ml)."""
    ll = 0.0
    for count, rows, added, mean, scatter in reference_data_sets(moments):
        sig = rows @ state_cov @ rows.T + added
        inv = np.linalg.inv(sig)
        delta = np.zeros(len(rows)) if mean is None else mean - rows @ state_mean
        ll -= 0.5 * count * (math.log(np.linalg.det(sig)) + np.trace(inv @ scatter)
                             + delta @ inv @ delta)
    return ll


def reference_phase_ml(moments, setup, noise=IDEAL_NOISE):
    """Maximum-likelihood phase with the Gaussian log-likelihood of the full
    forward model at each trial phase: the 64-point scan of est_phase_ml,
    then bisection of the stationarity condition, a central difference of
    the log-likelihood, in the scan's bracket."""
    def ll(phi):
        state = forward(setup, ProcessParams.folded(phi=phi), noise)
        return _loglik(moments, state.mean, state.cov)

    def slope(phi, h=1e-5):
        return ll(phi + h) - ll(phi - h)

    grid = np.linspace(-math.pi, math.pi, 65)[1:]
    k = int(np.argmax([ll(p) for p in grid]))
    lo, hi = grid[k] - (grid[1] - grid[0]), grid[k] + (grid[1] - grid[0])
    assert slope(lo) > 0.0 > slope(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return fold_angle(0.5 * (lo + hi))


@pytest.mark.parametrize("scheme", [Scheme.JOINT, Scheme.HETERODYNE,
                                    Scheme.HOMODYNE_SPLIT2, Scheme.HOMODYNE_SPLIT3])
@pytest.mark.parametrize("noise", [NO_CHANNEL, NoiseParams(t_c=0.6, v_c=1.3)])
def test_phase_ml_matches_forward_likelihood(bench_setup, scheme, noise):
    # The closed-form likelihood picks the same phase as the one built from
    # forward, on drawn moments at both probe brightnesses.  With a dim
    # probe the likelihood is flat, so much that comparisons of its values
    # resolve the maximum to a few 1e-7 only; both sides solve for the zero
    # of its slope instead.
    cases = [(100.0, 0.7), (100.0, -2.5), (1.0, 0.7), (1.0, 2.9), (1.0, -2.5), (1.0, 0.0)]
    for k, (r_amp, phi) in enumerate(cases):
        setup = dataclasses.replace(bench_setup, r_amp=r_amp)
        state = forward(setup, ProcessParams.folded(phi=phi), noise)
        moments = draw_moments(state, MeasurementPlan(scheme, 6000, seed=17 + k))
        got = est_phase_ml(moments, setup, noise)
        want = reference_phase_ml(moments, setup, noise)
        assert abs(circular_diff(got, want)) < 1e-7, (r_amp, phi)


ALL_SCHEMES = [Scheme.JOINT, Scheme.HETERODYNE, Scheme.HOMODYNE_SPLIT2, Scheme.HOMODYNE_SPLIT3]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("noise", [NO_CHANNEL, NoiseParams(t_c=0.6, v_c=1.3)])
def test_phase_kernel_matches_joint_fit(bench_setup, scheme, noise):
    # The closed-form phi score and information of _phase_loglik are the
    # phi entries of _joint_fit's at the pure phase shift x = (phi, 0, 0, 0, 0),
    # both read from the same blocks; a homodyne3 estimate is also checked
    # without its pi/4 mean.
    from lmint.estimators import _blocks, _joint_fit, _phase_loglik

    phis = np.array([-2.5, 0.0, 0.69, 1.3, 3.0])
    for k, r_amp in enumerate((1.0, 100.0)):
        setup = dataclasses.replace(bench_setup, r_amp=r_amp)
        state = forward(setup, ProcessParams.folded(phi=0.7), noise)
        moments = draw_moments(state, MeasurementPlan(scheme, 6000, seed=5 + k))
        resp = response(setup, noise)
        inputs = [moments]
        if scheme is Scheme.HOMODYNE_SPLIT3:
            inputs.append(dataclasses.replace(moments, mean_diag=None))
        for data in inputs:
            blocks = _blocks([data], [setup.light_mean])
            _, score, info = _phase_loglik(phis, resp, blocks)
            for phi, s, i in zip(phis, score, info):
                _, want_s, want_i, _ = _joint_fit(np.array([phi, 0.0, 0.0, 0.0, 0.0]),
                                                  blocks, resp)
                assert abs(s - want_s[0]) <= 1e-10 * np.abs(want_s).max(), (r_amp, phi)
                assert abs(i - want_i[0][0]) <= 1e-10 * np.abs(want_i).max(), (r_amp, phi)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("noise", [NO_CHANNEL, NoiseParams(t_c=0.6, v_c=1.3)])
def test_phase_scan_is_the_grid_pass_bit_for_bit(bench_setup, scheme, noise):
    # est_phase_ml's scan forms its data-free grid terms once per run; its
    # log-likelihood must be _phase_loglik's grid pass bit for bit, so the
    # argmax, the polish and every estimate stay the same.  A dark probe, r
    # = 1 and r = 100 on every topology; the simplistic response has b = 0,
    # so it is given a linear term by hand, and a homodyne3 estimate is also
    # checked without its pi/4 mean.
    from lmint.estimators import _PHASE_GRID, _blocks, _phase_loglik, _phase_scan

    k = 0
    for topology in Topology:
        for r_amp in (0.0, 1.0, 100.0):
            setup = dataclasses.replace(bench_setup, topology=topology, r_amp=r_amp,
                                        probe_phase=0.3)
            state = forward(setup, ProcessParams.folded(phi=0.7, w=0.2, d=1.0), noise)
            moments = draw_moments(state, MeasurementPlan(scheme, 6000, seed=11 + k))
            k += 1
            resp = response(setup, noise)
            if topology is Topology.SIMPLISTIC:
                resp = dataclasses.replace(resp, b=-0.3 * resp.a)
            m = setup.light_mean
            inputs = [moments]
            if scheme is Scheme.HOMODYNE_SPLIT3:
                inputs.append(dataclasses.replace(moments, mean_diag=None))
            for data in inputs:
                blocks = _blocks([data], [m])
                got = _phase_scan(resp, m)(blocks)
                want = _phase_loglik(_PHASE_GRID, resp, blocks)[0]
                assert got.tobytes() == want.tobytes(), (topology, r_amp, len(blocks[0][3]))


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("noise", [NO_CHANNEL, NoiseParams(t_c=0.6, v_c=1.3)])
def test_phase_kernel_at_a_float_is_its_grid_pass(bench_setup, scheme, noise):
    # est_phase_ml scans the grid in one array pass and polishes with the
    # same _phase_loglik at a Python float, on plain Python scalars.  At each
    # grid point both passes agree to rounding, not bit for bit: numpy's
    # array loops round a complex product or modulus differently from scalar
    # arithmetic (up to 35 of the 64 points differ by an ulp at r = 100).
    from lmint.estimators import _PHASE_GRID, _blocks, _phase_loglik

    for k, r_amp in enumerate((1.0, 100.0)):
        setup = dataclasses.replace(bench_setup, r_amp=r_amp, probe_phase=0.3)
        state = forward(setup, ProcessParams.folded(phi=0.7, w=0.2, d=1.0), noise)
        moments = draw_moments(state, MeasurementPlan(scheme, 6000, seed=7 + k))
        resp = response(setup, noise)
        blocks = _blocks([moments], [setup.light_mean])
        grid = _phase_loglik(_PHASE_GRID, resp, blocks)
        scale = [np.abs(values).max() for values in grid]
        for j, phi in enumerate(_PHASE_GRID.tolist()):
            at_phi = _phase_loglik(phi, resp, blocks)
            assert [type(t) for t in at_phi] == [float] * 3
            for got, want, size in zip(at_phi, grid, scale):
                assert abs(got - want[j]) <= 1e-13 * size, (r_amp, phi)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_joint_fit_reads_a_list_as_its_array(bench_setup, scheme):
    # The scoring steps on lists of floats: _joint_fit gives the same
    # deviance, score, information and rounding bound, bit for bit, for the
    # chart point as a list and as an array.
    from lmint.estimators import _blocks, _joint_fit

    rng = np.random.default_rng(31)
    noise = NoiseParams(t_c=0.7, v_c=1.2)
    setup = dataclasses.replace(bench_setup, r_amp=3.0, probe_phase=0.4)
    data, m_in, _ = _joint_data(setup, ProcessParams.folded(phi=0.7, w=0.5, d=1.0), noise,
                                scheme, 6000, 60)
    blocks, resp = _blocks(data, m_in), response(setup, noise)
    for x in [np.array([0.7, 0.0, 0.0, 0.0, 0.0]), np.array([0.7, 0.05, -0.03, 0.0, 0.0])] + [
            rng.uniform(-1.5, 1.5, size=5) for _ in range(6)]:
        got, want = _joint_fit(x.tolist(), blocks, resp), _joint_fit(x, blocks, resp)
        assert got == want
        assert [type(t) for t in got[1]] == [float] * 5


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_phase_ml_reads_neither_joint_fit_nor_moment_derivatives(bench_setup, scheme,
                                                                 monkeypatch):
    # The five-parameter model derivatives exist only inside _joint_fit.
    import lmint.estimators as estimators

    def refuse(*args, **kwargs):
        raise AssertionError("est_phase_ml reached the five-parameter kernel")

    monkeypatch.setattr(estimators, "_joint_fit", refuse)
    state = forward(bench_setup, ProcessParams.folded(phi=0.7))
    moments = draw_moments(state, MeasurementPlan(scheme, 6000, seed=3))
    assert est_phase_ml(moments, bench_setup) == pytest.approx(0.7, abs=0.05)


# ---------------------------------------------------------------------------
# Covariance-based general method


def test_cov_method_exact_recovery(bench_setup, bench_process):
    report = est_general_cov(exact_moments(forward(bench_setup, bench_process)), bench_setup)
    assert_params_close(report.params, bench_process, 1e-6)
    assert report.diagnostics["residual_rel"] < 1e-9
    assert not report.diagnostics["off_image"]


def test_cov_method_rivals_reproduce_the_covariance(bench_setup, bench_process):
    state = forward(bench_setup, bench_process)
    report = est_general_cov(exact_moments(state), bench_setup)
    rivals = report.diagnostics.get("rival_fits", [])
    assert rivals, "the covariance map admits discrete rival processes"
    assert report.diagnostics["ambiguity_order"] == 1 + len(rivals)
    for phi, w, alpha in rivals:
        rival = ProcessParams.folded(phi=phi, w=w, alpha=alpha,
                                     d=bench_process.d, beta=bench_process.beta)
        # Every rival is observationally equivalent at the covariance level.
        assert np.abs(forward(bench_setup, rival).cov - state.cov).max() < 1e-6
        assert w >= report.params.w - 1e-3
    # On and off the image, the rivals are the other preimages of the fitted
    # covariance: each reproduces the pick's model covariance.
    inputs = [(bench_setup, exact_moments(state)), _shrunk_near_identity(bench_setup)]
    inputs += [_pushed_off_image(bench_setup, bench_process, depth)
               for depth in (0.002, 0.005, 0.01)]
    for setup, moments in inputs:
        report = est_general_cov(moments, setup)
        resp, pick = response(setup), report.params
        fitted = response_cov(resp, rotation(pick.phi) @ squeeze_matrix(pick.w, pick.alpha))
        for phi, w, alpha in report.diagnostics.get("rival_fits", []):
            model = response_cov(resp, rotation(phi) @ squeeze_matrix(w, alpha))
            assert np.linalg.norm(model - fitted) <= 1e-9 * np.linalg.norm(fitted)


def test_cov_method_enumerates_the_preimages_once(bench_setup, bench_process, monkeypatch):
    import lmint.estimators as estimators

    calls = []
    enumerate_preimages = estimators._cov_preimages

    def counted(*args):
        calls.append(args)
        return enumerate_preimages(*args)

    monkeypatch.setattr(estimators, "_cov_preimages", counted)
    report = est_general_cov(exact_moments(forward(bench_setup, bench_process)), bench_setup)
    assert not report.diagnostics["off_image"]
    assert report.diagnostics["ambiguity_order"] > 1
    assert len(calls) == 1


def test_cov_method_near_cold_twins_are_not_decided_by_rounding(bench_setup):
    # Near cold matter (V - 1 from 1e-6 to 1e-2) most drawn covariances fit
    # off the image at a double root of the proper branch.  Scaling the
    # covariance by 1 +- 2 eps moves neither the number of preimages nor
    # the pick.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(20261)
    off_image = 0
    for k in range(60):
        setup = dataclasses.replace(
            bench_setup, t1=rng.uniform(0.05, 0.95), t2=rng.uniform(0.05, 0.95),
            v_thermal=1.0 + 10 ** rng.uniform(-6, -2), r_amp=10 ** rng.uniform(0, 2.5))
        truth = ProcessParams.folded(phi=rng.uniform(-3, 3), w=rng.uniform(0, 1),
                                     alpha=rng.uniform(-1.5, 1.5), d=rng.uniform(0, 3))
        scheme = (Scheme.JOINT, Scheme.HETERODYNE, Scheme.HOMODYNE_SPLIT3)[k % 3]
        moments = draw_moments(forward(setup, truth),
                               MeasurementPlan(scheme, (600, 100_000)[k % 2], seed=k))
        want = est_general_cov(moments, setup)
        off_image += want.diagnostics["off_image"]
        for factor in (1.0 + 2.0 * eps, 1.0 - 2.0 * eps):
            got = est_general_cov(dataclasses.replace(moments, cov=factor * moments.cov), setup)
            assert (got.diagnostics["ambiguity_order"]
                    == want.diagnostics["ambiguity_order"]), (k, factor)
            assert_params_close(got.params, want.params, 1e-9)
    assert off_image > 40


def test_cov_method_canonical_pick_is_deterministic(bench_setup, bench_process):
    moments = exact_moments(forward(bench_setup, bench_process))
    a = est_general_cov(moments, bench_setup)
    b = est_general_cov(moments, bench_setup)
    assert a.params == b.params


def test_cov_method_needs_full_covariance(bench_setup, bench_process):
    state = forward(bench_setup, bench_process)
    split2 = estimate_moments(sample(state, MeasurementPlan(Scheme.HOMODYNE_SPLIT2, 1000, 0)))
    with pytest.raises(InsufficientDataError):
        est_general_cov(split2, bench_setup)
    # The scheme decides, not the shot counts: a hand-built joint estimate
    # keeps none and runs, a homodyne2 one with every count still fails.
    est_general_cov(MomentEstimate(mean=state.mean, cov=state.cov), bench_setup)
    with pytest.raises(InsufficientDataError):
        est_general_cov(dataclasses.replace(exact_moments(state), scheme=Scheme.HOMODYNE_SPLIT2),
                        bench_setup)


def test_cov_method_rejects_off_manifold_data(bench_setup):
    bad = MomentEstimate(mean=np.zeros(2), cov=np.diag([1e6, 1.0]),
                         n_effective={"cov_xp": 1})
    with pytest.raises(FitRejectedError):
        est_general_cov(bad, bench_setup)


def _pushed_off_image(bench_setup, bench_process, depth):
    """Weak-coupling moments with the smaller eigenvalue of P P^T pushed
    just below zero: off the image of the covariance map, past its rank-one
    face."""
    setup = dataclasses.replace(bench_setup, t1=0.01, t2=0.01)
    state = forward(setup, bench_process)
    resp = response(setup)
    a, b, e = resp.a, resp.b, resp.e
    shift = e - b * b / a
    ppt = (state.cov - shift * np.eye(2)) / a
    evals, evecs = np.linalg.eigh(ppt)
    cov = state.cov - a * (evals[0] + depth) * np.outer(evecs[:, 0], evecs[:, 0])
    assert np.linalg.det((cov - shift * np.eye(2)) / a) < 0.0
    return setup, MomentEstimate(mean=state.mean, cov=cov, n_effective={"cov_xp": 1})


def _shrunk_near_identity(bench_setup):
    """Working-point moments of a near-identity process with the covariance
    shrunk by 0.005 a: off the image, past its symmetric face (phi = 0)."""
    process = ProcessParams.folded(phi=0.02, w=0.03, alpha=0.5, d=4.0, beta=0.5)
    state = forward(bench_setup, process)
    a = response(bench_setup).a
    return bench_setup, MomentEstimate(mean=state.mean, cov=state.cov - 0.005 * a * np.eye(2),
                                       n_effective={"cov_xp": 1})


@pytest.mark.parametrize("depth", [0.002, 0.005, 0.01])
def test_cov_method_canonical_pick_off_image(bench_setup, bench_process, depth):
    # Weak coupling: sampled covariances fall just outside the image of the
    # covariance map, and the best fit lands on its boundary, where two
    # twins with equal squeezing reproduce the same covariance.
    setup, moments = _pushed_off_image(bench_setup, bench_process, depth)
    report = est_general_cov(moments, setup)
    assert report.diagnostics["off_image"]
    pick = report.params
    rivals = report.diagnostics.get("rival_fits", [])
    assert report.diagnostics["ambiguity_order"] == 1 + len(rivals) <= 4
    twins = [r for r in rivals if abs(r[1] - pick.w) < 1e-6]
    assert len(twins) == 1
    phi_t, w_t, alpha_t = twins[0]
    # The canonical twin is the more axis-aligned one, here on the truth side.
    assert abs(pick.alpha) < abs(alpha_t)
    assert abs(circular_diff(pick.phi, bench_process.phi)) < 0.1
    assert abs(circular_diff(phi_t, -pick.phi)) < 1e-6
    twin = ProcessParams.folded(phi=phi_t, w=w_t, alpha=alpha_t)
    assert np.abs(forward(setup, twin).cov - forward(setup, pick).cov).max() < 1e-6


@pytest.mark.parametrize("case", ["rank_one_0.002", "rank_one_0.005", "rank_one_0.01",
                                  "symmetric"])
def test_cov_method_off_image_fit_is_optimal(bench_setup, bench_process, case):
    # No process in reach of the pick fits the covariance better: 2000
    # random unit-determinant perturbations of its matrix, 1e-4 to 1e-1 in
    # size, all leave a larger residual.
    if case == "symmetric":
        setup, moments = _shrunk_near_identity(bench_setup)
    else:
        setup, moments = _pushed_off_image(bench_setup, bench_process,
                                           float(case.rsplit("_", 1)[1]))
    report = est_general_cov(moments, setup)
    assert report.diagnostics["off_image"]
    resp = response(setup)
    a, b, e = resp.a, resp.b, resp.e

    def residual(m):
        return np.linalg.norm(a * m @ m.T + b * (m + m.T) + e * np.eye(2) - moments.cov)

    pick = report.params
    pick_mat = rotation(pick.phi) @ squeeze_matrix(pick.w, pick.alpha)
    best = residual(pick_mat)
    assert best == pytest.approx(report.diagnostics["residual"], rel=1e-9)
    slack = 1e-12 * np.linalg.norm(moments.cov)
    rng = np.random.default_rng(11)
    for _ in range(2000):
        x = rng.normal(size=(2, 2))
        x -= 0.5 * np.trace(x) * np.eye(2)
        x *= 10.0 ** rng.uniform(-4.0, -1.0) / np.linalg.norm(x)
        m = pick_mat @ (np.eye(2) + x)
        assert residual(m / math.sqrt(np.linalg.det(m))) >= best - slack


def test_symmetric_face_matches_the_polynomial_reference():
    # The closed-form coefficients and the single eigenvalue call give the
    # points of the numpy.polynomial construction: the same number, each
    # within 1e-12 of the largest |x|.  A quarter of the cases each: any
    # lam, lam < 0, |lam| near 1, and mu[0] <= 0 (off the image past the
    # rank-one face) beside |lam| near 1 too, where roots cluster near x = 1.
    from lmint.estimators import _symmetric_face

    rng = np.random.default_rng(26)
    for k in range(2400):
        kind = k % 4
        lam = rng.uniform(-1.5, 1.5)
        if kind == 1:
            lam = -abs(lam)
        elif kind >= 2:
            lam = math.copysign(1.0 - 10.0 ** rng.uniform(-6.0, -1.0), rng.uniform(-1.0, 1.0))
        mu0 = -10.0 ** rng.uniform(-6.0, 0.0) if kind == 3 else rng.uniform(-2.0, 3.0)
        mu = (mu0, mu0 + 10.0 ** rng.uniform(-3.0, 1.0))
        got, want = sorted(_symmetric_face(mu, lam)), sorted(reference_symmetric_face(mu, lam))
        assert len(got) == len(want), (k, mu, lam)
        scale = max(abs(x) for x in want)
        assert all(abs(g - w) <= 1e-12 * scale for g, w in zip(got, want)), (k, mu, lam)


def test_cov_method_off_image_pick_matches_the_polynomial_reference(bench_setup,
                                                                     bench_process, monkeypatch):
    # Off the image, the pick and the preimage count are those of a fit
    # whose face points come from the numpy.polynomial reference.
    import lmint.estimators as estimators

    inputs = [_shrunk_near_identity(bench_setup)]
    inputs += [_pushed_off_image(bench_setup, bench_process, depth)
               for depth in (0.002, 0.005, 0.01)]
    weak = dataclasses.replace(bench_setup, t1=0.01, t2=0.01)
    near_cold = dataclasses.replace(bench_setup, v_thermal=1.001)
    for k in range(60):
        setup = (weak, near_cold)[k % 2]
        scheme = (Scheme.JOINT, Scheme.HETERODYNE, Scheme.HOMODYNE_SPLIT3)[k % 3]
        inputs.append((setup, draw_moments(forward(setup, bench_process),
                                           MeasurementPlan(scheme, 100_000, seed=k))))
    closed = [est_general_cov(moments, setup) for setup, moments in inputs]
    monkeypatch.setattr(estimators, "_symmetric_face", reference_symmetric_face)
    off_image = 0
    for (setup, moments), got in zip(inputs, closed):
        want = est_general_cov(moments, setup)
        assert got.diagnostics["off_image"] == want.diagnostics["off_image"]
        off_image += want.diagnostics["off_image"]
        assert got.diagnostics["ambiguity_order"] == want.diagnostics["ambiguity_order"]
        assert_params_close(got.params, want.params, 1e-9)
    assert off_image >= 20


@pytest.mark.parametrize("entry", ["c0_nan", "c0_inf", "c1_nan", "mean_nan", "mean_inf"])
def test_cov_method_names_non_finite_moments(bench_setup, bench_process, entry):
    # A NaN or infinite statistic fails with a named EstimationError before
    # the fit, not with numpy's LinAlgError or ProcessParams' range check.
    moments = exact_moments(forward(bench_setup, bench_process))
    bad = {"c0_nan": {"c0": math.nan}, "c0_inf": {"c0": math.inf},
           "c1_nan": {"c1": complex(math.nan, 0.0)},
           "mean_nan": {"z": complex(math.nan, moments.z.imag)},
           "mean_inf": {"z": complex(moments.z.real, -math.inf)}}[entry]
    with pytest.raises(EstimationError, match="not finite"):
        est_general_cov(dataclasses.replace(moments, **bad), bench_setup)


#: A NaN or infinite entry of each moment, and how the failure names it.
NON_FINITE = [({"z": complex(math.nan, 9.41)}, "mean (nan+9.41j)"),
              ({"z": complex(39.3, -math.inf)}, "mean (39.3-infj)"),
              ({"c0": math.nan}, "c0 nan"), ({"c0": math.inf}, "c0 inf"),
              ({"c1": complex(math.nan, 0.0)}, "c1 (nan+0j)"),
              ({"mean_diag": math.nan}, "mean_diag nan")]


@pytest.mark.parametrize("bad, named", NON_FINITE)
def test_every_estimator_names_non_finite_moments(bench_setup, bench_process, bad, named):
    # Each public estimator fails with one EstimationError naming the entry,
    # where it returned -pi, NaN or a finite value that ignores it, or failed
    # for another cause ("scatter is singular", a bare ValueError, "no step
    # lowers the deviance").
    single = exact_moments(forward(bench_setup, bench_process))
    probes = exact_probe_moments(bench_setup, bench_process)
    broken = dataclasses.replace(single, **bad)
    cases = [(est_displacement, (broken,), named), (est_phase_var, (broken,), named),
             (est_phase_mean, (broken,), named), (est_phase_ml, (broken,), named),
             (est_general_cov, (broken,), named),
             (est_general_mean, ([probes[0], broken, probes[2]],), f"probe 1 {named}"),
             (est_combined, (broken, probes), named),
             (est_combined, (single, [*probes[:2], broken]), f"probe 2 {named}")]
    for estimator, data, message in cases:
        if estimator is est_general_cov and "mean_diag" in bad:
            continue  # the covariance fit reads no pi/4 mean
        match = f"^the moments are not finite: {re.escape(message)}$"
        with pytest.raises(EstimationError, match=match):
            estimator(*data, bench_setup)


def test_finite_moments_check_runs_after_the_setup_checks(bench_process):
    # A setup the estimator cannot identify fails as such, whatever the data.
    cold = SetupConfig(Topology.BLOCKED_BEAM, t1=0.1, t2=0.1, v_thermal=1.0, r_amp=0.0)
    broken = dataclasses.replace(exact_moments(forward(cold, bench_process)), c0=math.nan)
    for estimator in (est_phase_var, est_phase_mean, est_phase_ml):
        with pytest.raises(UnidentifiableError):
            estimator(broken, cold)


def test_cov_method_unidentifiable_cold_matter(bench_setup, bench_process):
    # V = 1: the covariance response has no linear term, so it carries no
    # rotation signal.
    cold = dataclasses.replace(bench_setup, v_thermal=1.0)
    with pytest.raises(UnidentifiableError):
        est_general_cov(exact_moments(forward(cold, bench_process)), cold)


def test_cov_method_axis_undefined_for_pure_phase(bench_setup):
    truth = ProcessParams.folded(phi=0.7, d=2.0, beta=1.0)
    report = est_general_cov(exact_moments(forward(bench_setup, truth)), bench_setup)
    assert report.diagnostics.get("axis_undefined")
    assert report.params.alpha == 0.0
    assert abs(report.params.w) < 1e-4


def test_cov_method_calibrated_exact(bench_setup, bench_process):
    noise = NoiseParams(t_c=0.7, v_c=1.2)
    moments = exact_moments(forward(bench_setup, bench_process, noise))
    report = est_general_cov(moments, bench_setup, noise)
    assert_params_close(report.params, bench_process, 1e-5)


def test_cov_method_exact_on_random_points(bench_setup):
    rng = np.random.default_rng(2)
    for _ in range(10):
        truth = ProcessParams.folded(
            phi=rng.uniform(-3.1, 3.1), w=rng.uniform(0.05, 1.5),
            alpha=rng.uniform(-1.5, 1.5), d=rng.uniform(0.0, 8.0),
            beta=rng.uniform(-3.1, 3.1),
        )
        report = est_general_cov(exact_moments(forward(bench_setup, truth)), bench_setup)
        assert report.diagnostics["residual_rel"] < 1e-9
        # The canonical pick never squeezes more than the truth.
        assert report.params.w <= truth.w + 1e-3


# ---------------------------------------------------------------------------
# Mean-based general method


def test_mean_method_exact_recovery(bench_setup, bench_process):
    report = est_general_mean(exact_probe_moments(bench_setup, bench_process), bench_setup)
    assert_params_close(report.params, bench_process, 1e-12)


def test_mean_method_opposite_probes_isolate_displacement(bench_setup):
    rng = np.random.default_rng(5)
    for _ in range(10):
        truth = ProcessParams.folded(
            phi=rng.uniform(-3.1, 3.1), w=rng.uniform(0.0, 1.5),
            alpha=rng.uniform(-1.5, 1.5), d=4.0, beta=0.5,
        )
        probes = exact_probe_moments(bench_setup, truth)
        k_hat = 0.5 * (probes[0].mean + probes[1].mean)
        d_vec = k_hat / math.sqrt(bench_setup.t2)
        assert math.hypot(*d_vec) == pytest.approx(4.0, abs=1e-9)


def test_mean_method_calibrated_exact(bench_setup, bench_process):
    noise = NoiseParams(t_c=0.7, v_c=1.2)
    probes = exact_probe_moments(bench_setup, bench_process, noise)
    report = est_general_mean(probes, bench_setup, noise)
    assert_params_close(report.params, bench_process, 1e-9)


def test_mean_method_naive_under_loss_mixes_up_gain(bench_setup, bench_process):
    noise = NoiseParams(t_c=0.5, v_c=1.2)
    probes = exact_probe_moments(bench_setup, bench_process, noise)
    naive = est_general_mean(probes, bench_setup)  # assumes the ideal channel
    assert naive.params.d < bench_process.d  # gain sqrt(t_c) eats the signal
    assert naive.params.q < bench_process.q


def test_mean_method_needs_bright_probe(bench_setup, bench_process):
    dark = dataclasses.replace(bench_setup, r_amp=0.0)
    with pytest.raises(UnidentifiableError):
        est_general_mean(exact_probe_moments(dark, bench_process), dark)


def test_mean_method_unidentifiable_without_probe_path(bench_setup, bench_process):
    # Simplistic topology, or no second coupling: no probe light passes the process.
    setup = dataclasses.replace(bench_setup, topology=Topology.SIMPLISTIC, t1=0.0)
    with pytest.raises(UnidentifiableError):
        est_general_mean(exact_probe_moments(setup, bench_process), setup)
    setup = dataclasses.replace(bench_setup, t2=0.0)
    with pytest.raises(UnidentifiableError, match="t2 = 0"):
        est_general_mean(exact_probe_moments(setup, bench_process), setup)


def test_mean_method_axis_undefined_for_pure_phase(bench_setup):
    truth = ProcessParams.folded(phi=0.7, d=2.0, beta=1.0)
    report = est_general_mean(exact_probe_moments(bench_setup, truth), bench_setup)
    assert report.diagnostics.get("axis_undefined")
    assert report.params.alpha == 0.0


# ---------------------------------------------------------------------------
# Joint maximum likelihood


def _with_shots(moments, n, scheme=Scheme.JOINT):
    """Exact moments standing for n records of the given scheme."""
    n_eff = dict.fromkeys(("mean_x", "mean_p", "var_x", "var_p", "cov_xp"), n)
    if scheme is Scheme.HOMODYNE_SPLIT2:
        n_eff["cov_xp"] = 0
    return dataclasses.replace(moments, n_effective=n_eff, scheme=scheme)


def test_combined_identical_inputs(bench_setup, bench_process):
    # Exact moments, on which both methods return the truth, are a fixed
    # point of the scoring: no step, no deviance.
    out = est_combined(exact_moments(forward(bench_setup, bench_process)),
                       exact_probe_moments(bench_setup, bench_process), bench_setup)
    assert_params_close(out.params, bench_process, 1e-9)
    assert not out.diagnostics["model_inconsistent"]
    assert out.diagnostics["deviance"] < 1e-9
    assert out.diagnostics["scoring_steps"] == 0


@pytest.mark.parametrize("scheme", [Scheme.JOINT, Scheme.HETERODYNE,
                                    Scheme.HOMODYNE_SPLIT3, Scheme.HOMODYNE_SPLIT2])
def test_combined_exact_recovery_from_a_distant_start(bench_setup, bench_process, scheme,
                                                      monkeypatch):
    # Exact moments under a channel, scored from a start far off the truth
    # in every parameter: the damped steps still land on it, to well inside
    # the statistical error (the stop at s^T F^-1 s < 1e-9 leaves about
    # 3e-5 of the bound's standard deviation, here below 1e-6).  Heterodyne
    # moments carry the vacuum unit already taken off.
    import lmint.estimators as estimators

    p = ProcessParams.folded(phi=1.2, w=0.2, alpha=0.3, d=2.5, beta=1.2)
    start = p.phi, p.w, p.alpha, p.d, p.beta
    monkeypatch.setattr(estimators, "prepare_general_mean", lambda *args: lambda probes: start)
    noise = NoiseParams(t_c=0.7, v_c=1.2)
    single = _with_shots(exact_moments(forward(bench_setup, bench_process, noise)), 30_000,
                         scheme)
    probes = [_with_shots(m, 10_000, scheme)
              for m in exact_probe_moments(bench_setup, bench_process, noise)]
    out = est_combined(single, probes, bench_setup, noise)
    assert_params_close(out.params, bench_process, 1e-6)
    assert out.diagnostics["scoring_steps"] > 2
    assert not out.diagnostics["model_inconsistent"]


def test_combined_information_matches_fisher_matrix(bench_setup, bench_process):
    # The scoring's information at the truth is the joint Fisher matrix of
    # the four data sets: n fisher_matrix of the single read-out plus
    # n / 3 fisher_matrix of each probe.
    from lmint.estimators import _blocks, _joint_fit, chart
    from lmint.fisher import fisher_matrix

    noise = NoiseParams(t_c=0.8, v_c=1.1)
    n = 99_999
    x, jac = chart(bench_process)
    data = [_with_shots(exact_moments(forward(bench_setup, bench_process, noise)), n)]
    m_in = [bench_setup.light_mean]
    want = n * fisher_matrix(bench_setup, bench_process, noise)
    for phase, m in zip(PROBE_PHASES, exact_probe_moments(bench_setup, bench_process, noise)):
        setup = dataclasses.replace(bench_setup, probe_phase=phase)
        data.append(_with_shots(m, n // 3))
        m_in.append(setup.light_mean)
        want += n // 3 * fisher_matrix(setup, bench_process, noise)
    deviance, score, info, _ = _joint_fit(x, _blocks(data, m_in), response(bench_setup, noise))
    got = jac.T @ info @ jac
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    assert deviance == pytest.approx(0.0, abs=1e-6)
    assert np.abs(score).max() <= 1e-9 * np.abs(info).max()


def _joint_data(setup, process, noise, scheme, n, seed):
    """Drawn moments of the single read-out and the three probes, the probe
    inputs behind them and their per-set reference layout."""
    setups = [setup] + [dataclasses.replace(setup, probe_phase=p) for p in PROBE_PHASES]
    data = [draw_moments(forward(s, process, noise),
                         MeasurementPlan(scheme, n if j == 0 else n // 3, seed=seed + j))
            for j, s in enumerate(setups)]
    sets = [(s, reference_data_sets(m)) for s, m in zip(setups, data)]
    return data, [s.light_mean for s in setups], sets


def _assert_kernel_matches(x, data, m_in, sets, setup, noise):
    from lmint.estimators import _blocks, _joint_fit

    deviance, score, info, _ = _joint_fit(x, _blocks(data, m_in), response(setup, noise))
    want_d, want_s, want_i = reference_joint_fit(x, sets, noise)
    assert abs(deviance - want_d) <= 1e-9
    assert np.abs(score - want_s).max() <= 1e-12 * np.abs(want_s).max()
    assert np.abs(info - want_i).max() <= 1e-12 * np.abs(want_i).max()


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("noise", [NO_CHANNEL, NoiseParams(t_c=0.6, v_c=1.3)])
def test_joint_fit_matches_the_per_set_reference(bench_setup, scheme, noise):
    # The blocked kernel equals the per-data-set loop at the pure phase
    # shift (w = 0, d = 0) and at a random point, on drawn moments of the
    # single read-out and the three probes at a probe phase of their own.
    from lmint.estimators import chart

    rng = np.random.default_rng(11)
    setup = dataclasses.replace(bench_setup, r_amp=3.0, probe_phase=0.4)
    for k in range(3):
        truth = ProcessParams.folded(phi=0.7) if k == 0 else ProcessParams.folded(
            phi=rng.uniform(-3, 3), w=rng.uniform(0, 1), alpha=rng.uniform(-1.5, 1.5),
            d=rng.uniform(0, 3), beta=rng.uniform(-3, 3))
        data, m_in, sets = _joint_data(setup, truth, noise, scheme, 6000, 40 + 5 * k)
        _assert_kernel_matches(chart(truth)[0], data, m_in, sets, setup, noise)


def test_joint_fit_matches_the_reference_without_the_diagonal_mean(bench_setup):
    # A homodyne3 estimate that keeps no pi/4 mean adds that group's
    # covariance terms only; the others keep theirs.
    from lmint.estimators import chart

    truth = ProcessParams.folded(phi=-1.1, w=0.4, alpha=0.3, d=1.2, beta=2.0)
    data, m_in, sets = _joint_data(bench_setup, truth, IDEAL_NOISE, Scheme.HOMODYNE_SPLIT3,
                                   6000, 3)
    data[0] = dataclasses.replace(data[0], mean_diag=None)
    sets[0] = (bench_setup, reference_data_sets(data[0]))
    assert sets[0][1][2][3] is None and sets[1][1][2][3] is not None
    _assert_kernel_matches(chart(truth)[0], data, m_in, sets, bench_setup, IDEAL_NOISE)


def test_joint_fit_gives_no_score_far_off(bench_setup, bench_process):
    # Far trial points have no usable model covariance: at w = 400 its
    # entries overflow, at w = 800 cosh itself does.  Each counts as a
    # deviance rise, so the scoring halves the step, and warns of nothing.
    import warnings

    from lmint.estimators import _blocks, _joint_fit

    blocks = _blocks([exact_moments(forward(bench_setup, bench_process))],
                     [bench_setup.light_mean])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in (400.0, 800.0):
            assert _joint_fit(np.array([0.7, w, 0.0, 0.0, 0.0]), blocks,
                              response(bench_setup)) == (math.inf, None, None, 0.0)


def test_sigma_pair_matches_the_response_covariance(bench_setup):
    # The pair form (s0, s1) of _sigma is the symmetric matrix s0 I + Re s1
    # sz + Im s1 sx; the pair (m0, m1) is the matrix with columns m0 + m1
    # and i (m0 - m1).
    from lmint.estimators import _process_pair, _sigma

    rng = np.random.default_rng(4242)
    for _ in range(100):
        setup = dataclasses.replace(bench_setup, t1=rng.uniform(0.05, 0.95),
                                    t2=rng.uniform(0.05, 0.95), v_thermal=rng.uniform(1.0, 200.0))
        resp = response(setup, NoiseParams(t_c=rng.uniform(0.5, 1.0), v_c=rng.uniform(1.0, 2.0)))
        m0, m1 = complex(*rng.normal(size=2) * 3.0), complex(*rng.normal(size=2) * 3.0)
        first, second = m0 + m1, 1j * (m0 - m1)
        mat = np.array([[first.real, second.real], [first.imag, second.imag]])
        s0, s1 = _sigma((m0, m1), resp)
        want = response_cov(resp, mat)
        got = np.array([[s0 + s1.real, s1.imag], [s1.imag, s0 - s1.real]])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # Far off, the entries overflow to inf rather than raising.
    s0, s1 = _sigma(_process_pair(0.7, 400.0, 0.3), response(bench_setup))
    assert s0 == math.inf and not cmath.isfinite(s1)


def test_combined_names_a_singular_scatter(bench_setup, bench_process):
    # A hand-made estimate whose covariance is singular has no likelihood.
    single = exact_moments(forward(bench_setup, bench_process))
    single = dataclasses.replace(single, cov=np.outer(single.cov[0], single.cov[0]))
    with pytest.raises(EstimationError, match="singular"):
        est_combined(single, exact_probe_moments(bench_setup, bench_process), bench_setup)


def _assert_step_matches_numpy(info, score):
    # A backward-stable solve of a 5x5 system moves its result by up to
    # ~5 cond eps relative to its size, so two such solves differ by at most
    # twice that: numpy's LU (LAPACK dgesv) against the Cholesky factor.
    from lmint.estimators import _newton_step

    info, score = np.asarray(info), np.asarray(score)
    tol = 2 * 5 * np.linalg.cond(info) * np.finfo(float).eps
    step, decrement = _newton_step(info.tolist(), score.tolist())
    want = np.linalg.solve(info, score)
    assert np.abs(np.array(step) - want).max() <= tol * np.abs(want).max()
    assert abs(decrement - score @ want) <= tol * abs(score @ want)


def test_newton_step_matches_numpy_on_random_information():
    # Random symmetric positive definite matrices of condition 1 to 1e12, at
    # scales 1e-3 to 1e8, and scores of scales 1e-3 to 1e3.
    rng = np.random.default_rng(2501)
    for _ in range(500):
        q = np.linalg.qr(rng.normal(size=(5, 5)))[0]
        info = (q * np.logspace(0.0, -rng.uniform(0.0, 12.0), 5)) @ q.T
        info = 10.0 ** rng.uniform(-3.0, 8.0) * (info + info.T) / 2
        _assert_step_matches_numpy(info, rng.normal(size=5) * 10.0 ** rng.uniform(-3.0, 3.0))


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_newton_step_matches_numpy_on_the_scoring_information(bench_setup, scheme):
    # _joint_fit's information and score near the truth, on drawn moments of
    # the single read-out and the three probes, with and without a channel
    # and at r = 1 and 100.
    from lmint.estimators import _blocks, _joint_fit, chart

    rng = np.random.default_rng(2502)
    for k in range(8):
        noise = IDEAL_NOISE if k % 2 else NoiseParams(t_c=0.7, v_c=1.2)
        setup = dataclasses.replace(bench_setup, r_amp=(1.0, 100.0)[k // 4], probe_phase=0.3)
        truth = ProcessParams.folded(
            phi=rng.uniform(-3, 3), w=rng.uniform(0, 1), alpha=rng.uniform(-1.5, 1.5),
            d=rng.uniform(0, 3), beta=rng.uniform(-3, 3))
        data, m_in, _ = _joint_data(setup, truth, noise, scheme, 6000, 60 + k)
        x = chart(truth)[0] + rng.normal(size=5) * 0.01
        _, score, info, _ = _joint_fit(x, _blocks(data, m_in), response(setup, noise))
        _assert_step_matches_numpy(info, score)


@pytest.mark.parametrize("info", [np.diag([4.0, 3.0, 2.0, 1.0, -1e-6]),
                                  np.diag([4.0, 3.0, 0.0, 2.0, 1.0]),
                                  np.ones((5, 5))],
                         ids=["indefinite", "zero-row", "rank-one"])
def test_newton_step_names_an_information_that_is_not_positive_definite(info):
    from lmint.estimators import _newton_step

    with pytest.raises(EstimationError, match="the information matrix is not positive definite"):
        _newton_step(info.tolist(), [1.0, 2.0, 3.0, 4.0, 5.0])


def test_combined_names_an_information_that_is_not_positive_definite(bench_setup, bench_process,
                                                                     monkeypatch):
    # The scoring fails with the named reason when the information it is
    # handed is indefinite: here _joint_fit's with the sign of I(d_x, d_x)
    # flipped.
    import lmint.estimators as estimators

    joint_fit = estimators._joint_fit

    def flipped(*args):
        deviance, score, info, rounding = joint_fit(*args)
        info[3][3] = -info[3][3]
        return deviance, score, info, rounding

    monkeypatch.setattr(estimators, "_joint_fit", flipped)
    single, probes = _sampled(bench_setup, bench_process, IDEAL_NOISE, Scheme.JOINT, 30_000, 5)
    with pytest.raises(EstimationError, match="the information matrix is not positive definite"):
        est_combined(single, probes, bench_setup)


def test_combined_scores_without_numpy_solve(bench_setup, bench_process, monkeypatch):
    # The scoring step is the Cholesky factor on Python floats, not a numpy
    # solve.
    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    single, probes = _sampled(bench_setup, bench_process, IDEAL_NOISE, Scheme.JOINT, 30_000, 5)
    out = est_combined(single, probes, bench_setup)
    assert out.diagnostics["scoring_steps"] > 0
    assert abs(circular_diff(out.params.phi, bench_process.phi)) < 0.1


@pytest.mark.parametrize("scheme, missing", [(Scheme.JOINT, "mean_x"),
                                             (Scheme.HOMODYNE_SPLIT3, "mean_x, mean_p, cov_xp")])
def test_moments_without_shot_counts_are_named(bench_setup, bench_process, scheme, missing):
    # MomentEstimate(mean=..., cov=...) keeps no shot counts, which the
    # likelihoods of phase_ml and combined weigh each data set by.
    state = forward(bench_setup, bench_process)
    bare = MomentEstimate(mean=state.mean, cov=state.cov, scheme=scheme)
    message = f"a {scheme.value} data set has no shot count for {missing}$"
    with pytest.raises(InsufficientDataError, match=message):
        est_phase_ml(bare, bench_setup)
    with pytest.raises(InsufficientDataError, match=message):
        est_combined(bare, exact_probe_moments(bench_setup, bench_process), bench_setup)


def test_combined_reads_moment_derivatives_once_per_evaluation(bench_setup, bench_process,
                                                               monkeypatch):
    # The data sets share Sigma(A): one _joint_fit call, which builds the
    # model derivatives once for all blocks, serves each likelihood
    # evaluation, on every scheme.  Without halvings, s scoring steps
    # evaluate s + 1 points.
    import lmint.estimators as estimators

    calls = []
    joint_fit = estimators._joint_fit

    def counted(*args):
        calls.append(args)
        return joint_fit(*args)

    monkeypatch.setattr(estimators, "_joint_fit", counted)
    points = 0
    for scheme in ALL_SCHEMES:
        single, probes = _sampled(bench_setup, bench_process, IDEAL_NOISE, scheme, 30_000, 9)
        points += est_combined(single, probes, bench_setup).diagnostics["scoring_steps"] + 1
    assert len(calls) == points


def _sampled(setup, process, noise, scheme, n, seed):
    """Moments of sampled records: the single read-out and the three probes."""
    single = estimate_moments(sample(forward(setup, process, noise),
                                     MeasurementPlan(scheme, n, seed)))
    probes = [estimate_moments(sample(forward(dataclasses.replace(setup, probe_phase=p),
                                              process, noise),
                                      MeasurementPlan(scheme, n // 3, seed + 1 + j)))
              for j, p in enumerate(PROBE_PHASES)]
    return single, probes


def test_combined_pure_phase_converges(bench_setup):
    # w = 0 and d = 0: the polar parameters alpha and beta are undefined
    # there, the chart of the scoring is not.
    truth = ProcessParams.folded(phi=0.7)
    for seed in range(10):
        single, probes = _sampled(bench_setup, truth, IDEAL_NOISE, Scheme.JOINT, 30_000,
                                  100 * seed)
        out = est_combined(single, probes, bench_setup)
        assert abs(circular_diff(out.params.phi, 0.7)) < 0.05
        assert out.params.w < 0.1 and out.params.d < 0.5
        assert not out.diagnostics["model_inconsistent"]


@pytest.mark.parametrize("scheme", [Scheme.HETERODYNE, Scheme.HOMODYNE_SPLIT3,
                                    Scheme.HOMODYNE_SPLIT2])
def test_combined_runs_on_every_scheme(bench_setup, bench_process, scheme):
    # homodyne2 keeps no covariance, so cov_method cannot run on it; the
    # joint likelihood uses the variances it does keep.
    single, probes = _sampled(bench_setup, bench_process, IDEAL_NOISE, scheme, 30_000, 7)
    out = est_combined(single, probes, bench_setup)
    for name in ("phi", "w", "alpha", "d", "beta"):
        assert math.isfinite(getattr(out.params, name))
    assert abs(circular_diff(out.params.phi, bench_process.phi)) < 0.1
    assert abs(out.params.d - bench_process.d) < 0.5
    assert not out.diagnostics["model_inconsistent"]
    if scheme is Scheme.HOMODYNE_SPLIT2:
        with pytest.raises(InsufficientDataError):
            est_general_cov(single, bench_setup)


def test_combined_flags_model_inconsistency(bench_setup, bench_process):
    # Records under loss t_c = 0.8 fitted with the ideal channel (what
    # naive_combined does) leave a deviance far above its chi-square law;
    # the calibrated fit of the same records does not.
    noise = NoiseParams(t_c=0.8, v_c=1.0)
    single, probes = _sampled(bench_setup, bench_process, noise, Scheme.JOINT, 100_000, 3)
    naive = est_combined(single, probes, bench_setup)
    assert naive.diagnostics["model_inconsistent"]
    assert naive.diagnostics["deviance_sigma"] > 5.0
    calibrated = est_combined(single, probes, bench_setup, noise)
    assert not calibrated.diagnostics["model_inconsistent"]
    assert calibrated.diagnostics["dof"] == 15


def test_combined_scoring_cap_raises(bench_setup, bench_process, monkeypatch):
    # A fit that has not converged within the step cap fails with a named
    # reason instead of returning an unconverged point.
    import lmint.estimators as estimators

    monkeypatch.setattr(estimators, "_MAX_SCORING_STEPS", 0)
    single, probes = _sampled(bench_setup, bench_process, IDEAL_NOISE, Scheme.JOINT, 30_000, 5)
    with pytest.raises(EstimationError):
        est_combined(single, probes, bench_setup)


@pytest.mark.parametrize("seed", [20, 256, 264])
def test_combined_last_step_is_not_decided_by_rounding(bench_setup, bench_process, seed):
    # At N = 1e7 the deviance carries ~1e-7 of rounding, far above the 1e-9
    # decrement at which the scoring stops, so a step whose true change is
    # below that rounding used to be halved or taken by the sign of its
    # rounding: scaling every scatter by 1 + 2 eps moved the estimate by
    # ~1e-8 and the scoring steps from 3 to 2 (seed 264), and a run of such
    # halvings exhausted the step cap (seeds 20 and 256).  A rise within the
    # deviances' rounding bound now counts as no rise.
    from lmint.estimators import chart

    setup = dataclasses.replace(bench_setup, probe_phase=0.3)
    n = 10_000_000
    single = draw_moments(forward(setup, bench_process), MeasurementPlan(Scheme.JOINT, n, seed))
    probes = [draw_moments(forward(dataclasses.replace(setup, probe_phase=p), bench_process),
                           MeasurementPlan(Scheme.JOINT, n // 3, seed + 1 + j))
              for j, p in enumerate(PROBE_PHASES)]
    ulp = 1.0 + 2.0 * np.finfo(float).eps
    want = est_combined(single, probes, setup)
    got = est_combined(dataclasses.replace(single, cov=single.cov * ulp),
                       [dataclasses.replace(m, cov=m.cov * ulp) for m in probes], setup)
    assert got.diagnostics["scoring_steps"] == want.diagnostics["scoring_steps"]
    assert np.abs(chart(got.params)[0] - chart(want.params)[0]).max() <= 1e-12
    assert abs(circular_diff(want.params.phi, bench_process.phi)) < 0.01
