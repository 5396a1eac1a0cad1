import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmint import (
    IDEAL_NOISE,
    NoiseParams,
    ProcessParams,
    SetupConfig,
    Topology,
    compare_blocked_vs_interferometric,
    crb,
    fisher_displacement,
    fisher_numeric,
    forward,
    response,
)
from lmint.estimators import W_MAX, _blocks, _joint_fit, chart
from lmint.fisher import _ONE_RECORD, FisherResult
from lmint.fisher import fisher_matrix as exact_fisher_matrix

from conftest import (FISHER_PARAMS, NO_CHANNEL, exact_moments, exact_probe_moments,
                      fisher_matrix, gaussian_information, moment_derivatives,
                      three_probe_bounds)


def setup_for(topology, t1, t2, v):
    return SetupConfig(topology=topology, t1=t1, t2=t2, v_thermal=v, r_amp=100.0)


def record_block(setup, mean_only):
    """The one block of fisher_matrix's record probed by setup.light_mean;
    mean_only sets the record count N of its covariance term to 0, which
    leaves _joint_fit the mean term of the information."""
    ((p, added, (n_all, *sums), sets),) = _blocks([_ONE_RECORD], 0, [setup.light_mean])
    return p, added, (0.0 if mean_only else n_all, *sums), sets


def kernel_information(setup, process, noise, block):
    """_joint_fit's information of one block at the process, in PARAMETERS order."""
    x, jac = chart(process)
    return jac.T @ np.array(_joint_fit(x, [block], response(setup, noise))[2]) @ jac


def phi_terms(setup, process):
    """(mean term, covariance term) of the information about phi."""
    mean_term = kernel_information(setup, process, IDEAL_NOISE, record_block(setup, True))[0, 0]
    return mean_term, exact_fisher_matrix(setup, process)[0, 0] - mean_term


# ---------------------------------------------------------------------------
# Closed forms


def test_displacement_information_simplistic():
    fi = fisher_displacement(setup_for(Topology.SIMPLISTIC, 0.0, 0.1, 100.0))
    assert fi.value == pytest.approx(0.1 / 10.9)
    assert fi.value == pytest.approx(0.0091743, abs=5e-8)


def test_displacement_information_blocked():
    # t2 / (1 - t2 + t2 ((1 - t1) V + t1)); full transfer t1=1 reaches t2.
    fi = fisher_displacement(setup_for(Topology.BLOCKED_BEAM, 1.0, 0.1, 100.0))
    assert fi.value == pytest.approx(0.1)
    fi = fisher_displacement(setup_for(Topology.BLOCKED_BEAM, 0.1, 0.1, 100.0))
    assert fi.value == pytest.approx(0.1 / 9.91)


def test_displacement_information_interferometric():
    fi = fisher_displacement(setup_for(Topology.INTERFEROMETRIC, 0.1, 0.1, 100.0))
    assert fi.value == pytest.approx(0.1)


def test_interferometric_unbalanced_matches_reference():
    # No closed form of the paper covers t1 != t2; g_d^2 / (a + 2b + e)
    # must still be the d entry of the forward-difference reference.
    s = setup_for(Topology.INTERFEROMETRIC, 0.2, 0.1, 100.0)
    fi = fisher_displacement(s)
    want = fisher_matrix(s, ProcessParams.folded(d=1.0))[3, 3]
    assert fi.value == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("topology", list(Topology))
def test_displacement_information_under_the_channel(topology):
    # With a channel, fisher_displacement is the d entry of the
    # forward-difference reference under that channel; without one it keeps
    # the one-argument value.
    s = setup_for(topology, 0.0 if topology is Topology.SIMPLISTIC else 0.1, 0.1, 100.0)
    noise = NoiseParams(t_c=0.5, v_c=1.2)
    want = fisher_matrix(s, ProcessParams.folded(d=1.0), noise)[3, 3]
    assert fisher_displacement(s, noise).value == pytest.approx(want, rel=1e-8)
    assert fisher_displacement(s, IDEAL_NOISE) == fisher_displacement(s)
    assert fisher_displacement(s, noise).value < fisher_displacement(s).value


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("noise", [NO_CHANNEL, NoiseParams(t_c=0.7, v_c=1.3)])
@pytest.mark.parametrize("mean_only", [False, True])
def test_fisher_matrix_matches_the_reference_information(topology, noise, mean_only):
    # fisher_matrix reads the likelihood kernel of est_combined; it equals
    # the Gaussian information of the reference moment derivatives, carried
    # by the chart's Jacobian, at the pure phase shift and at random points.
    # With the covariance term's record count at 0 the kernel keeps the mean term.
    rng = np.random.default_rng(23)
    for k in range(6):
        setup = dataclasses.replace(
            setup_for(topology, 0.0 if topology is Topology.SIMPLISTIC else rng.uniform(0.05, 0.95),
                      rng.uniform(0.05, 0.95), rng.uniform(1.0, 200.0)),
            r_amp=rng.uniform(0.0, 50.0), probe_phase=rng.uniform(-3, 3))
        process = ProcessParams.folded(phi=0.7) if k == 0 else ProcessParams.folded(
            phi=rng.uniform(-3, 3), w=rng.uniform(0, 1.5), alpha=rng.uniform(-1.5, 1.5),
            d=rng.uniform(0, 3), beta=rng.uniform(-3, 3))
        x, jac = chart(process)
        _, sig, d_mu, d_sig = moment_derivatives(response(setup, noise), x, [setup.light_mean])
        want = jac.T @ gaussian_information(sig, d_mu[0], None if mean_only else d_sig) @ jac
        got = (kernel_information(setup, process, noise, record_block(setup, True)) if mean_only
               else exact_fisher_matrix(setup, process, noise))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (k, setup, process)


@pytest.mark.parametrize("w", [400.0, 800.0])
def test_fisher_matrix_names_an_overflow(bench_setup, w):
    # At w = 400 the model covariance overflows, at w = 800 cosh itself does.
    with pytest.raises(OverflowError, match="overflows"):
        exact_fisher_matrix(bench_setup, ProcessParams.folded(phi=0.7, w=w))


def test_fisher_matrix_and_combined_share_one_kernel(bench_setup, bench_process, monkeypatch):
    # Both read estimators._joint_fit: with it refusing, both raise.
    import lmint.estimators as estimators

    def refuse(*args):
        raise RuntimeError("the shared kernel")

    single = exact_moments(forward(bench_setup, bench_process))
    probes = exact_probe_moments(bench_setup, bench_process)
    monkeypatch.setattr(estimators, "_joint_fit", refuse)
    with pytest.raises(RuntimeError, match="the shared kernel"):
        exact_fisher_matrix(bench_setup, bench_process)
    with pytest.raises(RuntimeError, match="the shared kernel"):
        estimators.est_combined(single, probes, bench_setup)


@pytest.mark.parametrize("x", [(0.7, 0.0, 0.0, 0.0, 0.0), (0.7, 0.07, -0.0566, 0.0, 0.0),
                               (0.7, 0.08, -0.0624, 0.0, 0.0), (-2.0, 0.6, 0.3, 1.5, -2.5)])
def test_moment_derivatives_match_differences_of_the_moments(bench_setup, x):
    # The chart (phi, w cos 2alpha, w sin 2alpha, d cos beta, d sin beta) is
    # regular at w = 0 and d = 0, where the polar derivatives are not; the
    # series branch (w < 0.1: 0, 0.09) and the closed form (w = 0.101, 0.67)
    # agree with central differences of the moments themselves, for each
    # of a batch of probe inputs.
    noise = NoiseParams(t_c=0.8, v_c=1.1)
    resp = response(bench_setup, noise)
    m_in = np.array([dataclasses.replace(bench_setup, probe_phase=p).light_mean
                     for p in (0.0, np.pi, np.pi / 2, -0.4)])
    x = np.array(x)
    _, _, d_mu, d_sig = moment_derivatives(resp, x, m_in)
    assert d_mu.shape == (4, 5, 2) and d_sig.shape == (5, 2, 2)
    h = 1e-6
    for i in range(5):
        step = h * np.eye(5)[i]
        mu_p, sig_p, _, _ = moment_derivatives(resp, x + step, m_in)
        mu_m, sig_m, _, _ = moment_derivatives(resp, x - step, m_in)
        for j in range(len(m_in)):
            assert (np.abs((mu_p[j] - mu_m[j]) / (2 * h) - d_mu[j, i]).max()
                    < 1e-8 * np.abs(d_mu[j]).max())
        assert np.abs((sig_p - sig_m) / (2 * h) - d_sig[i]).max() < 1e-8 * np.abs(d_sig).max()


def test_fisher_result_rejects_negative():
    with pytest.raises(ValueError):
        FisherResult(value=-1.0, parameter="d")


# ---------------------------------------------------------------------------
# Numeric cross-checks


def paper_displacement_information(topology, t1, t2, v):
    """The paper's per-topology displacement information; the
    interferometric form holds for a balanced interferometer (t1 = t2)."""
    if topology is Topology.SIMPLISTIC:
        return t2 / (1.0 + t2 * (v - 1.0))
    if topology is Topology.BLOCKED_BEAM:
        return t2 / (1.0 - t2 + t2 * ((1.0 - t1) * v + t1))
    return t2


def test_numeric_matches_analytic_sample():
    rng = np.random.default_rng(3)
    process = ProcessParams.folded(d=1.0)
    for _ in range(10):
        t1, t2 = rng.uniform(0.02, 0.98, size=2)
        v = rng.uniform(1.0, 300.0)
        for topology in Topology:
            t_in = t2 if topology is Topology.INTERFEROMETRIC else t1
            s = setup_for(topology, t_in, t2, v)
            want = paper_displacement_information(topology, t_in, t2, v)
            assert fisher_displacement(s).value == pytest.approx(want, rel=1e-12)
            got = fisher_numeric(s, process, IDEAL_NOISE, "d").value
            assert got == pytest.approx(want, rel=1e-12)


def test_phase_information_terms(bench_setup):
    # Dark probe: all phase information sits in the covariance channel.
    dark = dataclasses.replace(bench_setup, r_amp=0.0)
    mean_term, cov_term = phi_terms(dark, ProcessParams.folded(phi=0.7))
    assert mean_term == pytest.approx(0.0, abs=1e-12)
    assert cov_term > 0.0
    # Bright probe: the mean channel dominates.
    mean_term, cov_term = phi_terms(bench_setup, ProcessParams.folded(phi=0.7))
    assert mean_term > cov_term


def test_unknown_parameter_rejected(bench_setup, bench_process):
    with pytest.raises(ValueError):
        fisher_numeric(bench_setup, bench_process, IDEAL_NOISE, "nope")


def test_fisher_matrix_diagonal_matches_numeric(bench_setup, bench_process):
    info = fisher_matrix(bench_setup, bench_process)
    for k, name in enumerate(FISHER_PARAMS):
        if name == "q":
            # Chain rule through q = e^w: I_q = I_w (dw/dq)^2 = I_w / q^2.
            want = fisher_numeric(bench_setup, bench_process, IDEAL_NOISE, "w").value
            want /= bench_process.q ** 2
        else:
            want = fisher_numeric(bench_setup, bench_process, IDEAL_NOISE, name).value
        assert info[k, k] == pytest.approx(want, rel=1e-6)


# The reference differentiates forward at step 1e-5 through
# ProcessParams.from_q, which clamps w and d at 0, so both keep a margin.
@given(topology=st.sampled_from(list(Topology)),
       t1=st.floats(0.0, 1.0), t2=st.floats(0.0, 1.0), v=st.floats(1.0, 300.0),
       r=st.floats(0.0, 300.0), probe_phase=st.floats(-math.pi, math.pi),
       phi=st.floats(-math.pi, math.pi), w=st.floats(1e-3, W_MAX),
       alpha=st.floats(-math.pi / 2, math.pi / 2), d=st.floats(1e-3, 20.0),
       beta=st.floats(-math.pi, math.pi),
       noise=st.just(IDEAL_NOISE) | st.builds(NoiseParams, t_c=st.floats(0.01, 1.0),
                                   v_c=st.floats(1.0, 5.0)))
@settings(max_examples=200, deadline=None)
def test_fisher_matrix_matches_forward_reference(topology, t1, t2, v, r, probe_phase,
                                                 phi, w, alpha, d, beta, noise):
    setup = SetupConfig(topology, t1=t1, t2=t2, v_thermal=v, r_amp=r,
                        probe_phase=probe_phase)
    process = ProcessParams.folded(phi=phi, w=w, alpha=alpha, d=d, beta=beta)
    # Chain rule from w to q = e^w: dw/dq = 1/q.
    jac = np.diag([1.0, 1.0 / process.q, 1.0, 1.0, 1.0])
    # The reference's central differences round each moment derivative by
    # up to about eps |moment| / step.  Whitened by the covariance, that is
    # an error delta per derivative, and an entry moves by at most
    # delta (2 sqrt(max I_ii) + delta).
    state = forward(setup, process, noise)
    lam = np.linalg.eigvalsh(state.cov)[0]
    delta = 1e-10 * (np.abs(state.mean).max() / math.sqrt(lam) + np.abs(state.cov).max() / lam)
    for mean_only in (False, True):
        got = jac @ (kernel_information(setup, process, noise, record_block(setup, True))
                     if mean_only else exact_fisher_matrix(setup, process, noise)) @ jac
        want = fisher_matrix(setup, process, noise, mean_only=mean_only)
        floor = delta * (2.0 * math.sqrt(np.diag(want).max()) + delta)
        assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max() + floor


def test_single_readout_bound_exponents_over_coupling(bench_process):
    # The coupling grid and windows of acceptance criterion 7: the joint
    # read-out bound itself scales inside the requested windows.
    grid = [0.01, 0.02, 0.05, 0.1]
    bounds = []
    for t in grid:
        s = setup_for(Topology.INTERFEROMETRIC, t, t, 100.0)
        bounds.append(np.diag(np.linalg.inv(fisher_matrix(s, bench_process))))
    slopes = -np.polyfit(np.log(grid), np.log(bounds), 1)[0]
    c = dict(zip(FISHER_PARAMS, slopes))
    assert 1.3 <= c["phi"] <= 2.2
    assert 1.3 <= c["q"] <= 2.2
    assert 0.4 <= c["d"] <= 1.1


def test_three_probe_bound_growth_under_loss(bench_setup, bench_process):
    # The channel and loss grid of acceptance criterion 8: loss raises the
    # bound for the displacement direction beta beyond 2x, so a raw MSE
    # spread under 2 is out of reach for beta, while the other bounds barely
    # move.
    table = [three_probe_bounds(bench_setup, bench_process,
                                NoiseParams(t_c=1.0 - loss, v_c=1.2), 100_000)
             for loss in (0.0, 0.1, 0.3, 0.5)]
    growth = {name: max(b[name] for b in table) / min(b[name] for b in table)
              for name in FISHER_PARAMS}
    assert growth["beta"] > 2.0
    for name in ("phi", "q", "alpha", "d"):
        assert growth[name] < 1.3


# ---------------------------------------------------------------------------
# Bounds


def test_crb_values():
    fi = FisherResult(value=0.1, parameter="d")
    assert crb(fi, 100_000) == pytest.approx(1e-4)
    fi = FisherResult(value=0.0091743, parameter="d")
    assert crb(fi, 100_000) == pytest.approx(1.09e-3, rel=1e-3)
    fi = FisherResult(value=2.0, parameter="d")
    assert crb(fi, 1) == pytest.approx(0.5)


def test_crb_rejects_zero_information():
    fi = FisherResult(value=0.0, parameter="phi")
    with pytest.raises(ValueError):
        crb(fi, 100)


# ---------------------------------------------------------------------------
# Topology comparison over phase


def test_blocked_vs_interferometric_crossing():
    s = setup_for(Topology.INTERFEROMETRIC, 0.1, 0.1, 100.0)
    s = dataclasses.replace(s, r_amp=1.0)
    report = compare_blocked_vs_interferometric(s, np.linspace(0.05, 3.1, 40))
    # Near phi = 0 the interferometric layout is strictly better; the
    # advantage reverses once in (0, pi) for this dim-probe configuration.
    assert report.info_interferometric[0] > report.info_blocked[0]
    assert len(report.crossings) == 1
    assert 0.05 < report.crossings[0] < math.pi


def test_cold_matter_comparison_driven_by_means():
    s = SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.1, t2=0.1,
                    v_thermal=1.0, r_amp=10.0)
    report = compare_blocked_vs_interferometric(s, np.linspace(0.2, 3.0, 8))
    # V=1 removes the variance channel; the information left is mean-borne
    # and finite for both layouts.
    assert np.all(report.info_interferometric >= 0.0)
    assert np.all(report.info_blocked >= 0.0)
    for phi in (0.2, 1.0):
        dark = dataclasses.replace(s, r_amp=0.0)
        mean_term, cov_term = phi_terms(dark, ProcessParams.folded(phi=phi))
        assert cov_term == pytest.approx(0.0, abs=1e-10)


def _per_point_report(setup, grid):
    """The comparison as a loop of fisher_matrix over the grid, crossing
    rule included: the reference of the array pass."""
    info = [np.array([exact_fisher_matrix(dataclasses.replace(setup, topology=t),
                                          ProcessParams.folded(phi=p))[0, 0] for p in grid])
            for t in (Topology.INTERFEROMETRIC, Topology.BLOCKED_BEAM)]
    diff, crossings = info[0] - info[1], []
    signed = [(k, d) for k, d in enumerate(diff) if d != 0.0]
    for (k, a), (m, b) in zip(signed, signed[1:]):
        if a * b < 0.0 and m == k + 1:
            crossings.append(float(grid[k] + a / (a - b) * (grid[m] - grid[k])))
        elif a * b < 0.0:  # a run of exact zeros counts once, at its middle
            crossings.append(float(0.5 * (grid[k + 1] + grid[m - 1])))
    return info, crossings


@pytest.mark.parametrize("r_amp", [0.0, 1.0, 100.0])
@pytest.mark.parametrize("v", [1.0, 100.0])
@pytest.mark.parametrize("probe_phase", [0.0, 1.1])
def test_comparison_matches_the_per_point_fisher_matrix(r_amp, v, probe_phase):
    # Both information arrays are fisher_matrix's phi entry at every grid
    # point, read in one array pass of est_phase_ml's kernel, relative to
    # the larger of the two, and the crossings are the per-point loop's.
    # The grids hold 0 and +-pi.  Where a topology has no phase information
    # at all (the blocked beam with a dark probe, both topologies with cold
    # matter too) the array pass reads exact zeros, the loop rounding noise.
    s = SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.1, t2=0.1, v_thermal=v,
                    r_amp=r_amp, probe_phase=probe_phase)
    for grid in (np.linspace(-math.pi, math.pi, 25), np.linspace(0.0, math.pi, 7),
                 np.array([-math.pi, -2.0, -0.3, 0.0, 0.4, 2.9])):
        report = compare_blocked_vs_interferometric(s, grid)
        (want_i, want_b), want_crossings = _per_point_report(s, grid)
        scale = max(np.abs(want_i).max(), np.abs(want_b).max())
        if r_amp == 0.0 and v == 1.0:
            assert not report.info_interferometric.any() and not report.info_blocked.any()
            assert scale < 1e-30
            continue
        for got, want in ((report.info_interferometric, want_i), (report.info_blocked, want_b)):
            assert np.abs(got - want).max() <= 1e-12 * scale, (grid, got, want)
        assert report.crossings == pytest.approx(want_crossings, abs=1e-12)


@pytest.mark.parametrize("r_amp, grid", [
    (0.0, np.linspace(0.0, 1.0, 5)), (0.0, np.linspace(-1.0, 1.0, 5)),
    (0.0, np.linspace(0.0, math.pi, 9)), (100.0, np.linspace(0.0, math.pi, 13)),
    (1.0, np.linspace(0.05, 3.1, 40))])
def test_comparison_of_a_mirrored_grid_mirrors_the_crossings(r_amp, grid):
    # The phase information is even in phi, so a grid and its mirror image
    # give mirrored crossing lists.  With the dark probe the advantage only
    # touches zero at phi = 0, which is no sign change and no crossing.
    s = dataclasses.replace(setup_for(Topology.INTERFEROMETRIC, 0.1, 0.1, 100.0), r_amp=r_amp)
    crossings = compare_blocked_vs_interferometric(s, grid).crossings
    mirrored = compare_blocked_vs_interferometric(s, -grid[::-1]).crossings
    assert mirrored == pytest.approx([-c for c in reversed(crossings)], abs=1e-12)
    if r_amp == 0.0:
        assert crossings == mirrored == []


def test_equal_information_everywhere_has_no_crossing():
    # Cold matter (V = 1) leaves both topologies the same mean-borne phase
    # information, bit for bit: a difference of zero at every grid point
    # is no advantage either way, not a crossing at each point.
    s = SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.3, t2=0.4,
                    v_thermal=1.0, r_amp=10.0)
    report = compare_blocked_vs_interferometric(s, np.linspace(0.2, 3.0, 8))
    assert np.array_equal(report.info_interferometric, report.info_blocked)
    assert report.crossings == []


def test_a_run_of_zeros_between_opposite_signs_crosses_once(monkeypatch):
    # Exact zeros between values of opposite sign are one crossing, at the
    # middle of the run; zeros between values of one sign are none.
    import lmint.estimators as estimators

    diff = {"interferometric": np.array([1.0, 0.0, 0.0, 0.0, -2.0, 0.0, -1.0, 3.0]),
            "blocked_beam": np.zeros(8)}

    def kernel(phi, resp, blocks):
        return None, None, diff["blocked_beam" if resp.b == 0.0 else "interferometric"]

    monkeypatch.setattr(estimators, "_phase_loglik", kernel)
    s = setup_for(Topology.INTERFEROMETRIC, 0.1, 0.1, 100.0)
    report = compare_blocked_vs_interferometric(s, np.arange(8.0))
    assert report.crossings == [2.0, 6.25]


def test_comparison_reads_neither_joint_fit_nor_fisher_matrix(monkeypatch):
    import lmint.estimators as estimators
    import lmint.fisher as fisher

    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"the comparison reached {name}")
        return call

    monkeypatch.setattr(estimators, "_joint_fit", refuse("_joint_fit"))
    monkeypatch.setattr(fisher, "fisher_matrix", refuse("fisher_matrix"))
    s = dataclasses.replace(setup_for(Topology.INTERFEROMETRIC, 0.1, 0.1, 100.0), r_amp=1.0)
    report = compare_blocked_vs_interferometric(s, np.linspace(-math.pi, math.pi, 25))
    assert calls == []
    assert len(report.crossings) == 2


@pytest.mark.parametrize("mean_only", [False, True])
def test_record_block_set_moves_no_information(mean_only):
    # The information of the one-record block reads its probe and record
    # counts, not its set's mean or scatter: fisher_matrix, and the mean term,
    # equal bit for bit _joint_fit's information of the block without its set.
    rng = np.random.default_rng(16)
    for k in range(60):
        topology = list(Topology)[k % 3]
        setup = SetupConfig(topology=topology, t1=rng.uniform(0.0, 1.0), t2=rng.uniform(0.0, 1.0),
                            v_thermal=rng.uniform(1.0, 200.0), r_amp=rng.uniform(0.0, 100.0),
                            probe_phase=rng.uniform(-3, 3))
        noise = IDEAL_NOISE if k % 2 else NoiseParams(t_c=rng.uniform(0.5, 1.0),
                                                      v_c=rng.uniform(1.0, 2.0))
        process = ProcessParams.folded(  # w = 0 and d = 0 in some
            phi=rng.uniform(-3, 3), w=rng.uniform(0, 1.5) * (k % 4 > 0),
            alpha=rng.uniform(-1.5, 1.5), d=rng.uniform(0, 3) * (k % 5 > 0),
            beta=rng.uniform(-3, 3))
        block = record_block(setup, mean_only)
        assert len(block[3]) == 1
        want = kernel_information(setup, process, noise, (*block[:3], []))
        got = (kernel_information(setup, process, noise, block) if mean_only
               else exact_fisher_matrix(setup, process, noise))
        assert np.array_equal(got, want), (k, setup, process)
