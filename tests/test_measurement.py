import math
import random
import sys
import threading

import numpy as np
import pytest

from lmint import MeasurementPlan, Scheme, estimate_moments, sample
from lmint.gaussian_core import (
    GaussianState, is_physical, make_coherent, make_thermal, squeeze_matrix, vacuum,
)
from lmint.measurement import (
    SampleSet, _cholesky, _condition, _group_sizes, _rng, _smaller_eigenvalue, draw_moments,
    draw_variates, form_moments, record_laws,
)

from conftest import block_rows, mean_cov, reference_draw


def plan(scheme, n, seed=0):
    return MeasurementPlan(scheme=scheme, n_samples=n, seed=seed)


def test_plan_requires_minimum_samples():
    with pytest.raises(ValueError):
        MeasurementPlan(scheme=Scheme.HOMODYNE_SPLIT3, n_samples=5, seed=0)
    MeasurementPlan(scheme=Scheme.HOMODYNE_SPLIT3, n_samples=6, seed=0)


def test_plan_seed_is_64_bit():
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError):
            MeasurementPlan(scheme=Scheme.JOINT, n_samples=10, seed=seed)
    MeasurementPlan(scheme=Scheme.JOINT, n_samples=10, seed=2 ** 64 - 1)


def test_group_sizes_sum_to_n():
    sizes = _group_sizes(Scheme.HOMODYNE_SPLIT3, 1000)
    assert sum(sizes) == 1000
    assert len(sizes) == 3


def test_sampling_is_deterministic():
    s = make_thermal(10.0)
    a = sample(s, plan(Scheme.JOINT, 500, seed=42))
    b = sample(s, plan(Scheme.JOINT, 500, seed=42))
    assert np.array_equal(a.pairs, b.pairs)
    c = sample(s, plan(Scheme.JOINT, 500, seed=43))
    assert not np.array_equal(a.pairs, c.pairs)


def test_sampling_rejects_multimode_and_unphysical():
    for draw in (sample, draw_moments):
        with pytest.raises(ValueError):
            draw(GaussianState(np.zeros(4), np.eye(4)), plan(Scheme.JOINT, 100))
        with pytest.raises(ValueError):
            draw(GaussianState(np.zeros(2), 0.2 * np.eye(2)), plan(Scheme.JOINT, 100))


def test_record_laws_rejects_exactly_the_unphysical_states():
    # record_laws reads the covariance as scalars; it must reject exactly
    # the states gaussian_core.is_physical rejects, also where rounding
    # decides: symplectic eigenvalues a few eps either side of 1 and of
    # the tolerance edge 1 - 1e-9.
    rng = np.random.default_rng(77)
    eps = np.finfo(float).eps
    verdicts = set()
    for edge in (1.0, 1.0 - 1e-9):
        for k in range(-6, 7):
            for _ in range(20):
                cov = edge * (1.0 + k * eps) * squeeze_matrix(rng.uniform(0.0, 2.0),
                                                                rng.uniform(-3.0, 3.0))
                state = GaussianState(np.array([0.3, -1.2]), cov)
                (s_xx, s_xp), (_, s_pp) = state.cov.tolist()
                physical = is_physical(state)
                verdicts.add(physical)
                for scheme in Scheme:
                    if physical:
                        record_laws(0.3 - 1.2j, (s_xx, s_xp, s_pp), scheme, 30)
                        draw_moments(state, plan(scheme, 30))
                    else:
                        with pytest.raises(ValueError, match="unphysical"):
                            record_laws(0.3 - 1.2j, (s_xx, s_xp, s_pp), scheme, 30)
                        with pytest.raises(ValueError, match="unphysical"):
                            draw_moments(state, plan(scheme, 30))
    assert verdicts == {True, False}


def test_joint_vacuum_variance():
    records = sample(vacuum(), plan(Scheme.JOINT, 100_000, seed=7))
    assert records.pairs.shape == (100_000, 2)
    assert records.pairs.var(axis=0, ddof=1) == pytest.approx([1.0, 1.0], rel=0.03)


def test_heterodyne_adds_vacuum_unit_then_subtracts():
    records = sample(vacuum(), plan(Scheme.HETERODYNE, 100_000, seed=7))
    # Raw heterodyne records carry the extra unit ...
    assert records.pairs.var(axis=0, ddof=1) == pytest.approx([2.0, 2.0], rel=0.05)
    # ... which the moment estimator removes again (up to the physical floor).
    _, cov = mean_cov(estimate_moments(records))
    assert np.abs(cov - np.eye(2)).max() < 0.1


def test_heterodyne_bright_coherent_moments():
    state = make_coherent(100.0, 0.0)
    mean, cov = mean_cov(estimate_moments(sample(state, plan(Scheme.HETERODYNE, 100_000, seed=3))))
    # 3 sigma of the standard error sqrt(2/N) on the mean.
    assert mean == pytest.approx([100.0, 0.0], abs=3.0 * math.sqrt(2.0 / 100_000))
    assert np.abs(cov - np.eye(2)).max() < 0.1


def test_homodyne_variance_concentration():
    # Phase read-out state: cov = diag(u + v cos(phi), ...) at the benchmark
    # point; sample variance at N = 1e5 concentrates within 3 percent.
    var = 18.82 - 17.82 * math.cos(0.7)
    state = GaussianState(np.zeros(2), np.diag([var, var]))
    est = estimate_moments(sample(state, plan(Scheme.HOMODYNE_SPLIT2, 100_000, seed=11)))
    # Sxx = c0 + Re c1 and Spp = c0 - Re c1.
    assert est.c0 + est.c1.real == pytest.approx(var, rel=0.03)
    assert est.c0 - est.c1.real == pytest.approx(var, rel=0.03)


def test_split3_recovers_cross_covariance():
    cov = np.array([[10.0, 5.0], [5.0, 10.0]])
    state = GaussianState(np.array([1.0, -2.0]), cov)
    est = estimate_moments(sample(state, plan(Scheme.HOMODYNE_SPLIT3, 100_000, seed=5)))
    # Var at pi/4 has sampling error ~ sqrt(2/N) * var; allow 3 sigma-ish.
    assert est.c1.imag == pytest.approx(5.0, abs=0.5)  # Sxp
    assert est.scheme.has_full_cov


def test_full_cov_flags_by_scheme():
    state = make_thermal(4.0)
    for scheme, expected in ((Scheme.HOMODYNE_SPLIT2, False),
                             (Scheme.HOMODYNE_SPLIT3, True),
                             (Scheme.HETERODYNE, True),
                             (Scheme.JOINT, True)):
        est = estimate_moments(sample(state, plan(scheme, 1000, seed=1)))
        assert est.scheme.has_full_cov is expected
        assert est.scheme is scheme


def test_degenerate_records_repair_to_vacuum_floor():
    pairs = np.tile(np.array([3.0, -1.0]), (100, 1))
    est = estimate_moments(SampleSet(plan=plan(Scheme.JOINT, 100), pairs=pairs))
    assert est.z == pytest.approx(3.0 - 1.0j)
    assert math.sqrt(est.c0 * est.c0 - abs(est.c1) ** 2) >= 1.0 - 1e-9  # det = c0^2 - |c1|^2


def test_estimated_covariance_is_physical():
    # The heterodyne subtraction can push the raw estimate below the vacuum
    # floor; conditioning must restore sqrt(det) >= 1.
    for seed in range(20):
        est = estimate_moments(sample(vacuum(), plan(Scheme.HETERODYNE, 50, seed=seed)))
        assert math.sqrt(est.c0 * est.c0 - abs(est.c1) ** 2) >= 1.0 - 1e-9


def _ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance: the largest gap between the
    empirical distribution functions."""
    points = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), points, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), points, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def _statistics(est):
    (m_x, m_p), cov = mean_cov(est)
    out = [m_x, m_p, cov[0, 0], cov[1, 1], cov[0, 1]]
    return out + ([est.mean_diag] if est.mean_diag is not None else [])


#: Record counts of the law test per scheme: 8 records per group, and the
#: unequal groups of 25 homodyne3 records and two paired records.
_LAW_TEST_SIZES = {Scheme.HOMODYNE_SPLIT2: (16,), Scheme.HOMODYNE_SPLIT3: (24, 25),
                   Scheme.HETERODYNE: (8, 2), Scheme.JOINT: (8, 2)}


@pytest.mark.parametrize("scheme", list(Scheme))
def test_drawn_moments_follow_the_law_of_sampled_records(scheme):
    # The m rows of one block draw against the moments of m sets of sampled
    # records, 8 records per group, where one chi-square degree of freedom
    # more or less moves the variance law by 1/7; also homodyne3 at 25
    # records (groups of 9, 8 and 8: unequal gamma shapes) and two paired
    # records (a gamma shape of 0).  The two-sample Kolmogorov-Smirnov
    # distance of every statistic stays below 1.95 sqrt(2 / m), the 0.1%
    # critical value.
    state = GaussianState(np.array([1.0, -2.0]), np.array([[3.0, 1.2], [1.2, 2.0]]))
    m = 3000
    for n in _LAW_TEST_SIZES[scheme]:
        law = record_laws(1.0 - 2.0j, (3.0, 1.2, 2.0), scheme, n)
        drawn = np.array([_statistics(e) for e in block_rows(
            form_moments(law, draw_variates(law, n, 0, m)))])
        sampled = np.array([_statistics(estimate_moments(sample(state, plan(scheme, n, seed))))
                            for seed in range(m, 2 * m)])
        assert drawn.shape == sampled.shape
        distances = [_ks_distance(drawn[:, i], sampled[:, i]) for i in range(drawn.shape[1])]
        assert max(distances) < 1.95 * math.sqrt(2.0 / m), (n, distances)


def _variates(gen):
    """Normal and gamma variates in the order draw_moments asks for them."""
    return [gen.standard_gamma(0.5 * 99_999), gen.standard_normal(), gen.standard_gamma(0.5),
            gen.standard_normal(), gen.standard_normal(5), gen.standard_gamma(3.5, size=3)]


@pytest.mark.parametrize("seed", [0, 1, 0x60D, 2 ** 63 + 5, 2 ** 64 - 1])
def test_rng_is_the_stream_of_a_fresh_philox(seed):
    # _rng re-keys this thread's bit generator on both key words; it must
    # give exactly the stream of Generator(Philox(key=[seed, word])), also
    # right after a draw under another second word that left a buffered
    # 32-bit half-word and a part-used output block behind.
    for word in (0, 1, 5 << 32 | 6 << 8 | 3, 2 ** 64 - 1):
        dirty = _rng(seed, word ^ 1)
        dirty.bit_generator.random_raw()
        dirty.random(dtype=np.float32)
        assert dirty.bit_generator.state["has_uint32"] == 1
        assert dirty.bit_generator.state["buffer_pos"] < 4
        got = _variates(_rng(seed, word))
        want = _variates(np.random.Generator(np.random.Philox(
            key=np.array([seed, word], np.uint64))))
        for g, w in zip(got, want):
            assert np.array_equal(g, w), word
        assert _variates(_rng(seed, word ^ 1))[1] != want[1]


def _hex_draw(z, c0, c1, mean_diag, n_effective, scheme) -> tuple:
    """A draw's statistics as float.hex strings, its shot counts and scheme."""
    floats = (z.real, z.imag, c0, c1.real, c1.imag)
    floats += (mean_diag,) if mean_diag is not None else ()
    return tuple(x.hex() for x in floats), dict(n_effective), scheme


def test_draws_are_the_reference_draws_bit_for_bit():
    # draw_variates and form_moments read what the law carries (shot counts,
    # gamma shapes, roots, the vacuum unit) and re-key one generator per
    # thread; every statistic of each of m realizations (m = 70 crosses a
    # harness block), in the block's columns (means, pi/4 means, the
    # conditioned scatters), in every block formed of the same variates,
    # equals the draw formed in full per stream and
    # realization, over the four schemes, n from the smallest valid size
    # (paired n = 2, a gamma shape of 0) to 2e6, states from near the vacuum
    # floor to 1e4, seeds 0 and 2**64 - 1 and key words of every data set.
    for m in (1, 70):
        drawn = random.Random(30)
        for case in range(2400):
            scheme = list(Scheme)[case % 4]
            smallest = {Scheme.HOMODYNE_SPLIT2: 4, Scheme.HOMODYNE_SPLIT3: 6}.get(scheme, 2)
            n = [smallest, smallest + 1, smallest + 2, 600, 100_000, 2_000_000,
                 int(smallest * 10 ** drawn.uniform(0.0, 5.5))][case // 4 % 7]
            seed = [0, 2 ** 64 - 1, drawn.getrandbits(64)][case // 28 % 3]
            word = drawn.getrandbits(32) << 32 | drawn.randrange(7) << 8
            s_xx, s_pp = math.exp(drawn.uniform(0.0, 9.2)), math.exp(drawn.uniform(0.0, 9.2))
            s_xp = drawn.uniform(-1.0, 1.0) * math.sqrt(max(s_xx * s_pp - 1.0, 0.0))
            z = complex(drawn.uniform(-200.0, 200.0), drawn.uniform(-200.0, 200.0))
            law_args = (z, (s_xx, s_xp, s_pp), scheme, n)
            law = record_laws(*law_args)
            variates = draw_variates(law, seed, word, m)
            block = form_moments(law, variates)
            assert len(block.z) == m
            assert (block.mean_diag is None) == (scheme is not Scheme.HOMODYNE_SPLIT3)
            columns = [_hex_draw(z, c0, c1, mean_diag, block.n_effective, block.scheme)
                       for z, (c0, c1), mean_diag
                       in zip(block.z, block.conditioned, block.mean_diag or [None] * m)]
            want = [_hex_draw(*want) for want in reference_draw(law_args, seed, word, m)]
            assert columns == want, (law_args, seed, word)
            assert repr(form_moments(law, variates).conditioned) == repr(block.conditioned)


def test_a_mean_only_block_holds_the_reference_means_bit_for_bit():
    # Drawn without its gamma columns (the normals' stream alone), a block
    # holds the means and homodyne3's pi/4 means of the draw that forms
    # every statistic, bit for bit, on every scheme and in blocks that
    # start past row 0; reading its scatter raises a named ValueError, not
    # a TypeError from iterating nothing.
    drawn = random.Random(34)
    for case in range(400):
        scheme, m = list(Scheme)[case % 4], (1, 2, 70)[case // 4 % 3]
        n = drawn.choice([6, 7, 600, 100_000, 2_000_000])
        s_xx, s_pp = math.exp(drawn.uniform(0.0, 9.2)), math.exp(drawn.uniform(0.0, 9.2))
        s_xp = drawn.uniform(-1.0, 1.0) * math.sqrt(max(s_xx * s_pp - 1.0, 0.0))
        z = complex(drawn.uniform(-200.0, 200.0), drawn.uniform(-200.0, 200.0))
        law_args = (z, (s_xx, s_xp, s_pp), scheme, n)
        law, seed, word = record_laws(*law_args), drawn.getrandbits(64), drawn.getrandbits(40)
        variates = draw_variates(law, seed, word, m, scatter=False)
        assert variates[1] == []
        blocks = [form_moments(law, variates, slice(start, start + 64))
                  for start in range(0, m, 64)]
        want = reference_draw(law_args, seed, word, m)
        assert [(z.real.hex(), z.imag.hex()) for block in blocks for z in block.z] == [
            (w[0].real.hex(), w[0].imag.hex()) for w in want], (law_args, seed, word)
        if scheme is Scheme.HOMODYNE_SPLIT3:
            assert [d.hex() for block in blocks for d in block.mean_diag] == [
                w[3].hex() for w in want], (law_args, seed, word)
        else:
            assert blocks[0].mean_diag is None
        with pytest.raises(ValueError, match="means alone"):
            blocks[0].conditioned


def test_a_draw_cannot_change_the_shot_counts_of_its_law():
    # The draws of one law share its shot counts, read-only: writing one
    # draw's counts raises, and the next draw of the law reads them intact.
    for scheme in Scheme:
        law = record_laws(1.0 - 2.0j, (3.0, 1.2, 2.0), scheme, 600)
        first, second = (form_moments(law, draw_variates(law, seed, 0, 2)) for seed in (1, 2))
        want = dict(first.n_effective)
        with pytest.raises(TypeError):
            first.n_effective["mean_x"] = 1
        with pytest.raises(TypeError):
            del first.n_effective["cov_xp"]
        assert dict(second.n_effective) == want == dict(first.n_effective)


def _spd_and_subtracted(rng, m):
    """Random SPD 2x2 matrices over nine decades, ddof=1 scatters of a few
    heterodyne records with the vacuum unit taken off (often indefinite),
    and matrices shifted to a zero eigenvalue at rounding level."""
    for k in range(m):
        if k % 3 == 0:
            a = rng.standard_normal((2, 2)) * math.exp(rng.uniform(-3, 6))
            yield a @ a.T + np.diag(rng.uniform(0.0, 2.0, 2))
        elif k % 3 == 1:
            state = np.diag(rng.uniform(1.0, 100.0, 2)) + np.eye(2)
            n = int(rng.integers(3, 30))
            records = rng.standard_normal((n, 2)) @ np.linalg.cholesky(state).T
            yield np.cov(records.T) - np.eye(2)
        else:
            a = rng.standard_normal((2, 2))
            cov = a @ a.T
            yield cov - np.linalg.eigvalsh(cov)[0] * rng.uniform(1 - 4e-15, 1 + 4e-15) * np.eye(2)


def test_closed_form_cholesky_matches_lapack():
    # The factor draw_moments and sample use is LAPACK's within one ulp.
    rng = np.random.default_rng(21)
    for cov in _spd_and_subtracted(rng, 6000):
        if np.linalg.eigvalsh(cov)[0] <= 1e-12 * np.abs(cov).max():
            continue  # not positive definite beyond rounding
        want = np.linalg.cholesky(cov)
        got = _cholesky(cov)
        for g, w in zip(got, (want[0, 0], want[1, 0], want[1, 1])):
            assert abs(g - w) <= np.spacing(abs(w)), (cov, got, want)


def test_clip_decision_matches_eigh():
    # _condition clips where eigh finds a negative eigenvalue, and only there.
    rng = np.random.default_rng(22)
    clipped = 0
    for cov in _spd_and_subtracted(rng, 9000):
        want = np.linalg.eigh(cov)[0][0] < 0.0
        clipped += want
        assert (_smaller_eigenvalue(cov[0, 0], cov[0, 1], cov[1, 1]) < 0.0) == want, cov
    assert 1000 < clipped < 8000


def _conditioned(cov):
    """_condition of a 2x2 array, read back as an array."""
    c0, c1 = _condition(cov[0, 0], cov[0, 1], cov[1, 1])
    return np.array([[c0 + c1.real, c1.imag], [c1.imag, c0 - c1.real]])


def test_clipped_covariance_is_not_decided_by_rounding():
    # A clipped covariance has rank one, so the floor adds exactly I and a
    # one-ulp rescale moves the result by rounding only; a repair read off
    # the clipped matrix's rounded determinant moves this one by 5.4e-6.
    def clipped_plus_floor(cov):
        evals, evecs = np.linalg.eigh(cov)
        return (evecs * np.clip(evals, 0.0, None)) @ evecs.T + np.eye(2)

    cov = np.array([[300.0, 420.0], [420.0, 500.0]])
    eps = np.finfo(float).eps
    for scale in (1.0, 1.0 + eps, 1.0 - eps / 2):
        got = _conditioned(cov * scale)
        assert np.abs(got - clipped_plus_floor(cov)).max() <= 1e-14 * 500.0
    rng = np.random.default_rng(23)
    clipped = 0
    for cov in _spd_and_subtracted(rng, 3000):
        if _smaller_eigenvalue(cov[0, 0], cov[0, 1], cov[1, 1]) < 0.0:
            clipped += 1
            gap = np.abs(_conditioned(cov) - clipped_plus_floor(cov)).max()
            assert gap <= 1e-14 * max(1.0, np.abs(cov).max()), cov
    assert clipped > 300


def test_draws_in_threads_match_serial_draws():
    # Each thread re-keys a bit generator of its own: draws made in four
    # threads at once, switching every few microseconds, equal the same
    # draws made one after another.
    state = GaussianState(np.array([1.0, -2.0]), np.array([[3.0, 1.2], [1.2, 2.0]]))
    plans = [plan(scheme, 600, seed) for seed in range(50) for scheme in Scheme]
    want = [_statistics(draw_moments(state, p)) for p in plans]
    got = [None] * 4

    def work(k):
        got[k] = [_statistics(draw_moments(state, p)) for p in plans]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 4
