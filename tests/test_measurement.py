import math

import numpy as np
import pytest

from lmint import MeasurementPlan, Scheme, estimate_moments, sample
from lmint.gaussian_core import GaussianState, make_coherent, make_thermal, vacuum
from lmint.measurement import SampleSet, draw_moments


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
    p = plan(Scheme.HOMODYNE_SPLIT3, 1000)
    sizes = p.group_sizes()
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


def test_joint_vacuum_variance():
    records = sample(vacuum(), plan(Scheme.JOINT, 100_000, seed=7))
    assert records.pairs.shape == (100_000, 2)
    assert records.pairs.var(axis=0, ddof=1) == pytest.approx([1.0, 1.0], rel=0.03)


def test_heterodyne_adds_vacuum_unit_then_subtracts():
    records = sample(vacuum(), plan(Scheme.HETERODYNE, 100_000, seed=7))
    # Raw heterodyne records carry the extra unit ...
    assert records.pairs.var(axis=0, ddof=1) == pytest.approx([2.0, 2.0], rel=0.05)
    # ... which the moment estimator removes again (up to the physical floor).
    est = estimate_moments(records)
    assert np.abs(est.cov - np.eye(2)).max() < 0.1


def test_heterodyne_bright_coherent_moments():
    state = make_coherent(100.0, 0.0)
    est = estimate_moments(sample(state, plan(Scheme.HETERODYNE, 100_000, seed=3)))
    # 3 sigma of the standard error sqrt(2/N) on the mean.
    assert est.mean == pytest.approx([100.0, 0.0], abs=3.0 * math.sqrt(2.0 / 100_000))
    assert np.abs(est.cov - np.eye(2)).max() < 0.1


def test_homodyne_variance_concentration():
    # Phase read-out state: cov = diag(u + v cos(phi), ...) at the benchmark
    # point; sample variance at N = 1e5 concentrates within 3 percent.
    var = 18.82 - 17.82 * math.cos(0.7)
    state = GaussianState(np.zeros(2), np.diag([var, var]))
    est = estimate_moments(sample(state, plan(Scheme.HOMODYNE_SPLIT2, 100_000, seed=11)))
    assert est.cov[0, 0] == pytest.approx(var, rel=0.03)
    assert est.cov[1, 1] == pytest.approx(var, rel=0.03)


def test_split3_recovers_cross_covariance():
    cov = np.array([[10.0, 5.0], [5.0, 10.0]])
    state = GaussianState(np.array([1.0, -2.0]), cov)
    est = estimate_moments(sample(state, plan(Scheme.HOMODYNE_SPLIT3, 100_000, seed=5)))
    # Var at pi/4 has sampling error ~ sqrt(2/N) * var; allow 3 sigma-ish.
    assert est.cov[0, 1] == pytest.approx(5.0, abs=0.5)
    assert est.has_full_cov


def test_full_cov_flags_by_scheme():
    state = make_thermal(4.0)
    for scheme, expected in ((Scheme.HOMODYNE_SPLIT2, False),
                             (Scheme.HOMODYNE_SPLIT3, True),
                             (Scheme.HETERODYNE, True),
                             (Scheme.JOINT, True)):
        est = estimate_moments(sample(state, plan(scheme, 1000, seed=1)))
        assert est.has_full_cov is expected
        assert est.scheme is scheme


def test_degenerate_records_repair_to_vacuum_floor():
    pairs = np.tile(np.array([3.0, -1.0]), (100, 1))
    est = estimate_moments(SampleSet(plan=plan(Scheme.JOINT, 100), pairs=pairs))
    assert est.mean == pytest.approx([3.0, -1.0])
    assert math.sqrt(np.linalg.det(est.cov)) >= 1.0 - 1e-9


def test_estimated_covariance_is_physical():
    # The heterodyne subtraction can push the raw estimate below the vacuum
    # floor; conditioning must restore sqrt(det) >= 1.
    for seed in range(20):
        est = estimate_moments(sample(vacuum(), plan(Scheme.HETERODYNE, 50, seed=seed)))
        assert math.sqrt(np.linalg.det(est.cov)) >= 1.0 - 1e-9


def _ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance: the largest gap between the
    empirical distribution functions."""
    points = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), points, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), points, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def _statistics(est):
    out = [est.mean[0], est.mean[1], est.cov[0, 0], est.cov[1, 1], est.cov[0, 1]]
    return out + ([est.mean_diag] if est.mean_diag is not None else [])


@pytest.mark.parametrize("scheme", list(Scheme))
def test_drawn_moments_follow_the_law_of_sampled_records(scheme):
    # draw_moments against the moments of sampled records, 8 records per
    # group, where one chi-square degree of freedom more or less moves the
    # variance law by 1/7: the two-sample Kolmogorov-Smirnov distance of
    # every statistic over m draws each stays below 1.95 sqrt(2 / m), the
    # 0.1% critical value.
    state = GaussianState(np.array([1.0, -2.0]), np.array([[3.0, 1.2], [1.2, 2.0]]))
    n = 8 * len(plan(scheme, 6).group_sizes())
    m = 3000
    drawn = np.array([_statistics(draw_moments(state, plan(scheme, n, seed)))
                      for seed in range(m)])
    sampled = np.array([_statistics(estimate_moments(sample(state, plan(scheme, n, seed))))
                        for seed in range(m, 2 * m)])
    assert drawn.shape == sampled.shape
    distances = [_ks_distance(drawn[:, i], sampled[:, i]) for i in range(drawn.shape[1])]
    assert max(distances) < 1.95 * math.sqrt(2.0 / m), distances

