import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmint import (
    GaussianState,
    IDENTITY_PROCESS,
    ProcessParams,
    SymplecticOp,
    bs_symplectic,
    loss_channel,
    make_coherent,
    make_thermal,
    process_symplectic,
    repair_physicality,
)
from lmint.gaussian_core import (
    OMEGA_1,
    DecompositionError,
    TAU,
    apply,
    circular_diff,
    fold_angle,
    fold_axis,
    is_physical,
    marginal,
    omega,
    polar_pair,
    rotation,
    squeeze_matrix,
    symplectic_eigenvalues,
    tensor,
    vacuum,
)

angles = st.floats(-50.0, 50.0)


# ---------------------------------------------------------------------------
# Angle helpers


@given(angles)
def test_fold_angle_range_and_equivalence(x):
    y = fold_angle(x)
    assert -math.pi < y <= math.pi
    assert abs(math.remainder(x - y, TAU)) < 1e-9


@given(angles)
def test_fold_axis_range_and_equivalence(x):
    y = fold_axis(x)
    assert -math.pi / 2 < y <= math.pi / 2
    assert abs(math.remainder(x - y, math.pi)) < 1e-9


def test_circular_diff_wraps():
    assert circular_diff(3.1, -3.1) == pytest.approx(3.1 + 3.1 - TAU)
    assert circular_diff(0.2, 0.1, math.pi) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# State constructors


def test_thermal_vacuum_limit():
    v = make_thermal(1.0)
    assert np.array_equal(v.mean, np.zeros(2))
    assert np.array_equal(v.cov, np.eye(2))


def test_thermal_hot():
    assert np.array_equal(make_thermal(100.0).cov, 100.0 * np.eye(2))


def test_thermal_subvacuum_rejected():
    with pytest.raises(ValueError):
        make_thermal(0.5)


def test_coherent_bright():
    c = make_coherent(100.0, 0.0)
    assert np.allclose(c.mean, [100.0, 0.0])
    assert np.array_equal(c.cov, np.eye(2))


def test_coherent_zero_amplitude_is_vacuum():
    c = make_coherent(0.0, 1.3)
    assert np.allclose(c.mean, vacuum().mean)
    assert np.array_equal(c.cov, vacuum().cov)


def test_coherent_quarter_turn():
    assert np.allclose(make_coherent(100.0, math.pi / 2).mean, [0.0, 100.0])


def test_coherent_negative_amplitude_rejected():
    with pytest.raises(ValueError):
        make_coherent(-1.0)


def test_state_validation():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.eye(4))
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_tensor_and_marginal_roundtrip():
    joint = tensor(make_thermal(7.0), make_coherent(3.0, 0.2))
    assert joint.n_modes == 2
    m0 = marginal(joint, 0)
    m1 = marginal(joint, 1)
    assert np.array_equal(m0.cov, 7.0 * np.eye(2))
    assert np.allclose(m1.mean, make_coherent(3.0, 0.2).mean)
    with pytest.raises(ValueError):
        marginal(joint, 2)


def test_symplectic_eigenvalues_thermal():
    assert symplectic_eigenvalues(make_thermal(5.0).cov) == pytest.approx([5.0])
    joint = tensor(make_thermal(5.0), vacuum())
    assert symplectic_eigenvalues(joint.cov) == pytest.approx([1.0, 5.0])


def test_omega_is_built_once_and_read_only():
    for n in (1, 2, 3):
        assert np.array_equal(omega(n), np.kron(np.eye(n), OMEGA_1))
        assert omega(n) is omega(n)
        with pytest.raises(ValueError):
            omega(n)[0, 1] = 2.0


def test_one_mode_symplectic_eigenvalue_matches_eigvals():
    # sqrt(det Sigma) against the general path, the moduli of the
    # eigenvalues of Omega Sigma: physical, unphysical and within 1e-9 of
    # the boundary (straddling is_physical's tolerance), and indefinite
    # covariances, whose real pair of eigenvalues gives 0.
    rng = np.random.default_rng(8)
    nus = np.concatenate([rng.uniform(1.0, 50.0, 200), rng.uniform(0.01, 1.0, 200),
                          1.0 + rng.uniform(-2e-9, 2e-9, 200)])
    covs = [nu * squeeze_matrix(rng.uniform(0.0, 2.0), rng.uniform(-3.0, 3.0)) for nu in nus]
    covs += [np.array([[a, b], [b, c]]) for a, c, b in rng.uniform(0.1, 5.0, (50, 3)) * [1, 1, 3]
             if b * b > a * c]
    for cov in covs:
        want = np.sort(np.abs(np.linalg.eigvals(OMEGA_1 @ cov).imag))[::2]
        got = symplectic_eigenvalues(cov)
        assert got.shape == (1,)
        assert abs(got[0] - want[0]) <= 1e-12 * np.abs(cov).max()
        if abs(want[0] - (1.0 - 1e-9)) > 1e-12 * np.abs(cov).max():
            state = GaussianState(np.zeros(2), cov)
            assert is_physical(state) == (want[0] >= 1.0 - 1e-9)


# ---------------------------------------------------------------------------
# Beam splitter


def test_bs_full_transmission_is_identity():
    assert np.allclose(bs_symplectic(1.0).matrix, np.eye(4))


def test_bs_full_reflection_swaps_with_sign():
    m = bs_symplectic(0.0).matrix
    assert np.allclose(m, np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2)))


def test_bs_balanced_twice():
    # Two balanced splitters compose to the signed swap, by direct 4x4 product.
    m = bs_symplectic(0.5).matrix @ bs_symplectic(0.5).matrix
    assert np.allclose(m, np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2)))


def test_bs_invalid_transmittance():
    with pytest.raises(ValueError):
        bs_symplectic(1.5)


@given(st.floats(0.0, 1.0))
def test_bs_matrix_is_the_kronecker_product_bit_for_bit(t):
    # The 4x4 matrix laid out directly holds the bytes of
    # [[ct, st], [-st, ct]] kron I2, signed zeros included.
    ct, st_ = math.sqrt(t), math.sqrt(1.0 - t)
    want = np.kron(np.array([[ct, st_], [-st_, ct]]), np.eye(2))
    assert bs_symplectic(t).matrix.tobytes() == want.tobytes()


@given(st.floats(0.0, 1.0))
def test_bs_is_symplectic(t):
    m = bs_symplectic(t).matrix
    assert np.abs(m.T @ omega(2) @ m - omega(2)).max() < 1e-12


# ---------------------------------------------------------------------------
# Process map


def test_process_identity():
    op = process_symplectic(IDENTITY_PROCESS)
    assert np.allclose(op.matrix, np.eye(2))
    assert np.allclose(op.displacement, np.zeros(2))


def test_process_pure_squeeze():
    op = process_symplectic(ProcessParams.from_q(q=2.0))
    assert np.allclose(op.matrix, np.diag([2.0, 0.5]))


def test_process_rotation_and_displacement():
    p = ProcessParams.from_q(phi=0.7, q=1.0, d=4.0, beta=0.5)
    op = process_symplectic(p)
    assert np.allclose(op.matrix, rotation(0.7))
    assert np.allclose(op.displacement, [4.0 * math.cos(0.5), 4.0 * math.sin(0.5)])


def test_squeeze_axis_period():
    a = squeeze_matrix(0.8, 0.3)
    b = squeeze_matrix(0.8, 0.3 + math.pi)
    assert np.allclose(a, b)


@given(st.floats(-math.pi, math.pi), st.floats(0.0, 3.0),
       st.floats(-math.pi / 2, math.pi / 2), st.floats(0.0, 10.0),
       st.floats(-math.pi, math.pi))
@settings(max_examples=50)
def test_process_matrix_is_symplectic_unit_det(phi, w, alpha, d, beta):
    op = process_symplectic(ProcessParams.folded(phi=phi, w=w, alpha=alpha, d=d, beta=beta))
    assert np.linalg.det(op.matrix) == pytest.approx(1.0, abs=1e-9)
    assert np.abs(op.matrix.T @ omega(1) @ op.matrix - omega(1)).max() < 1e-9


def test_symplectic_op_rejects_nonsymplectic():
    with pytest.raises(ValueError):
        SymplecticOp(2.0 * np.eye(2), np.zeros(2))


def test_apply_mode_mismatch():
    with pytest.raises(ValueError):
        apply(bs_symplectic(0.5), vacuum())


# ---------------------------------------------------------------------------
# Process parameter domain


def test_process_params_validation():
    with pytest.raises(ValueError):
        ProcessParams(0.0, -0.5, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ProcessParams(0.0, 0.0, 0.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        ProcessParams(7.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ProcessParams.from_q(q=0.0)


def test_process_params_q_and_dvec():
    p = ProcessParams.from_q(q=2.0, d=4.0, beta=0.5)
    assert p.w == pytest.approx(math.log(2.0))
    assert p.q == pytest.approx(2.0)
    assert np.allclose(p.d_vec, [4.0 * math.cos(0.5), 4.0 * math.sin(0.5)])


def test_folded_normalizes_angles():
    p = ProcessParams.folded(phi=7.0, alpha=2.0, beta=-7.0)
    assert -math.pi < p.phi <= math.pi
    assert -math.pi / 2 < p.alpha <= math.pi / 2
    assert -math.pi < p.beta <= math.pi


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("field", ["phi", "w", "alpha", "d", "beta"])
def test_folded_names_a_value_that_is_not_finite(field, value):
    # Neither clipped to 0 (d = -inf, w = -inf) nor left to fold_angle's
    # bare "math domain error" (phi = inf): the error names the field, and
    # from_q, which folds, says the same of every field but w.
    message = f"{field} must be finite, got {value}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        ProcessParams.folded(**{field: value})
    if field != "w":
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProcessParams.from_q(q=2.0, **{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("field", ["phi", "w", "alpha", "d", "beta"])
def test_process_params_names_a_value_that_is_not_finite(field, value):
    # The constructor says what folded says, not a range message that reads
    # "w must be >= 0, got inf" or "phi=nan outside (...)".
    fields = {"phi": 0.5, "w": 0.3, "alpha": -0.2, "d": 1.0, "beta": 2.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        ProcessParams(**fields)


# ---------------------------------------------------------------------------
# Loss channel


def test_loss_identity_transmission_is_noop():
    s = make_thermal(3.0)
    assert loss_channel(s, 0, 1.0, 5.0) is s


def test_loss_on_hot_mode():
    s = make_coherent(10.0, 0.0)
    hot = GaussianState(s.mean, 100.0 * np.eye(2))
    out = loss_channel(hot, 0, 0.9, 1.2)
    assert np.allclose(out.cov, (0.9 * 100.0 + 0.1 * 1.2) * np.eye(2))
    assert np.allclose(out.mean, math.sqrt(0.9) * hot.mean)


def test_loss_parameter_validation():
    s = vacuum()
    with pytest.raises(ValueError):
        loss_channel(s, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        loss_channel(s, 0, 0.5, 0.5)
    with pytest.raises(ValueError):
        loss_channel(s, 1, 0.5, 1.0)


@given(st.floats(0.01, 1.0), st.floats(1.0, 10.0))
@settings(max_examples=50)
def test_loss_preserves_physicality_of_vacuum(t_c, v_c):
    out = loss_channel(vacuum(), 0, t_c, v_c)
    assert symplectic_eigenvalues(out.cov)[0] >= 1.0 - 1e-9
    assert is_physical(out)


# ---------------------------------------------------------------------------
# Physicality repair


def test_repair_inflates_subvacuum():
    assert np.allclose(repair_physicality(0.5 * np.eye(2)), np.eye(2))


def test_repair_noop_returns_input_object():
    cov = np.eye(2)
    assert repair_physicality(cov) is cov


def test_repair_anisotropic():
    out = repair_physicality(np.diag([2.0, 0.25]))
    add = 1.0 - math.sqrt(0.5)
    assert np.allclose(out, np.diag([2.0 + add, 0.25 + add]))
    assert math.sqrt(np.linalg.det(out)) >= 1.0


def test_repair_rejects_bad_input():
    with pytest.raises(ValueError):
        repair_physicality(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        repair_physicality(np.array([[1.0, 2.0], [2.0, 1.0]]))


@given(st.floats(0.01, 10.0), st.floats(0.01, 10.0), st.floats(-0.99, 0.99))
@settings(max_examples=100)
def test_repair_idempotent_and_physical(sx, sp, rho):
    b = rho * math.sqrt(sx * sp)
    cov = np.array([[sx, b], [b, sp]])
    once = repair_physicality(cov)
    assert math.sqrt(max(np.linalg.det(once), 0.0)) >= 1.0 - 1e-9
    twice = repair_physicality(once)
    assert np.allclose(once, twice)


# ---------------------------------------------------------------------------
# Polar decomposition


def _pair(b):
    """The pair (m0, m1) of a real 2x2 matrix B, B z = m0 z + m1 conj(z)."""
    (b00, b01), (b10, b11) = np.asarray(b, dtype=float).tolist()
    return (complex(0.5 * (b00 + b11), 0.5 * (b10 - b01)),
            complex(0.5 * (b00 - b11), 0.5 * (b10 + b01)))


def test_polar_pure_squeeze():
    phi, w, alpha = polar_pair(*_pair(np.diag([2.0, 0.5])))
    assert (phi, w, alpha) == pytest.approx((0.0, math.log(2.0), 0.0))


def test_polar_pure_rotation_axis_undefined():
    phi, w, alpha = polar_pair(*_pair(rotation(0.7)))
    assert phi == pytest.approx(0.7)
    assert abs(w) < 1e-9
    assert alpha == 0.0


def test_polar_roundtrip_reference_point():
    b = rotation(0.7) @ squeeze_matrix(math.log(2.0), -0.3)
    phi, w, alpha = polar_pair(*_pair(b))
    assert (phi, w, alpha) == pytest.approx((0.7, math.log(2.0), -0.3), abs=1e-12)


def test_polar_rejects_singular():
    with pytest.raises(DecompositionError):
        polar_pair(*_pair(np.diag([1.0, 0.0])))
    with pytest.raises(DecompositionError):
        polar_pair(*_pair(np.diag([1.0, -1.0])))


@given(st.floats(-math.pi + 1e-6, math.pi), st.floats(1e-3, 3.0),
       st.floats(-math.pi / 2 + 1e-6, math.pi / 2))
@settings(max_examples=100)
def test_polar_roundtrip_random(phi, w, alpha):
    b = rotation(phi) @ squeeze_matrix(w, alpha)
    phi_r, w_r, alpha_r = polar_pair(*_pair(b))
    rebuilt = rotation(phi_r) @ squeeze_matrix(w_r, alpha_r)
    assert np.abs(rebuilt - b).max() < 1e-8
    assert abs(circular_diff(phi_r, phi)) < 1e-6
    assert w_r == pytest.approx(w, abs=1e-6)


def test_polar_matches_the_svd_off_unit_determinant():
    # mean_method's path: B with det B > 0 but not 1.  With B = U diag(s1,
    # s2) V^T, R = U V^T, w = log s1 and alpha is the axis of V's first column.
    rng = np.random.default_rng(7331)
    for _ in range(300):
        b = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-2, 2)
        if np.linalg.det(b) < 0.0:
            b[:, 1] = -b[:, 1]
        u, sv, vt = np.linalg.svd(b)
        if sv[0] - sv[1] <= 1e-6 * sv[0]:
            continue
        r = u @ vt
        phi, w, alpha = polar_pair(*_pair(b))
        assert abs(circular_diff(phi, math.atan2(r[1, 0], r[0, 0]))) < 1e-10
        assert w == pytest.approx(math.log(sv[0]), abs=1e-12)
        assert abs(circular_diff(alpha, math.atan2(vt[0, 1], vt[0, 0]), math.pi)) < 1e-9
        axis = rotation(alpha)
        rebuilt = rotation(phi) @ axis @ np.diag(sv) @ axis.T
        assert np.abs(rebuilt - b).max() < 1e-10 * sv[0]


def test_polar_pair_names_a_nonpositive_determinant():
    with pytest.raises(DecompositionError, match="polar decomposition requires det > 0"):
        polar_pair(0.5 + 0.5j, 1.0j)
    assert polar_pair(2.0, 1e-12) == (0.0, math.log(2.0), 0.0)  # isotropic: no axis
