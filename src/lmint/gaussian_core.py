"""Phase-space Gaussian states and symplectic primitives.

Conventions: quadratures are ordered (x1, p1, ..., xn, pn) and normalized so
that the vacuum has unit variance (coherent-state covariance = identity,
thermal variance V >= 1).  All objects are immutable values and all
operations are pure functions.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi

#: 2x2 symplectic form for a single mode.
OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])

_SYMPLECTIC_TOL = 1e-10
_SYMMETRY_TOL = 1e-12


class DecompositionError(ValueError):
    """Raised when a matrix decomposition fails (e.g. corrupt moment data)."""


@functools.cache
def omega(n_modes: int) -> np.ndarray:
    """Symplectic form with 2x2 blocks [[0,1],[-1,0]] on the diagonal, shared read-only."""
    om = np.kron(np.eye(n_modes), OMEGA_1)
    om.setflags(write=False)
    return om


def fold_angle(x: float) -> float:
    """Fold an angle into (-pi, pi]."""
    y = math.remainder(x, TAU)
    if y <= -math.pi:
        y += TAU
    return y


def fold_axis(x: float) -> float:
    """Fold an axis angle (period pi) into (-pi/2, pi/2]."""
    y = math.remainder(x, math.pi)
    if y <= -math.pi / 2:
        y += math.pi
    return y


def circular_diff(a: float, b: float, period: float = TAU) -> float:
    """Shortest signed distance a - b on a circle of the given period."""
    return math.remainder(a - b, period)


def rotation(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def squeeze_matrix(w: float, alpha: float) -> np.ndarray:
    """Symmetric squeeze matrix R(alpha) diag(e^w, e^-w) R(alpha)^T.

    alpha is the axis angle of the stretched quadrature, so the matrix has
    period pi in alpha and the fold to (-pi/2, pi/2] loses nothing.
    """
    h = rotation(alpha)
    return h @ np.diag([math.exp(w), math.exp(-w)]) @ h.T


@dataclass(frozen=True)
class GaussianState:
    """n-mode Gaussian state: mean vector (2n,) and covariance (2n, 2n)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError(f"mean must have even positive length, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        scale = max(1.0, float(np.abs(cov).max()))
        if float(np.abs(cov - cov.T).max()) > _SYMMETRY_TOL * scale:
            raise ValueError("covariance matrix is not symmetric")
        cov = 0.5 * (cov + cov.T)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class SymplecticOp:
    """Affine Gaussian unitary in phase space: m -> S m + d, Sigma -> S Sigma S^T."""

    matrix: np.ndarray
    displacement: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        disp = np.asarray(self.displacement, dtype=float)
        n2 = mat.shape[0]
        if mat.shape != (n2, n2) or n2 % 2 != 0:
            raise ValueError(f"matrix must be square with even size, got {mat.shape}")
        if disp.shape != (n2,):
            raise ValueError(f"displacement shape {disp.shape} does not match matrix {mat.shape}")
        om = omega(n2 // 2)
        if float(np.abs(mat.T @ om @ mat - om).max()) > _SYMPLECTIC_TOL:
            raise ValueError("matrix is not symplectic")
        mat.setflags(write=False)
        disp.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "displacement", disp)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


@dataclass(frozen=True)
class ProcessParams:
    """The unknown Gaussian process: phase shift, squeeze, displacement.

    phi:   phase shift in radians, in (-pi, pi].
    w:     squeezing exponent >= 0 (magnitude q = e^w).
    alpha: squeeze direction, axis angle in (-pi/2, pi/2].
    d:     displacement magnitude >= 0, vacuum-quadrature units.
    beta:  displacement direction in (-pi, pi].
    """

    phi: float
    w: float
    alpha: float
    d: float
    beta: float

    _EPS = 1e-9

    def __post_init__(self):
        if self.w < -self._EPS:
            raise ValueError(f"w must be >= 0, got {self.w}")
        if self.d < -self._EPS:
            raise ValueError(f"d must be >= 0, got {self.d}")
        for name, val, lo, hi in (
            ("phi", self.phi, -math.pi, math.pi),
            ("beta", self.beta, -math.pi, math.pi),
            ("alpha", self.alpha, -math.pi / 2, math.pi / 2),
        ):
            if not (lo - self._EPS < val <= hi + self._EPS):
                raise ValueError(f"{name}={val} outside ({lo}, {hi}]")

    @classmethod
    def folded(cls, phi=0.0, w=0.0, alpha=0.0, d=0.0, beta=0.0) -> "ProcessParams":
        """Build params with angles folded into their canonical ranges."""
        return cls(fold_angle(phi), max(w, 0.0), fold_axis(alpha), max(d, 0.0), fold_angle(beta))

    @classmethod
    def from_q(cls, phi=0.0, q=1.0, alpha=0.0, d=0.0, beta=0.0) -> "ProcessParams":
        if q <= 0:
            raise ValueError(f"q must be positive, got {q}")
        return cls.folded(phi=phi, w=math.log(q), alpha=alpha, d=d, beta=beta)

    @property
    def q(self) -> float:
        return math.exp(self.w)

    @property
    def d_vec(self) -> np.ndarray:
        return np.array([self.d * math.cos(self.beta), self.d * math.sin(self.beta)])


IDENTITY_PROCESS = ProcessParams(0.0, 0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Constructors


def make_thermal(v: float) -> GaussianState:
    """Single-mode thermal state with variance v >= 1 (v = 1 is vacuum)."""
    if v < 1.0:
        raise ValueError(f"thermal variance must be >= 1, got {v}")
    return GaussianState(np.zeros(2), v * np.eye(2))


def make_coherent(r: float, phase: float = 0.0) -> GaussianState:
    """Single-mode coherent state with amplitude r >= 0 at the given phase."""
    if r < 0.0:
        raise ValueError(f"coherent amplitude must be >= 0, got {r}")
    return GaussianState(np.array([r * math.cos(phase), r * math.sin(phase)]), np.eye(2))


def vacuum() -> GaussianState:
    return make_thermal(1.0)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((mean.size, mean.size))
    na = a.mean.size
    cov[:na, :na] = a.cov
    cov[na:, na:] = b.cov
    return GaussianState(mean, cov)


def marginal(state: GaussianState, mode: int) -> GaussianState:
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes}-mode state")
    sl = slice(2 * mode, 2 * mode + 2)
    return GaussianState(state.mean[sl], state.cov[sl, sl])


# ---------------------------------------------------------------------------
# Symplectic operations


def apply(op: SymplecticOp, state: GaussianState) -> GaussianState:
    if op.n_modes != state.n_modes:
        raise ValueError(f"op acts on {op.n_modes} modes, state has {state.n_modes}")
    s = op.matrix
    return GaussianState(s @ state.mean + op.displacement, s @ state.cov @ s.T)


def embed(op: SymplecticOp, n_modes: int, mode: int) -> SymplecticOp:
    """Embed a single-mode op into an n-mode identity on the other modes."""
    if op.n_modes != 1:
        raise ValueError("embed expects a single-mode op")
    mat = np.eye(2 * n_modes)
    disp = np.zeros(2 * n_modes)
    sl = slice(2 * mode, 2 * mode + 2)
    mat[sl, sl] = op.matrix
    disp[sl] = op.displacement
    return SymplecticOp(mat, disp)


def bs_symplectic(t: float) -> SymplecticOp:
    """Two-mode beam splitter with transmittance t.

    Output convention: (out1, out2) = (sqrt(t) in1 + sqrt(1-t) in2,
    -sqrt(1-t) in1 + sqrt(t) in2), acting identically on the x and p planes.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmittance must be in [0, 1], got {t}")
    ct, st = math.sqrt(t), math.sqrt(1.0 - t)
    # [[ct, st], [-st, ct]] kron I2, laid out directly (the zeros keep kron's signs).
    return SymplecticOp(np.array([[ct, 0.0, st, 0.0], [0.0, ct, 0.0, st],
                                  [-st, -0.0, ct, 0.0], [-0.0, -st, 0.0, ct]]), np.zeros(4))


def process_symplectic(p: ProcessParams) -> SymplecticOp:
    """Phase-space form of the Gaussian process: squeeze, rotate, displace."""
    return SymplecticOp(rotation(p.phi) @ squeeze_matrix(p.w, p.alpha), p.d_vec)


def loss_channel(state: GaussianState, mode: int, t_c: float, v_c: float) -> GaussianState:
    """Couple one mode to a thermal bath: transmittance t_c, bath variance v_c."""
    if not 0.0 < t_c <= 1.0:
        raise ValueError(f"loss transmittance must be in (0, 1], got {t_c}")
    if v_c < 1.0:
        raise ValueError(f"bath variance must be >= 1, got {v_c}")
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes}-mode state")
    if t_c == 1.0:
        return state
    n2 = state.mean.size
    scale = np.ones(n2)
    sl = slice(2 * mode, 2 * mode + 2)
    scale[sl] = math.sqrt(t_c)
    cov = state.cov * np.outer(scale, scale)
    cov[sl, sl] += (1.0 - t_c) * v_c * np.eye(2)
    return GaussianState(state.mean * scale, cov)


def _single_mode_nu(cov: np.ndarray) -> float:
    """Symplectic eigenvalue of a one-mode covariance: Omega Sigma has
    eigenvalues +-sqrt(-det Sigma), real for det < 0, so nu = sqrt(det)."""
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    return math.sqrt(max(det, 0.0))


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, sorted ascending."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    if n == 1:
        return np.array([_single_mode_nu(cov)])
    ev = np.linalg.eigvals(omega(n) @ cov)
    nus = np.sort(np.abs(ev.imag))
    return nus[::2]  # each value appears as a +/- i nu pair


def is_physical(state: GaussianState, tol: float = 1e-9) -> bool:
    """Whether all symplectic eigenvalues are >= 1 - tol (Heisenberg relation)."""
    return bool(symplectic_eigenvalues(state.cov).min() >= 1.0 - tol)


def repair_physicality(cov: np.ndarray) -> np.ndarray:
    """Map a 2x2 covariance with sqrt(det) < 1 to Sigma + (1 - sqrt(det)) I.

    A no-op (returns the input object) on already-physical covariances;
    idempotent.  Rejects non-symmetric or indefinite input.
    """
    # Scalar arithmetic throughout: this sits in the per-realization hot path.
    (a, b), (b_low, c) = cov.tolist()
    scale = 1.0 if -1.0 < a < 1.0 and -1.0 < c < 1.0 else max(abs(a), abs(c))
    if abs(b - b_low) > 1e-10 * scale:
        raise ValueError("covariance matrix is not symmetric")
    det = a * c - b * b
    if det < -1e-12 * scale * scale or a + c < 0.0:
        raise ValueError("covariance matrix is not positive semidefinite")
    nu = math.sqrt(det) if det > 0.0 else 0.0
    if nu >= 1.0:
        return cov
    add = 1.0 - nu
    return np.array([[a + add, b], [b, c + add]])


#: Relative singular-value gap 2 |m1| / |m0| below which polar_pair takes
#: the squeeze axis as undefined.
_ISOTROPIC_TOL = 1e-9


def polar_pair(m0: complex, m1: complex):
    """Left polar decomposition B = R(phi) S, S symmetric positive, of B z =
    m0 z + m1 conj(z) on the quadrature pair z = x + ip.  R(phi) S(w, alpha)
    is (e^{i phi} cosh w, e^{i (phi + 2 alpha)} sinh w) and the singular
    values are |m0| +- |m1|, so phi = arg m0, w = log(|m0| + |m1|) (for det
    B != 1 the largest singular value, so a uniform shrink of B lowers w)
    and alpha = (arg m1 - phi) / 2, or 0 for a nearly isotropic S.  Raises
    DecompositionError for det B = |m0|^2 - |m1|^2 <= 0 (corrupt moments)."""
    r0, r1 = abs(m0), abs(m1)
    if r0 <= r1:
        raise DecompositionError(
            f"polar decomposition requires det > 0, got {(r0 - r1) * (r0 + r1)}")
    phi = cmath.phase(m0)
    if 2.0 * r1 <= _ISOTROPIC_TOL * r0:
        return phi, math.log(r0), 0.0
    return phi, math.log(r0 + r1), fold_axis(0.5 * (cmath.phase(m1) - phi))
