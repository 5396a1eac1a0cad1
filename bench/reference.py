"""Closed-form reference model of the read-out, written apart from lmint.

The measured light mode is affine in the process matrix A = R(phi) S(q, alpha)
with S = R(alpha) diag(q, 1/q) R(alpha)^T.  For the interferometric topology
with a loss channel (t_c, v_c) after the process, write

    x = sqrt(t2 t_c (1 - t1)),  y = sqrt((1 - t2) t1),
    u = sqrt(t1 t2 t_c),        z = sqrt((1 - t1)(1 - t2)),

then

    mean = (u A + z I) m_in + sqrt(t2 t_c) d
    cov  = (V x^2 + u^2) A A^T + (u z - V x y)(A + A^T)
           + (V y^2 + z^2 + t2 (1 - t_c) v_c) I.

The blocked-beam topology discards the light after the first coupler, so
z = 0 there, the matter enters the process with variance c1 = (1 - t1) V + t1,
and cov = t2 t_c c1 A A^T + (1 - t2 + t2 (1 - t_c) v_c) I.  The simplistic
topology has no light path through the process: mean = sqrt(1 - t2) m_in
+ sqrt(t2 t_c) d and cov = t2 t_c V A A^T + (1 - t2 + t2 (1 - t_c) v_c) I.

From these moments and their analytic derivatives the module builds the
per-shot Gaussian Fisher matrix in (phi, q, alpha, d, beta) for the joint,
heterodyne and homodyne-group read-outs and for the three-probe mean-only
protocol.  Nothing here imports lmint: the benchmark checks lmint against it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

#: Parameter order of every Fisher matrix and bound vector.
PARAMS = ("phi", "q", "alpha", "d", "beta")

#: Probe phases of the three-probe mean protocol (two opposite, one quarter turn).
PROBE_PHASES = (0.0, math.pi, math.pi / 2)

#: Homodyne angle groups per scheme; each group gets an equal share of shots.
HOMODYNE_ANGLES = {
    "homodyne2": (0.0, math.pi / 2),
    "homodyne3": (0.0, math.pi / 2, math.pi / 4),
}

_J = np.array([[0.0, -1.0], [1.0, 0.0]])
_EYE = np.eye(2)


def rot(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class Setup:
    """Read-out geometry: topology, couplings t1, t2, matter variance V,
    probe amplitude r and probe phase."""

    topology: str
    t1: float
    t2: float
    v: float
    r: float
    probe_phase: float = 0.0


@dataclass(frozen=True)
class Point:
    """One process and channel: (phi, q, alpha, d, beta) and (t_c, v_c)."""

    phi: float
    q: float
    alpha: float
    d: float
    beta: float
    t_c: float = 1.0
    v_c: float = 1.0


def response(setup: Setup, t_c: float = 1.0, v_c: float = 1.0):
    """The six scalars (through, direct, g_d, a, b, e) of the affine response."""
    t1, t2, v = setup.t1, setup.t2, setup.v
    g_d = math.sqrt(t2 * t_c)
    if setup.topology == "interferometric":
        x = math.sqrt(t2 * t_c * (1.0 - t1))
        y = math.sqrt((1.0 - t2) * t1)
        u = math.sqrt(t1 * t2 * t_c)
        z = math.sqrt((1.0 - t1) * (1.0 - t2))
        a = v * x * x + u * u
        b = u * z - v * x * y
        e = v * y * y + z * z + t2 * (1.0 - t_c) * v_c
        return u, z, g_d, a, b, e
    if setup.topology == "blocked_beam":
        c1 = (1.0 - t1) * v + t1
        return (math.sqrt(t1 * t2 * t_c), 0.0, g_d, t2 * t_c * c1, 0.0,
                1.0 - t2 + t2 * (1.0 - t_c) * v_c)
    if setup.topology == "simplistic":
        return (0.0, math.sqrt(1.0 - t2), g_d, t2 * t_c * v, 0.0,
                1.0 - t2 + t2 * (1.0 - t_c) * v_c)
    raise ValueError(f"no reference for topology {setup.topology!r}")


def _process_and_derivatives(phi, q, alpha):
    """A and dA/d(phi, q, alpha)."""
    h = rot(alpha)
    s = h @ np.diag([q, 1.0 / q]) @ h.T
    r = rot(phi)
    a = r @ s
    da_dphi = _J @ a
    da_dq = r @ (h @ np.diag([1.0, -1.0 / (q * q)]) @ h.T)
    da_dalpha = r @ (_J @ s - s @ _J)
    return a, (da_dphi, da_dq, da_dalpha)


def moments(setup: Setup, point: Point, derivatives: bool = False):
    """Output mean and covariance; with derivatives=True also the lists of
    d mean / d theta_i and d cov / d theta_i in PARAMS order."""
    through, direct, g_d, ca, cb, ce = response(setup, point.t_c, point.v_c)
    a, da = _process_and_derivatives(point.phi, point.q, point.alpha)
    m_in = setup.r * np.array([math.cos(setup.probe_phase), math.sin(setup.probe_phase)])
    unit = np.array([math.cos(point.beta), math.sin(point.beta)])
    mean = (through * a + direct * _EYE) @ m_in + g_d * point.d * unit
    cov = ca * (a @ a.T) + cb * (a + a.T) + ce * _EYE
    if not derivatives:
        return mean, cov
    dmu = [through * d @ m_in for d in da]
    dmu += [g_d * unit, g_d * point.d * np.array([-unit[1], unit[0]])]
    dcov = [ca * (d @ a.T + a @ d.T) + cb * (d + d.T) for d in da]
    dcov += [np.zeros((2, 2)), np.zeros((2, 2))]
    return mean, cov, dmu, dcov


def fisher(setup: Setup, point: Point, scheme: str = "joint",
           mean_only: bool = False) -> np.ndarray:
    """Per-shot 5x5 Fisher matrix of one read-out scheme in PARAMS order.

    joint: the two-dimensional Gaussian of the bare state;
    heterodyne: the same with one added vacuum unit per quadrature;
    homodyne2 / homodyne3: equal shares of one-dimensional Gaussians at the
    scheme's angles.
    """
    _, cov, dmu, dcov = moments(setup, point, derivatives=True)
    n = len(PARAMS)
    if scheme in ("joint", "heterodyne"):
        sig = cov + _EYE if scheme == "heterodyne" else cov
        inv = np.linalg.inv(sig)
        info = np.array([[dmu[i] @ inv @ dmu[j] for j in range(n)] for i in range(n)])
        if not mean_only:
            g = [inv @ dc for dc in dcov]
            info += 0.5 * np.array([[np.trace(g[i] @ g[j]) for j in range(n)]
                                    for i in range(n)])
        return info
    angles = HOMODYNE_ANGLES[scheme]
    info = np.zeros((n, n))
    for theta in angles:
        vec = np.array([math.cos(theta), math.sin(theta)])
        s = vec @ cov @ vec
        gm = np.array([vec @ d for d in dmu])
        info += np.outer(gm, gm) / s / len(angles)
        if not mean_only:
            gs = np.array([vec @ dc @ vec for dc in dcov])
            info += 0.5 * np.outer(gs, gs) / (s * s) / len(angles)
    return info


def three_probe_fisher(setup: Setup, point: Point) -> np.ndarray:
    """Per-shot mean-only Fisher matrix of the three-probe protocol on the
    joint read-out, a third of the shots at each probe phase."""
    return sum(fisher(replace(setup, probe_phase=phase), point, mean_only=True)
               for phase in PROBE_PHASES) / len(PROBE_PHASES)


def bounds(info: np.ndarray, n_shots: int) -> dict:
    """Multiparameter Cramer-Rao variances [F^-1]_ii / n keyed by parameter."""
    return dict(zip(PARAMS, np.diag(np.linalg.inv(info)) / n_shots))


def block_bounds(info: np.ndarray, parameters, n_shots: int) -> dict:
    """Cramer-Rao variances of some parameters with the others known: the
    inverse of their sub-block of the Fisher matrix."""
    idx = [PARAMS.index(p) for p in parameters]
    sub = np.linalg.inv(info[np.ix_(idx, idx)]) / n_shots
    return dict(zip(parameters, np.diag(sub)))


def phase_var_variance(setup: Setup, point: Point, n_shots: int) -> float:
    """Delta-method variance of the variance-based phase estimate of a
    phase-only process on the joint read-out.

    The estimator inverts the half trace of the sample covariance; for
    Gaussian records Var[(s_xx + s_pp) / 2] = tr(Sigma^2) / (2 (n - 1)).
    """
    _, cov, _, dcov = moments(setup, point, derivatives=True)
    slope = 0.5 * np.trace(dcov[0])
    return float(np.trace(cov @ cov)) / (2.0 * (n_shots - 1)) / slope ** 2
