"""End-to-end Gaussian forward models for the three read-out topologies.

The measured object is always the light mode leaving the final beam
splitter; the matter mode is never measured.  Internally two-mode states are
ordered (matter, light).
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gaussian_core import (
    GaussianState,
    ProcessParams,
    SymplecticOp,
    apply,
    bs_symplectic,
    embed,
    loss_channel,
    make_coherent,
    make_thermal,
    marginal,
    process_symplectic,
    tensor,
    vacuum,
)
from .noise import IDEAL_NOISE, NoiseParams


class Topology(Enum):
    INTERFEROMETRIC = "interferometric"
    SIMPLISTIC = "simplistic"
    BLOCKED_BEAM = "blocked_beam"


@dataclass(frozen=True)
class SetupConfig:
    """Interface and source parameters of the read-out scheme.

    t1, t2 are the light-matter transmittances of the two couplings,
    v_thermal the matter variance V, r_amp the coherent amplitude r,
    probe_phase the phase of the coherent input.  t1 is ignored for the
    simplistic topology.
    """

    topology: Topology
    t1: float
    t2: float
    v_thermal: float
    r_amp: float
    probe_phase: float = 0.0

    def __post_init__(self):
        for name, t in (("t1", self.t1), ("t2", self.t2)):
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {t}")
        if not 1.0 <= self.v_thermal < math.inf:
            raise ValueError(f"v_thermal must be >= 1, got {self.v_thermal}")
        if not 0.0 <= self.r_amp < math.inf:
            raise ValueError(f"r_amp must be >= 0, got {self.r_amp}")
        if not -math.inf < self.probe_phase < math.inf:
            raise ValueError(f"probe_phase must be finite, got {self.probe_phase}")

    @property
    def light_mean(self) -> complex:
        """Input mean z_in = r e^{i probe_phase} of the coherent probe."""
        return cmath.rect(self.r_amp, self.probe_phase)


_MODE_SWAP = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))


@functools.lru_cache
def _coupler(t: float) -> SymplecticOp:
    """Light-matter coupling on a (matter, light) pair.

    matter_out = sqrt(1-t) matter + sqrt(t) light
    light_out  = sqrt(t) matter  - sqrt(1-t) light

    This is bs_symplectic(t) called with (in1, in2) = (light, matter) and
    outputs read back as (matter, light); an involution, so two equal
    couplings cancel (Mach-Zehnder identity).  Built once per transmittance:
    a SymplecticOp is immutable.
    """
    return SymplecticOp(bs_symplectic(t).matrix @ _MODE_SWAP, np.zeros(4))


def _apply_process(state: GaussianState, process: ProcessParams,
                   noise: NoiseParams, mode: int) -> GaussianState:
    out = apply(embed(process_symplectic(process), state.n_modes, mode), state)
    return loss_channel(out, mode, noise.t_c, noise.v_c)


def forward(setup: SetupConfig, process: ProcessParams,
            noise: NoiseParams = IDEAL_NOISE) -> GaussianState:
    """Propagate probe and matter through the setup; return the measured light mode."""
    if setup.topology is Topology.SIMPLISTIC:
        m = _apply_process(make_thermal(setup.v_thermal), process, noise, 0)
        joint = tensor(m, make_coherent(setup.r_amp, setup.probe_phase))
        # Eq.-style wiring: x_o = sqrt(t2) x_matter + sqrt(1-t2) x_light.
        return marginal(apply(bs_symplectic(setup.t2), joint), 0)

    joint = tensor(make_thermal(setup.v_thermal), make_coherent(setup.r_amp, setup.probe_phase))
    joint = apply(_coupler(setup.t1), joint)
    if setup.topology is Topology.BLOCKED_BEAM:
        joint = tensor(marginal(joint, 0), vacuum())
    joint = _apply_process(joint, process, noise, 0)
    joint = apply(_coupler(setup.t2), joint)
    return marginal(joint, 1)


@dataclass(frozen=True)
class Response:
    """Closed-form response of the measured mode to the process matrix
    A = R(phi) Sq(w, alpha) and displacement d_vec:

        mean = (through A + direct I) m_in + g_d d_vec
        cov  = a A A^T + b (A + A^T) + e I

    with m_in the vector (x, p) of the probe's input mean z_in = x + ip (see
    SetupConfig.light_mean).  Every input covariance and coupler block is
    proportional to the 2x2 identity, so six scalars per (setup, noise)
    carry the whole model.  The code runs it in pair form on Python scalars
    (_process_pair, _sigma, measured_moments); the tests check that against
    this matrix form and forward.
    """

    through: float
    direct: float
    g_d: float
    a: float
    b: float
    e: float


def _process_pair(phi, w, alpha):
    """The pair of the process matrix R(phi) S(w, alpha)."""
    return cmath.rect(math.cosh(w), phi), cmath.rect(math.sinh(w), phi + 2.0 * alpha)


def _sigma(m, resp):
    """Sigma(A) = a A A^T + b (A + A^T) + e I of the pair A = (m0, m1): (a
    (|m0|^2 + |m1|^2) + 2 b Re m0 + e, 2 m1 (a m0 + b)), inf past the floats."""
    m0, m1 = m
    return (resp.a * (m0 * m0.conjugate() + m1 * m1.conjugate()).real + 2.0 * resp.b * m0.real
            + resp.e, 2.0 * m1 * (resp.a * m0 + resp.b))


def response(setup: SetupConfig, noise: NoiseParams = IDEAL_NOISE) -> Response:
    """The six response scalars of the setup under the matter channel.

    Write V for v_thermal; IDEAL_NOISE is t_c = v_c = 1.  The matter
    leg carries t2 t_c times the process output; what it carries in is the
    thermal matter alone (simplistic), or that mixed with the probe by the
    first coupler, V (1 - t1) + t1 (blocked beam and interferometric).  The
    interferometric light leg adds the first coupler's other output, which
    is correlated with the matter leg: the linear term b.  In the simplistic
    topology no probe light passes the process (through = 0).
    """
    t1, t2, v = setup.t1, setup.t2, setup.v_thermal
    t_c, v_c = noise.t_c, noise.v_c
    g_d = math.sqrt(t2 * t_c)
    bath = t2 * (1.0 - t_c) * v_c
    if setup.topology is Topology.SIMPLISTIC:
        return Response(through=0.0, direct=math.sqrt(1.0 - t2), g_d=g_d,
                        a=t2 * t_c * v, b=0.0, e=bath + 1.0 - t2)
    through = math.sqrt(t1 * t2 * t_c)
    a = t2 * t_c * ((1.0 - t1) * v + t1)
    if setup.topology is Topology.BLOCKED_BEAM:
        return Response(through=through, direct=0.0, g_d=g_d, a=a, b=0.0,
                        e=bath + 1.0 - t2)
    return Response(through=through, direct=math.sqrt((1.0 - t1) * (1.0 - t2)), g_d=g_d,
                    a=a, b=math.sqrt(t1 * (1.0 - t1) * t2 * (1.0 - t2) * t_c) * (1.0 - v),
                    e=bath + (1.0 - t2) * (t1 * v + 1.0 - t1))


def measured_moments(setup: SetupConfig, process: ProcessParams,
                     noise: NoiseParams = IDEAL_NOISE, phases=None) -> tuple[list, tuple]:
    """forward's measured light mode, in Python scalars, at each probe phase
    of `phases` (the setup's own by default): the list of its means z = x +
    ip, through (m0 z_in + m1 conj(z_in)) + direct z_in + g_d d e^{i beta}
    for z_in = r e^{i phase} and the process pair (m0, m1), and its
    covariance (Sxx, Sxp, Spp) = (c0 + Re c1, Im c1, c0 - Re c1) from
    _sigma's (c0, c1), which no probe phase changes.  With s = |m0| + |m1|,
    each is exact to a few eps of (through s + direct) r + g_d d (the mean)
    or a s^2 + 2 |b| s + e (the covariance)."""
    resp = response(setup, noise)
    m0, m1 = pair = _process_pair(process.phi, process.w, process.alpha)
    shift = resp.g_d * cmath.rect(process.d, process.beta)
    z_ins = [cmath.rect(setup.r_amp, phase)
             for phase in ((setup.probe_phase,) if phases is None else phases)]
    c0, c1 = _sigma(pair, resp)
    return ([resp.through * (m0 * z + m1 * z.conjugate()) + resp.direct * z + shift
             for z in z_ins], (c0 + c1.real, c1.imag, c0 - c1.real))


def measured_state(setup: SetupConfig, process: ProcessParams,
                   noise: NoiseParams = IDEAL_NOISE) -> GaussianState:
    """forward's measured light mode as one state, built from the numbers of
    measured_moments, instead of forward's chain of two-mode ones.  forward
    stays the reference the tests check it against."""
    (z,), (s_xx, s_xp, s_pp) = measured_moments(setup, process, noise)
    return GaussianState(np.array([z.real, z.imag]), np.array([[s_xx, s_xp], [s_xp, s_pp]]))
