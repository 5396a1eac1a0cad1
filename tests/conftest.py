"""Shared fixtures: the benchmark working point used throughout the paper-style
figures (interferometric coupling T=0.1, hot matter V=100, bright probe r=100)
and helpers to turn exact forward moments into MomentEstimate objects.
"""
import dataclasses

import numpy as np
import pytest

from lmint import ProcessParams, SetupConfig, Topology, forward
from lmint.estimators import PROBE_PHASES
from lmint.fisher import gaussian_information, moment_derivatives
from lmint.interferometer import response
from lmint.measurement import MomentEstimate

FULL_N_EFF = {"mean_x": 1, "mean_p": 1, "var_x": 1, "var_p": 1, "cov_xp": 1}


@pytest.fixture
def bench_setup():
    return SetupConfig(topology=Topology.INTERFEROMETRIC, t1=0.1, t2=0.1,
                       v_thermal=100.0, r_amp=100.0)


@pytest.fixture
def bench_process():
    return ProcessParams.from_q(phi=0.7, q=2.0, alpha=-0.3, d=4.0, beta=0.5)


def exact_moments(state) -> MomentEstimate:
    """Wrap noise-free forward moments as a full-covariance estimate."""
    return MomentEstimate(mean=state.mean, cov=state.cov, n_effective=FULL_N_EFF)


def exact_probe_moments(setup, process, noise=None):
    """Noise-free moments for the three-probe protocol."""
    out = []
    for phase in PROBE_PHASES:
        st = forward(dataclasses.replace(setup, probe_phase=phase), process, noise)
        out.append(exact_moments(st))
    return out


#: Parameter order of fisher_matrix rows, as in the Monte-Carlo MSE cells.
FISHER_PARAMS = ("phi", "q", "alpha", "d", "beta")


def _forward_moments(setup, theta, noise):
    phi, q, alpha, d, beta = theta
    state = forward(setup, ProcessParams.from_q(phi=phi, q=q, alpha=alpha, d=d, beta=beta),
                    noise)
    return state.mean, state.cov


def fisher_matrix(setup, process, noise=None, *, mean_only=False):
    """Per-sample 5x5 Fisher matrix of one joint read-out in (phi, q, alpha, d, beta).

    Gaussian identity (as in lmint.fisher):
    I_ij = dmu_i^T S^-1 dmu_j + 1/2 tr(S^-1 dS_i S^-1 dS_j),
    with central differences of the forward moments; mean_only keeps the
    first term.
    """
    step = 1e-5
    theta = np.array([process.phi, process.q, process.alpha, process.d, process.beta])
    _, cov = _forward_moments(setup, theta, noise)
    inv = np.linalg.inv(cov)
    dmu, dcov = [], []
    for i in range(len(theta)):
        h = np.zeros_like(theta)
        h[i] = step
        mu_p, cov_p = _forward_moments(setup, theta + h, noise)
        mu_m, cov_m = _forward_moments(setup, theta - h, noise)
        dmu.append((mu_p - mu_m) / (2.0 * step))
        dcov.append(inv @ (cov_p - cov_m) / (2.0 * step))
    info = np.array([[a @ inv @ b for b in dmu] for a in dmu])
    if not mean_only:
        info += 0.5 * np.array([[np.trace(a @ b) for b in dcov] for a in dcov])
    return info


def three_probe_bounds(setup, process, noise, n_samples):
    """Mean-only Cramer-Rao variances [F^-1]_ii of the three-probe protocol,
    keyed by parameter, with n_samples // 3 shots at each probe phase."""
    n_each = n_samples // len(PROBE_PHASES)
    info = sum(n_each * fisher_matrix(dataclasses.replace(setup, probe_phase=phase),
                                      process, noise, mean_only=True)
               for phase in PROBE_PHASES)
    return dict(zip(FISHER_PARAMS, np.diag(np.linalg.inv(info))))



def reference_joint_fit(x, sets, noise):
    """Deviance, score and information of the joint likelihood, one data set
    at a time: sets lists (setup, _data_sets(moments)), and every data set
    gets its own moment_derivatives call, model covariance, inverse and
    determinants.  The reference for estimators._joint_fit, which scores
    the data sets in blocks of one model covariance."""
    deviance, score, info = 0.0, np.zeros(5), np.zeros((5, 5))
    for setup, groups in sets:
        mu, sig, d_mu, d_sig = moment_derivatives(response(setup, noise), x,
                                                  setup.light_mean[None])
        for n, proj, added, mean, scatter in groups:
            cov = proj @ sig @ proj.T + added
            d_mean, d_cov = d_mu[0] @ proj.T, proj @ d_sig @ proj.T
            if mean is None:
                d_mean, delta = 0.0 * d_mean, np.zeros(len(cov))
            else:
                delta = mean - proj @ mu[0]
            inv = np.linalg.inv(cov)
            ratio = inv @ (scatter + np.outer(delta, delta))
            deviance += n * (np.trace(ratio) - len(cov)
                             - np.log(np.linalg.det(scatter) / np.linalg.det(cov)))
            score += n * (d_mean @ (inv @ delta) + 0.5 * np.einsum(
                "iab,ba->i", inv @ d_cov, ratio - np.eye(len(cov))))
            info += n * gaussian_information(cov, d_mean, d_cov)
    return float(deviance), score, info
