"""Gaussian-state simulation and estimation toolkit for light-matter interferometry."""

from .gaussian_core import (
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
from .interferometer import Response, SetupConfig, Topology, forward, measured_state, response
from .measurement import MeasurementPlan, Scheme, draw_moments, estimate_moments, sample
from .estimators import (
    EstimateReport,
    est_combined,
    est_displacement,
    est_general_cov,
    est_general_mean,
    est_phase_mean,
    est_phase_ml,
    est_phase_var,
)
from .fisher import (
    FisherResult,
    compare_blocked_vs_interferometric,
    crb,
    fisher_displacement,
    fisher_numeric,
)
from .harness import (
    MonteCarloConfig,
    MSEReport,
    calibrate,
    find_r_crit,
    fit_exponent,
    run_mc,
    sweep,
)
from .noise import IDEAL_NOISE, NoiseParams

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
