"""Spectral transfer functions of discrete diffusion samplers and
noise-schedule optimization for Gaussian targets."""

__version__ = "0.1.0"

from .spectral import (
    DEFAULT_EPS0,
    DEFAULT_EPSS,
    Schedule,
    SpectralModel,
    Transfer,
    ddim_transfer,
    ddpm_transfer,
    intermediate_distribution,
    mean_bias,
    relative_error_dynamics,
    ve_to_vp,
    vp_to_ve,
    w2_dynamics,
)
from .schedules import (
    cosine_schedule,
    edm_schedule,
    linear_schedule,
    sigmoid_schedule,
    warm_start_interpolate,
)
from .losses import (
    LossKind,
    kl_loss,
    loss_gradient,
    w2_loss,
    weighted_l1_loss,
)
from .optimize import (
    OptimizeConfig,
    OptimizeReport,
    fit_parametric,
    optimize_schedule,
    single_eigenvalue_problem,
)
from .simulate import (
    DenseGaussian,
    SimConfig,
    empirical_moments,
    simulate_reverse,
)
from .estimate import (
    EstimationConfig,
    circulant_projection,
    pca_truncate,
    sliding_window_covariance,
    spectral_model_from_covariance,
    synthetic_circulant_model,
)
