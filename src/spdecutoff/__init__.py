"""Spectral-Galerkin study of abrupt equilibration for stochastic heat and
damped wave equations under small additive or multiplicative noise."""

__version__ = "0.1.0"

from .spectral_core import (
    EigenSystem,
    ModeCoefficients,
    HeatLeadingData,
    WaveSpectrum,
    WaveState,
    build_box_eigensystem,
    heat_leading_data,
    wave_spectrum,
    wave_decompose,
)
from .semigroup import (
    OverdampedLeader,
    heat_apply,
    wave_apply,
    wave_mode_propagator,
    wave_overdamped_leader,
    wave_subcritical_norm_sq,
    decay_constants,
)
from .noise_sim import (
    JumpMark,
    NoiseSpec,
    GaussianLaw,
    gaussian_law,
    heat_gaussian_convolution_law,
    wave_gaussian_convolution_law,
)
from .wasserstein import (
    bures,
    w2_diag_gaussian,
    w2_gaussian_2x2,
    wp_empirical_1d,
    shift_bounds,
    sorted_normal_pair,
    shift_linearity_check,
    homogeneity_check,
)
from .cutoff import (
    CutoffReport,
    cutoff_time,
    profile,
    error_bound,
    profile_cell,
    distance_and_gap,
    equilibrium_moment,
    window_cell,
)
from .multiplicative import (
    MultBrownianSpec,
    MultLevySpec,
    mult_second_moment_exact,
    mult_profile,
    levy_flow_oracle,
    levy_pathwise_check,
)
from ._rng import stream
