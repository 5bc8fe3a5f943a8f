"""Filtering and state estimation for partially observed dissipative chaos."""

from .dynamics import (
    BlowUpError,
    DissipativeModel,
    absorbing_radius,
    linear_dissipative,
    lorenz63,
    lorenz96,
)
from .filters import (
    FilterNumericsError,
    FilterRun,
    FixedGainObserver,
    Gain,
    ParticleFilter,
    ThreeDVar,
    VNorm,
    default_ball_radius,
    kalman_filter_step,
    kalman_gain_3dvar,
    observer_step,
    particle_filter,
    project_ball_V,
    run_kalman,
    run_observer,
    truncated_observer_step,
)
from .harness import (
    DiscreteMapModel,
    MseReport,
    empirical_squeezing,
    fit_scaling_exponent,
    posterior_variance_trace,
    run_mse_experiment,
    write_report,
)
from .linear_theory import (
    contractive_norm,
    detectability_shift_equivalence,
    find_gain,
    hautus_detectable,
    spectral_radius,
)
from .observation import (
    ObservationSequence,
    coordinate_projection,
    every_third_unobserved,
    fourier_cutoff,
    generate_truth_and_observations,
    substream,
)
from .spectral import SpectralGrid, SpectralNSModel, navier_stokes_spectral

__version__ = "0.1.0"
