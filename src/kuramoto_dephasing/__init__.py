"""Scattering solver and verification lab for mean-field phase oscillators.

Constructs solutions of the kinetic mean-field phase equation with
prescribed large-time data by one joint Picard iteration of
backward-characteristic sweeps and order-parameter quadrature, then
certifies the resulting decay and cross-validates against a direct
finite ensemble.
"""

from .spectral_state import (
    AsymptoticState,
    FrequencyProfile,
    InvalidStateError,
    free_order_parameter,
    sample_labels,
    spectral_transform,
)
from .norms_grids import Grid, GridError, WeightSpec, build_grid, weighted_norm
from .characteristics import (
    CharacteristicField,
    ContractionReport,
    MaxSweepsExceededError,
    NonContractiveError,
    StepRejectedError,
    backward_ode_oracle,
    gamma_field,
    solve_fixed_point,
)
from .scheme import (
    DiagnosticsLedger,
    NotConvergingError,
    OrderParameterPath,
    ReconstructedDensity,
    SolveResult,
    TailBudgetError,
    order_parameter_of,
    outer_solve,
    reconstruct,
    verify_lemmas,
)
from .decay import (
    DecayModel,
    EnvelopeCertificate,
    InsufficientDataError,
    NonPositiveValuesError,
    SeriesError,
    certify_envelope,
    fit_decay,
)
from .particles import (
    ParticleEnsemble,
    compare_to_kinetic,
    init_from_solution,
    simulate,
)

__version__ = "0.1.0"
