"""Solitary-wave solver for a depth-expanded shallow-water wave model.

The library computes exact solitary-wave profiles of the model's traveling
wave equations (single quadratic expansion term), up to and including the
limiting wave of extreme form with its sharp corner crest, and ships
executable checks of the analytic theory behind the solver.
"""

from .crest_init import CrestState, DELTA_C_APPROX, phase_speed, solve_crest
from .errors import (
    DenominatorVanished,
    IkwaveError,
    NegativeRadicand,
    NonPositiveDetected,
    NoSolitaryRoot,
    StepSizeUnderflow,
)
from .extreme_wave import (
    CriticalPoint,
    crest_slope,
    extreme_profile,
    included_angle,
    solve_critical,
)
from .model_params import (
    ExponentSet,
    ModelParams,
    build_params,
    check_positivity,
    exact_params,
)
from .profile_ode import (
    HalfProfile,
    crest_curvature,
    denominator,
    identity_residuals,
    integrate_half,
    reconstruct_potentials,
)
from .solitary_profile import (
    DimensionalProfile,
    TableRow,
    WaveProfile,
    compare_kdv,
    diagnostics_table,
    dimensionalize,
    kdv_profile,
    solve_solitary,
)
from .theory_checks import (
    FundamentalPair,
    first_order_family,
    fundamental_checks,
    fundamental_pair,
    q_eval,
    q_positivity,
    verify_kdv_solution,
)

__version__ = "0.1.0"

__all__ = [
    "CrestState",
    "CriticalPoint",
    "DELTA_C_APPROX",
    "DenominatorVanished",
    "DimensionalProfile",
    "ExponentSet",
    "FundamentalPair",
    "HalfProfile",
    "IkwaveError",
    "ModelParams",
    "NegativeRadicand",
    "NonPositiveDetected",
    "NoSolitaryRoot",
    "StepSizeUnderflow",
    "TableRow",
    "WaveProfile",
    "build_params",
    "check_positivity",
    "compare_kdv",
    "crest_curvature",
    "crest_slope",
    "denominator",
    "diagnostics_table",
    "dimensionalize",
    "exact_params",
    "extreme_profile",
    "first_order_family",
    "fundamental_checks",
    "fundamental_pair",
    "identity_residuals",
    "included_angle",
    "integrate_half",
    "kdv_profile",
    "phase_speed",
    "q_eval",
    "q_positivity",
    "reconstruct_potentials",
    "solve_crest",
    "solve_critical",
    "solve_solitary",
    "verify_kdv_solution",
]
