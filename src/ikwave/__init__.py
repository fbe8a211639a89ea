"""Solitary-wave solver for a depth-expanded shallow-water wave model.

The library computes exact solitary-wave profiles of the model's traveling
wave equations (single quadratic expansion term), up to and including the
limiting wave of extreme form with its sharp corner crest, and ships
executable checks of the analytic theory behind the solver.

Every name in __all__ is resolved on first access from the submodule that
defines it (PEP 562), so `import ikwave` loads no submodule and code that
uses only the crest layer (crest_init) never imports numpy.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the submodule that defines it
_EXPORTS = {
    "CrestState": "crest_init",
    "CriticalPoint": "crest_init",
    "DenominatorVanished": "errors",
    "DimensionalProfile": "solitary_profile",
    "HalfProfile": "profile_ode",
    "IkwaveError": "errors",
    "NonPositiveDetected": "errors",
    "NoSolitaryRoot": "errors",
    "StepSizeUnderflow": "errors",
    "TableRow": "crest_init",
    "WaveProfile": "solitary_profile",
    "assemble_profile": "solitary_profile",
    "check_positivity": "model_params",
    "compare_kdv": "solitary_profile",
    "crest_curvature": "crest_init",
    "crest_slope": "crest_init",
    "diagnostics_table": "crest_init",
    "dimensionalize": "solitary_profile",
    "exact_params": "model_params",
    "extreme_profile": "extreme_wave",
    "fundamental_checks": "theory_checks",
    "included_angle": "crest_init",
    "integrate_half": "profile_ode",
    "kdv_profile": "solitary_profile",
    "phase_speed": "crest_init",
    "q_coefficients": "theory_checks",
    "q_positivity": "theory_checks",
    "solve_crest": "crest_init",
    "solve_critical": "crest_init",
    "solve_solitary": "solitary_profile",
    "verify_kdv_solution": "theory_checks",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
