"""The extreme profile: the limiting solitary wave with a corner crest.

The critical point it starts from (solve_critical, CriticalPoint) and its
crest geometry (crest_slope, included_angle) are crest values, computed in
crest_init without numpy; see its docstring for the derivation.
solve_critical and crest_slope stay module attributes here too, because
the benchmark harness (perfbench) looks them up here at call time.

The profile lies on the same invariant curve as the subcritical ones and
comes from the same quadrature from the crest (see profile_ode).
"""

from .crest_init import crest_slope, solve_critical  # noqa: F401 (re-exported)
from .profile_ode import integrate_from
from .solitary_profile import assemble_profile


def extreme_profile(cp):
    """Extreme-wave profile with a corner crest at a solved critical point.

    dx/dz vanishes at z = 0, which makes eta fall linearly in x, a corner,
    once the half profile is mirrored.
    """
    return assemble_profile(integrate_from(cp.delta_c, cp.eta_c0),
                            kappa0=None)
