"""Critical shallowness, crest-slope geometry, and the extreme profile.

The extreme solitary wave sits where the smallest root of the crest
polynomial F(t; gamma) of crest_init becomes double, t = eta(0) - gamma and
gamma = c^2 - 1 = (4/3)delta^2(1 + delta^2/3): F = dF/dt = 0.  Dividing
P^2 = 20(1 + gamma)t by P P_t = 10(1 + gamma) gives P = 2t P_t, a quadratic
21t^2 + (3 + 8 gamma)t - gamma(1 + gamma) = 0 in t with the positive root

    t(gamma) = 2 gamma(1 + gamma) / (b + sqrt(b^2 + 84 gamma(1 + gamma))),

b = 3 + 8 gamma.  dF/dt = 0 then reads

    G(gamma) = t P_t^2 - 5(1 + gamma) = 0,

one scalar equation with G(0.3) < 0 < G(1) and G increasing in between.
Bisection down to adjacent floats keeps the lower end; eta(0) = gamma + t,
and c = sqrt(1 + gamma), delta^2 = 1.5 gamma/(1 + c) give delta_c with no
subtraction.  delta_c is the largest float below the critical value, the
last shallowness solve_crest still solves.  There the crest denominator
d(0) vanishes.

At the critical point the profile equations are 0/0 at the crest; the
one-sided crest slope follows from l'Hopital's rule:

    eta'(0+) = -sqrt( 3v(Hv - c)(8Hv - 3c) / (delta^2 H^2 (3v^3 - 8Hv - 3c)) ),

all quantities at the crest.  The dimensional slope carries the extra factor
delta (from x* = (h/delta) x, eta* = h eta), and the included crest angle is
180 - 2*arctan(dimensional slope) degrees.
"""

import math
from dataclasses import dataclass

from .crest_init import crest_on_curve
from .errors import NegativeRadicand
from .profile_ode import integrate_from
from .solitary_profile import assemble_profile

# G(gamma) changes sign once in this bracket of gamma = c^2 - 1
GAMMA_BRACKET = (0.3, 1.0)


@dataclass(frozen=True)
class CriticalPoint:
    delta_c: float
    eta_c0: float
    u_c0: float
    c_c: float
    v_c0: float
    slope_nondim: float  # one-sided eta'(0+), negative
    slope_dim: float     # delta_c * |slope_nondim|
    theta_deg: float     # included crest angle in dimensional variables


def _double_root(gamma):
    """t(gamma) with P = 2t P_t, and G(gamma) = t P_t^2 - 5(1 + gamma)."""
    b = 3.0 + 8.0 * gamma
    t = 2.0 * gamma * (1.0 + gamma) / (
        b + math.sqrt(b * b + 84.0 * gamma * (1.0 + gamma)))
    Pt = b + 14.0 * t
    return t, t * Pt * Pt - 5.0 * (1.0 + gamma)


def solve_critical():
    """The critical point, by bisection of G over GAMMA_BRACKET."""
    lo, hi = GAMMA_BRACKET
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _double_root(mid)[1] < 0.0:
            lo = mid
        else:
            hi = mid
    t = _double_root(lo)[0]
    delta = math.sqrt(1.5 * lo / (1.0 + math.sqrt(1.0 + lo)))
    crest = crest_on_curve(delta, lo + t)
    c, eta, u = crest.c, crest.eta0, crest.u0
    H, v = 1.0 + eta, c + u
    slope = _one_sided_slope(delta, c, H, v)
    slope_dim = delta * abs(slope)
    return CriticalPoint(
        delta_c=delta, eta_c0=eta, u_c0=u, c_c=c, v_c0=v,
        slope_nondim=slope, slope_dim=slope_dim,
        theta_deg=included_angle(slope_dim),
    )


def _one_sided_slope(delta, c, H, v):
    num = 3.0 * v * (H * v - c) * (8.0 * H * v - 3.0 * c)
    den = delta * delta * H * H * (3.0 * v ** 3 - 8.0 * H * v - 3.0 * c)
    radicand = num / den
    if radicand < 0.0:
        raise NegativeRadicand(
            f"slope radicand {radicand!r} < 0 at delta={delta!r}"
        )
    return -math.sqrt(radicand)


def crest_slope(cp):
    """(slope_nondim, slope_dim) at a solved critical point."""
    H = 1.0 + cp.eta_c0
    slope = _one_sided_slope(cp.delta_c, cp.c_c, H, cp.v_c0)
    return slope, cp.delta_c * abs(slope)


def included_angle(slope_dim):
    """Included crest angle 180 - 2*arctan(slope) in degrees."""
    if not 0.0 <= slope_dim < math.inf:
        raise ValueError(
            f"slope_dim must be nonnegative and finite, got {slope_dim!r}")
    return 180.0 - 2.0 * math.degrees(math.atan(slope_dim))


def extreme_profile(cp):
    """Extreme-wave profile with a corner crest at a solved critical point.

    The profile lies on the same invariant curve as the subcritical ones and
    comes from the same quadrature from the crest (see profile_ode): dx/dz
    vanishes at z = 0, which makes eta fall linearly in x, a corner, once
    the half profile is mirrored.
    """
    half = integrate_from(cp.delta_c, cp.eta_c0)
    return assemble_profile(
        cp.delta_c, cp.c_c, half.x, half.eta, half.u, half.phi1,
        kappa0=None, interpolant=half.interpolant,
    )
