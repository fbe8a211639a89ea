"""Critical shallowness, crest-slope geometry, and the extreme profile.

The extreme solitary wave sits where the smallest root of the crest
polynomial F(t; gamma) of crest_init becomes double, t = eta(0) - gamma and
gamma = c^2 - 1 = (4/3)delta^2(1 + delta^2/3).  The critical point solves

    F = 0,    dF/dt = 0

in (delta, t).  F is an explicit polynomial in t and gamma, so the Newton
iteration uses exact analytic derivatives.  There the crest denominator d(0)
vanishes.

At the critical point the profile equations are 0/0 at the crest; the
one-sided crest slope follows from l'Hopital's rule:

    eta'(0+) = -sqrt( 3v(Hv - c)(8Hv - 3c) / (delta^2 H^2 (3v^3 - 8Hv - 3c)) ),

all quantities at the crest.  The dimensional slope carries the extra factor
delta (from x* = (h/delta) x, eta* = h eta), and the included crest angle is
180 - 2*arctan(dimensional slope) degrees.
"""

import math
from dataclasses import dataclass

import numpy as np

from .crest_init import (crest_on_curve, crest_polynomial, phase_speed,
                         speed_excess)
from .errors import NegativeRadicand, NewtonDiverged
from .profile_ode import integrate_from
from .solitary_profile import assemble_profile

# Newton stops once both residuals are at most NEWTON_TOL; from its fixed
# guess it takes 3 steps
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 30


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


def _residuals(delta, t):
    """(F, dF/dt, P, dP/dt, gamma) at shallowness delta and t = eta(0) - gamma."""
    gamma = speed_excess(delta)
    P, Pt, F, Ft = crest_polynomial(t, gamma)
    return F, Ft, P, Pt, gamma


def _jacobian(delta, t, P, Pt, gamma):
    # F and F_t depend on delta only through gamma
    Pg = 1.0 + 2.0 * gamma + 8.0 * t
    dgamma = (8.0 / 3.0) * delta * phase_speed(delta)
    return np.array([
        [(2.0 * P * Pg - 20.0 * t) * dgamma, 2.0 * P * Pt - 20.0 * (1.0 + gamma)],
        [(2.0 * (Pg * Pt + 8.0 * P) - 20.0) * dgamma, 2.0 * (Pt * Pt + 14.0 * P)],
    ])


def solve_critical():
    """Newton solve for the critical point, from the guess (0.62, 0.1)."""
    delta, t = 0.62, 0.1
    for _ in range(NEWTON_MAX_ITER):
        F, Ft, P, Pt, gamma = _residuals(delta, t)
        if abs(F) <= NEWTON_TOL and abs(Ft) <= NEWTON_TOL:
            break
        J = _jacobian(delta, t, P, Pt, gamma)
        try:
            step = np.linalg.solve(J, [-F, -Ft])
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(
                f"singular Jacobian: {exc}", iterate=(delta, t),
                residuals=(F, Ft),
            )
        delta += float(step[0])
        t += float(step[1])
        if not (0.0 < delta < 2.0 and 0.0 < t < 1.0):
            raise NewtonDiverged(
                "iterate left the admissible region",
                iterate=(delta, t), residuals=(F, Ft),
            )
    else:
        raise NewtonDiverged(
            f"no convergence in {NEWTON_MAX_ITER} iterations",
            iterate=(delta, t), residuals=(F, Ft),
        )
    crest = crest_on_curve(delta, gamma + t)
    c, eta, u = crest.c, crest.eta0, crest.u0
    H, v = 1.0 + eta, c + u
    if v <= 0.0:
        raise NewtonDiverged(
            "converged to a stagnation-point root (c + u(0) <= 0)",
            iterate=(delta, t), residuals=(F, Ft),
        )
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
