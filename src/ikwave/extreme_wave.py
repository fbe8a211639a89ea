"""Critical shallowness, crest-slope geometry, and the extreme profile.

The extreme solitary wave sits where the crest denominator d(0) vanishes.
Eliminating eta(0) = -(c u(0) + u(0)^2/2) through the first crest identity
leaves two polynomial conditions in (delta, u(0)),

    F1: the admissible-crest quartic
        7u^4 + 42cu^3 + 6(16c^2-3)u^2 + 8c(13c^2-8)u + 8(6c^2-1)(c^2-1) = 0,
    F2: d(0)/H = 0 written as  3Hv^2 + 3cv - H^2 = 0,

with c = 1 + (2/3)delta^2, H = 1 + eta(0), v = c + u(0).  Both are explicit
polynomials, so the Newton iteration uses exact analytic derivatives.

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

from .crest_init import (_crest_denominator, _eta_of_u, _quartic_slope,
                         _quartic_value, phase_speed, quartic_coeffs)
from .errors import NegativeRadicand, NewtonDiverged
from .profile_ode import integrate_from
from .solitary_profile import assemble_profile

# length of the one-sided Taylor step off the corner crest
SEED_STEP = 1e-4
# Newton stops once both residuals are at most NEWTON_TOL; from its fixed
# guess it takes 4 steps
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


def _residuals(delta, u):
    c = phase_speed(delta)
    eta = _eta_of_u(c, u)
    F1 = _quartic_value(quartic_coeffs(c), u)
    F2 = _crest_denominator(c, u)
    return F1, F2, c, eta, 1.0 + eta, c + u


def _jacobian(delta, u, c, H, v):
    c2 = c * c
    dF1_du = _quartic_slope(quartic_coeffs(c), u)
    dF1_dc = (42.0 * u ** 3 + 192.0 * c * u * u
              + 8.0 * (39.0 * c2 - 8.0) * u + 16.0 * c * (12.0 * c2 - 7.0))
    # eta = -(cu + u^2/2) gives dH/du = -v, dH/dc = -u
    dF2_du = -3.0 * v ** 3 + 8.0 * H * v + 3.0 * c
    dF2_dc = 3.0 * (-u * v * v + 2.0 * H * v) + 3.0 * (v + c) + 2.0 * H * u
    dc = 4.0 / 3.0 * delta
    return np.array([[dF1_dc * dc, dF1_du], [dF2_dc * dc, dF2_du]])


def solve_critical():
    """Newton solve for the critical point, from the guess (0.62, -0.78)."""
    delta, u = 0.62, -0.78
    for _ in range(NEWTON_MAX_ITER):
        F1, F2, c, eta, H, v = _residuals(delta, u)
        if abs(F1) <= NEWTON_TOL and abs(F2) <= NEWTON_TOL:
            break
        J = _jacobian(delta, u, c, H, v)
        try:
            step = np.linalg.solve(J, [-F1, -F2])
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(
                f"singular Jacobian: {exc}", iterate=(delta, u),
                residuals=(F1, F2),
            )
        delta += float(step[0])
        u += float(step[1])
        if not (0.0 < delta < 2.0 and -2.0 < u < 1.0):
            raise NewtonDiverged(
                "iterate left the admissible region",
                iterate=(delta, u), residuals=(F1, F2),
            )
    else:
        raise NewtonDiverged(
            f"no convergence in {NEWTON_MAX_ITER} iterations",
            iterate=(delta, u), residuals=(F1, F2),
        )
    F1, F2, c, eta, H, v = _residuals(delta, u)
    if v <= 0.0:
        raise NewtonDiverged(
            "converged to a stagnation-point root (c + u(0) <= 0)",
            iterate=(delta, u), residuals=(F1, F2),
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

    The right side of the profile system is 0/0 at the degenerate crest, so
    the integrator cannot start there.  The first step is a Taylor step of
    length SEED_STEP built from the one-sided derivatives

        eta'(0+) = slope_nondim,
        u'(0+)   = -eta'(0+)/v_c0,
        phi1'(0) = (3/(2H^3))(Hv - c),

    accurate to O(SEED_STEP^2), after which adaptive integration takes over.
    The crest sample itself is prepended before mirroring, producing the
    corner at x = 0.
    """
    H = 1.0 + cp.eta_c0
    w0 = H * cp.v_c0 - cp.c_c
    eta_p = cp.slope_nondim
    u_p = -eta_p / cp.v_c0
    phi1_p = 1.5 / H ** 3 * w0
    h = SEED_STEP
    y_h = (cp.eta_c0 + h * eta_p, cp.u_c0 + h * u_p, h * phi1_p)
    half = integrate_from(h, y_h, cp.c_c, cp.delta_c)
    x = np.concatenate([[0.0], half.x])
    eta = np.concatenate([[cp.eta_c0], half.eta])
    u = np.concatenate([[cp.u_c0], half.u])
    phi1 = np.concatenate([[0.0], half.phi1])
    return assemble_profile(
        cp.delta_c, cp.c_c, x, eta, u, phi1,
        kappa0=None, stop=half.stop,
        interpolant=half.interpolant,
    )
