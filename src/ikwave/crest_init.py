"""Everything computed at the crest alone: the crest, its curvature and
denominator, the critical point, and the crest table.

This module uses only the standard library, so the commands that need
nothing beyond the crest (critical, crest, table) never import numpy.  Its
records are NamedTuples, so they do not load dataclasses either, and decimal
is imported only by solve_crest's last step, which critical does not run.

Every solitary wave lies on the curve I1 = I2 = 0 of the reduced system (see
profile_ode).  Eliminating phi1 between the two integrals and writing
w = c*eta + H*u as w = W*eta leaves a quadratic in W,

    (8/5) eta W^2 + 2c W + g = 0,    g = -2 gamma + eta (3 + 2 gamma - eta),

with H = 1 + eta, c = 1 + (2/3)delta^2 and gamma = c^2 - 1.  Its root that
stays bounded as eta -> 0 gives u = eta (W - c)/H as a closed form in eta.
gamma is always formed as (4/3)eps(1 + eps/3) with eps = delta^2, never as
c^2 - 1, whose subtraction loses every digit for small delta.

At the crest phi1 = 0 as well, which closes the curve into a polynomial
condition on the height.  With t = eta(0) - gamma it reads

    F(t) = P^2 - 20(1 + gamma) t = 0,    P = gamma(1 + gamma) + (3 + 8 gamma) t + 7 t^2,

and the crest is its smallest root.  F > 0 for t <= 0 and F is convex for
t >= 0, so Newton from t = 0 rises monotonically to that root; reaching
F' >= 0 while F > 0 means F has no root, which is delta beyond the critical
shallowness, where the smallest root is double.  Next to that value F in
floating point fixes the root only to about 1e-14, so a last Newton step
evaluates F with 40 decimal digits.

The denominator of the reduced system, with v = c + u,

    d = 6Hv^2 - 3vw - H^2 (1 + 4 delta^-2 H phi1^2),

is written once, in _terms, for floats and arrays alike.  eta' is
(6Hw + 10H^2 v) phi1/(delta^2 d) and phi1(0) = 0, so the crest curvature
eta''(0) is that prefactor at the crest times phi1'(0) = 1.5w/H^3.

The extreme wave sits where the smallest root of F becomes double:
F = dF/dt = 0.  Dividing P^2 = 20(1 + gamma)t by P P_t = 10(1 + gamma) gives
P = 2t P_t, a quadratic 21t^2 + (3 + 8 gamma)t - gamma(1 + gamma) = 0 in t
with the positive root

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
import sys
from typing import NamedTuple, Optional

from .errors import (DenominatorVanished, IkwaveError, NegativeRadicand,
                     NoSolitaryRoot)

# largest shallowness with a crest, for error messages
DELTA_C_APPROX = 0.62633493
# Newton from t = 0 settles within 30 steps, even next to the double root
CREST_MAX_ITER = 100
# |d| at or below which the reduced system counts as degenerate
D_MIN = 1e-13
# G(gamma) changes sign once in this bracket of gamma = c^2 - 1
GAMMA_BRACKET = (0.3, 1.0)
# smallest resampling step of solve_solitary; the finest grid in use is
# reproduce-paper's 0.002.  It and check_dx live here so that the CLI
# checks --dx without numpy
DX_MIN = 1e-4


def phase_speed(delta):
    """Nondimensional phase speed c = 1 + (2/3) delta^2."""
    return 1.0 + (2.0 / 3.0) * delta * delta


def speed_excess(delta):
    """gamma = c^2 - 1 = (4/9) delta^2 (3 + delta^2), free of cancellation.

    Floats, or Decimals.
    """
    eps = delta * delta
    return 4 * eps * (3 + eps) / 9


def curve_w(eta, c, gamma, sqrt=math.sqrt):
    """W = w/eta on the curve I1 = I2 = 0; floats, or arrays with np.sqrt."""
    g = -2.0 * gamma + eta * (3.0 + 2.0 * gamma - eta)
    return -2.0 * g / (2.0 * c + sqrt(4.0 * c * c - 6.4 * eta * g))


def crest_polynomial(t, gamma):
    """(P, dP/dt, F, dF/dt) of the crest polynomial at t = eta(0) - gamma.

    Floats, or Decimals.
    """
    P = gamma * (1 + gamma) + (3 + 8 * gamma) * t + 7 * t * t
    Pt = 3 + 8 * gamma + 14 * t
    return P, Pt, P * P - 20 * (1 + gamma) * t, 2 * P * Pt - 20 * (1 + gamma)


class CrestState(NamedTuple):
    """Crest values (eta(0), u(0), phi1(0) = 0) with the phase speed and delta."""

    delta: float
    c: float
    eta0: float
    u0: float


def crest_on_curve(delta, eta0):
    """The crest of height eta0 on the curve of shallowness delta."""
    c = phase_speed(delta)
    u0 = eta0 * (curve_w(eta0, c, speed_excess(delta)) - c) / (1.0 + eta0)
    return CrestState(delta=delta, c=c, eta0=eta0, u0=u0)


def check_delta(delta):
    """delta as a float; ValueError unless 0 < delta < inf and delta^2 is a
    normal float, since a subnormal delta^2 would make the crest height 0."""
    delta = float(delta)
    if not (0.0 < delta < math.inf and sys.float_info.min <= delta * delta):
        raise ValueError(
            f"delta must be positive and finite with delta^2 >= "
            f"{sys.float_info.min!r}, got {delta!r}")
    return delta


def check_dx(dx):
    """dx as a float; ValueError unless DX_MIN <= dx < inf."""
    dx = float(dx)
    if not DX_MIN <= dx < math.inf:
        raise ValueError(f"must be at least {DX_MIN!r} (dx must be positive "
                         f"and finite), got {dx!r}")
    return dx


def check_positive(value, name):
    """value as a float; ValueError, naming it, unless 0 < value < inf."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def solve_crest(delta):
    """Crest initial data for a given shallowness delta.

    Raises ValueError for a delta check_delta rejects and NoSolitaryRoot when
    the crest polynomial has no root (delta beyond the critical value).
    """
    delta = check_delta(delta)
    gamma = speed_excess(delta)
    t = 0.0
    for _ in range(CREST_MAX_ITER):
        _, _, F, Ft = crest_polynomial(t, gamma)
        if F <= 0.0:
            break
        if Ft >= 0.0:
            raise NoSolitaryRoot(
                f"the crest polynomial has no root at delta={delta!r}; "
                f"solitary waves exist only for delta <= {DELTA_C_APPROX}")
        t_next = t - F / Ft
        if t_next <= t:
            break
        t = t_next
    else:
        raise NoSolitaryRoot(
            f"crest Newton did not settle in {CREST_MAX_ITER} steps at "
            f"delta={delta!r}")
    from decimal import Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec = 40
        fine_gamma, t = speed_excess(Decimal(delta)), Decimal(t)
        _, _, F, _ = crest_polynomial(t, fine_gamma)
        eta0 = float(fine_gamma + t - F / Decimal(Ft))
    return crest_on_curve(delta, eta0)


def _terms(eta, u, phi1, c, delta):
    """H, v, w and the denominator d at a state; floats or arrays."""
    H = 1.0 + eta
    v = c + u
    w = c * eta + H * u
    q = 4.0 * H * phi1 * phi1 / (delta * delta)
    return H, v, w, 6.0 * H * v * v - 3.0 * v * w - H * H * (1.0 + q)


def crest_denominator(crest):
    """Denominator d(0) of the reduced system at a crest."""
    return _terms(crest.eta0, crest.u0, 0.0, crest.c, crest.delta)[-1]


def crest_curvature(crest):
    """Curvature kappa(0) = eta''(0) at a subcritical crest, analytically.

    No finite differencing is involved (see the module docstring).  Raises
    DenominatorVanished for a crest with d(0) <= D_MIN, which solve_crest
    never returns.
    """
    delta = crest.delta
    H, v, w, d0 = _terms(crest.eta0, crest.u0, 0.0, crest.c, delta)
    if d0 <= D_MIN:
        raise DenominatorVanished(
            f"curvature diverges: crest denominator {d0!r} at delta={delta!r}"
        )
    prefactor = (6.0 * H * w + 10.0 * H * H * v) / (delta * delta * d0)
    return prefactor * (1.5 / H ** 3 * w)


class CriticalPoint(NamedTuple):
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


class TableRow(NamedTuple):
    delta: float
    eta0: Optional[float]
    neg_kappa0: Optional[float]  # None on an error row
    d0: Optional[float]
    error: Optional[str] = None


def _one_row(delta):
    try:
        crest = solve_crest(delta)
        kappa0 = crest_curvature(crest)
    except IkwaveError as exc:
        return TableRow(delta, None, None, None, error=str(exc))
    return TableRow(delta, crest.eta0, -kappa0, crest_denominator(crest))


def diagnostics_table(deltas):
    """Crest diagnostics (delta, eta(0), -kappa(0), d(0)), one row per delta.

    Rows are returned in input order; a failing delta yields a row carrying
    the error message instead of aborting the sweep.
    """
    return [_one_row(delta) for delta in deltas]
