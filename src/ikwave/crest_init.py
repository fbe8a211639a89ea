"""Everything computed at the crest alone: the crest, its curvature and
denominator, the critical point, and the crest table.

This module uses only the standard library, so the commands that need
nothing beyond the crest (critical, crest, table) never import numpy.  Its
records are NamedTuples, so they do not load dataclasses either, and decimal
is imported only by solve_crest, which critical does not run.

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

a quartic in t with leading coefficient 49.  How many crests there are, and
where the branch ends, is decided by one integer quartic in gamma,

    Q(gamma) = 36 gamma^4 + 4 gamma^3 + 234 gamma^2 + 81 gamma - 135.

Its coefficients change sign once, so by Descartes' rule Q has exactly one
positive root gamma_c = 0.59145869015764591...; Q(0) = -135, Q(1) = 220.
The identities below are exact; tests/test_branch_structure.py proves each
in rational arithmetic.  First,

    disc_t F = 79027200 (gamma + 1)^4 Q(gamma).

F > 0 for t <= 0, so every real root is positive.  For 0 < gamma < gamma_c
the discriminant is negative: F has exactly two real roots, both simple, and
they merge into a double root at gamma_c.  Beyond gamma_c no real root
appears or vanishes, and at gamma = 1 there is none (P >= 2 + 11t for
t >= 0, so F >= 121t^2 + 4t + 4 > 0), so there is none anywhere beyond.

The crest is the smallest root.  F is convex for t >= 0, so Newton from
t = 0 rises monotonically to it; reaching F' >= 0 while F > 0 means F has no
root, which is delta beyond the critical shallowness.  Next to that value the
root is nearly double, and an error e in F moves it by about sqrt(e): F in
floating point fixes it only to about 1e-10 at delta_c.  So the Newton runs
in 40-digit decimal arithmetic, where the same bound is about 1e-20, and
eta0 = gamma + t is rounded to a float once, at the end.

The denominator of the reduced system, with v = c + u,

    d = 6Hv^2 - 3vw - H^2 (1 + 4 delta^-2 H phi1^2),

is written once, in _terms, for floats and arrays alike.  eta' is
(6Hw + 10H^2 v) phi1/(delta^2 d) and phi1(0) = 0, so the crest curvature
eta''(0) is that prefactor at the crest times phi1'(0) = 1.5w/H^3.
crest_curvature takes w0 = eta0 W0 with W0 = curve_w(eta0), since
c eta0 + H u0 cancels to a relative error of about eps/delta^2.  It divides
W0, not w0, by delta^2: W0/delta^2 tends to -2/3, while w0 ~ delta^4
underflows below delta ~ 1e-77.  So kappa0 tends to -(8/3) delta^2 to
rounding for every delta that check_delta accepts.

Why the smallest root: on a crest w = Hv - c, and I1 = 0 reads
v^2 = c^2 - 2 eta = 1 - gamma - 2t.  I2 = 0 is then linear in cv, and
eliminating cv leaves the crest denominator a polynomial,

    d(0) = -N(t, gamma)/(2H),
    N = 35t^3 + (81 gamma + 33)t^2 + (57 gamma^2 + 48 gamma + 6)t
        + 11 gamma^3 + 15 gamma^2 - 6 gamma - 10,

while F_t = 2M with M = P P_t - 10(1 + gamma).  The resultants

    Res_t(F, N) = 254016 (gamma + 1)^3 (6 gamma + 5) Q(gamma),
    Res_t(F, M) = 242020800 (gamma + 1)^4 Q(gamma)

are negative on (0, gamma_c).  Each is 49^3 times the product of N (or M)
over the roots of F, where the complex pair gives |N(z)|^2 > 0.  So along
either real root N and M never vanish, and they have opposite signs at the
two.  One crest fixes the signs: on the whole branch d(0) > 0 > F_t at the
smaller root, while d(0) < 0 at the larger one, whose profile would have to
cross d = 0 on its way to rest, where d = 6c^2 - 1 > 0.  As the roots merge
at gamma_c, d(0) and F_t vanish there together.

The extreme wave sits at gamma_c.  There F = F_t = 0; dividing
P^2 = 20(1 + gamma)t by P P_t = 10(1 + gamma) gives P = 2t P_t, a quadratic
21t^2 + (3 + 8 gamma)t - gamma(1 + gamma) = 0 in t with the one positive root

    t(gamma) = 2 gamma(1 + gamma) / (b + sqrt(b^2 + 84 gamma(1 + gamma))),

b = 3 + 8 gamma, and F_t = 0 becomes t P_t^2 = 5(1 + gamma).  This fold
system has the same Q,

    Res_t(P - 2t P_t, t P_t^2 - 5(1 + gamma)) = 1764 (gamma + 1)^2 Q(gamma),

so solve_critical bisects Q, in Horner form, over GAMMA_BRACKET = (0, 1)
down to adjacent floats and keeps the lower end.  eta(0) = gamma + t(gamma),
and c = sqrt(1 + gamma), delta^2 = 1.5 gamma/(1 + c) give delta_c with no
subtraction.  delta_c is the largest float below the critical value, the
last shallowness solve_crest still solves.  That halving loop, last_float,
is the package's one bisection: model_params runs it for its smallest
eigenvalues too.  It lives here, not there, because model_params imports
fractions, which imports decimal, and critical loads neither.

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

from .errors import DenominatorVanished, IkwaveError, NoSolitaryRoot

# Newton from t = 0 settles within 31 steps at 40 digits, even next to the
# double root
CREST_MAX_ITER = 100
# |d| at or below which the reduced system counts as degenerate
D_MIN = 1e-13
# Q has its one positive root in this bracket of gamma = c^2 - 1
GAMMA_BRACKET = (0.0, 1.0)
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
    from decimal import Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec = 40
        gamma, t = speed_excess(Decimal(delta)), Decimal(0)
        for _ in range(CREST_MAX_ITER):
            _, _, F, Ft = crest_polynomial(t, gamma)
            if F <= 0:
                break
            if Ft >= 0:
                raise NoSolitaryRoot(
                    f"the crest polynomial has no root at delta={delta!r}; "
                    f"solitary waves exist only for delta <= "
                    f"{solve_critical().delta_c!r}")
            t_next = t - F / Ft
            if t_next <= t:
                break
            t = t_next
        else:
            raise NoSolitaryRoot(
                f"crest Newton did not settle in {CREST_MAX_ITER} steps at "
                f"delta={delta!r}")
        return crest_on_curve(delta, float(gamma + t))


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
    delta, eta0, c = crest.delta, crest.eta0, crest.c
    H, v, _, d0 = _terms(eta0, crest.u0, 0.0, c, delta)
    if d0 <= D_MIN:
        raise DenominatorVanished(
            f"curvature diverges: crest denominator {d0!r} at delta={delta!r}"
        )
    W0 = curve_w(eta0, c, speed_excess(delta))
    return ((6.0 * H * (eta0 * W0) + 10.0 * H * H * v) / d0 * (1.5 / H ** 3)
            * eta0 * (W0 / (delta * delta)))


class CriticalPoint(NamedTuple):
    delta_c: float
    eta_c0: float
    u_c0: float
    c_c: float
    v_c0: float
    slope_nondim: float  # one-sided eta'(0+), negative
    slope_dim: float     # delta_c * |slope_nondim|
    theta_deg: float     # included crest angle in dimensional variables


def fold_quartic(gamma):
    """Q(gamma) in Horner form; floats, Fractions or Decimals."""
    return (((36 * gamma + 4) * gamma + 234) * gamma + 81) * gamma - 135


def _double_root(gamma):
    """t(gamma) > 0 with P = 2t P_t; at gamma_c, the double root of F."""
    b = 3.0 + 8.0 * gamma
    return 2.0 * gamma * (1.0 + gamma) / (
        b + math.sqrt(b * b + 84.0 * gamma * (1.0 + gamma)))


def last_float(holds, lo, hi):
    """The last float in [lo, hi) where holds is true, for a predicate that
    holds at lo, fails at hi and changes once in between.

    Bisection keeps holds(lo) true and holds(hi) false, and halves down to
    adjacent floats.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if holds(mid):
            lo = mid
        else:
            hi = mid


def solve_critical():
    """The critical point, by bisection of Q over GAMMA_BRACKET."""
    gamma = last_float(lambda g: fold_quartic(g) < 0.0, *GAMMA_BRACKET)
    delta = math.sqrt(1.5 * gamma / (1.0 + math.sqrt(1.0 + gamma)))
    crest = crest_on_curve(delta, gamma + _double_root(gamma))
    c, eta, u = crest.c, crest.eta0, crest.u0
    H, v = 1.0 + eta, c + u
    num = 3.0 * v * (H * v - c) * (8.0 * H * v - 3.0 * c)
    den = delta * delta * H * H * (3.0 * v ** 3 - 8.0 * H * v - 3.0 * c)
    slope = -math.sqrt(num / den)
    slope_dim = delta * abs(slope)
    return CriticalPoint(
        delta_c=delta, eta_c0=eta, u_c0=u, c_c=c, v_c0=v,
        slope_nondim=slope, slope_dim=slope_dim,
        theta_deg=included_angle(slope_dim),
    )


def crest_slope(cp):
    """(slope_nondim, slope_dim) of a critical point, as solve_critical
    stored them."""
    return cp.slope_nondim, cp.slope_dim


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

    Rows are returned in input order.  A delta whose crest fails with an
    IkwaveError (past delta_c, NoSolitaryRoot) yields a row carrying the
    error message, and the sweep goes on; a delta that check_delta rejects
    raises its ValueError.
    """
    return [_one_row(delta) for delta in deltas]
