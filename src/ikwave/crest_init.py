"""The invariant curve of the two first integrals, and the crest on it.

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
"""

import math
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext

from .errors import NoSolitaryRoot

# largest shallowness with a crest, for error messages
DELTA_C_APPROX = 0.62633493
# Newton from t = 0 settles within 30 steps, even next to the double root
CREST_MAX_ITER = 100


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


@dataclass(frozen=True)
class CrestState:
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
    with localcontext() as ctx:
        ctx.prec = 40
        fine_gamma, t = speed_excess(Decimal(delta)), Decimal(t)
        _, _, F, _ = crest_polynomial(t, fine_gamma)
        eta0 = float(fine_gamma + t - F / Decimal(Ft))
    return crest_on_curve(delta, eta0)
