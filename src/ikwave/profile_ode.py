"""Reduced first-order system for symmetric solitary-wave profiles.

State (eta, u, phi1) with H = 1 + eta, v = c + u, w = c*eta + H*u:

    eta'  =  (6Hw + 10H^2 v) phi1 / (delta^2 d),
    u'    = -(18w(2Hv - w) + 10H^3(1 + 4 delta^-2 H phi1^2)) phi1 / (delta^2 H d),
    phi1' =  (3/(2H^3)) w,

    d = 6Hv^2 - 3vw - H^2 (1 + 4 delta^-2 H phi1^2).

Two identities hold along every solution and act as exact first integrals:

    I1 = cu + eta + u^2/2 + 2 delta^-2 H^2 phi1^2,
    I2 = eta^2 - Hu^2 + 2uw - (6/(5H)) w^2 + (4/3) delta^-2 H^3 phi1^2,

so their residuals monitor integration accuracy for free.  The surface
potentials are recovered from the 2x2 solve

    (phi0', phi1')^T = (1/((2/3)H^3)) (-H^2(c eta + (1/3)Hu), c eta + Hu)^T.

The crest is a regular point for subcritical waves (phi1(0) = 0, d(0) > 0);
integration therefore starts exactly at x = 0.  The trajectory decays toward
the rest state until shooting drift, seeded at roughly sqrt(REL_TOL) of the
initial amplitude, re-amplifies along the unstable manifold; a drift guard
stops the run at the achievable tail floor (see integrate_half).
"""

from dataclasses import dataclass

import numpy as np

from .crest_init import CrestState
from .errors import DenominatorVanished, DepthVanished, StepSizeUnderflow

# norm level below which the drift guard arms, and the regrowth factor that fires it
GUARD_ARM_NORM = 1e-3
GUARD_FACTOR = 10.0


# |d| at or below which the reduced system counts as degenerate
D_MIN = 1e-13
# end of the integration interval; default solves stop by x ~ 10
X_SPAN = 30.0
# RK45 relative and absolute tolerances
REL_TOL = 1e-10
ABS_TOL = 1e-12
# state norm at which the shot counts as having reached the rest state
TAIL_EPS = 1e-9


def _unpack(state):
    """(eta, u, phi1) as Python floats, or as float arrays for array input."""
    eta, u, phi1 = state
    if np.ndim(eta) == 0:
        return float(eta), float(u), float(phi1)
    return (np.asarray(eta, dtype=float), np.asarray(u, dtype=float),
            np.asarray(phi1, dtype=float))


def _terms(eta, u, phi1, c, delta):
    """H, v, w, q = 4 delta^-2 H phi1^2 and the denominator d at a state."""
    H = 1.0 + eta
    v = c + u
    w = c * eta + H * u
    q = 4.0 * H * phi1 * phi1 / (delta * delta)
    return H, v, w, q, 6.0 * H * v * v - 3.0 * v * w - H * H * (1.0 + q)


def _slopes(phi1, delta, H, v, w, q, d):
    """(eta', u', phi1') from phi1 and the _terms of a state."""
    dd = delta * delta
    return (
        (6.0 * H * w + 10.0 * H * H * v) * phi1 / (dd * d),
        -(18.0 * w * (2.0 * H * v - w) + 10.0 * H ** 3 * (1.0 + q)) * phi1 / (dd * H * d),
        1.5 / H ** 3 * w,
    )


def denominator(state, c, delta):
    """Denominator d of the reduced system; vanishes at the extreme crest.

    Scalars or arrays.
    """
    return _terms(*_unpack(state), c, delta)[-1]


def rhs(state, c, delta):
    """Right-hand side (eta', u', phi1') at a state; H must be positive."""
    eta, u, phi1 = _unpack(state)
    terms = _terms(eta, u, phi1, c, delta)
    d = terms[-1]
    if abs(d) <= D_MIN:
        raise DenominatorVanished(
            f"denominator d = {d!r} at eta={eta!r}, u={u!r}, phi1={phi1!r}"
        )
    return _slopes(phi1, delta, *terms)


def identity_residuals(state, c, delta):
    """(I1, I2); both vanish on exact solutions.

    Scalars or arrays.
    """
    eta, u, phi1 = _unpack(state)
    H = 1.0 + eta
    w = c * eta + H * u
    dd = delta * delta
    I1 = c * u + eta + 0.5 * u ** 2 + 2.0 / dd * H ** 2 * phi1 ** 2
    I2 = (eta ** 2 - H * u ** 2 + 2.0 * u * w - 6.0 / (5.0 * H) * w ** 2
          + 4.0 / (3.0 * dd) * (H * H * H) * phi1 ** 2)
    return I1, I2


def reconstruct_potentials(state, c):
    """Surface potential derivatives (phi0', phi1') from the 2x2 linear solve.

    Scalars or arrays.
    """
    eta, u, _ = _unpack(state)
    H = 1.0 + eta
    inv = 1.5 / (H * H * H)
    return inv * (-H * H * (c * eta + H * u / 3.0)), inv * (c * eta + H * u)


def crest_curvature(crest):
    """Curvature kappa(0) = eta''(0) at a subcritical crest, analytically.

    eta' is a smooth prefactor times phi1 and phi1(0) = 0, so eta''(0) is the
    prefactor at the crest times phi1'(0); no finite differencing involved.
    """
    terms = _terms(crest.eta0, crest.u0, 0.0, crest.c, crest.delta)
    d0 = terms[-1]
    if d0 <= D_MIN:
        raise DenominatorVanished(
            f"curvature diverges: crest denominator {d0!r} at delta={crest.delta!r}"
        )
    # apart from that factor phi1 enters the slopes only through q, which the
    # crest terms fix, so a unit phi1 returns the prefactor itself
    prefactor, _, phi1p0 = _slopes(1.0, crest.delta, *terms)
    return prefactor * phi1p0


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call.

    Loading scipy.integrate costs about half a second, so only the commands
    that integrate pay it.  integrate_from looks this name up on every call.
    """
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


@dataclass
class HalfProfile:
    """Accepted-step samples of a half trajectory on [x0, x_end]."""

    delta: float
    c: float
    x: np.ndarray
    eta: np.ndarray
    u: np.ndarray
    phi1: np.ndarray
    stop: str          # "tail", "floor", or "x_max"
    interpolant: object  # OdeSolution over the computed range


def integrate_from(x0, y0, c, delta):
    """Adaptive embedded Runge-Kutta 5(4) shot from (x0, y0) toward the tail.

    Stops at the first of: state norm <= TAIL_EPS ("tail"); drift-guard
    regrowth past GUARD_FACTOR times the running norm minimum, truncated back
    to the minimum sample ("floor"); x reaching X_SPAN ("x_max", a truncated
    wave).  A denominator or depth crossing raises instead.
    """
    def f(x, y):
        # Python floats: the same IEEE results, at a third of the cost of
        # numpy scalar arithmetic
        eta, u, phi1 = y.tolist()
        return _slopes(phi1, delta, *_terms(eta, u, phi1, c, delta))

    def ev_tail(x, y):
        return float(np.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2])) - TAIL_EPS
    ev_tail.terminal = True
    ev_tail.direction = -1

    def ev_denominator(x, y):
        return denominator(y, c, delta) - D_MIN
    ev_denominator.terminal = True
    ev_denominator.direction = -1

    def ev_depth(x, y):
        return 1.0 + y[0]
    ev_depth.terminal = True
    ev_depth.direction = -1

    running = {"min": np.inf}

    def ev_guard(x, y):
        n = float(np.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2]))
        if n < running["min"]:
            running["min"] = n
        if running["min"] > GUARD_ARM_NORM:
            return 1.0
        return GUARD_FACTOR * running["min"] - n
    ev_guard.terminal = True
    ev_guard.direction = -1

    sol = solve_ivp(
        f, (x0, X_SPAN), list(y0), method="RK45",
        rtol=REL_TOL, atol=ABS_TOL,
        events=(ev_tail, ev_denominator, ev_depth, ev_guard),
        dense_output=True,
    )
    if sol.status == -1:
        raise StepSizeUnderflow(sol.message)
    if sol.status == 1:
        if len(sol.t_events[1]):
            raise DenominatorVanished(
                f"d reached {D_MIN!r} at x = {sol.t_events[1][0]!r} "
                f"(delta={delta!r})"
            )
        if len(sol.t_events[2]):
            raise DepthVanished(f"H reached 0 at x = {sol.t_events[2][0]!r}")

    x, y = sol.t, sol.y
    if sol.status == 1 and len(sol.t_events[0]):
        stop = "tail"
    elif sol.status == 1:
        stop = "floor"
        norms = np.sqrt((y ** 2).sum(axis=0))
        cut = int(np.argmin(norms))
        x, y = x[: cut + 1], y[:, : cut + 1]
    else:
        stop = "x_max"

    eta, u, phi1 = y
    return HalfProfile(
        delta=delta, c=c, x=x, eta=eta, u=u, phi1=phi1,
        stop=stop, interpolant=sol.sol,
    )


def integrate_half(crest):
    """Half profile from a subcritical crest; see integrate_from for stops."""
    if not isinstance(crest, CrestState):
        raise TypeError("integrate_half expects a CrestState")
    return integrate_from(0.0, (crest.eta0, crest.u0, 0.0), crest.c,
                          crest.delta)
