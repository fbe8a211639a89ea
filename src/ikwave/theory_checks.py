"""Executable checks of the analytic ingredients behind the solver.

Four independent pieces of theory admit direct numerical verification:

* the leading-order profile equation 2 c1 eta0 - (3/2) eta0^2 - gamma eta0''
  with c1 = 2 gamma, eta0 = 4 gamma sech^2 x, which vanishes identically;
* the closed-form fundamental pair of the linearized profile operator
  -gamma u'' + (4 gamma - 3 eta0) u,

      u1(x) = sech^2 x tanh x,
      u2(x) = (1/8)(-6 - cosh 2x + 15 sech^2 x - 15 x sech^2 x tanh x),

  normalized by u1(0) = 0, u1'(0) = 1, u2(0) = 1, u2'(0) = 0 and satisfying
  u1' u2 - u1 u2' = 1 identically, with u1 decaying and u2 growing like
  exp(2|x|);
* positivity of the bordered determinant

      q(xi^2) = -det( 0,      (1 - a0)^T            )
                    ( 1 - a0, xi^2 (A0 - 1 (x) a0) + A1 ),

  a polynomial of degree N-1 in xi^2, which for p = [2] is the constant 4/9;
* the first-order small-amplitude family (c, eta, phi0, phi_vec) that every
  solitary solution approaches as delta -> 0.

All derivatives here are hand-differentiated closed forms; no finite
differencing or symbolic algebra is involved.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDetected
from .model_params import build_params

# q_positivity samples xi uniformly on [0, Q_XI_MAX]
Q_XI_MAX = 100.0
Q_SAMPLES = 1001


def _sech(x):
    return 1.0 / np.cosh(x)


def _u1(x):
    s = _sech(x)
    return s * s * np.tanh(x)


def _u1_prime(x):
    s2 = _sech(x) ** 2
    return s2 * (3.0 * s2 - 2.0)


def _u1_second(x):
    s2 = _sech(x) ** 2
    return -4.0 * s2 * np.tanh(x) * (3.0 * s2 - 1.0)


def _u2(x):
    s2 = _sech(x) ** 2
    t = np.tanh(x)
    return 0.125 * (-6.0 - np.cosh(2.0 * x) + 15.0 * s2 - 15.0 * x * s2 * t)


def _u2_prime(x):
    s2 = _sech(x) ** 2
    t = np.tanh(x)
    return 0.125 * (-2.0 * np.sinh(2.0 * x) - 45.0 * s2 * t
                    - 15.0 * x * s2 * (3.0 * s2 - 2.0))


def _u2_second(x):
    s2 = _sech(x) ** 2
    t = np.tanh(x)
    return 0.125 * (-4.0 * np.cosh(2.0 * x) - 60.0 * s2 * (3.0 * s2 - 2.0)
                    + 60.0 * x * s2 * t * (3.0 * s2 - 1.0))


@dataclass(frozen=True)
class FundamentalPair:
    """Closed-form fundamental system of -u'' + (4 - 12 sech^2 x) u = 0."""

    u1: callable
    u1_prime: callable
    u1_second: callable
    u2: callable
    u2_prime: callable
    u2_second: callable


def fundamental_pair():
    return FundamentalPair(_u1, _u1_prime, _u1_second,
                           _u2, _u2_prime, _u2_second)


def verify_kdv_solution(gamma, grid):
    """Max residual of 2 c1 eta0 - (3/2) eta0^2 - gamma eta0'' on the grid.

    c1 = 2 gamma and eta0 = 4 gamma sech^2 x; the residual is identically
    zero, gamma cancelling, so anything above rounding flags a bug.
    """
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    grid = np.asarray(grid, dtype=float)
    s2 = _sech(grid) ** 2
    eta0 = 4.0 * gamma * s2
    # (sech^2)'' = 4 sech^2 - 6 sech^4
    eta0_second = 4.0 * gamma * (4.0 * s2 - 6.0 * s2 * s2)
    res = 2.0 * (2.0 * gamma) * eta0 - 1.5 * eta0 ** 2 - gamma * eta0_second
    return float(np.max(np.abs(res)))


def _fit_exponent(x, y):
    # slope of log|y| over x; y must be nonzero on the window
    return float(np.polyfit(x, np.log(np.abs(y)), 1)[0])


def fundamental_checks(grid):
    """Residual, Wronskian, and tail-exponent report for the pair.

    The ODE residual is taken per unit gamma (-u'' + (4 - 12 sech^2 x) u)
    and scaled by max(1, |u|): the growing companion reaches cosh(2x) ~ 1e8
    by x = 10, where the rounding floor of any double-precision evaluation
    already exceeds 1e-8 in absolute terms, so solution-relative error is
    the meaningful measure.  Tail exponents are least-squares slopes of
    log|u| on x in [3, 10].
    """
    grid = np.asarray(grid, dtype=float)
    pair = fundamental_pair()
    pot = 4.0 - 12.0 * _sech(grid) ** 2
    u1v, u2v = pair.u1(grid), pair.u2(grid)
    r1 = np.abs(-pair.u1_second(grid) + pot * u1v) / np.maximum(1.0, np.abs(u1v))
    r2 = np.abs(-pair.u2_second(grid) + pot * u2v) / np.maximum(1.0, np.abs(u2v))
    W = pair.u1_prime(grid) * pair.u2(grid) - pair.u1(grid) * pair.u2_prime(grid)
    tail = grid[(grid >= 3.0) & (grid <= 10.0)]
    if tail.size < 8:
        tail = np.linspace(3.0, 10.0, 101)
    return {
        "ode_residual_u1": float(np.max(r1)),
        "ode_residual_u2": float(np.max(r2)),
        "wronskian_dev": float(np.max(np.abs(W - 1.0))),
        "decay_exponent_u1": _fit_exponent(tail, pair.u1(tail)),
        "growth_exponent_u2": _fit_exponent(tail, pair.u2(tail)),
    }


def _bordered(params, xi2):
    """The bordered matrices of q at each xi^2 of the 1-D array xi2, stacked
    into one (len(xi2), N+1, N+1) array."""
    N = params.p.N
    border = 1.0 - params.a0
    M = np.zeros((len(xi2), N + 1, N + 1))
    M[:, 0, 1:] = border
    M[:, 1:, 0] = border
    M[:, 1:, 1:] = xi2[:, None, None] * (params.A0 - params.a0) + params.A1
    return M


def q_eval(params, xi2):
    """The bordered determinant q at a single value of xi^2."""
    return -float(np.linalg.det(_bordered(params, np.array([xi2]))[0]))


def q_positivity(p):
    """Minimum of q(xi^2) for exponents p, xi uniform on [0, Q_XI_MAX].

    q is a degree N-1 polynomial in xi^2 and provably bounded below by a
    positive constant; a nonpositive sample would mean the matrices are
    built wrong, hence the hard error.  All samples share one determinant
    call on the stacked matrices.
    """
    params = build_params(p)
    xs = np.linspace(0.0, Q_XI_MAX, Q_SAMPLES)
    qs = -np.linalg.det(_bordered(params, xs * xs))
    qmin = float(qs.min())
    if qmin <= 0.0:
        raise NonPositiveDetected(
            f"q({xs[int(qs.argmin())] ** 2!r}) = {qmin!r} <= 0 for p={params.p.p}"
        )
    return qmin


def first_order_family(delta, alpha, grid):
    """Leading-order family (c, eta, phi0, phi_vec) at delta, for p = [2].

        c    = 1 + alpha delta^2,
        eta  = 2 alpha delta^2 sech^2(k x),        k = sqrt(alpha/(2 gamma)),
        phi0 = -2 sqrt(2 alpha gamma) delta^2 tanh(k x),
        phi  = -4 alpha gamma_vec sqrt(alpha/(2 gamma)) delta^4
               tanh(k x) sech^2(k x)   (one row, for the one exponent),

    dropping higher-order corrections.  At alpha = 2 gamma the surface
    elevation reduces to the classical soliton (4/3) delta^2 sech^2 x when
    gamma = 1/3.
    """
    if not (0.0 < delta < math.inf and 0.0 < alpha < math.inf):
        raise ValueError(f"delta and alpha must be positive and finite, "
                         f"got {delta!r} and {alpha!r}")
    params = build_params((2,))
    gamma = params.gamma
    grid = np.asarray(grid, dtype=float)
    k = math.sqrt(alpha / (2.0 * gamma))
    kx = k * grid
    s2 = _sech(kx) ** 2
    t = np.tanh(kx)
    c = 1.0 + alpha * delta * delta
    eta = 2.0 * alpha * delta * delta * s2
    phi0 = -2.0 * math.sqrt(2.0 * alpha * gamma) * delta * delta * t
    phi_vec = (-4.0 * alpha * k * delta ** 4) * np.outer(params.gamma_vec, t * s2)
    return c, eta, phi0, phi_vec
