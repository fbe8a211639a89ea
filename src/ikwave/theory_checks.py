"""Executable checks of the analytic ingredients behind the solver.

Four independent pieces of theory admit direct verification:

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

  a polynomial of degree N-1 in s = xi^2, which for p = [2] is the constant
  4/9;
* the first-order small-amplitude family (c, eta, phi0, phi_vec) that every
  solitary solution approaches as delta -> 0.

q is proved positive for every xi, not sampled.  Adding multiples of the
border row and column to the others turns A0 - 1 (x) a0 into the symmetric
C = A0 - a0 (x) a0, so q(s) = det(S) b^T S^-1 b with S = A1 + s C and
b = 1 - a0.  model_params' exact elimination of [S | b] yields both: the
pivots D_k multiply to det(S), and with y the eliminated b,
b^T S^-1 b = sum y_k^2 / D_k.  q_coefficients does this in Fractions at
s = 0, ..., N-1 and interpolates.  A1 and C are positive definite, as
exact_params and check_positivity prove, so some V has V^T A1 V = I and
V^T C V = diag(lambda_j), every lambda_j > 0.  With beta = V^T b,

    q(s) = det(A1) sum_i beta_i^2 prod_{j != i} (1 + s lambda_j),

whose s^k coefficient, det(A1) sum_i beta_i^2 e_k(lambda without lambda_i)
with e_k the k-th elementary symmetric polynomial, is > 0 for every
k = 0, ..., N-1 because b != 0.  So the minimum over s >= 0 is
q(0) = det(A1) b^T A1^-1 b = det(A1) gamma, and a coefficient <= 0 can
only come from a mis-built matrix set.

Everything here runs on the standard library.  Each closed form is written
once, for one float, with math, and a grid is any sequence of floats.  All
derivatives are hand-differentiated closed forms; no finite differencing or
symbolic algebra is involved.
"""

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import NonPositiveDetected
from .model_params import (_centered, _eliminate, _matrices, check_exponents,
                           exact_params)


def uniform_grid(start, stop, num):
    """num evenly spaced floats from start to stop, as numpy.linspace
    spaces them: i * step + start, with stop itself last."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def _sech2(x):
    """sech^2 x; 0 where cosh x overflows."""
    try:
        s = 1.0 / math.cosh(x)
    except OverflowError:
        return 0.0
    return s * s


def _u1(x):
    return _sech2(x) * math.tanh(x)


def _u1_prime(x):
    s2 = _sech2(x)
    return s2 * (3.0 * s2 - 2.0)


def _u1_second(x):
    s2 = _sech2(x)
    return -4.0 * s2 * math.tanh(x) * (3.0 * s2 - 1.0)


def _u2(x):
    s2 = _sech2(x)
    t = math.tanh(x)
    return 0.125 * (-6.0 - math.cosh(2.0 * x) + 15.0 * s2 - 15.0 * x * s2 * t)


def _u2_prime(x):
    s2 = _sech2(x)
    t = math.tanh(x)
    return 0.125 * (-2.0 * math.sinh(2.0 * x) - 45.0 * s2 * t
                    - 15.0 * x * s2 * (3.0 * s2 - 2.0))


def _u2_second(x):
    s2 = _sech2(x)
    t = math.tanh(x)
    return 0.125 * (-4.0 * math.cosh(2.0 * x) - 60.0 * s2 * (3.0 * s2 - 2.0)
                    + 60.0 * x * s2 * t * (3.0 * s2 - 1.0))


class FundamentalPair(NamedTuple):
    """Closed-form fundamental system of -u'' + (4 - 12 sech^2 x) u = 0,
    each function of one float."""

    u1: Callable
    u1_prime: Callable
    u1_second: Callable
    u2: Callable
    u2_prime: Callable
    u2_second: Callable


def fundamental_pair():
    return FundamentalPair(_u1, _u1_prime, _u1_second,
                           _u2, _u2_prime, _u2_second)


def _eta0(gamma, x):
    """The leading-order profile 4 gamma sech^2 x."""
    return 4.0 * gamma * _sech2(x)


def verify_kdv_solution(gamma, grid):
    """Max residual of 2 c1 eta0 - (3/2) eta0^2 - gamma eta0'' on the grid.

    c1 = 2 gamma and eta0 = 4 gamma sech^2 x; the residual is identically
    zero, gamma cancelling, so anything above rounding flags a bug.
    """
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")

    def residual(x):
        eta0 = _eta0(gamma, x)
        s2 = _sech2(x)
        # (sech^2)'' = 4 sech^2 - 6 sech^4
        eta0_second = 4.0 * gamma * (4.0 * s2 - 6.0 * s2 * s2)
        return (2.0 * (2.0 * gamma) * eta0 - 1.5 * eta0 * eta0
                - gamma * eta0_second)

    return max(abs(residual(x)) for x in grid)


def _fit_exponent(xs, ys):
    """Least-squares slope of log|y| over x; y must be nonzero there."""
    logs = [math.log(abs(y)) for y in ys]
    mx, ml = sum(xs) / len(xs), sum(logs) / len(logs)
    return (sum((x - mx) * (v - ml) for x, v in zip(xs, logs))
            / sum((x - mx) * (x - mx) for x in xs))


def _ode_residual(u, u_second, x):
    """|-u'' + (4 - 12 sech^2 x) u| at x, relative to max(1, |u|)."""
    v = u(x)
    return abs(-u_second(x) + (4.0 - 12.0 * _sech2(x)) * v) / max(1.0, abs(v))


def fundamental_checks(grid):
    """Residual, Wronskian, and tail-exponent report for the pair.

    The ODE residual is taken per unit gamma (-u'' + (4 - 12 sech^2 x) u)
    and scaled by max(1, |u|): the growing companion reaches cosh(2x) ~ 1e8
    by x = 10, where the rounding floor of any double-precision evaluation
    already exceeds 1e-8 in absolute terms, so solution-relative error is
    the meaningful measure.  Tail exponents are least-squares slopes of
    log|u| on x in [3, 10].
    """
    grid = [float(x) for x in grid]
    pair = fundamental_pair()
    tail = [x for x in grid if 3.0 <= x <= 10.0]
    if len(tail) < 8:
        tail = uniform_grid(3.0, 10.0, 101)
    return {
        "ode_residual_u1": max(_ode_residual(pair.u1, pair.u1_second, x)
                               for x in grid),
        "ode_residual_u2": max(_ode_residual(pair.u2, pair.u2_second, x)
                               for x in grid),
        "wronskian_dev": max(abs(pair.u1_prime(x) * pair.u2(x)
                                 - pair.u1(x) * pair.u2_prime(x) - 1.0)
                             for x in grid),
        "decay_exponent_u1": _fit_exponent(tail, map(pair.u1, tail)),
        "growth_exponent_u2": _fit_exponent(tail, map(pair.u2, tail)),
    }


def _interpolate(values):
    """Coefficients, lowest degree first, of the polynomial through
    (s, values[s]) for s = 0, ..., len(values) - 1."""
    n = len(values)
    # Newton's divided differences on the unit-spaced nodes 0, ..., n - 1
    d = list(values)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            d[i] = (d[i] - d[i - 1]) / k
    # Horner in the Newton basis: c <- c (s - k) + d[k]
    c = [d[-1]]
    for k in range(n - 2, -1, -1):
        c = ([d[k] - k * c[0]]
             + [c[i - 1] - k * c[i] for i in range(1, len(c))] + [c[-1]])
    return c


def q_coefficients(p):
    """Exact Fraction coefficients of q(s), s = xi^2, lowest degree first.

    p is what check_exponents accepts.  Each q(s) at s = 0, ..., N-1 is
    det(S) b^T S^-1 b from one exact elimination of [S | b] (see the module
    docstring).  S is positive definite for s >= 0 when the matrices are
    built right; a pivot <= 0 raises NonPositiveDetected.
    """
    p = check_exponents(p)
    A1, A0, a0 = _matrices(p)
    C = _centered(A0, a0)
    b = [1 - a for a in a0]
    values = []
    for s in range(len(p)):
        U = _eliminate([[x + s * y for x, y in zip(r1, rc)] + [bk]
                        for r1, rc, bk in zip(A1, C, b)])
        if U is None:
            raise NonPositiveDetected(
                f"A1 + {s} (A0 - a0 (x) a0) is not positive definite "
                f"for p={p}")
        pivots = [row[k] for k, row in enumerate(U)]
        values.append(math.prod(pivots)
                      * sum(row[-1] * row[-1] / dk
                            for row, dk in zip(U, pivots)))
    return _interpolate(values)


def q_eval(p, xi2):
    """q at one value of xi^2, exact and then correctly rounded."""
    value = 0
    for ck in reversed(q_coefficients(p)):
        value = value * Fraction(xi2) + ck
    return float(value)


def q_positivity(p):
    """Minimum of q(xi^2) over every real xi, proved positive.

    Every coefficient of q(s) is positive (see the module docstring), so q
    increases on s >= 0 and the minimum is q(0), returned correctly
    rounded.  A coefficient <= 0 is the sign of a mis-built matrix set and
    raises NonPositiveDetected.
    """
    p = check_exponents(p)
    c = q_coefficients(p)
    if not all(ck > 0 for ck in c):
        raise NonPositiveDetected(
            f"q(s) has a coefficient <= 0 for p={p}: "
            f"coefficients {[str(ck) for ck in c]}")
    return float(c[0])


def first_order_family(delta, alpha, grid):
    """Leading-order family (c, eta, phi0, phi_vec) at delta, for p = [2].

        c    = 1 + alpha delta^2,
        eta  = 2 alpha delta^2 sech^2(k x),        k = sqrt(alpha/(2 gamma)),
        phi0 = -2 sqrt(2 alpha gamma) delta^2 tanh(k x),
        phi  = -4 alpha gamma_vec sqrt(alpha/(2 gamma)) delta^4
               tanh(k x) sech^2(k x)   (one row, for the one exponent),

    dropping higher-order corrections.  eta and phi0 are lists over the
    grid, and phi_vec holds one such list per exponent.  At
    alpha = 2 gamma the surface elevation reduces to the classical soliton
    (4/3) delta^2 sech^2 x when gamma = 1/3.
    """
    if not (0.0 < delta < math.inf and 0.0 < alpha < math.inf):
        raise ValueError(f"delta and alpha must be positive and finite, "
                         f"got {delta!r} and {alpha!r}")
    gamma, gamma_vec, *_ = exact_params((2,))
    gamma = float(gamma)
    k = math.sqrt(alpha / (2.0 * gamma))
    s2 = [_sech2(k * x) for x in grid]
    t = [math.tanh(k * x) for x in grid]
    c = 1.0 + alpha * delta * delta
    eta = [2.0 * alpha * delta * delta * v for v in s2]
    phi0 = [-2.0 * math.sqrt(2.0 * alpha * gamma) * delta * delta * v
            for v in t]
    scale = -4.0 * alpha * k * delta ** 4
    phi_vec = [[scale * (float(g) * (tv * sv)) for tv, sv in zip(t, s2)]
               for g in gamma_vec]
    return c, eta, phi0, phi_vec


def family_deviation(delta, grid):
    """max |eta - delta^2 eta0| over grid, for the family's eta at
    alpha = 2 gamma (p = [2]) and the leading-order profile
    eta0 = 4 gamma sech^2 x: delta^2 eta0 is the classical soliton
    (4/3) delta^2 sech^2 x, so the deviation is rounding."""
    grid = [float(x) for x in grid]
    gamma = float(exact_params((2,))[0])
    _, eta, _, _ = first_order_family(delta, 2.0 * gamma, grid)
    return max(abs(e - _eta0(gamma, x) * delta * delta)
               for e, x in zip(eta, grid))
