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

The other facts are proved the same way, in exact arithmetic.  With
T = tanh x and S = sech^2 x = 1 - T^2, every closed form above is a
polynomial in (x, T) over a power S^k: u1 = S T, u2 = U2 / S with

    U2 = (1/8)(-6 S - (1 + T^2) + 15 S^2 - 15 x S^2 T),

since cosh 2x = (1 + T^2)/S, and eta0 = 4 gamma S.  As T' = S and
S' = -2 T S, d/dx maps a numerator over S^k to

    d_x + S d_T + 2 k T

of it, over the same S^k.  Each residual, and the Wronskian minus 1, is
then one numerator over a power of S, and each is the zero Poly.  For
x -> +inf, E = 1 - T ~ 2 exp(-2x) and S^k ~ (2E)^k; if E^m is the lowest
power of E in the numerator and its coefficient c carries no x, then
u ~ c 2^(m - 2k) exp(-2(m - k) x), so the rate 2(k - m) and the limit
c 2^(m - 2k) are read off exactly: -2 and 4 for u1, 2 and -1/16 for u2.

Everything here runs on the standard library.
"""

import math
from fractions import Fraction
from itertools import zip_longest

from .errors import NonPositiveDetected
from .model_params import (_centered, _eliminate, _matrices, check_exponents,
                           exact_params)


def _power(key, i):
    """The exponent of variable i in the monomial key."""
    return key[i] if i < len(key) else 0


class Poly(dict):
    """Polynomial with rational coefficients: a dict from exponent tuples
    to nonzero coefficients, the exponent of variable i at index i.  Keys
    drop trailing zeros, so the constant term is () and tuples of any
    length mix."""

    def __init__(self, terms=()):
        super().__init__()
        for key, a in terms.items() if isinstance(terms, dict) else terms:
            key = tuple(key)
            while key and not key[-1]:
                key = key[:-1]
            a = self.pop(key, 0) + a
            if a:
                self[key] = a

    @staticmethod
    def lift(x):
        return x if isinstance(x, Poly) else Poly({(): x})

    def __add__(self, other):
        return Poly([*self.items(), *Poly.lift(other).items()])

    __radd__ = __add__

    def __neg__(self):
        return Poly({k: -a for k, a in self.items()})

    def __sub__(self, other):
        return self + -Poly.lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        return Poly((tuple(map(sum, zip_longest(k, l, fillvalue=0))), a * b)
                    for k, a in self.items()
                    for l, b in Poly.lift(other).items())

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Poly.lift(1)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, i):
        """The partial derivative in variable i."""
        return Poly((k[:i] + (k[i] - 1,) + k[i + 1:], k[i] * a)
                    for k, a in self.items() if _power(k, i))

    def subs(self, i, value):
        """Variable i replaced by value, a number or a Poly."""
        return sum((Poly({k[:i] + (0,) + k[i + 1:]: a})
                    * Poly.lift(value) ** _power(k, i)
                    for k, a in self.items()), Poly())


def _size(p):
    """The largest |coefficient| of p, as a float: 0 exactly when p = 0."""
    return float(max(map(abs, p.values()), default=0))


def _variables():
    """x, T = tanh x and S = 1 - T^2, as Polys in (x, T)."""
    x, t = Poly({(1,): 1}), Poly({(0, 1): 1})
    return x, t, 1 - t * t


def _exact_pair():
    """u1 and u2 exactly, each as (numerator, k): u = numerator / S^k with
    the numerator a Poly in (x, T), T = tanh x and S = 1 - T^2."""
    x, t, s = _variables()
    return ((s * t, 0),
            (Fraction(1, 8) * (-6 * s - (1 + t * t) + 15 * s * s
                               - 15 * x * s * s * t), 1))


def _d_dx(u):
    """d/dx of u = (numerator, k): d_x + S d_T + 2 k T on the numerator."""
    n, k = u
    _, t, s = _variables()
    return n.diff(0) + s * n.diff(1) + 2 * k * t * n, k


def _tail(u):
    """(r, L) with u exp(-r x) -> L != 0 as x -> +inf, for u = (numerator,
    k); (nan, nan) when no such r exists.  See the module docstring."""
    n, k = u
    n = n.subs(1, 1 - _variables()[1])  # in (x, E), E = 1 - T
    m = min((_power(key, 1) for key in n), default=None)
    lead = {key: a for key, a in n.items() if _power(key, 1) == m}
    if list(lead) != [(0, m) if m else ()]:
        return math.nan, math.nan
    return 2 * (k - m), lead.popitem()[1] * Fraction(2) ** (m - 2 * k)


def _sech2(x):
    """sech^2 x; 0 where cosh x overflows."""
    try:
        s = 1.0 / math.cosh(x)
    except OverflowError:
        return 0.0
    return s * s


def verify_kdv_solution(gamma):
    """Residual of 2 c1 eta0 - (3/2) eta0^2 - gamma eta0'' with c1 = 2 gamma
    and eta0 = 4 gamma sech^2 x, as the largest |coefficient| of it as a
    polynomial in T = tanh x: 0, exactly, for every positive gamma."""
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    gamma = Fraction(gamma)
    eta0 = 4 * gamma * _variables()[2]
    eta0_second = _d_dx(_d_dx((eta0, 0)))[0]
    return _size(4 * gamma * eta0 - Fraction(3, 2) * eta0 ** 2
                 - gamma * eta0_second)


def fundamental_checks():
    """Residual, Wronskian and tail-rate report for the pair, proved exactly.

    Each ODE residual -u'' + (4 - 12 S) u and the Wronskian
    u1' u2 - u1 u2' - 1 is a numerator over a power of S, reported as its
    largest |coefficient|, so 0 means the identity holds.  The rates r with
    u exp(-r x) -> a finite nonzero limit as x -> +inf come from _tail.
    """
    u1, u2 = _exact_pair()
    s = _variables()[2]

    def ode_residual(u):
        return _size(-_d_dx(_d_dx(u))[0] + (4 - 12 * s) * u[0])

    return {
        "ode_residual_u1": ode_residual(u1),
        "ode_residual_u2": ode_residual(u2),
        "wronskian_dev": _size(_d_dx(u1)[0] * u2[0] - u1[0] * _d_dx(u2)[0]
                               - s ** (u1[1] + u2[1])),
        "decay_exponent_u1": _tail(u1)[0],
        "growth_exponent_u2": _tail(u2)[0],
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
    return max(abs(e - 4.0 * gamma * _sech2(x) * delta * delta)
               for e, x in zip(eta, grid))
