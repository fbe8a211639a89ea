"""Reference computations the tests compare ikwave against.

They are written from the model equations, independently of the solver's
invariant-curve formulas: the crest quartic in u(0) obtained by eliminating
eta(0) from the two crest identities, its root by a 60-digit decimal Newton,
the crest curvature and the phi1' column in 40-digit decimal
arithmetic, the critical point in 50-digit decimal arithmetic, x(z) along
the whole half profile by a 40-digit composite Gauss-Legendre quadrature of
dx/dz (XOracle), and the model matrices of an exponent set in floats.  Only
the standard library and numpy are needed.
"""

import bisect
import decimal
import functools
import math

import numpy as np

from ikwave.profile_ode import Z_END

# the largest float below the critical shallowness 0.62633493072456297...
DELTA_C = 0.6263349307245629


def float_matrices(p):
    """A1, A0 and a0 of the exponents p as float arrays, from their entries
    p_i p_j / (p_i + p_j - 1), 1 / (p_i + p_j + 1) and 1 / (p_j + 1)."""
    p = np.asarray(p, dtype=float)
    A1 = np.outer(p, p) / np.add.outer(p, p - 1.0)
    A0 = 1.0 / np.add.outer(p, p + 1.0)
    a0 = 1.0 / (p + 1.0)
    return A1, A0, a0


def quartic_coeffs(c):
    """Coefficients of the crest quartic in u(0), descending degree:

    7u^4 + 42c u^3 + 6(16c^2-3)u^2 + 8c(13c^2-8)u + 8(6c^2-1)(c^2-1) = 0,

    from c u + eta + u^2/2 = 0 and the second crest identity.  c is a
    float or a Decimal; the literals are integers, so the coefficients take
    c's type.
    """
    return [
        7,
        42 * c,
        6 * (16 * c * c - 3),
        8 * c * (13 * c * c - 8),
        8 * (6 * c * c - 1) * (c * c - 1),
    ]


def decimal_quartic(c, u):
    """The crest quartic of quartic_coeffs and its u-derivative at u, for
    Decimal c and u."""
    coeffs = quartic_coeffs(c)
    slope = [4 * coeffs[0], 3 * coeffs[1], 2 * coeffs[2], coeffs[3]]
    f = fp = decimal.Decimal(0)
    for a in coeffs:
        f = f * u + a
    for a in slope:
        fp = fp * u + a
    return f, fp


def decimal_crest(delta, digits=50):
    """(c, u(0), eta(0)) at the admissible quartic root, by Newton in
    `digits` + 10 digit decimals.

    The quartic is positive and rising at u = 0 and, on the whole branch,
    convex between 0 and the admissible root, its largest negative one; so
    Newton from u = 0 falls monotonically to that root.  It stops where the
    quartic rounds to f <= 0 or the iterate no longer falls.  A rounding
    error e in f moves the root by about e/f', and f' is small next to the
    double root at delta_c; the 10 guard digits cover that up to the float
    delta_c, where the root keeps `digits` + 1 digits (measured at 40 and 50
    against an 80-digit Newton in t).  At an exactly double root only about
    half of the working digits, sqrt(e), would be left.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        D = decimal.Decimal
        delta = D(delta)
        c = 1 + D(2) / 3 * delta * delta
        u = D(0)
        for _ in range(1000):
            f, fp = decimal_quartic(c, u)
            if f <= 0:
                break
            u_next = u - f / fp
            if u_next >= u:
                break
            u = u_next
        else:
            raise RuntimeError(f"decimal Newton did not settle at delta={delta}")
        return c, u, -(c * u + u * u / 2)


def decimal_crest_eta0(delta, digits=50):
    """eta(0) from the admissible quartic root, in `digits`-digit decimals."""
    return decimal_crest(delta, digits)[2]


def _extra_digits(delta):
    """Digits lost to cancellation at shallowness delta: c - 1 is of order
    delta^2, and w = c eta + Hu, of order delta^2 eta, is a difference of
    terms of order eta, so 4 log10(1/delta) digits in all."""
    return 4 * max(0, math.ceil(-math.log10(delta)))


def decimal_crest_curvature(delta, digits=40):
    """eta''(0) in `digits`-digit decimals, at the crest of decimal_crest.

    eta' = (6Hw + 10H^2 v) phi1/(delta^2 d) and phi1(0) = 0 give
    eta''(0) = (6Hw + 10H^2 v) phi1'(0)/(delta^2 d(0)), with
    phi1'(0) = 1.5 w/H^3, w = c eta + Hu, v = c + u and
    d(0) = 6Hv^2 - 3vw - H^2, all formed as written.
    """
    extra = _extra_digits(delta)
    c, u, eta = decimal_crest(delta, digits + extra)
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10 + extra
        H = 1 + eta
        v = c + u
        w = c * eta + H * u
        d = 6 * H * v * v - 3 * v * w - H * H
        return ((6 * H * w + 10 * H * H * v) * (3 * w / (2 * H ** 3))
                / (decimal.Decimal(delta) ** 2 * d))


def _curve_u(c, eta):
    """u on the curve I1 = I2 = 0 at the Decimal eta, in the current context.

    I1 = 0 gives (4/3) delta^-2 H^3 phi1^2 = -(2/3)H(cu + eta + u^2/2), and
    I2 = 0 then leaves a u^2 + b u + e = 0 with
    a = -(8/15)H, b = -2c(eta/5 + H/3) and e = eta(eta - 6c^2 eta/(5H)
    - 2H/3), all negative.  The profile's root is the one that tends to
    -eta/c as eta -> 0, the root of smaller modulus,
    2e/(sqrt(b^2 - 4ae) - b).
    """
    H = 1 + eta
    a = -8 * H / 15
    b = -2 * c * (eta / 5 + H / 3)
    e = eta * (eta - 6 * c * c * eta / (5 * H) - 2 * H / 3)
    return 2 * e / ((b * b - 4 * a * e).sqrt() - b)


def decimal_phi1_prime(delta, etas, digits=40):
    """phi1' = 1.5 w/H^3 on the curve I1 = I2 = 0 at each float eta of a
    profile at shallowness delta, as Decimals of `digits` digits, with u
    from _curve_u and w = c eta + Hu formed as written.
    """
    extra = _extra_digits(delta)
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10 + extra
        c = 1 + decimal.Decimal(2) / 3 * decimal.Decimal(delta) ** 2
        values = []
        for eta in map(decimal.Decimal, etas):
            H = 1 + eta
            values.append(3 * (c * eta + H * _curve_u(c, eta)) / (2 * H ** 3))
        return values


def decimal_critical_point(digits=50):
    """(delta_c, eta_c0, c_c, u_c0) in `digits`-digit decimals.

    2-D Newton from (gamma, t) = (0.59, 0.1) on F = dF/dt = 0, where
    F = P^2 - 20(1 + gamma)t, P = gamma(1 + gamma) + (3 + 8 gamma)t + 7t^2,
    gamma = c^2 - 1 and t = eta(0) - gamma, with the exact 2x2 Jacobian.
    Then c = sqrt(1 + gamma), delta^2 = 1.5(c - 1), and u(0) is the root of
    cu + eta + u^2/2 = 0 next to 0.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        D = decimal.Decimal
        gamma, t = D("0.59"), D("0.1")
        tol = D(10) ** -(digits + 5)
        for _ in range(100):
            P = gamma * (1 + gamma) + (3 + 8 * gamma) * t + 7 * t * t
            Pt = 3 + 8 * gamma + 14 * t
            Pg = 1 + 2 * gamma + 8 * t
            F = P * P - 20 * (1 + gamma) * t
            Ft = 2 * P * Pt - 20 * (1 + gamma)
            Fg = 2 * P * Pg - 20 * t
            Ftt = 2 * (Pt * Pt + 14 * P)
            Ftg = 2 * (Pg * Pt + 8 * P) - 20
            det = Fg * Ftt - Ft * Ftg
            dgamma = (Ft * Ft - F * Ftt) / det
            dt = (F * Ftg - Ft * Fg) / det
            gamma, t = gamma + dgamma, t + dt
            if max(abs(dgamma), abs(dt)) <= tol:
                break
        else:
            raise RuntimeError("decimal Newton for the critical point did "
                               "not settle")
        c = (1 + gamma).sqrt()
        eta = gamma + t
        u = -c + (c * c - 2 * eta).sqrt()
        return (D(3) / 2 * (c - 1)).sqrt(), eta, c, u


def _legendre_rule(n):
    """Gauss-Legendre nodes and weights of an even n on [-1, 1], in the
    current context.

    Each positive node is Newton's root of P_n from cos(pi(i - 1/4)/(n +
    1/2)), with P_n and P_n-1 from the recurrence
    k P_k = (2k - 1) t P_k-1 - (k - 1) P_k-2 and
    P_n' = n (t P_n - P_n-1)/(t^2 - 1); its weight is 2/((1 - t^2) P_n'^2),
    and -t is a node of the same weight.
    """
    def legendre(t):
        before, p = 1, t
        for k in range(2, n + 1):
            before, p = p, ((2 * k - 1) * t * p - (k - 1) * before) / k
        return p, n * (t * p - before) / (t * t - 1)

    tol = decimal.Decimal(10) ** (4 - decimal.getcontext().prec)
    rule = []
    for i in range(1, n // 2 + 1):
        t = decimal.Decimal(math.cos(math.pi * (i - 0.25) / (n + 0.5)))
        for _ in range(100):
            p, slope = legendre(t)
            t -= p / slope
            if abs(p) <= tol * abs(slope):
                break
        else:
            raise RuntimeError(f"Legendre node {i} of {n} did not settle")
        weight = 2 / ((1 - t * t) * legendre(t)[1] ** 2)
        rule += [(t, weight), (-t, weight)]
    return rule


# the oracle's panels: [0, Z_END 2^-40], geometric ones [Z_END 2^-k-1,
# Z_END 2^-k] up to Z_END 2^-8, then 256 uniform ones up to Z_END; the
# edges are floats, so that the solver can be read at them exactly
ORACLE_EDGES = ([0.0] + [Z_END * 2.0 ** -k for k in range(40, 8, -1)]
                + [Z_END * j / 256 for j in range(1, 257)])
ORACLE_NODES = 14
# digits beyond the crest oracle's that the extreme wave needs: at its corner
# crest m vanishes like z^4, not z^2, so the node nearest 0, at about 2e-14,
# loses some 55 digits to cancellation in m instead of about 28
CORNER_DIGITS = 30


class XOracle:
    """x(z), the integral of dx/dz from 0 to z, along the solitary wave with
    crest (delta, eta0), in `digits`-digit decimals.

    The integrand is written from the model equations, as
    decimal_phi1_prime is, and not from the solver's closed forms:
    eta = eta0 exp(-z^2), u = _curve_u(c, eta), phi1 = -sqrt(-delta^2
    m/(2H^2)) with m = cu + eta + u^2/2 from I1 = 0, d and eta' as the
    profile_ode docstring writes them, and dx/dz = -2 z eta/eta'.  Each
    panel of ORACLE_EDGES gets a `nodes`-node Gauss-Legendre rule; x at
    the edges is their running sum, and x(z) inside a panel adds the rule
    on [edge, z].  eta0 must be the decimal crest, to about `digits`
    digits: a rounded one leaves m(eta0) != 0, and then phi1 is imaginary
    next to z = 0.
    """

    def __init__(self, delta, eta0, digits, nodes=ORACLE_NODES):
        self._ctx = decimal.Context(prec=digits)
        with decimal.localcontext(self._ctx):
            self.eta0 = +eta0
            self._dd = decimal.Decimal(delta) ** 2
            self.c = 1 + decimal.Decimal(2) / 3 * self._dd
            self._rule = _legendre_rule(nodes)
            self._eta_edges = [self.eta(decimal.Decimal(a))
                               for a in ORACLE_EDGES]
            # x at each of ORACLE_EDGES
            self.x = [decimal.Decimal(0)]
            for a, b, eta_a in zip(ORACLE_EDGES, ORACLE_EDGES[1:],
                                   self._eta_edges):
                self.x.append(self.x[-1] + self._integral(
                    decimal.Decimal(a), decimal.Decimal(b), eta_a))

    def eta(self, z):
        """eta0 exp(-z^2) at a Decimal z."""
        with decimal.localcontext(self._ctx):
            return self.eta0 * (-z * z).exp()

    def slope(self, z, eta):
        """dx/dz at z, where eta = eta0 exp(-z^2)."""
        c, dd = self.c, self._dd
        with decimal.localcontext(self._ctx):
            H = 1 + eta
            u = _curve_u(c, eta)
            phi1 = -(-dd * (c * u + eta + u * u / 2) / (2 * H * H)).sqrt()
            v, w = c + u, c * eta + H * u
            d = (6 * H * v * v - 3 * v * w
                 - H * H * (1 + 4 * H * phi1 * phi1 / dd))
            eta_prime = (6 * H * w + 10 * H * H * v) * phi1 / (dd * d)
            return -2 * z * eta / eta_prime

    def _integral(self, a, b, eta_a):
        """The rule for dx/dz on [a, b], with eta_a = eta(a).  eta at a node
        t is eta_a exp((a - t)(a + t)): Decimal's exp is about twice as
        fast at the small exponent."""
        mid, half = (a + b) / 2, (b - a) / 2
        total = 0
        for s, weight in self._rule:
            t = mid + half * s
            total += weight * self.slope(t, eta_a * ((a - t) * (a + t)).exp())
        return half * total

    def __call__(self, z):
        """x at a float or Decimal z in [0, Z_END]."""
        i = min(bisect.bisect_right(ORACLE_EDGES, z), len(self.x) - 1) - 1
        if z == ORACLE_EDGES[i]:
            return self.x[i]
        a = decimal.Decimal(ORACLE_EDGES[i])
        with decimal.localcontext(self._ctx):
            return self.x[i] + self._integral(a, decimal.Decimal(z),
                                              self._eta_edges[i])

    def z_of_x(self, x, z):
        """The Decimal z where x(z) = x, for a float x in [0, x(Z_END)], by
        Newton from the float z until a step is at most 1e-15 Z_END, which
        leaves an error of order 1e-30."""
        if x == 0:
            return decimal.Decimal(0)
        with decimal.localcontext(self._ctx):
            x, z = decimal.Decimal(x), decimal.Decimal(z)
            tol = decimal.Decimal("1e-15") * decimal.Decimal(Z_END)
            for _ in range(50):
                step = (self(z) - x) / self.slope(z, self.eta(z))
                z -= step
                if abs(step) <= tol:
                    return z
        raise RuntimeError(f"Newton for z at x = {x} did not settle")


@functools.cache
def x_oracle(delta, nodes=ORACLE_NODES):
    """The XOracle at shallowness delta, its crest from decimal_crest and
    40 + 10 + _extra_digits(delta) digits; for delta = "extreme", the
    extreme wave's, from decimal_critical_point and CORNER_DIGITS more.
    Cached, since each one costs some 4000 evaluations of dx/dz."""
    if delta == "extreme":
        # delta_c = 0.626...
        digits = 50 + _extra_digits(0.626) + CORNER_DIGITS
        delta, eta0, *_ = decimal_critical_point(digits)
    else:
        digits = 50 + _extra_digits(delta)
        eta0 = decimal_crest(delta, digits - 10)[2]
    return XOracle(delta, eta0, digits, nodes)
