"""Reference computations the tests compare ikwave against.

They are written from the model equations, independently of the solver's
invariant-curve formulas: the crest quartic in u(0) obtained by eliminating
eta(0) from the two crest identities, its root in 50-digit decimal
arithmetic, the critical point in 50-digit decimal arithmetic, a tail-in
DOP853 shot of the full three-state system, and the model matrices of an
exponent set in floats.
"""

import decimal
import math

import numpy as np
from scipy.integrate import solve_ivp


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

    from c u + eta + u^2/2 = 0 and the second crest identity.
    """
    return [
        7.0,
        42.0 * c,
        6.0 * (16.0 * c * c - 3.0),
        8.0 * c * (13.0 * c * c - 8.0),
        8.0 * (6.0 * c * c - 1.0) * (c * c - 1.0),
    ]


def decimal_quartic(c, u):
    """The crest quartic of quartic_coeffs and its u-derivative at u, for
    Decimal c and u."""
    coeffs = [7, 42 * c, 6 * (16 * c * c - 3), 8 * c * (13 * c * c - 8),
              8 * (6 * c * c - 1) * (c * c - 1)]
    slope = [4 * coeffs[0], 3 * coeffs[1], 2 * coeffs[2], coeffs[3]]
    f = fp = decimal.Decimal(0)
    for a in coeffs:
        f = f * u + a
    for a in slope:
        fp = fp * u + a
    return f, fp


def decimal_crest_eta0(delta, digits=50):
    """eta(0) from the admissible quartic root, in `digits`-digit decimals.

    The quartic is positive and rising at u = 0 and, on the whole branch,
    convex between 0 and the admissible root, its largest negative one; so
    Newton from u = 0 falls monotonically to that root.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        D = decimal.Decimal
        delta = D(delta)
        c = 1 + D(2) / 3 * delta * delta
        tol = D(10) ** -(digits + 5)
        u = D(0)
        for _ in range(1000):
            f, fp = decimal_quartic(c, u)
            step = f / fp
            u -= step
            if abs(step) <= tol * max(abs(u), tol):
                break
        else:
            raise RuntimeError(f"decimal Newton did not settle at delta={delta}")
        return -(c * u + u * u / 2)


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


class TailReference:
    """eta_ref(x) on [0, x_end] for one subcritical delta, crest at x = 0.

    Shoots inward from the rest state toward the crest: start at 1e-12 along
    the eigenvector whose mode decays like exp(-lambda x) on x > 0, integrate
    the reversed three-state system with DOP853 and stop at phi1 = 0.  Errors
    across the connection decay on this path.
    """

    def __init__(self, delta):
        c = 1.0 + (2.0 / 3.0) * delta * delta
        dd = delta * delta

        def reversed_rhs(s, y):
            eta, u, phi1 = y
            H = 1.0 + eta
            v = c + u
            w = c * eta + H * u
            q = 4.0 * H * phi1 * phi1 / dd
            d = 6.0 * H * v * v - 3.0 * v * w - H * H * (1.0 + q)
            return (-(6.0 * H * w + 10.0 * H * H * v) * phi1 / (dd * d),
                    (18.0 * w * (2.0 * H * v - w) + 10.0 * H ** 3 * (1.0 + q))
                    * phi1 / (dd * H * d),
                    -1.5 / H ** 3 * w)

        # linearised at rest: eta' = a phi1, u' = b phi1, phi1' = 1.5(c eta + u)
        a = 10.0 * c / (dd * (6.0 * c * c - 1.0))
        b = -10.0 / (dd * (6.0 * c * c - 1.0))
        lam = math.sqrt(1.5 * (c * a + b))
        mode = np.array([a / lam, b / lam, -1.0])

        def crest(s, y):
            return y[2]
        crest.terminal = True
        crest.direction = 1

        sol = solve_ivp(reversed_rhs, (0.0, 200.0),
                        1e-12 * mode / np.linalg.norm(mode), method="DOP853",
                        rtol=1e-12, atol=1e-30, events=crest,
                        dense_output=True)
        if sol.status != 1:
            raise RuntimeError(f"tail-in reference missed the crest at "
                               f"delta={delta!r}: {sol.message}")
        self.x_end = float(sol.t_events[0][0])
        self._sol = sol.sol

    def eta(self, x):
        return self._sol(self.x_end - np.asarray(x, dtype=float))[0]
