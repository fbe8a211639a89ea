"""Exact proofs of the branch's structure, in rational arithmetic.

The crest quartic F(t; gamma), the crest denominator and the fold system all
reduce to one integer quartic Q(gamma) (see the crest_init docstring).  Each
identity below is a polynomial in gamma: a resultant is the determinant of a
Sylvester matrix whose entries are polynomials in gamma, so its degree is at
most the sum over rows of the largest degree in the row.  Two polynomials of
degree at most n that agree at n + 1 points are equal, so agreement at that
many rational gamma, in Fractions, proves the identity.  Identities in
(t, gamma) are expanded and compared term by term.  Only the standard
library is used.
"""

from fractions import Fraction

from ikwave import solve_crest
from ikwave.crest_init import (GAMMA_BRACKET, crest_denominator,
                               crest_polynomial, fold_quartic, speed_excess)


class Poly(dict):
    """Polynomial in (t, gamma, c, v) with rational coefficients: a dict from
    exponent tuples to nonzero coefficients."""

    @staticmethod
    def lift(x):
        if isinstance(x, Poly):
            return x
        return Poly({(0, 0, 0, 0): x} if x else {})

    def __add__(self, other):
        out = dict(self)
        for k, a in Poly.lift(other).items():
            out[k] = out.get(k, 0) + a
        return Poly({k: a for k, a in out.items() if a})

    __radd__ = __add__

    def __neg__(self):
        return Poly({k: -a for k, a in self.items()})

    def __sub__(self, other):
        return self + -Poly.lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        out = Poly()
        for k, a in self.items():
            for l, b in Poly.lift(other).items():
                out = out + Poly({tuple(map(sum, zip(k, l))): a * b})
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Poly.lift(1)
        for _ in range(n):
            out = out * self
        return out

    def d_dt(self):
        return Poly({(k[0] - 1,) + k[1:]: k[0] * a
                     for k, a in self.items() if k[0]})

    def degree(self, axis):
        return max(k[axis] for k in self)

    def in_t(self, gamma):
        """Coefficients of t^0, t^1, ... at a rational gamma; no c or v."""
        assert all(k[2] == k[3] == 0 for k in self)
        coeffs = [Fraction(0)] * (self.degree(0) + 1)
        for (i, j, _, _), a in self.items():
            coeffs[i] += a * Fraction(gamma) ** j
        return coeffs


T, G, C, V = (Poly({k: 1}) for k in
              ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
P, Pt, F, Ft = crest_polynomial(T, G)
Q = fold_quartic(G)
# the crest denominator is d(0) = -N/(2H), and F_t = 2M
N = (35 * T ** 3 + 81 * G * T ** 2 + 33 * T ** 2 + 57 * G ** 2 * T
     + 48 * G * T + 6 * T + 11 * G ** 3 + 15 * G ** 2 - 6 * G - 10)
M = P * Pt - 10 * (1 + G)


def determinant(rows):
    """Determinant of a square Fraction matrix by Gaussian elimination."""
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for i in range(len(rows)):
        pivot = next((r for r in range(i, len(rows)) if rows[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        det *= rows[i][i]
        for r in range(i + 1, len(rows)):
            factor = rows[r][i] / rows[i][i]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[i])]
    return det


def resultant(f, g, gamma):
    """Res_t(f, g) at a rational gamma: the Sylvester determinant, which is
    lead(f)^deg(g) times the product of g over the roots of f."""
    a, b = f.in_t(gamma)[::-1], g.in_t(gamma)[::-1]
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b + [0] * (m - 1 - i) for i in range(m)]
    return determinant(rows)


def sylvester_degree_bound(f, g):
    """Bound on the degree in gamma of Res_t(f, g): deg_t(g) rows hold f's
    coefficients and deg_t(f) rows hold g's."""
    def coefficient_degree(p):
        return max(k[1] for k in p)

    return (g.degree(0) * coefficient_degree(f)
            + f.degree(0) * coefficient_degree(g))


def assert_resultant_identity(f, g, rhs, bound):
    """Res_t(f, g) == rhs as polynomials in gamma, from bound + 1 points."""
    bound = max(bound, rhs.degree(1))
    for k in range(bound + 1):
        gamma = Fraction(k, 3) - 2
        assert resultant(f, g, gamma) == rhs.in_t(gamma)[0], gamma


def test_fold_quartic_has_one_positive_root():
    coeffs = [Q.get((0, j, 0, 0), 0) for j in range(Q.degree(1) + 1)]
    assert coeffs == [-135, 81, 234, 4, 36]
    signs = [a > 0 for a in coeffs if a]
    assert sum(s != r for s, r in zip(signs, signs[1:])) == 1  # Descartes
    lo, hi = GAMMA_BRACKET
    assert fold_quartic(Fraction(lo)) == -135
    assert fold_quartic(Fraction(hi)) == 220


def test_discriminant_of_the_crest_quartic():
    # a 7x7 Sylvester matrix: degree <= 3*4 + 4*3 = 24, so 25 points.
    # disc_t F = (-1)^(4*3/2) Res_t(F, F_t)/49 for a quartic with lead 49
    bound = sylvester_degree_bound(F, Ft)
    assert bound == 24
    assert F.degree(0) == 4 and F.in_t(0)[4] == 49
    assert_resultant_identity(F, Ft, 49 * 79027200 * (G + 1) ** 4 * Q, bound)


def test_fold_resultant():
    # P - 2t P_t = 0 and F_t = 0 with P = 2t P_t: a 5x5 matrix of degree
    # <= 3*2 + 2*2 = 10, so 11 points
    fold = P - 2 * T * Pt
    tangency = T * Pt ** 2 - 5 * (1 + G)
    bound = sylvester_degree_bound(fold, tangency)
    assert bound == 10
    assert_resultant_identity(fold, tangency, 1764 * (G + 1) ** 2 * Q, bound)


def test_crest_denominator_is_a_polynomial():
    # on the crest phi1 = 0, u = v - c and I1 = 0 is v^2 = c^2 - 2 eta;
    # reduce by it and by c^2 = 1 + gamma, with eta = gamma + t
    def reduce(p):
        out = Poly()
        for (i, j, a, b), coeff in p.items():
            out = out + (coeff * T ** i * G ** j * C ** (a % 2) * V ** (b % 2)
                         * (1 + G) ** (a // 2) * (1 - G - 2 * T) ** (b // 2))
        return out

    eta = G + T
    H, u = 1 + eta, V - C
    w = C * eta + H * u
    assert w == H * V - C
    assert reduce(C * u + eta + Fraction(1, 2) * u * u) == Poly()  # I1
    # I2 times 15H, and 2H times d = 6Hv^2 - 3vw - H^2
    fifteen_H_I2 = (15 * H * eta ** 2 - 15 * H * H * u * u + 30 * H * u * w
                    - 18 * w * w)
    two_H_d0 = 2 * H * (6 * H * V * V - 3 * V * w - H * H)
    # I2 = 0 is linear in cv, and eliminating cv leaves -N
    assert set(k[2:] for k in reduce(fifteen_H_I2)) == {(0, 0), (1, 1)}
    assert reduce(two_H_d0 - fifteen_H_I2) == -N
    assert Ft == F.d_dt() == 2 * M


def test_resultants_fix_the_signs_on_the_branch():
    # N and M are cubics in t: 7x7 matrices of degree <= 3*4 + 4*3 = 24
    for g, rhs in ((N, 254016 * (G + 1) ** 3 * (6 * G + 5) * Q),
                   (M, 242020800 * (G + 1) ** 4 * Q)):
        bound = sylvester_degree_bound(F, g)
        assert bound == 24
        assert_resultant_identity(F, g, rhs, bound)


def test_one_crest_fixes_the_signs():
    # the resultants keep N and M off zero along the smallest root on
    # (0, gamma_c); at delta = 0.3 both are negative, so d(0) > 0 > F_t
    crest = solve_crest(0.3)
    gamma = speed_excess(0.3)
    t, H = Fraction(crest.eta0) - Fraction(gamma), 1.0 + crest.eta0

    def at_crest(p):
        return sum(a * t ** i for i, a in enumerate(p.in_t(gamma)))

    n_value, m_value = at_crest(N), at_crest(M)
    assert n_value < -1.0 and m_value < -1.0
    assert abs(crest_denominator(crest) + float(n_value) / (2.0 * H)) <= 1e-14
