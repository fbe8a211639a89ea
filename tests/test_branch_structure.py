"""Exact proofs of the branch's structure, in rational arithmetic.

The crest quartic F(t; gamma), the crest denominator and the fold system all
reduce to one integer quartic Q(gamma) (see the crest_init docstring).  Each
identity below is a polynomial in gamma: a resultant is the determinant of a
Sylvester matrix whose entries are polynomials in gamma, so its degree is at
most the sum over rows of the largest degree in the row.  Two polynomials of
degree at most n that agree at n + 1 points are equal, so agreement at that
many rational gamma, in Fractions, proves the identity.  Identities in
(t, gamma) are expanded and compared term by term.  The crest height's
series in delta^2 is the fixed point of a contraction on power series
truncated at a fixed order, and so is its reversion, the speed-amplitude
law.  Only the standard library is used.
"""

from fractions import Fraction

from ikwave import solve_crest
from ikwave.cli import KDV_DELTA2_TERM
from ikwave.crest_init import (GAMMA_BRACKET, crest_denominator,
                               crest_polynomial, fold_quartic, speed_excess)
from ikwave.theory_checks import Poly, _power


def degree(p, axis):
    return max(_power(k, axis) for k in p)


def in_t(p, gamma):
    """Coefficients of t^0, t^1, ... at a rational gamma; no c or v."""
    assert all(len(k) <= 2 for k in p)
    coeffs = [Fraction(0)] * (degree(p, 0) + 1)
    for k, a in p.items():
        coeffs[_power(k, 0)] += a * Fraction(gamma) ** _power(k, 1)
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
    a, b = in_t(f, gamma)[::-1], in_t(g, gamma)[::-1]
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b + [0] * (m - 1 - i) for i in range(m)]
    return determinant(rows)


def sylvester_degree_bound(f, g):
    """Bound on the degree in gamma of Res_t(f, g): deg_t(g) rows hold f's
    coefficients and deg_t(f) rows hold g's."""
    return (degree(g, 0) * degree(f, 1)
            + degree(f, 0) * degree(g, 1))


def assert_resultant_identity(f, g, rhs, bound):
    """Res_t(f, g) == rhs as polynomials in gamma, from bound + 1 points."""
    bound = max(bound, degree(rhs, 1))
    for k in range(bound + 1):
        gamma = Fraction(k, 3) - 2
        assert resultant(f, g, gamma) == in_t(rhs, gamma)[0], gamma


def test_fold_quartic_has_one_positive_root():
    coeffs = [a for _, a in sorted((_power(k, 1), a) for k, a in Q.items())]
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
    assert degree(F, 0) == 4 and in_t(F, 0)[4] == 49
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
        for k, coeff in p.items():
            i, j, a, b = (_power(k, axis) for axis in range(4))
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
    assert {k[2:] for k in reduce(fifteen_H_I2)} == {(), (1, 1)}
    assert reduce(two_H_d0 - fifteen_H_I2) == -N
    assert Ft == F.diff(0) == 2 * M


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
        return sum(a * t ** i for i, a in enumerate(in_t(p, gamma)))

    n_value, m_value = at_crest(N), at_crest(M)
    assert n_value < -1.0 and m_value < -1.0
    assert abs(crest_denominator(crest) + float(n_value) / (2.0 * H)) <= 1e-14


def truncate(p, order):
    """p, a Poly in one variable, without its terms above order."""
    return Poly({k: a for k, a in p.items() if _power(k, 0) <= order})


def crest_series(order):
    """eta0 = gamma + t as a Poly in E = delta^2, to E^order, with
    gamma = (4/9) E (3 + E) and t the smallest root of F.  That root is
    O(E^2), and F_t = -20 + O(E) there, so t -> t + F/20 is a contraction
    by a factor O(E): each step fixes one more power of E, and its
    truncated fixed point is t to E^order."""
    E = Poly({(1,): 1})
    gamma = Fraction(4, 9) * E * (3 + E)

    def F(t):
        return crest_polynomial(t, gamma)[2]

    t = Poly()
    while (step := truncate(t + Fraction(1, 20) * F(t), order)) != t:
        t = step
    assert truncate(F(t), order) == Poly()
    return gamma + t


def speed_series(order):
    """F^2 = c^2 = 1 + gamma as a Poly in eps = eta0, to eps^order, by
    reverting crest_series: eta0 = (4/3) E + h(E) with h = O(E^2), so
    E -> (3/4)(eps - h(E)) is a contraction by a factor O(eps), and its
    truncated fixed point is E to eps^order."""
    eps, eta0 = Poly({(1,): 1}), crest_series(order)
    h = eta0 - Fraction(4, 3) * eps
    E = Poly()
    while (step := truncate(Fraction(3, 4) * (eps - h.subs(0, E)),
                            order)) != E:
        E = step
    assert truncate(eta0.subs(0, E), order) == eps
    return truncate(1 + Fraction(4, 9) * E * (3 + E), order)


def test_crest_height_series():
    # eta0 = (4/3) delta^2 + (8/15) delta^4 + (16/75) delta^6 + ...
    eta0 = crest_series(6)
    assert [eta0.get((k,), 0) for k in range(7)] == [
        0, Fraction(4, 3), Fraction(8, 15), Fraction(16, 75),
        Fraction(16, 45), Fraction(3616, 5625), Fraction(314432, 253125)]
    # for delta <= 0.1 compare-kdv's ratio is (eta0 - (4/3) delta^2)/delta^4
    # at the crest, whose delta^2 term is the delta^6 term of eta0
    assert KDV_DELTA2_TERM == float(eta0[(3,)])


def test_solve_crest_follows_the_series():
    # |eta0 - sum_{k <= 6} a_k delta^2k| <= 2 a_7 delta^14 + 2 eps eta0,
    # in Fractions of the float delta; from delta = 1e-2 down the gap is
    # eta0's rounding (measured: at most 0.62 of the bound, at delta = 0.3)
    series = crest_series(7)
    a7 = series[(7,)]
    assert a7 == Fraction(9502336, 3796875)
    eps = Fraction(2) ** -52
    for delta in (0.3, 0.2, 0.1, 0.05, 3e-2, 1e-2, 3e-3, 1e-3, 1e-4, 1e-6,
                  1e-8):
        E = Fraction(delta) ** 2
        eta0 = Fraction(solve_crest(delta).eta0)
        head = sum(series.get((k,), 0) * E ** k for k in range(1, 7))
        assert abs(eta0 - head) <= 2 * a7 * E ** 7 + 2 * eps * eta0


def test_speed_amplitude_law():
    # F^2 = 1 + eps - (1/20) eps^2 - (3/50) eps^3 - (9/200) eps^4
    # - (261/5000) eps^5 + ..., eps = eta0 = a/h
    law = speed_series(5)
    coeffs = [law.get((k,) if k else (), 0) for k in range(6)]
    # through eps^2 Laitone's second-order law for Euler's solitary wave
    assert coeffs[:3] == [1, 1, Fraction(-1, 20)]
    # the model's own higher terms
    assert coeffs[3:] == [Fraction(-3, 50), Fraction(-9, 200),
                          Fraction(-261, 5000)]


def test_solve_crest_follows_the_speed_law():
    # |c^2 - sum_{k <= 5} b_k eta0^k| <= 2 |b_6| eta0^6 + 2 eps eta0, with
    # c^2 = 1 + (4/9) E (3 + E) exact in Fractions of the float delta; from
    # delta = 1e-3 down the gap is eta0's rounding (measured: at most 0.534
    # of the bound, and at most 0.053 from delta = 1e-3 down)
    law = speed_series(6)
    b = [law.get((k,) if k else (), 0) for k in range(7)]
    assert b[6] == Fraction(-2583, 50000)
    eps = Fraction(2) ** -52
    for delta in (0.2, 0.1, 0.05, 3e-2, 1e-2, 1e-3, 1e-6):
        E = Fraction(delta) ** 2
        c2 = 1 + Fraction(4, 9) * E * (3 + E)
        eta0 = Fraction(solve_crest(delta).eta0)
        head = sum(b[k] * eta0 ** k for k in range(6))
        assert abs(c2 - head) <= 2 * abs(b[6]) * eta0 ** 6 + 2 * eps * eta0
