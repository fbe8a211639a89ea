"""Exact proofs of the reduced system's two identities along its field.

The field and the integrals are those of the profile_ode docstring, as
Polys in (eta, u, phi1, c, r) with r = delta^-2.  Each identity is a
rational function whose denominator is a power of H = 1 + eta times d;
multiplied by that power it is a polynomial, and the identity holds exactly
when that polynomial is the zero Poly.  The same integrals, with u written
through W = w/eta, give the quadratic that curve_w solves.  Only the
standard library is used.
"""

from fractions import Fraction

from ikwave.crest_init import (curve_w, phase_speed, solve_crest,
                               speed_excess)
from ikwave.theory_checks import Poly, _power

ETA, U, PHI1, C, R = (Poly({(0,) * i + (1,): 1}) for i in range(5))
H = 1 + ETA
V = C + U
W = C * ETA + H * U
D = 6 * H * V * V - 3 * V * W - H * H * (1 + 4 * R * H * PHI1 * PHI1)
# the field with its denominators cleared: eta' = N_ETA / d,
# u' = N_U / (H d) and phi1' = (3/2) w / H^3
N_ETA = R * (6 * H * W + 10 * H * H * V) * PHI1
N_U = -R * (18 * W * (2 * H * V - W)
            + 10 * H ** 3 * (1 + 4 * R * H * PHI1 * PHI1)) * PHI1
I1 = C * U + ETA + Fraction(1, 2) * U * U + 2 * R * H * H * PHI1 * PHI1
# H I2, since I2 carries (6/(5H)) w^2
H_I2 = (H * (ETA * ETA - H * U * U + 2 * U * W)
        - Fraction(6, 5) * W * W + Fraction(4, 3) * R * H ** 4 * PHI1 * PHI1)


def h3_d_derivative(f):
    """H^3 d df/dx along the field, for a Poly f in the state."""
    return (H ** 3 * f.diff(0) * N_ETA + H * H * f.diff(1) * N_U
            + Fraction(3, 2) * f.diff(2) * W * D)


def test_first_integral():
    # dI1/dx = 0 identically
    assert h3_d_derivative(I1) == Poly()


def test_second_integral_is_conserved_on_the_first():
    # dI2/dx = 4 phi1 H (5c + 8w) I1 / (delta^2 d): with I2 = H_I2 / H and
    # H' = eta' = N_ETA / d, H^5 d dI2/dx = H (H^3 d (H I2)') - H^3 H_I2 N_ETA
    lhs = H * h3_d_derivative(H_I2) - H ** 3 * H_I2 * N_ETA
    assert lhs == 4 * R * PHI1 * H ** 6 * (5 * C + 8 * W) * I1


# W = w/eta, in u's place once on_curve has eliminated u
W_ETA = U


def on_curve(f):
    """H^2 f with H u = eta (W - c), for a Poly f of degree at most 2 in u;
    W takes u's place as variable 1."""
    assert max(_power(k, 1) for k in f) <= 2
    hu = ETA * (W_ETA - C)
    return sum((H ** (2 - j) * hu ** j
                * Poly({k[:1] + (0,) + k[2:]: a
                        for k, a in f.items() if _power(k, 1) == j})
                for j in range(3)), Poly())


def test_curve_is_the_w_quadratic():
    # with u = eta (W - c)/H, w = eta W and gamma = c^2 - 1,
    # 3 H I2 - 2 H^2 I1 = -eta Q_W: phi1 drops out, so on I1 = I2 = 0 W is
    # a root of Q_W.  Both sides are multiplied by H^2, as on_curve(H I2)
    # is H^3 I2
    gamma = C * C - 1
    q_w = (Fraction(8, 5) * ETA * W_ETA * W_ETA + 2 * C * W_ETA - 2 * gamma
           + ETA * (3 + 2 * gamma - ETA))
    assert 3 * on_curve(H_I2) - 2 * H * H * on_curve(I1) == -ETA * H * H * q_w
    # and curve_w returns that root, between the tail and the crest
    # (measured: at most 1.1e-16 of the terms' sum)
    for delta in (0.01, 0.3, 0.6):
        c, g = phase_speed(delta), speed_excess(delta)
        for eta in (f * solve_crest(delta).eta0 for f in (1e-5, 0.5, 1.0)):
            w_eta = curve_w(eta, c, g)
            terms = (1.6 * eta * w_eta * w_eta, 2.0 * c * w_eta, 2.0 * g,
                     eta * (3.0 + 2.0 * g - eta))
            assert abs(terms[0] + terms[1] - terms[2] + terms[3]) <= (
                4e-16 * sum(map(abs, terms)))
