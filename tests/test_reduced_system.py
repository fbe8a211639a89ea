"""Exact proofs of the reduced system's two identities along its field.

The field and the integrals are those of the profile_ode docstring, as
Polys in (eta, u, phi1, c, r) with r = delta^-2.  Each identity is a
rational function whose denominator is a power of H = 1 + eta times d;
multiplied by that power it is a polynomial, and the identity holds exactly
when that polynomial is the zero Poly.  Only the standard library is used.
"""

from fractions import Fraction

from ikwave.theory_checks import Poly

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
