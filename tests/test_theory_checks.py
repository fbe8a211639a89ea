import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikwave import (exact_params, first_order_family, fundamental_checks,
                    kdv_profile, q_coefficients, q_positivity,
                    verify_kdv_solution)
from ikwave import model_params, theory_checks
from ikwave.errors import NonPositiveDetected
from oracles import float_matrices


GRID = np.linspace(-10.0, 10.0, 2001)


def _exact_value(u, x, t):
    """u = (numerator, k) at x and T = t, exactly."""
    n, k = u
    return n.subs(0, x).subs(1, t).get((), 0) / (1 - t * t) ** k


def test_pair_normalization():
    # u1(0) = 0, u1'(0) = 1, u2(0) = 1 and u2'(0) = 0, exactly
    d = theory_checks._d_dx
    forms = [v for u in theory_checks._exact_pair() for v in (u, d(u))]
    assert [_exact_value(u, 0, 0) for u in forms] == [0, 1, 1, 0]


def test_wronskian_identity():
    assert fundamental_checks()["wronskian_dev"] == 0


def test_fundamental_ode_residuals():
    report = fundamental_checks()
    assert report["ode_residual_u1"] == 0
    assert report["ode_residual_u2"] == 0


def test_tail_exponents():
    report = fundamental_checks()
    assert report["decay_exponent_u1"] == -2
    assert report["growth_exponent_u2"] == 2
    # u1 exp(2x) -> 4 and u2 exp(-2x) -> -1/16 as x -> +inf
    u1, u2 = theory_checks._exact_pair()
    assert theory_checks._tail(u1) == (-2, 4)
    assert theory_checks._tail(u2) == (2, Fraction(-1, 16))


@pytest.mark.parametrize("n", [{}, {(1,): 1}], ids=["zero", "x"])
def test_tail_without_a_rate_is_nan(n):
    # u = 0 has no rate, and u = x no exponential one
    u = (theory_checks.Poly(n), 0)
    assert all(map(math.isnan, theory_checks._tail(u)))


def test_leading_order_profile_equation():
    for gamma in (1.0 / 3.0, 1.0, 2.5, Fraction(1, 3)):
        assert verify_kdv_solution(gamma) == 0


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
def test_verify_kdv_solution_rejects_bad_gamma(gamma):
    with pytest.raises(ValueError):
        verify_kdv_solution(gamma)


# exact determinant values frozen from an independent rational computation
Q_ORACLES = {
    (2,): {0: Fraction(4, 9), 1: Fraction(4, 9), 4: Fraction(4, 9),
           100: Fraction(4, 9)},
    (1, 2): {0: Fraction(1, 9), 1: Fraction(31, 270), 4: Fraction(17, 135),
             100: Fraction(13, 27)},
    (2, 4): {0: Fraction(256, 1575), 1: Fraction(12032, 70875),
             4: Fraction(13568, 70875), 100: Fraction(1792, 2025)},
}


def test_q_against_exact_oracles():
    for p, table in Q_ORACLES.items():
        c = q_coefficients(p)
        for xi2, exact in table.items():
            assert sum(ck * xi2 ** k for k, ck in enumerate(c)) == exact


@pytest.mark.parametrize("p", [(), (0, 2), (2, 2), (3, 1), (2.5,)],
                         ids=repr)
def test_q_rejects_what_check_exponents_rejects(p):
    for q in (q_coefficients, q_positivity):
        with pytest.raises(ValueError):
            q(p)


def test_q_constant_for_single_term():
    assert q_coefficients((2,)) == [Fraction(4, 9)]


def test_q_positivity_minimum():
    # positive coefficients make q(0) the minimum, correctly rounded
    assert q_positivity((2,)) == 4.0 / 9.0
    assert q_positivity((1, 2)) == 1.0 / 9.0
    assert q_positivity((2, 4)) == 256.0 / 1575.0
    # the smallest q of the exponent sets in use, exact to the last digit
    assert q_positivity((1, 2, 3, 4, 5, 6)) == 9.274694205355812e-13


def _float_q(p, s):
    """q(s) as the float determinant of the bordered matrix as the theory
    writes it, with A0 - 1 (x) a0, and its Hadamard scale: the product of
    the row norms, which bounds the determinant's rounding error."""
    N = len(p)
    A1, A0, a0 = float_matrices(p)
    M = np.zeros((N + 1, N + 1))
    M[0, 1:] = M[1:, 0] = 1.0 - a0
    M[1:, 1:] = s * (A0 - np.outer(np.ones(N), a0)) + A1
    return -float(np.linalg.det(M)), float(np.prod(np.linalg.norm(M, axis=1)))


def _check_q_against_determinant(p, c, s):
    """The exact q(s), from its coefficients c, against a float determinant
    of the bordered matrix: a backward-stable determinant of an
    (N+1) x (N+1) matrix is off by a small multiple of N eps times the
    Hadamard scale (at most 0.44 of (N + 1) eps times it over every set of
    EXPONENT_SETS at s in {0, 0.5, 1, 10, 100})."""
    exact = sum(ck * Fraction(s) ** k for k, ck in enumerate(c))
    det, scale = _float_q(p, s)
    eps = np.finfo(float).eps
    assert abs(Fraction(det) - exact) <= 4 * (len(p) + 1) * eps * scale, (p, s)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4,
                unique=True),
       st.floats(min_value=0.0, max_value=100.0))
def test_q_positive_for_random_exponent_sets(p, s):
    p = sorted(p)
    c = q_coefficients(p)
    assert len(c) == len(p)
    _check_q_against_determinant(p, c, s)
    assert q_positivity(p) == float(c[0])


def test_first_order_family_reduces_to_soliton():
    # alpha = 2*gamma with gamma = 1/3 collapses eta to the classical soliton
    gamma = float(exact_params([2])[0])
    c, eta, phi0, phi_vec = first_order_family(0.1, 2.0 * gamma, GRID)
    assert c == pytest.approx(1.0 + 2.0 / 3.0 * 0.01, abs=1e-15)
    np.testing.assert_allclose(eta, kdv_profile(0.1, GRID), atol=1e-16)


def test_first_order_family_shapes_and_limits():
    grid = np.linspace(-40.0, 40.0, 401)
    c, eta, phi0, phi_vec = first_order_family(0.2, 0.5, grid)
    assert len(eta) == len(phi0) == grid.size
    assert [len(row) for row in phi_vec] == [grid.size]
    # odd parts vanish at the origin
    mid = grid.size // 2
    assert phi0[mid] == 0.0
    assert phi_vec[0][mid] == 0.0
    # tanh limits of the leading potential
    gamma = float(exact_params([2])[0])
    limit = 2.0 * np.sqrt(2.0 * 0.5 * gamma) * 0.2 ** 2
    assert phi0[-1] == pytest.approx(-limit, abs=1e-12)
    assert phi0[0] == pytest.approx(limit, abs=1e-12)


@pytest.mark.parametrize("delta, alpha", [
    (-0.1, 0.5), (0.0, 0.5), (float("nan"), 0.5), (float("inf"), 0.5),
    (0.1, 0.0), (0.1, float("nan")), (0.1, float("inf")),
])
def test_first_order_family_rejects_bad_arguments(delta, alpha):
    with pytest.raises(ValueError):
        first_order_family(delta, alpha, GRID)


def test_family_matches_solver_to_fourth_order(profile_cache):
    # executable form of the small-amplitude convergence statement; the
    # constant 1.0 was calibrated once and frozen
    gamma = float(exact_params([2])[0])
    for delta in (0.05, 0.1):
        p = profile_cache(delta)
        _, eta, _, _ = first_order_family(delta, 2.0 * gamma, p.x)
        sup = float(np.max(np.abs(p.eta - eta)))
        assert sup <= 1.0 * delta ** 4


def test_nonpositive_guard_trips(monkeypatch):
    # for N = 1, q = (1 - a0)^2, so a corrupted a0 = 1 collapses q to zero
    monkeypatch.setattr(theory_checks, "_matrices", lambda pv: (
        [[Fraction(4, 3)]], [[Fraction(1, 5)]], [Fraction(1)]))
    assert q_coefficients((2,)) == [0]
    with pytest.raises(NonPositiveDetected):
        q_positivity((2,))


def test_misbuilt_matrices_are_not_eliminated(monkeypatch):
    A1, A0, a0 = model_params._matrices((1, 2))
    A1 = [[-x for x in row] for row in A1]
    monkeypatch.setattr(theory_checks, "_matrices", lambda pv: (A1, A0, a0))
    with pytest.raises(NonPositiveDetected, match="not positive definite"):
        q_coefficients((1, 2))


# every exponent set of one to six exponents drawn from 1..8
EXPONENT_SETS = [p for n in range(1, 7)
                 for p in itertools.combinations(range(1, 9), n)]


def test_q_coefficients_positive_and_q0_is_det_A1_gamma():
    # the module docstring's proof, exactly: all coefficients are > 0 and
    # the minimum q(0) is det(A1) gamma; and q is the bordered determinant
    assert len(EXPONENT_SETS) == 246
    for p in EXPONENT_SETS:
        c = q_coefficients(p)
        assert all(ck > 0 for ck in c)
        U = model_params._eliminate(model_params._matrices(p)[0])
        det_A1 = math.prod(row[k] for k, row in enumerate(U))
        assert c[0] == det_A1 * model_params.exact_params(p)[0]
        for s in (0.0, 0.5, 1.0, 10.0, 100.0):
            _check_q_against_determinant(p, c, s)


@pytest.mark.parametrize("c", [
    (1, -1, 1),                # (s - 1/2)^2 + 3/4, positive yet mis-built
    (1, 0, 1),                 # least at s = 0
    (1, -3, 1),                # roots (3 -+ sqrt 5)/2
    (1, 1, Fraction(-1, 1000)),  # falls for large s
    (0, 1),                    # q(0) = 0
], ids=repr)
def test_nonpositive_coefficient_raises(c, monkeypatch):
    # a coefficient <= 0 only comes from a mis-built matrix set
    monkeypatch.setattr(theory_checks, "q_coefficients",
                        lambda p: [Fraction(ck) for ck in c])
    with pytest.raises(NonPositiveDetected, match="coefficient <= 0"):
        q_positivity((2,))
