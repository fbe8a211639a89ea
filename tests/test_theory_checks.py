import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikwave import (exact_params, first_order_family, fundamental_checks,
                    fundamental_pair, kdv_profile, q_coefficients, q_eval,
                    q_positivity, verify_kdv_solution)
from ikwave import model_params, theory_checks
from ikwave.errors import NonPositiveDetected
from oracles import float_matrices


GRID = np.linspace(-10.0, 10.0, 2001)


def test_uniform_grid_is_numpy_linspace():
    for start, stop, num in ((-10.0, 10.0, 2001), (3.0, 10.0, 101),
                             (0.0, 1.0, 2)):
        assert (theory_checks.uniform_grid(start, stop, num)
                == np.linspace(start, stop, num).tolist())


def test_pair_normalization():
    pair = fundamental_pair()
    assert pair.u1(0.0) == 0.0
    assert pair.u1_prime(0.0) == 1.0
    assert pair.u2(0.0) == 1.0
    assert pair.u2_prime(0.0) == 0.0


def _central(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_hand_derivatives_match_finite_differences():
    pair = fundamental_pair()
    for x in np.linspace(-3.0, 3.0, 41).tolist():
        for f, f_prime in ((pair.u1, pair.u1_prime), (pair.u2, pair.u2_prime),
                           (pair.u1_prime, pair.u1_second),
                           (pair.u2_prime, pair.u2_second)):
            assert f_prime(x) == pytest.approx(_central(f, x), abs=1e-8)


def test_wronskian_identity():
    report = fundamental_checks(GRID)
    assert report["wronskian_dev"] <= 1e-12


def test_fundamental_ode_residuals():
    report = fundamental_checks(GRID)
    assert report["ode_residual_u1"] <= 1e-10
    assert report["ode_residual_u2"] <= 1e-10


def test_tail_exponents():
    report = fundamental_checks(GRID)
    assert report["decay_exponent_u1"] == pytest.approx(-2.0, rel=0.02)
    assert report["growth_exponent_u2"] == pytest.approx(2.0, rel=0.02)


def test_wronskian_pointwise():
    pair = fundamental_pair()
    for x in (0.0, 1.0, 5.0):
        W = pair.u1_prime(x) * pair.u2(x) - pair.u1(x) * pair.u2_prime(x)
        assert W == pytest.approx(1.0, abs=1e-12)


def test_leading_order_profile_equation():
    assert verify_kdv_solution(1.0 / 3.0, GRID) <= 1e-12
    assert verify_kdv_solution(1.0, GRID) <= 1e-12
    assert verify_kdv_solution(2.5, GRID) <= 1e-11  # scale grows with gamma^2


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
def test_verify_kdv_solution_rejects_bad_gamma(gamma):
    with pytest.raises(ValueError):
        verify_kdv_solution(gamma, GRID)


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
            assert q_eval(list(p), float(xi2)) == float(exact)


@pytest.mark.parametrize("p", [(), (0, 2), (2, 2), (3, 1), (2.5,)],
                         ids=repr)
def test_q_rejects_what_check_exponents_rejects(p):
    for q in (q_coefficients, q_positivity, lambda p: q_eval(p, 0.0)):
        with pytest.raises(ValueError):
            q(p)


def test_q_constant_for_single_term():
    assert q_coefficients((2,)) == [Fraction(4, 9)]
    assert q_eval((2,), 0.0) == 4.0 / 9.0


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4,
                unique=True),
       st.floats(min_value=0.0, max_value=100.0))
def test_q_positive_for_random_exponent_sets(p, s):
    p = sorted(p)
    c = q_coefficients(p)
    assert len(c) == len(p)
    assert all(ck > 0 for ck in c)
    # the exact q against a float determinant of the bordered matrix: a
    # backward-stable determinant of an (N+1) x (N+1) matrix is off by a
    # small multiple of N eps times the Hadamard scale (at most 0.95 of
    # (N + 1) eps times it over all 162 sets of up to four exponents <= 8)
    exact = sum(ck * Fraction(s) ** k for k, ck in enumerate(c))
    det, scale = _float_q(p, s)
    eps = np.finfo(float).eps
    assert abs(Fraction(det) - exact) <= 4 * (len(p) + 1) * eps * scale
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
    # the minimum q(0) is det(A1) gamma
    assert len(EXPONENT_SETS) == 246
    for p in EXPONENT_SETS:
        c = q_coefficients(p)
        assert all(ck > 0 for ck in c)
        U = model_params._eliminate(model_params._matrices(p)[0])
        det_A1 = math.prod(row[k] for k, row in enumerate(U))
        assert c[0] == det_A1 * model_params.exact_params(p)[0]


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
