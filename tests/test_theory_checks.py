from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikwave import (build_params, first_order_family, fundamental_checks,
                    fundamental_pair, kdv_profile, q_eval, q_positivity,
                    verify_kdv_solution)
from ikwave import theory_checks
from ikwave.errors import NonPositiveDetected


GRID = np.linspace(-10.0, 10.0, 2001)


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
    xs = np.linspace(-3.0, 3.0, 41)
    np.testing.assert_allclose(pair.u1_prime(xs), _central(pair.u1, xs), atol=1e-8)
    np.testing.assert_allclose(pair.u2_prime(xs), _central(pair.u2, xs), atol=1e-8)
    np.testing.assert_allclose(pair.u1_second(xs), _central(pair.u1_prime, xs), atol=1e-8)
    np.testing.assert_allclose(pair.u2_second(xs), _central(pair.u2_prime, xs), atol=1e-8)


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
        params = build_params(p)
        for xi2, exact in table.items():
            assert q_eval(params, float(xi2)) == pytest.approx(
                float(exact), rel=1e-12, abs=1e-14)


def test_q_constant_for_single_term():
    params = build_params([2])
    vals = [q_eval(params, xi * xi) for xi in np.linspace(0.0, 10.0, 101)]
    assert np.max(np.abs(np.array(vals) - 4.0 / 9.0)) <= 1e-14


def test_q_positivity_minimum():
    assert q_positivity((2,)) == pytest.approx(4.0 / 9.0, abs=1e-14)
    assert q_positivity((1, 2)) > 0.0
    assert q_positivity((2, 4)) > 0.0
    assert theory_checks.Q_XI_MAX == 100.0 and theory_checks.Q_SAMPLES == 1001


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4,
                unique=True),
       st.floats(min_value=0.0, max_value=100.0))
def test_q_positive_for_random_exponent_sets(p, xi2):
    params = build_params(sorted(p))
    assert q_eval(params, xi2) > 0.0


def test_first_order_family_reduces_to_soliton():
    # alpha = 2*gamma with gamma = 1/3 collapses eta to the classical soliton
    params = build_params([2])
    c, eta, phi0, phi_vec = first_order_family(0.1, 2.0 * params.gamma, GRID)
    assert c == pytest.approx(1.0 + 2.0 / 3.0 * 0.01, abs=1e-15)
    np.testing.assert_allclose(eta, kdv_profile(0.1, GRID), atol=1e-16)


def test_first_order_family_shapes_and_limits():
    grid = np.linspace(-40.0, 40.0, 401)
    c, eta, phi0, phi_vec = first_order_family(0.2, 0.5, grid)
    assert phi_vec.shape == (1, grid.size)
    # odd parts vanish at the origin
    mid = grid.size // 2
    assert phi0[mid] == 0.0
    assert phi_vec[0, mid] == 0.0
    # tanh limits of the leading potential
    gamma = build_params([2]).gamma
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
    params = build_params([2])
    for delta in (0.05, 0.1):
        p = profile_cache(delta)
        _, eta, _, _ = first_order_family(delta, 2.0 * params.gamma, p.x)
        sup = float(np.max(np.abs(p.eta - eta)))
        assert sup <= 1.0 * delta ** 4


def test_nonpositive_guard_trips(monkeypatch):
    # for N=1 the determinant gives q = (1 - a0)^2, so a corrupted a0 = 1
    # collapses q to zero and must trip the positivity guard
    class Fake:
        pass

    fake = Fake()
    fake.p = build_params([2]).p
    fake.a0 = np.array([1.0])
    fake.A0 = np.array([[0.2]])
    fake.A1 = np.array([[4.0 / 3.0]])
    assert abs(q_eval(fake, 0.0)) <= 1e-300
    monkeypatch.setattr(theory_checks, "build_params", lambda p: fake)
    with pytest.raises(NonPositiveDetected):
        q_positivity((2,))
