from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikwave import ExponentSet, NonPositiveDetected, build_params, check_positivity, exact_params


def test_single_quadratic_term_constants():
    params = build_params([2])
    assert abs(params.gamma - 1.0 / 3.0) <= 1e-15
    assert params.gamma_vec.shape == (1,)
    assert abs(params.gamma_vec[0] - 0.5) <= 1e-15
    assert abs(params.kappa1 - 1.0 / 6.0) <= 1e-15
    assert abs(params.kappa2 - 0.5) <= 1e-15
    assert abs(params.kappa3 - 1.0) <= 1e-15


def test_exact_constants_single_term():
    gamma, gamma_vec, k1, k2, k3 = exact_params([2])
    assert gamma == Fraction(1, 3)
    assert gamma_vec == [Fraction(1, 2)]
    assert (k1, k2, k3) == (Fraction(1, 6), Fraction(1, 2), Fraction(1))


def test_exact_constants_linear_term():
    gamma, gamma_vec, _, _, _ = exact_params([1])
    assert gamma == Fraction(1, 4)
    assert gamma_vec == [Fraction(1, 2)]


def test_exact_constants_two_terms():
    gamma, gamma_vec, k1, k2, k3 = exact_params([1, 2])
    assert gamma == Fraction(1, 3)
    assert gamma_vec == [Fraction(0), Fraction(1, 2)]
    assert k1 == Fraction(1, 6)
    assert k2 == Fraction(1, 2)
    assert k3 == 1


def test_float_path_matches_exact_path():
    for p in [(2,), (1, 2), (2, 4), (1, 2, 3)]:
        params = build_params(p)
        gamma, gamma_vec, k1, k2, k3 = exact_params(p)
        assert abs(params.gamma - float(gamma)) <= 1e-14
        np.testing.assert_allclose(
            params.gamma_vec, [float(g) for g in gamma_vec], atol=1e-14)
        assert abs(params.kappa1 - float(k1)) <= 1e-14
        assert abs(params.kappa2 - float(k2)) <= 1e-14
        assert abs(params.kappa3 - float(k3)) <= 1e-14


def test_matrix_entries_single_term():
    params = build_params([2])
    # p=[2]: A1 = [4/3], A0 = [1/5], a0 = [1/3]
    assert params.A1[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert params.A0[0, 0] == pytest.approx(0.2, abs=1e-15)
    assert params.a0[0] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_positivity_report():
    for p in [(2,), (1, 2), (2, 4), (1, 2, 3)]:
        report = check_positivity(build_params(p))
        assert report["min_eig_A1"] > 0.0
        assert report["min_eig_A0_centered"] > 0.0


def test_exponent_set_validation():
    with pytest.raises(ValueError):
        ExponentSet(())
    with pytest.raises(ValueError):
        ExponentSet((0, 2))
    with pytest.raises(ValueError):
        ExponentSet((2, 2))
    with pytest.raises(ValueError):
        ExponentSet((3, 1))
    assert ExponentSet((1, 4, 5)).N == 3
    assert ExponentSet((2.0, 4.0)).p == (2, 4)


@pytest.mark.parametrize("p", [(2.7,), (2.5,), (1, 2.5), (float("nan"),),
                               (float("inf"),)], ids=repr)
def test_non_integer_exponents_rejected(p):
    with pytest.raises(ValueError):
        ExponentSet(p)
    with pytest.raises(ValueError):
        build_params(p)
    with pytest.raises(ValueError):
        exact_params(p)


def test_exact_params_validates_exponents():
    for p in [(), (0, 2), (2, 2), (3, 1)]:
        with pytest.raises(ValueError):
            exact_params(p)
    assert exact_params(ExponentSet((2,))) == exact_params([2])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5,
                unique=True))
def test_gamma_positive_for_any_exponent_set(p):
    params = build_params(sorted(p))
    assert params.gamma > 0.0
    assert np.allclose(params.A1, params.A1.T)
    check_positivity(params)


def test_nonpositive_detected_is_importable():
    assert issubclass(NonPositiveDetected, Exception)
