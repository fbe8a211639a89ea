import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikwave import ExponentSet, NonPositiveDetected, build_params, check_positivity, exact_params
from ikwave import model_params


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
    # every float is the exact value correctly rounded
    for p in [(2,), (1, 2), (2, 4), (1, 2, 3)]:
        params = build_params(p)
        gamma, gamma_vec, k1, k2, k3 = exact_params(p)
        assert params.gamma == float(gamma)
        assert params.gamma_vec.tolist() == [float(g) for g in gamma_vec]
        assert params.kappa1 == float(k1)
        assert params.kappa2 == float(k2)
        assert params.kappa3 == float(k3)
    assert build_params([2]).gamma == 1.0 / 3.0


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
        assert check_positivity(p) == check_positivity(ExponentSet(p)) == report


EXPONENT_SETS = [(2,), (1,), (1, 2), (2, 4), (2, 4, 6), (1, 2, 3),
                 (1, 2, 3, 4), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)]


def _exact_matrices(p):
    """A1 and A0 - a0 (x) a0 in Fractions, written out from their entries."""
    A1 = [[Fraction(i * j, i + j - 1) for j in p] for i in p]
    centered = [[Fraction(1, i + j + 1) - Fraction(1, (i + 1) * (j + 1))
                 for j in p] for i in p]
    return {"min_eig_A1": A1, "min_eig_A0_centered": centered}


def _det(M):
    # Laplace expansion along the first row
    if not M:
        return Fraction(1)
    return sum((-1) ** k * M[0][k] * _det([row[:k] + row[k + 1:]
                                           for row in M[1:]])
               for k in range(len(M)))


def _positive_definite(A, lam):
    """Sylvester's criterion: every leading principal minor of A - lam I > 0."""
    S = [[x - Fraction(lam) if i == j else x for j, x in enumerate(row)]
         for i, row in enumerate(A)]
    return all(_det([row[:k] for row in S[:k]]) > 0
               for k in range(1, len(S) + 1))


@pytest.mark.parametrize("p", EXPONENT_SETS, ids=repr)
def test_min_eig_is_the_last_double_below_the_spectrum(p):
    report = check_positivity(p)
    for name, A in _exact_matrices(p).items():
        lam = report[name]
        assert lam > 0.0
        assert _positive_definite(A, lam)
        assert not _positive_definite(A, math.nextafter(lam, math.inf))


@pytest.mark.parametrize("p", EXPONENT_SETS, ids=repr)
def test_min_eig_agrees_with_eigvalsh(p):
    params = build_params(p)
    report = check_positivity(p)
    eps = np.finfo(float).eps
    for name, A in (("min_eig_A1", params.A1),
                    ("min_eig_A0_centered",
                     params.A0 - np.outer(params.a0, params.a0))):
        ev = np.linalg.eigvalsh(A)
        # rounding A and eigvalsh's backward error move each eigenvalue by
        # O(n eps |A|): a relative error of n eps cond(A) at the smallest
        assert abs(report[name] - ev[0]) <= 4 * len(ev) * eps * ev[-1]


@pytest.mark.parametrize("name", ["A1", "A0_centered"])
def test_misbuilt_indefinite_matrix_raises(name, monkeypatch):
    A1, A0, a0 = model_params._matrices((1, 2))
    if name == "A1":
        # the (2, 2) entry as 1/(p_i + p_j + 1): det = 1/5 - 1 < 0
        A1 = [A1[0], [A1[1][0], Fraction(1, 5)]]
    else:
        # a0 = 1/p_j: the (1, 1) entry of A0 - a0 (x) a0 is 1/3 - 1 < 0
        a0 = [Fraction(1, 1), Fraction(1, 2)]
    monkeypatch.setattr(model_params, "_matrices", lambda pv: (A1, A0, a0))
    with pytest.raises(NonPositiveDetected, match=name):
        check_positivity((1, 2))
    if name == "A1":
        # nonsingular, so only the pivot test stops the solve for gamma_vec
        with pytest.raises(NonPositiveDetected, match="A1 is not positive"):
            exact_params((1, 2))


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
