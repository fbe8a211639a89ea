import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikwave import NonPositiveDetected, check_positivity, exact_params
from ikwave import model_params
from ikwave.model_params import check_exponents
from oracles import float_matrices


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
    # the exact constants, rounded, against a float solve of the same system:
    # a backward-stable solve is off by a small multiple of N eps cond(A1)
    for p in [(2,), (1, 2), (2, 4), (1, 2, 3)]:
        A1, _, a0 = float_matrices(p)
        g = np.linalg.solve(A1, 1.0 - a0)
        tol = 4 * len(p) * np.finfo(float).eps * np.linalg.cond(A1)
        gamma, gamma_vec, k1, k2, k3 = exact_params(p)
        np.testing.assert_allclose(
            [float(gamma), float(k1), float(k2), float(k3)],
            [(1.0 - a0) @ g, a0 @ g, g.sum(), np.asarray(p) @ g],
            rtol=tol, atol=tol)
        np.testing.assert_allclose([float(v) for v in gamma_vec], g,
                                   rtol=tol, atol=tol)
    assert float(exact_params([2])[0]) == 1.0 / 3.0


def test_matrix_entries_single_term():
    A1, A0, a0 = model_params._matrices((2,))
    # p=[2]: A1 = [4/3], A0 = [1/5], a0 = [1/3]
    assert (A1, A0, a0) == ([[Fraction(4, 3)]], [[Fraction(1, 5)]],
                            [Fraction(1, 3)])


def test_positivity_report():
    for p in [(2,), (1, 2), (2, 4), (1, 2, 3)]:
        report = check_positivity(p)
        assert report["min_eig_A1"] > 0.0
        assert report["min_eig_A0_centered"] > 0.0
        assert check_positivity(list(p)) == check_positivity(
            check_exponents(p)) == report


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
    A1, A0, a0 = float_matrices(p)
    report = check_positivity(p)
    eps = np.finfo(float).eps
    for name, A in (("min_eig_A1", A1),
                    ("min_eig_A0_centered", A0 - np.outer(a0, a0))):
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


def test_misbuilt_a0_makes_gamma_zero(monkeypatch):
    # a0 = 1 leaves 1 - a0 = 0, so gamma_vec and gamma are 0
    A1, A0, _ = model_params._matrices((2,))
    monkeypatch.setattr(model_params, "_matrices",
                        lambda pv: (A1, A0, [Fraction(1)]))
    with pytest.raises(NonPositiveDetected) as exc:
        exact_params((2,))
    assert str(exc.value) == "gamma = 0 is not positive for p=(2,)"


def test_exponent_set_validation():
    with pytest.raises(ValueError, match="need at least one exponent"):
        check_exponents(())
    with pytest.raises(ValueError, match=r"must be >= 1 \(p_0 = 0"):
        check_exponents((0, 2))
    with pytest.raises(ValueError, match="strictly increasing"):
        check_exponents((2, 2))
    with pytest.raises(ValueError, match="strictly increasing"):
        check_exponents((3, 1))
    # 2**1024 has 309 digits and overflows float()
    with pytest.raises(ValueError, match="small enough to convert to float"):
        check_exponents((1, 2 ** 1024))
    assert check_exponents((1, 4, 5)) == (1, 4, 5)
    assert check_exponents([1, 4, 5]) == (1, 4, 5)
    p = check_exponents((2.0, 4.0))
    assert p == (2, 4) and all(type(v) is int for v in p)


@pytest.mark.parametrize("p", [(2.7,), (2.5,), (1, 2.5), (float("nan"),),
                               (float("inf"),)], ids=repr)
def test_non_integer_exponents_rejected(p):
    with pytest.raises(ValueError, match="exponents must be integers, got "
                       + re.escape(repr(p))):
        check_exponents(list(p))
    with pytest.raises(ValueError):
        check_positivity(p)
    with pytest.raises(ValueError):
        exact_params(p)


def test_exact_params_validates_exponents():
    for p in [(), (0, 2), (2, 2), (3, 1)]:
        with pytest.raises(ValueError):
            exact_params(p)
    assert exact_params(check_exponents((2,))) == exact_params([2])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5,
                unique=True))
def test_gamma_positive_for_any_exponent_set(p):
    assert exact_params(sorted(p))[0] > 0
    report = check_positivity(sorted(p))
    assert min(report.values()) > 0.0


def test_nonpositive_detected_is_importable():
    assert issubclass(NonPositiveDetected, Exception)
