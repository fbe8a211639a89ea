"""Exponent-dependent matrices and scalar constants of the depth-expansion model.

For an exponent set 0 = p_0 < p_1 < ... < p_N the model is governed by

    A1 = ( p_i p_j / (p_i + p_j - 1) )_{1<=i,j<=N},
    ( 1      a0^T )
    ( a0     A0   )  = ( 1 / (p_i + p_j + 1) )_{0<=i,j<=N},

so a0_j = 1/(p_j+1) and A0_ij = 1/(p_i+p_j+1).  The derived constants are

    gamma_vec = A1^{-1} (1 - a0),          gamma  = (1 - a0) . gamma_vec,
    kappa1 = a0 . gamma_vec,   kappa2 = 1 . gamma_vec,   kappa3 = sum p_j gamma_j.

For p = [2] these give gamma = 1/3, the value used by the solitary-wave solver.
Every entry is a small rational, so each constant is built once, exactly, in
fractions.Fraction arithmetic (exact_params); float(Fraction) rounds one
correctly.  Everything here runs on the standard library.

A1 and A0 - a0 (x) a0 are positive definite.  One exact elimination
without row exchanges does all the linear algebra: its pivots are those of
the LDL^T factorisation, so by Sylvester's law of inertia A - lambda I is
positive definite exactly when every pivot is > 0.  Run on [A1 | 1 - a0]
it proves A1 positive definite and leaves gamma_vec to back-substitution.
check_positivity runs it on both matrices and reports, for each, the
largest double below its smallest eigenvalue, found by crest_init's one
bisection, last_float, on the predicate "the elimination of A - lambda I
has no pivot <= 0".
"""

from fractions import Fraction

from .crest_init import last_float
from .errors import NonPositiveDetected


def check_exponents(p):
    """p as a tuple of ints; ValueError unless it is a strictly increasing
    sequence of integers p_1 < ... < p_N, N >= 1, all >= 1, each of which
    converts to float."""
    p = tuple(p)
    try:
        integral = all(float(v).is_integer() for v in p)
    except OverflowError:
        raise ValueError("exponents must be small enough to convert to "
                         "float") from None
    if not integral:
        raise ValueError(f"exponents must be integers, got {p!r}")
    p = tuple(int(v) for v in p)
    if not p:
        raise ValueError("need at least one exponent")
    if any(v < 1 for v in p):
        raise ValueError("exponents must be >= 1 (p_0 = 0 is implicit)")
    if any(b <= a for a, b in zip(p, p[1:])):
        raise ValueError("exponents must be strictly increasing")
    return p


def _matrices(pv):
    """Exact A1, A0 and a0 of the exponents pv, as lists of Fractions."""
    A1 = [[Fraction(pi * pj, pi + pj - 1) for pj in pv] for pi in pv]
    A0 = [[Fraction(1, pi + pj + 1) for pj in pv] for pi in pv]
    a0 = [Fraction(1, pj + 1) for pj in pv]
    return A1, A0, a0


def _centered(A0, a0):
    """A0 - a0 (x) a0, exactly, from _matrices' A0 and a0."""
    return [[x - ai * aj for x, aj in zip(row, a0)] for row, ai in zip(A0, a0)]


def check_positivity(p):
    """Smallest eigenvalues of A1 and A0 - a0 (x) a0, proved positive.

    p is what check_exponents accepts.  Both matrices are built in
    Fractions and are provably positive definite; a pivot <= 0 of their
    exact elimination, the sign of a mis-built matrix, raises
    NonPositiveDetected.  Each reported value is the largest double
    lambda for which A - lambda I is still positive definite: the largest
    double below the smallest eigenvalue, so it is > 0 and within one ulp
    of it.  Returns {"min_eig_A1": ..., "min_eig_A0_centered": ...}.
    """
    p = check_exponents(p)
    A1, A0, a0 = _matrices(p)
    report = {}
    for name, A in (("A1", A1), ("A0_centered", _centered(A0, a0))):
        if _eliminate(A) is None:
            raise NonPositiveDetected(
                f"{name} is not positive definite for p={p}")
        report["min_eig_" + name] = _smallest_eigenvalue(A)
    return report


# ---------------------------------------------------------------------------
# exact-rational linear algebra; matrices here are tiny (N <= 6 or so)

def _eliminate(A, shift=0):
    """Forward elimination of A - shift I, or None at the first pivot <= 0.

    A holds Fraction rows: a symmetric n x n matrix, with any right-hand
    sides appended as further columns, which the elimination carries along.
    shift is a float, taken exactly, and comes off the n diagonal entries.
    The pivots are those of the LDL^T factorisation, so by Sylvester's law
    of inertia A - shift I is positive definite exactly when every pivot is
    > 0.  Returns the eliminated rows: from the diagonal rightwards they
    hold the upper-triangular system (entries left of it are not cleared).
    """
    shift = Fraction(shift)
    M = [[x - shift if i == j else x for j, x in enumerate(row)]
         for i, row in enumerate(A)]
    for k, row in enumerate(M):
        pivot = row[k]
        if pivot <= 0:
            return None
        for lower in M[k + 1:]:
            f = lower[k] / pivot
            for j in range(k + 1, len(row)):
                lower[j] -= f * row[j]
    return M


def _smallest_eigenvalue(A):
    """The largest double lambda with A - lambda I positive definite.

    A must be positive definite.  last_float bisects from lo = 0, where
    A - lo I is positive definite, and hi, twice the largest diagonal
    entry: no diagonal entry is below the smallest eigenvalue, so hi
    exceeds it (though not always the largest).
    """
    hi = 2.0 * float(max(row[i] for i, row in enumerate(A)))
    return last_float(lambda shift: _eliminate(A, shift) is not None, 0.0, hi)


def exact_params(p):
    """Exact Fraction-valued constants: (gamma, gamma_vec, kappa1, kappa2, kappa3).

    The one place the constants are computed.  p is what check_exponents
    accepts, which raises ValueError for anything else.  Raises
    NonPositiveDetected if A1 is not positive definite or gamma is
    not positive, which correctly built matrices rule out.
    """
    pv = check_exponents(p)
    A1, _, a0 = _matrices(pv)
    one_minus_a0 = [1 - a for a in a0]
    U = _eliminate([row + [b] for row, b in zip(A1, one_minus_a0)])
    if U is None:
        raise NonPositiveDetected(f"A1 is not positive definite for p={pv}")
    n = len(pv)
    gamma_vec = [None] * n
    for k in reversed(range(n)):
        tail = sum(U[k][j] * gamma_vec[j] for j in range(k + 1, n))
        gamma_vec[k] = (U[k][n] - tail) / U[k][k]
    gamma = sum(x * y for x, y in zip(one_minus_a0, gamma_vec))
    if gamma <= 0:
        raise NonPositiveDetected(f"gamma = {gamma} is not positive for p={pv}")
    kappa1 = sum(x * y for x, y in zip(a0, gamma_vec))
    kappa2 = sum(gamma_vec)
    kappa3 = sum(pj * gj for pj, gj in zip(pv, gamma_vec))
    return gamma, gamma_vec, kappa1, kappa2, kappa3
