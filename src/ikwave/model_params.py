"""Exponent-dependent matrices and scalar constants of the depth-expansion model.

For an exponent set 0 = p_0 < p_1 < ... < p_N the model is governed by

    A1 = ( p_i p_j / (p_i + p_j - 1) )_{1<=i,j<=N},
    ( 1      a0^T )
    ( a0     A0   )  = ( 1 / (p_i + p_j + 1) )_{0<=i,j<=N},

so a0_j = 1/(p_j+1) and A0_ij = 1/(p_i+p_j+1).  The derived constants are

    gamma_vec = A1^{-1} (1 - a0),          gamma  = (1 - a0) . gamma_vec,
    kappa1 = a0 . gamma_vec,   kappa2 = 1 . gamma_vec,   kappa3 = sum p_j gamma_j.

For p = [2] these give gamma = 1/3, the value used by the solitary-wave solver.
Entries are small rationals; they are built in double precision here and an
exact fractions.Fraction path is provided for display and cross-checking.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NonPositiveDetected


@dataclass(frozen=True)
class ExponentSet:
    """Strictly increasing positive integer exponents p_1 < ... < p_N."""

    p: tuple

    def __post_init__(self):
        if not all(float(v).is_integer() for v in self.p):
            raise ValueError(f"exponents must be integers, got {self.p!r}")
        p = tuple(int(v) for v in self.p)
        object.__setattr__(self, "p", p)
        if len(p) < 1:
            raise ValueError("need at least one exponent")
        if any(v < 1 for v in p):
            raise ValueError("exponents must be >= 1 (p_0 = 0 is implicit)")
        if any(b <= a for a, b in zip(p, p[1:])):
            raise ValueError("exponents must be strictly increasing")

    @property
    def N(self):
        return len(self.p)


@dataclass(frozen=True)
class ModelParams:
    p: ExponentSet
    A1: np.ndarray
    A0: np.ndarray
    a0: np.ndarray
    gamma: float
    gamma_vec: np.ndarray
    kappa1: float
    kappa2: float
    kappa3: float


def build_params(p):
    """Build all matrices and constants for an exponent set.

    Accepts an ExponentSet or a bare sequence of integers.  The linear solve
    for gamma_vec uses a dense direct method.
    """
    if not isinstance(p, ExponentSet):
        p = ExponentSet(tuple(p))
    pv = p.p
    N = p.N
    A1 = np.array([[pi * pj / (pi + pj - 1) for pj in pv] for pi in pv])
    A0 = np.array([[1.0 / (pi + pj + 1) for pj in pv] for pi in pv])
    a0 = np.array([1.0 / (pj + 1) for pj in pv])
    one_minus_a0 = 1.0 - a0
    try:
        gamma_vec = np.linalg.solve(A1, one_minus_a0)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDetected(f"A1 singular for p={pv}") from exc
    gamma = float(one_minus_a0 @ gamma_vec)
    if gamma <= 0.0:
        raise NonPositiveDetected(f"gamma = {gamma} is not positive for p={pv}")
    return ModelParams(
        p=p,
        A1=A1,
        A0=A0,
        a0=a0,
        gamma=gamma,
        gamma_vec=gamma_vec,
        kappa1=float(a0 @ gamma_vec),
        kappa2=float(np.sum(gamma_vec)),
        kappa3=float(np.array(pv) @ gamma_vec),
    )


def check_positivity(params):
    """Report the smallest eigenvalues of A1 and A0 - a0 (x) a0.

    Both are provably positive definite; this is a runtime guard against a
    mis-built matrix.  Returns {"min_eig_A1": ..., "min_eig_A0_centered": ...}.
    """
    ev1 = float(np.linalg.eigvalsh(params.A1).min())
    centered = params.A0 - np.outer(params.a0, params.a0)
    ev0 = float(np.linalg.eigvalsh(centered).min())
    report = {"min_eig_A1": ev1, "min_eig_A0_centered": ev0}
    if ev1 <= 0.0 or ev0 <= 0.0:
        raise NonPositiveDetected(f"positivity violated: {report} for p={params.p.p}")
    return report


# ---------------------------------------------------------------------------
# exact-rational path: same constructions in fractions.Fraction arithmetic

def _solve_exact(A, b):
    # Gauss-Jordan with exact pivots; matrices here are tiny (N <= 6 or so)
    n = len(b)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular exact system")
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col]
        M[col] = [x / inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def exact_params(p):
    """Exact Fraction-valued constants: (gamma, gamma_vec, kappa1, kappa2, kappa3).

    Independent of the floating-point path; used for display and as a test
    oracle.
    """
    if not isinstance(p, ExponentSet):
        p = ExponentSet(tuple(p))
    pv = p.p
    A1 = [[Fraction(pi * pj, pi + pj - 1) for pj in pv] for pi in pv]
    a0 = [Fraction(1, pj + 1) for pj in pv]
    one_minus_a0 = [1 - a for a in a0]
    gamma_vec = _solve_exact(A1, one_minus_a0)
    gamma = sum(x * y for x, y in zip(one_minus_a0, gamma_vec))
    kappa1 = sum(x * y for x, y in zip(a0, gamma_vec))
    kappa2 = sum(gamma_vec)
    kappa3 = sum(pj * gj for pj, gj in zip(pv, gamma_vec))
    return gamma, gamma_vec, kappa1, kappa2, kappa3
