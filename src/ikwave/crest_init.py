"""Crest initial data for the solitary-wave shooting problem.

By symmetry the second potential coefficient vanishes at the crest, and the
two steady identities evaluated there reduce to

    c u(0) + eta(0) + u(0)^2/2 = 0,
    eta(0)^2 - H(0)u(0)^2 + 2u(0)w(0) - (6/(5H(0))) w(0)^2 = 0,

with H(0) = 1 + eta(0), w(0) = c*eta(0) + H(0)u(0) and c = 1 + (2/3)delta^2.
Eliminating eta(0) collapses the pair to a quartic in u(0),

    7u^4 + 42c u^3 + 6(16c^2-3)u^2 + 8c(13c^2-8)u + 8(6c^2-1)(c^2-1) = 0,

whose admissible real root determines the crest.  Root selection: the root
must satisfy u(0) in (-1, 0), eta(0) in (0, 1) and d(0) >= 0, where d is the
denominator of the reduced system; on the solitary branch exactly one real
root survives these filters, and the other real root carries d(0) < 0.  If
rounding next to the critical shallowness lets two roots through, the one
nearer the small-amplitude value -(4/3)delta^2 is taken.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousRoot, NoSolitaryRoot

# largest shallowness with an admissible root, for error messages
DELTA_C_APPROX = 0.62633493


def phase_speed(delta):
    """Nondimensional phase speed c = 1 + (2/3) delta^2."""
    return 1.0 + (2.0 / 3.0) * delta * delta


def quartic_coeffs(c):
    """Coefficients of the crest quartic in u(0), descending degree."""
    return [
        7.0,
        42.0 * c,
        6.0 * (16.0 * c * c - 3.0),
        8.0 * c * (13.0 * c * c - 8.0),
        8.0 * (6.0 * c * c - 1.0) * (c * c - 1.0),
    ]


@dataclass(frozen=True)
class CrestState:
    """Crest values (eta(0), u(0), phi1(0) = 0) with the phase speed and delta."""

    delta: float
    c: float
    eta0: float
    u0: float


def _eta_of_u(c, u):
    return -c * u - 0.5 * u * u


def _crest_denominator(c, u):
    # d at the crest (phi1 = 0), in the simplification 3Hv^2 + 3cv - H^2
    eta = _eta_of_u(c, u)
    H = 1.0 + eta
    v = c + u
    return 3.0 * H * v * v + 3.0 * c * v - H * H


def _quartic_value(coeffs, u):
    acc = 0.0
    for a in coeffs:
        acc = acc * u + a
    return acc


def _quartic_slope(coeffs, u):
    acc = 0.0
    n = len(coeffs) - 1
    for k, a in enumerate(coeffs[:-1]):
        acc = acc * u + (n - k) * a
    return acc


def _polish(coeffs, u):
    # Newton on the quartic; the companion-matrix root is already close
    for _ in range(60):
        f = _quartic_value(coeffs, u)
        fp = _quartic_slope(coeffs, u)
        if fp == 0.0:
            break
        du = f / fp
        u -= du
        if abs(du) <= 1e-17 * max(1.0, abs(u)):
            break
    return u


def _admissible(c, u):
    eta = _eta_of_u(c, u)
    # the rejected branch carries d(0) ~ -1.5; the tolerance only needs to
    # absorb double-root rounding at the critical shallowness (|d| ~ 1e-7)
    return (-1.0 < u < 0.0) and (0.0 < eta < 1.0) and _crest_denominator(c, u) >= -1e-6


def solve_crest(delta):
    """Crest initial data for a given shallowness delta.

    Raises ValueError unless 0 < delta < inf, NoSolitaryRoot when no quartic
    root passes the selection filters (delta beyond the critical value) and
    AmbiguousRoot if several roots pass and sit at exactly the same distance
    from the small-amplitude value -(4/3)delta^2.
    """
    delta = float(delta)
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    c = phase_speed(delta)
    coeffs = quartic_coeffs(c)
    roots = np.roots(coeffs)
    # the absolute floor keeps the double root at the critical shallowness,
    # where rounding splits it into a conjugate pair with |imag| ~ 1e-8
    real = [float(r.real) for r in roots
            if abs(r.imag) <= max(1e-10 * (1.0 + abs(r)), 1e-7)]
    survivors = sorted({_polish(coeffs, r) for r in real if _admissible(c, r)})
    if not survivors:
        raise NoSolitaryRoot(
            f"no admissible real root of the crest quartic at delta={delta!r}; "
            f"solitary waves exist only for delta <= {DELTA_C_APPROX} "
            f"(real roots found: {len(real)})"
        )
    if len(survivors) == 1:
        u0 = survivors[0]
    else:
        reference = -(4.0 / 3.0) * delta * delta
        dists = [abs(u - reference) for u in survivors]
        order = np.argsort(dists)
        if dists[order[0]] == dists[order[1]]:
            raise AmbiguousRoot(
                f"{len(survivors)} admissible roots equidistant from "
                f"{reference!r} at delta={delta!r}: {survivors}"
            )
        u0 = survivors[order[0]]

    eta0 = _eta_of_u(c, u0)
    scale = max(abs(a) for a in coeffs)
    if abs(_quartic_value(coeffs, u0)) > 1e-10 * scale:
        # reached when delta sits within rounding of the critical value and
        # the quartic minimum no longer touches zero
        raise NoSolitaryRoot(
            f"no admissible real root within numerical resolution at "
            f"delta={delta!r}: best quartic residual "
            f"{_quartic_value(coeffs, u0)!r}"
        )
    # second steady identity must close as a residual check; imported here
    # because profile_ode imports CrestState from this module
    from .profile_ode import identity_residuals
    _, res2 = identity_residuals((eta0, u0, 0.0), c, delta)
    if abs(res2) > 1e-9:
        raise NoSolitaryRoot(
            f"selected root violates the second steady identity at "
            f"delta={delta!r}: residual {res2!r}"
        )
    return CrestState(delta=delta, c=c, eta0=eta0, u0=u0)
