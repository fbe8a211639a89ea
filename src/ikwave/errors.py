"""Exceptions raised by the solitary-wave solver.

Each exception names the mathematical condition that failed, so callers can
map them to exit codes and human-readable diagnostics.
"""


class IkwaveError(Exception):
    """Base class for all solver errors."""


class NoSolitaryRoot(IkwaveError):
    """The crest polynomial has no root (delta exceeds the critical
    shallowness)."""


class DenominatorVanished(IkwaveError):
    """The denominator d of the reduced system dropped to the abort
    threshold; the state is at or past the extreme-wave degeneracy."""


class StepSizeUnderflow(IkwaveError):
    """The panel quadrature of x(z) did not reach its tolerance on panels
    wider than the narrowest it allows, or met a non-finite dx/dz."""


class NegativeRadicand(IkwaveError):
    """The crest-slope radicand came out non-positive, which contradicts a
    consistent critical point."""


class NonPositiveDetected(IkwaveError):
    """A quantity proven positive (matrix eigenvalue, determinant q) was
    sampled non-positive; signals an implementation bug, not bad input."""
