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


class NonPositiveDetected(IkwaveError):
    """A quantity proven positive (a pivot of A1 or A0 - a0 (x) a0, a
    coefficient of q) came out non-positive in exact arithmetic; signals
    an implementation bug, not bad input."""
