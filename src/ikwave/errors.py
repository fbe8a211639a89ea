"""Exceptions raised by the solitary-wave solver.

Each exception names the mathematical condition that failed, so callers can
map them to exit codes and human-readable diagnostics.
"""


class IkwaveError(Exception):
    """Base class for all solver errors."""


class NoSolitaryRoot(IkwaveError):
    """The crest quartic has no admissible real root (delta exceeds the
    critical shallowness)."""


class AmbiguousRoot(IkwaveError):
    """More than one quartic root passed every selection filter and the
    small-amplitude value -(4/3)delta^2 could not break the tie."""


class DenominatorVanished(IkwaveError):
    """The denominator d of the reduced system dropped to the abort
    threshold; the state is at or past the extreme-wave degeneracy."""


class DepthVanished(IkwaveError):
    """Total depth H = 1 + eta reached zero along a trajectory."""


class StepSizeUnderflow(IkwaveError):
    """The adaptive integrator could not take a step of acceptable error
    above the minimum step size."""


class NewtonDiverged(IkwaveError):
    """The Newton iteration for the critical point failed to converge.

    Carries the last iterate and residuals for post-mortem inspection.
    """

    def __init__(self, message, iterate=None, residuals=None):
        super().__init__(message)
        self.iterate = iterate
        self.residuals = residuals


class NegativeRadicand(IkwaveError):
    """The crest-slope radicand came out non-positive, which contradicts a
    consistent critical point."""


class NonPositiveDetected(IkwaveError):
    """A quantity proven positive (matrix eigenvalue, determinant q) was
    sampled non-positive; signals an implementation bug, not bad input."""
