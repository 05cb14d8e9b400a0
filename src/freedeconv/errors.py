"""Exception taxonomy.

Contract violations (bad arguments, malformed inputs) raise plain ValueError.
Numerical failures raise a NumericalError subclass carrying the pipeline
stage and whatever diagnostics were available at the point of failure, so
callers can retry with different settings instead of parsing strings.
"""

from __future__ import annotations

__all__ = [
    "NumericalError",
    "PoleError",
    "IncompleteRootsError",
    "DegenerateRamificationError",
    "LiftFailureError",
    "NoContourError",
    "NoisyContourError",
    "InvalidMomentsError",
    "BaselineFailureError",
]


class NumericalError(Exception):
    """Base class for numerical failures (CLI exit code 3)."""

    def __init__(self, message, *, stage=None, diagnostics=None):
        super().__init__(message)
        self.stage = stage
        self.diagnostics = dict(diagnostics or {})


class PoleError(NumericalError):
    """Evaluation requested at (or too close to) a pole of a transform."""


class IncompleteRootsError(NumericalError):
    """Root finder could not certify the full set of critical points."""


class DegenerateRamificationError(NumericalError):
    """A branch point sits on (or hugs) the real axis; no slit domain exists."""


class LiftFailureError(NumericalError):
    """Path lifting stalled: the shared step of the ray march underflowed
    before reaching the targets, on its first step or a later one."""


class NoContourError(NumericalError):
    """No admissible integration contour exists for the given constraints."""


class NoisyContourError(NumericalError):
    """Contour moments carry an imaginary residue or a mass off 1 above
    tolerance, or did not settle."""


class InvalidMomentsError(NumericalError):
    """Moment sequence is not realizable by a positive measure."""


class BaselineFailureError(NumericalError):
    """Subordination baseline failed to converge on too many grid points."""
