"""Exception hierarchy shared by all thickset modules.

The split matters for the CLI: hypothesis failures (the input set does not
satisfy what a search routine needs) are user-fixable and map to exit code 1,
while internal contradictions (a certified bound that the pipeline's own
validated preconditions say cannot fail) map to exit code 2 and should be
reported as bugs.
"""

from __future__ import annotations


class ThicksetError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ThicksetError):
    """An argument is outside the domain an operation is defined on."""


class RangeError(ThicksetError):
    """A target value lies outside the reachable range (e.g. inverse of y
    with y not in f(bracket))."""


class ConstructionError(ThicksetError):
    """A parametric construction is inconsistent (interval order violated,
    empty pieces, ...). Carries the name of the violated condition."""


class CalibrationError(ThicksetError):
    """A parameter search exhausted its resolution without reaching the
    target (e.g. no gap proportion achieves the requested thickness)."""


class HypothesisError(ThicksetError):
    """The input does not satisfy the hypotheses a routine requires
    (thickness too small, derivative slope outside its admissible window,
    mutual gap containment, ...)."""


class InternalContradictionError(ThicksetError):
    """A fact that is guaranteed under validated preconditions failed to
    hold. Always a bug in this package or a violated mathematical claim;
    never silently swallowed."""


class PrecisionError(ThicksetError):
    """A search ran out of room to certify its answer: ``find_config``
    halved delta to its limit without meeting the derivative and
    image-thickness conditions. ``retry_hint`` says what to change."""

    def __init__(self, message: str, *, retry_hint: str = ""):
        super().__init__(message if not retry_hint else f"{message} ({retry_hint})")
        self.retry_hint = retry_hint


class InsufficientDepthError(ThicksetError):
    """A refinement family is too shallow for the requested operation.
    ``required_depth`` is a hint for retrying; ``reason`` is the message
    without it."""

    def __init__(self, message: str, *, required_depth: int | None = None):
        self.reason = message
        if required_depth is not None:
            message = f"{message} (retry with depth >= {required_depth})"
        super().__init__(message)
        self.required_depth = required_depth
