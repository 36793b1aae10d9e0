"""Exception types shared across the package.

Invalid arguments raise plain ``ValueError`` everywhere; the classes here
cover runtime failures that callers may want to catch selectively.
"""

from __future__ import annotations

from collections.abc import Sequence


class TacoError(Exception):
    """Base class for runtime failures of the auction engine."""


class NoTerminationError(TacoError):
    """The auction hit its step cap before the termination test passed.

    Carries the partial trace (the engine's lazy ``Trace``) so callers can
    inspect how far the run got.
    """

    def __init__(self, message: str, steps: int, trace: Sequence):
        super().__init__(message)
        self.steps = steps
        self.trace = trace


class HistoryLimitError(TacoError):
    """A constant-d window observed more than history_cap distinct states.

    The cap counts observations, one per turn, although the cycle detector
    stores only one per round (those of the window's first player).
    """


class ResourceLimitError(TacoError):
    """A requested computation is too large to enumerate (e.g. factorial blowup)."""


class MetricUndefinedError(TacoError):
    """A metric has no defined value for the given inputs (e.g. zero-cost optimum)."""
