"""Private agent state.

An agent sees the whole public board but only its own valuation and cost row.
Profit for choice j is valuation * (offered - paid) - cost, and the best
response is the profit argmax with ties broken toward the lowest choice index;
the engine's window kernel (``_fastpath``) computes both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .board import float_tuple, shape_of


@dataclass
class AgentPrivate:
    """Immutable-by-convention private data of one agent.

    index is the agent's position in the turn cycle; valuation is its private
    per-unit value of board credit (must be positive); cost_row[j] is its
    private cost of choice j, held as a tuple of floats.
    """

    index: int
    valuation: float
    cost_row: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            self.cost_row = float_tuple(self.cost_row)
        except TypeError:
            shape = shape_of(self.cost_row)
            raise ValueError(f"cost_row must be one-dimensional, got shape {shape}") from None
        if not self.valuation > 0:
            raise ValueError(f"valuation must be positive, got {self.valuation}")
        if self.index < 0:
            raise ValueError(f"agent index must be non-negative, got {self.index}")
