"""Private agent state.

An agent sees the whole public board but only its own valuation and cost row.
Profit for choice j is valuation * (offered - paid) - cost, and the best
response is the profit argmax with ties broken toward the lowest choice index;
the engine's window kernel (``_fastpath``) computes both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .board import floats, positive_finite, whole


@dataclass
class AgentPrivate:
    """Immutable-by-convention private data of one agent.

    index is the agent's position in the turn cycle; valuation is its private
    per-unit value of board credit (a positive finite real); cost_row[j] is its
    private cost of choice j, held as a tuple of floats.
    """

    index: int
    valuation: float
    cost_row: tuple[float, ...]

    def __post_init__(self) -> None:
        self.index = whole(self.index, "agent index", 0)
        self.valuation = positive_finite(self.valuation, "valuation")
        self.cost_row = floats(self.cost_row, "cost_row", (None,))
