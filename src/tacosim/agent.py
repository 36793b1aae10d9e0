"""Private agent state.

An agent sees the whole public board but only its own valuation and cost row.
Profit for choice j is valuation * (offered - paid) - cost, and the best
response is the profit argmax with ties broken toward the lowest choice index;
the engine's window kernel (``_fastpath``) computes both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .board import floats, positive_float, whole


@dataclass(frozen=True)
class AgentPrivate:
    """Immutable private data of one agent, checked once, when it is built.

    index is the agent's position in the turn cycle; valuation is its private
    per-unit value of board credit (a positive finite real), held as a float;
    cost_row[j] is its private cost of choice j, held as a tuple of floats.
    """

    index: int
    valuation: float
    cost_row: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", whole(self.index, "agent index", 0))
        object.__setattr__(self, "valuation", positive_float(self.valuation, "valuation"))
        object.__setattr__(self, "cost_row", floats(self.cost_row, "cost_row", (None,)))
