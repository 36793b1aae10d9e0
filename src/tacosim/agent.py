"""Private agent state.

An agent sees the whole public board but only its own valuation and cost row.
Profit for choice j is valuation * (offered - paid) - cost, and the best
response is the profit argmax with ties broken toward the lowest choice index;
the engine's window kernel (``_fastpath``) computes both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AgentPrivate:
    """Immutable-by-convention private data of one agent.

    index is the agent's position in the turn cycle; valuation is its private
    per-unit value of board credit (must be positive); cost_row[j] is its
    private cost of choice j.
    """

    index: int
    valuation: float
    cost_row: np.ndarray

    def __post_init__(self) -> None:
        self.cost_row = np.asarray(self.cost_row, dtype=np.float64)
        if self.cost_row.ndim != 1:
            raise ValueError(f"cost_row must be one-dimensional, got shape {self.cost_row.shape}")
        if not self.valuation > 0:
            raise ValueError(f"valuation must be positive, got {self.valuation}")
        if self.index < 0:
            raise ValueError(f"agent index must be non-negative, got {self.index}")
