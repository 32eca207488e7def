"""Block Jacobi preconditioner = Additive Schwarz with zero overlap.

Kept as a named class because the paper treats "block Jacobi with
ILU(k)" as its baseline preconditioner (Fig. 1, Tables 1-3) and only
Table 4 turns on overlap.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph
from repro.precond.asm import AdditiveSchwarz, ASMConfig, ASMVariant

__all__ = ["BlockJacobi"]


class BlockJacobi(AdditiveSchwarz):
    """ILU(k) block Jacobi over a row partition."""

    def __init__(self, labels: np.ndarray, fill_level: int = 0,
                 storage_dtype=np.float64, graph: Graph | None = None) -> None:
        super().__init__(
            labels,
            ASMConfig(overlap=0, fill_level=fill_level,
                      variant=ASMVariant.RESTRICTED,
                      storage_dtype=storage_dtype),
            graph=graph,
        )

    @classmethod
    def single_domain(cls, n: int, fill_level: int = 0,
                      storage_dtype=np.float64) -> "BlockJacobi":
        """One subdomain covering everything: plain (sequential) ILU(k)."""
        return cls(np.zeros(n, dtype=np.int64), fill_level=fill_level,
                   storage_dtype=storage_dtype)
