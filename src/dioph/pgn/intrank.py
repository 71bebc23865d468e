"""Exact integer linear algebra: rank via fraction-free elimination, one
pass per vector over rows that are never rewritten; the greedy choices of
the profile and the pool's frontier ask only whether each new vector is
independent of those kept (Edmonds 1971).

Floating point is never used here; independence of approximation vectors is
an exact lattice statement.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, List, Sequence, Tuple

__all__ = ["IntBasis", "int_rank"]


def _primitive(row: List[int]) -> List[int]:
    g = 0
    for v in row:
        g = gcd(g, v)
    return [v // g for v in row] if g > 1 else row


class IntBasis:
    """Incrementally grown independent set of integer vectors.

    Rows are kept in insertion order, each zero at the pivots (first
    nonzero entries) of the rows before it.  So one elimination pass in
    that order leaves a vector zero at every pivot, and nonzero exactly
    when it is independent of the rows.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self._rows: List[Tuple[int, List[int]]] = []

    @property
    def count(self) -> int:
        return len(self._rows)

    def copy(self) -> "IntBasis":
        """A basis with the same rows that grows apart from this one; the
        rows are never rewritten, so the two share them."""
        twin = IntBasis(self.dim)
        twin._rows = self._rows.copy()
        return twin

    def try_add(self, vec: Sequence[int]) -> bool:
        """Add vec if independent of the current rows; report whether it was."""
        if len(vec) != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {len(vec)}")
        v = [int(a) for a in vec]
        for pivot, row in self._rows:
            if v[pivot]:
                c_keep, c_drop = row[pivot], v[pivot]
                v = [c_keep * a - c_drop * b for a, b in zip(v, row)]
        pivot = next((i for i, a in enumerate(v) if a), None)
        if pivot is None:
            return False
        self._rows.append((pivot, _primitive(v)))
        return True


def int_rank(rows: Iterable[Sequence[int]]) -> int:
    """Exact rank of a collection of integer vectors."""
    rows = list(rows)
    if not rows:
        return 0
    basis = IntBasis(len(rows[0]))
    for r in rows:
        basis.try_add(r)
    return basis.count
