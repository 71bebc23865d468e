"""Exact integer linear algebra: rank via fraction-free elimination.

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

    Rows are kept fully reduced (zeros at every other row's pivot), so each
    membership test is a single elimination pass with exact arithmetic.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self._rows: List[Tuple[int, List[int]]] = []

    @property
    def count(self) -> int:
        return len(self._rows)

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
        v = _primitive(v)
        updated = []
        for p, row in self._rows:
            if row[pivot]:
                c_keep, c_drop = v[pivot], row[pivot]
                row = _primitive([c_keep * a - c_drop * b for a, b in zip(row, v)])
            updated.append((p, row))
        updated.append((pivot, v))
        updated.sort(key=lambda pr: pr[0])
        self._rows = updated
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
