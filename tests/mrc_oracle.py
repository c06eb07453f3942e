"""Test-only oracle for the vectorised stack-distance path.

The classical per-element Fenwick-tree formulation of LRU stack distances:
slow, but its correctness is easy to audit, so the property suite checks
:func:`repro.core.mrc.stack_distances` against it bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


class FenwickTree:
    """A binary indexed tree over ``size`` slots supporting point update
    and prefix sum, used to count still-live last-access markers."""

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"size must be non-negative: {size}")
        self.size = size
        self._tree = np.zeros(size + 1, dtype=np.int64)

    def add(self, index: int, delta: int) -> None:
        """Add ``delta`` at 0-based ``index``."""
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside [0, {self.size})")
        i = index + 1
        while i <= self.size:
            self._tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, count: int) -> int:
        """Sum of the first ``count`` slots (0-based exclusive bound)."""
        if count < 0:
            raise IndexError(f"count must be non-negative: {count}")
        count = min(count, self.size)
        total = 0
        i = count
        while i > 0:
            total += int(self._tree[i])
            i -= i & (-i)
        return total

    def range_sum(self, start: int, stop: int) -> int:
        """Sum of slots in ``[start, stop)``."""
        if start > stop:
            raise IndexError(f"invalid range [{start}, {stop})")
        return self.prefix_sum(stop) - self.prefix_sum(start)


def stack_distances_fenwick(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """Per-element Fenwick-tree stack distances: same contract as
    :func:`repro.core.mrc.stack_distances`."""
    pages = np.asarray(trace, dtype=np.int64)
    n = len(pages)
    distances = np.zeros(n, dtype=np.int64)
    tree = FenwickTree(n)
    last_seen: dict[int, int] = {}
    for i in range(n):
        page = int(pages[i])
        prev = last_seen.get(page)
        if prev is None:
            distances[i] = 0
        else:
            # Distinct pages touched strictly after prev, plus the page itself.
            distances[i] = tree.range_sum(prev + 1, i) + 1
            tree.add(prev, -1)
        tree.add(i, 1)
        last_seen[page] = i
    return distances
