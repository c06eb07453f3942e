"""Miss-ratio curve (MRC) tracking via Mattson's stack algorithm.

The MRC of a query class gives its page miss ratio at every possible memory
size.  Because LRU obeys the *inclusion property* (a memory of ``k + 1``
pages always contains the contents of a memory of ``k`` pages), one pass
over a page trace yields the miss ratio at **all** sizes simultaneously:
for each reference, the page's LRU *stack distance* ``d`` means a pool of at
least ``d`` pages would have hit, so ``Hit[d]`` is incremented; first-ever
references increment ``Hit[inf]``.  The paper's Equation (1):

    MR(m) = 1 - sum_{i<=m} Hit[i] / (sum_i Hit[i] + Hit[inf])

Stack distances are computed in ``O(N log N)`` — but fully vectorised:
the distance of reference ``i`` with previous occurrence ``prev[i]`` is
``(i - prev[i]) - #{k < i : prev[k] > prev[i]}`` (each later re-reference
of another page collapses one duplicate in the interval), and the
count-earlier-greater term is evaluated level-by-level with sorted blocks
and ``numpy.searchsorted`` (a CDQ divide-and-conquer flattened into array
passes).  The classical per-element Fenwick-tree formulation lives with the
tests (``tests/mrc_oracle.py``) as the reference the property suite checks
the vectorised path against.

Two parameters summarise a curve (paper §3.3):

* **total memory needed** — the smaller of the server's memory and the size
  at which the miss ratio bottoms out (only cold misses remain); the miss
  ratio there is the **ideal miss ratio**;
* **acceptable memory needed** — the smallest size whose miss ratio is
  within a fixed threshold of the ideal; its miss ratio is the **acceptable
  miss ratio**.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..obs.registry import MetricRegistry, NULL_REGISTRY

__all__ = [
    "stack_distances",
    "MissRatioCurve",
    "MRCParameters",
    "MRCTracker",
    "MRCCacheKey",
    "MRCCache",
]

DEFAULT_ACCEPTABLE_THRESHOLD = 0.05
"""Acceptable miss ratio = ideal miss ratio + this threshold (paper §3.3;
the paper leaves the constant unspecified — 0.05 places the acceptable
memory at the knee of both convex and nearly flat curves)."""


def _count_earlier_greater(values: np.ndarray) -> np.ndarray:
    """``out[i] = #{k < i : values[k] > values[i]}`` without a Python loop.

    A CDQ divide-and-conquer over positions, run bottom-up: at each level
    the array is viewed as blocks of ``size``; every odd block queries its
    left sibling, which is already available fully sorted.  All queries of
    a level collapse into one ``searchsorted`` by shifting each block's
    values into a disjoint range (``block index * span``), so the
    concatenation of the per-block sorted runs is globally sorted.
    """
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    n_pad = 1 << max(1, (n - 1).bit_length()) if n > 1 else 1
    lo = int(values.min()) - 1
    arr = np.full(n_pad, lo, dtype=np.int64)  # padding never exceeds a query
    arr[:n] = values
    counts = np.zeros(n_pad, dtype=np.int64)
    span = int(arr.max()) - lo + 2
    idx = np.arange(n_pad, dtype=np.int64)
    size = 1
    while size < n_pad:
        nblocks = n_pad // size
        block_of = idx // size
        shifted = arr + block_of * span
        flat = np.sort(shifted.reshape(nblocks, size), axis=1).ravel()
        query = (block_of & 1) == 1
        qi = idx[query]
        left = block_of[qi] - 1
        qval = arr[qi] + left * span
        pos = np.searchsorted(flat, qval, side="right")
        # Elements of the left sibling strictly greater than the query value:
        # the block ends at (left + 1) * size in the flattened sorted runs.
        counts[qi] += (left + 1) * size - pos
        size *= 2
    return counts[:n]


def stack_distances(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """LRU stack distance of every reference in ``trace``.

    A distance of ``d`` means the page sat at depth ``d`` (1-based) in the
    LRU stack, i.e. a pool of ``>= d`` pages would have hit.  First-ever
    references get distance 0 (the cold-miss marker).

    Vectorised: with ``prev[i]`` the previous occurrence of page
    ``trace[i]`` (or -1), the distance is ``i - prev[i]`` minus the number
    of references in between whose page re-appears before ``i`` — i.e.
    ``#{k < i : prev[k] > prev[i]}`` — because each such re-reference
    collapses one duplicate in the interval.  Produces bit-identical
    output to the per-element Fenwick-tree formulation.
    """
    pages = np.asarray(trace, dtype=np.int64)
    n = len(pages)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(pages, kind="stable")
    sorted_pages = pages[order]
    prev_sorted = np.empty(n, dtype=np.int64)
    prev_sorted[0] = -1
    same_page = sorted_pages[1:] == sorted_pages[:-1]
    prev_sorted[1:] = np.where(same_page, order[:-1], -1)
    prev = np.empty(n, dtype=np.int64)
    prev[order] = prev_sorted
    counts = _count_earlier_greater(prev)
    idx = np.arange(n, dtype=np.int64)
    return np.where(prev < 0, 0, idx - prev - counts)


class MissRatioCurve:
    """The full MR(m) function of one page trace."""

    def __init__(self, hit_counts: np.ndarray, cold_misses: int) -> None:
        """``hit_counts[d]`` (1-based ``d``; index 0 unused) is Hit[d]."""
        self._hits = np.asarray(hit_counts, dtype=np.int64)
        self.cold_misses = int(cold_misses)
        self.total_accesses = int(self._hits.sum()) + self.cold_misses
        self._cumulative = np.cumsum(self._hits)

    @classmethod
    def from_trace(cls, trace: Sequence[int] | np.ndarray) -> "MissRatioCurve":
        """Run Mattson's algorithm over ``trace`` and build the curve."""
        distances = stack_distances(trace)
        cold = int(np.count_nonzero(distances == 0))
        warm = distances[distances > 0]
        max_depth = int(warm.max()) if len(warm) else 0
        hits = np.bincount(warm, minlength=max_depth + 1)
        return cls(hits, cold)

    @property
    def max_depth(self) -> int:
        """Deepest stack distance observed (the trace's reuse footprint)."""
        return len(self._hits) - 1

    def hits_at(self, memory_pages: int) -> int:
        """Hits a pool of ``memory_pages`` would have served on this trace."""
        if memory_pages < 0:
            raise ValueError(f"memory size must be non-negative: {memory_pages}")
        if memory_pages == 0 or self.total_accesses == 0:
            return 0
        index = min(memory_pages, self.max_depth)
        return int(self._cumulative[index]) if index >= 1 else 0

    def miss_ratio(self, memory_pages: int) -> float:
        """MR(m): predicted miss ratio with ``memory_pages`` of memory."""
        if self.total_accesses == 0:
            return 0.0
        return 1.0 - self.hits_at(memory_pages) / self.total_accesses

    def curve(self, sizes: Iterable[int]) -> list[tuple[int, float]]:
        """(size, miss ratio) samples for plotting or reporting."""
        return [(size, self.miss_ratio(size)) for size in sizes]

    @property
    def minimum_miss_ratio(self) -> float:
        """Miss ratio once every reuse is captured (cold misses only)."""
        return self.miss_ratio(self.max_depth)

    def parameters(
        self,
        server_memory_pages: int,
        acceptable_threshold: float = DEFAULT_ACCEPTABLE_THRESHOLD,
        flatness_epsilon: float = 1e-6,
    ) -> "MRCParameters":
        """Derive the paper's two MRC parameters for this curve."""
        if server_memory_pages <= 0:
            raise ValueError(
                f"server memory must be positive: {server_memory_pages}"
            )
        if acceptable_threshold < 0:
            raise ValueError(
                f"acceptable threshold must be non-negative: {acceptable_threshold}"
            )
        floor = self.minimum_miss_ratio
        saturation = self._smallest_size_with_ratio(floor + flatness_epsilon)
        total_memory = min(server_memory_pages, saturation)
        ideal = self.miss_ratio(total_memory)
        acceptable_memory = self._smallest_size_with_ratio(
            ideal + acceptable_threshold
        )
        acceptable_memory = min(acceptable_memory, total_memory)
        return MRCParameters(
            total_memory=total_memory,
            ideal_miss_ratio=ideal,
            acceptable_memory=acceptable_memory,
            acceptable_miss_ratio=self.miss_ratio(acceptable_memory),
            threshold=acceptable_threshold,
        )

    def _smallest_size_with_ratio(self, target: float) -> int:
        """Smallest m with MR(m) <= target (binary search on hits).

        The result is clamped to ``[1, max_depth]``: a pool needs at least
        one page, and sizes beyond the deepest observed reuse are all
        equivalent.  When the trace has no reuse at all (``max_depth == 0``
        — every reference a cold miss) every size is equivalent too, so 1 is
        returned for any target, matching :meth:`parameters`' semantics of
        "the size at which only cold misses remain" (tests pin this).
        """
        if self.total_accesses == 0:
            return 1
        needed_hits = (1.0 - target) * self.total_accesses
        # cumulative hits are non-decreasing in m; find first index meeting it
        index = int(np.searchsorted(self._cumulative, needed_hits - 1e-9, side="left"))
        return max(1, min(index, self.max_depth) if self.max_depth else 1)


@dataclass(frozen=True)
class MRCParameters:
    """The two sizes and two ratios the diagnosis algorithm consumes."""

    total_memory: int
    ideal_miss_ratio: float
    acceptable_memory: int
    acceptable_miss_ratio: float
    threshold: float = DEFAULT_ACCEPTABLE_THRESHOLD

    def significantly_differs_from(
        self,
        other: "MRCParameters",
        relative: float = 0.25,
        min_absolute_pages: int = 256,
    ) -> bool:
        """Whether memory needs changed enough to suspect this class.

        The paper recomputes a problem class's MRC and keeps it suspect when
        "the parameters of the MRC curve show a significantly higher total
        memory need"; we flag a relative change of ``relative`` or more in
        either parameter, in either direction (a *flatter* curve — lower
        acceptable memory — also signals an access-pattern change, as in the
        index-drop scenario).  Tiny working sets quantise coarsely, so the
        change must also clear ``min_absolute_pages`` — a 40-page jitter in
        a 100-page class is noise, not a plan change.
        """
        if relative < 0:
            raise ValueError(f"relative threshold must be non-negative: {relative}")

        def significant(new: int, old: int) -> bool:
            diff = abs(new - old)
            return diff >= relative * max(old, 1) and diff >= min_absolute_pages

        return significant(self.total_memory, other.total_memory) or significant(
            self.acceptable_memory, other.acceptable_memory
        )


@dataclass(frozen=True)
class MRCCacheKey:
    """What a cached curve is valid for.

    * ``window_version`` — the access window's ``total_seen`` watermark (a
      strictly increasing version number: any page access advances it, so
      an advanced window can never serve a stale curve);
    * ``pool_pages`` — the buffer-pool size the parameters were extracted
      against (a resize changes the total/acceptable clamping, so the curve
      must be re-derived);
    * ``variant`` — which slice of the window was analysed (full window,
      recent tail, assessment pair, ...), including anything else the slice
      bounds depend on.
    """

    window_version: int
    pool_pages: int
    variant: str = "full"


class MRCCache:
    """Per-query-class memo of the most recent stack-distance analysis.

    Stack-distance analysis is the O(N log N) hot path of diagnosis; when a
    class's access window has not advanced since the last recomputation the
    previous curve is *exactly* correct and the whole pass can be skipped.
    Each class keeps one entry (the diagnosis loop only ever wants the
    latest window), invalidated implicitly when the lookup key no longer
    matches — window advance, buffer-pool resize, or a different slice
    variant — and explicitly via :meth:`invalidate`.

    Hits and misses are published to the metric registry as
    ``mrc.cache.hits`` / ``mrc.cache.misses`` so regression tests can
    assert that a stale curve is never served (a hit never increments the
    ``mrc.recomputations`` counter).
    """

    def __init__(self, registry: MetricRegistry | None = None) -> None:
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._entries: dict[str, tuple[MRCCacheKey, object]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, context_key: str, key: MRCCacheKey):
        """The cached value if it is still valid for ``key``, else ``None``.

        A mismatching entry (advanced window, resized pool) is dropped on
        the spot: it can never become valid again.
        """
        entry = self._entries.get(context_key)
        if entry is not None and entry[0] == key:
            self.hits += 1
            self.registry.counter("mrc.cache.hits").inc()
            return entry[1]
        if entry is not None:
            del self._entries[context_key]
        self.misses += 1
        self.registry.counter("mrc.cache.misses").inc()
        return None

    def put(self, context_key: str, key: MRCCacheKey, value) -> None:
        self._entries[context_key] = (key, value)

    def invalidate(self, context_key: str) -> None:
        """Explicitly drop one class's entry (e.g. its window was cleared)."""
        self._entries.pop(context_key, None)

    def clear(self) -> None:
        self._entries.clear()


class MRCTracker:
    """Per-query-context MRC bookkeeping.

    MRCs are computed when a class is first scheduled and are *not*
    recomputed unless an SLA violation occurs and the class's memory
    counters show outliers (paper §3.3) — recomputation is the expensive
    step this laziness is protecting.
    """

    def __init__(
        self,
        server_memory_pages: int,
        acceptable_threshold: float = DEFAULT_ACCEPTABLE_THRESHOLD,
        registry: MetricRegistry | None = None,
    ) -> None:
        if server_memory_pages <= 0:
            raise ValueError(
                f"server memory must be positive: {server_memory_pages}"
            )
        self.server_memory_pages = server_memory_pages
        self.acceptable_threshold = acceptable_threshold
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._curves: dict[str, MissRatioCurve] = {}
        self._parameters: dict[str, MRCParameters] = {}
        self.recomputations = 0

    def _record_recomputation(self, context_key: str, trace_length: int) -> None:
        self.recomputations += 1
        app = context_key.split("/", 1)[0]
        self.registry.counter("mrc.recomputations", app=app).inc()
        self.registry.histogram("mrc.trace_length").observe(trace_length)

    def has(self, context_key: str) -> bool:
        return context_key in self._parameters

    def compute(
        self, context_key: str, trace: Sequence[int] | np.ndarray
    ) -> MRCParameters:
        """(Re)compute the curve of ``context_key`` from a page trace."""
        curve = MissRatioCurve.from_trace(trace)
        params = curve.parameters(
            self.server_memory_pages, self.acceptable_threshold
        )
        self._curves[context_key] = curve
        self._parameters[context_key] = params
        self._record_recomputation(context_key, len(trace))
        return params

    def store(
        self, context_key: str, curve: MissRatioCurve, params: MRCParameters
    ) -> None:
        """Record an externally computed curve (counts as a recomputation)."""
        self._curves[context_key] = curve
        self._parameters[context_key] = params
        self._record_recomputation(context_key, curve.total_accesses)

    def restore(
        self, context_key: str, curve: MissRatioCurve, params: MRCParameters
    ) -> None:
        """Re-install a previously computed curve served from a cache.

        Unlike :meth:`store` this does **not** count as a recomputation:
        no stack-distance work happened, and the ``mrc.recomputations``
        counter is the regression suite's evidence of exactly that.
        """
        self._curves[context_key] = curve
        self._parameters[context_key] = params

    def parameters_of(self, context_key: str) -> MRCParameters:
        try:
            return self._parameters[context_key]
        except KeyError:
            raise KeyError(f"no MRC recorded for context {context_key!r}") from None

    def curve_of(self, context_key: str) -> MissRatioCurve:
        try:
            return self._curves[context_key]
        except KeyError:
            raise KeyError(f"no MRC recorded for context {context_key!r}") from None

    def forget(self, context_key: str) -> None:
        self._curves.pop(context_key, None)
        self._parameters.pop(context_key, None)

    def contexts(self) -> list[str]:
        return sorted(self._parameters)
