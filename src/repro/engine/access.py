"""Access-pattern generators: the page-reference behaviour of query classes.

Every query class owns an :class:`AccessPattern` that, per execution,
produces the list of *demand* pages it references and the *prefetch* pages
the engine reads ahead on its behalf.  The patterns capture the locality
structure that the paper's experiments hinge on:

* index lookups touch a short, highly reusable page path (root/internal
  pages are shared by every execution);
* Zipf-skewed references over a working set produce the classic convex
  miss-ratio curve with a knee at the working-set size;
* cyclic sequential scans are the LRU-pathological case — a flat miss-ratio
  curve near 1 until the entire footprint fits in memory — which is exactly
  what the un-indexed BestSeller and the I/O-hungry SearchItemsByRegion
  degenerate into.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sim.rng import RandomStream, ZipfGenerator
from .indexes import BTreeIndex, IndexCatalog
from .pages import PageRange
from .tables import Table

__all__ = [
    "ExecutionAccess",
    "AccessPattern",
    "ZipfWorkingSet",
    "UniformWorkingSet",
    "SequentialChunkScan",
    "IndexLookup",
    "IndexRangeScan",
    "PlanSwitchingPattern",
    "CompositePattern",
]


@dataclass
class ExecutionAccess:
    """Page references produced by one execution of a query."""

    demand: list[int] = field(default_factory=list)
    prefetch: list[int] = field(default_factory=list)

    def merged(self, other: "ExecutionAccess") -> "ExecutionAccess":
        return ExecutionAccess(
            demand=self.demand + other.demand,
            prefetch=self.prefetch + other.prefetch,
        )

    @property
    def total_pages(self) -> int:
        return len(self.demand) + len(self.prefetch)


class AccessPattern:
    """Interface: produce the page references of one query execution."""

    def pages_for_execution(self) -> ExecutionAccess:
        raise NotImplementedError

    def footprint_pages(self) -> int:
        """Upper bound on distinct pages this pattern can ever touch."""
        raise NotImplementedError


class ZipfWorkingSet(AccessPattern):
    """Zipf-skewed references over a working set of pages.

    The working set is a deterministic pseudo-random permutation of a slice
    of the underlying page range, so rank-0 popularity does not correlate
    with physical adjacency.
    """

    def __init__(
        self,
        pages: PageRange,
        working_set: int,
        theta: float,
        pages_per_execution: int,
        stream: RandomStream,
    ) -> None:
        if working_set <= 0 or working_set > pages.count:
            raise ValueError(
                f"working set {working_set} outside (0, {pages.count}] "
                f"for range {pages.name!r}"
            )
        if pages_per_execution <= 0:
            raise ValueError(f"pages per execution must be positive: {pages_per_execution}")
        self.working_set = working_set
        self.pages_per_execution = pages_per_execution
        self._stream = stream
        layout = list(range(working_set))
        stream.shuffle(layout)
        # Page id of each popularity rank, built (and range-checked) once.
        self._rank_pages = pages.page_array(np.asarray(layout, dtype=np.int64))
        self._zipf = ZipfGenerator(working_set, theta, stream)

    def pages_for_execution(self) -> ExecutionAccess:
        ranks = self._zipf.sample_many(self.pages_per_execution)
        return ExecutionAccess(demand=self._rank_pages[ranks].tolist())

    def footprint_pages(self) -> int:
        return self.working_set


class UniformWorkingSet(AccessPattern):
    """Uniform references over a working set — a linear miss-ratio curve."""

    def __init__(
        self,
        pages: PageRange,
        working_set: int,
        pages_per_execution: int,
        stream: RandomStream,
    ) -> None:
        if working_set <= 0 or working_set > pages.count:
            raise ValueError(
                f"working set {working_set} outside (0, {pages.count}]"
            )
        self._range = pages
        self.working_set = working_set
        self.pages_per_execution = pages_per_execution
        self._stream = stream

    def pages_for_execution(self) -> ExecutionAccess:
        offsets = self._stream.integers_array(
            0, self.working_set, self.pages_per_execution
        )
        demand = self._range.page_array(offsets).tolist()
        return ExecutionAccess(demand=demand)

    def footprint_pages(self) -> int:
        return self.working_set


class SequentialChunkScan(AccessPattern):
    """A cyclic sequential scan consuming ``chunk`` pages per execution.

    Each execution continues where the previous one stopped and wraps at the
    end of the region; the engine issues ``readahead`` pages of prefetch
    beyond the chunk.  Against LRU this pattern yields (almost) no reuse
    until the whole region is resident.
    """

    def __init__(
        self,
        pages: PageRange,
        chunk: int,
        readahead: int = 32,
        region: int | None = None,
    ) -> None:
        if chunk <= 0:
            raise ValueError(f"scan chunk must be positive: {chunk}")
        if readahead < 0:
            raise ValueError(f"readahead must be non-negative: {readahead}")
        self._range = pages
        self.region = min(region or pages.count, pages.count)
        if self.region <= 0:
            raise ValueError(f"scan region must be positive: {self.region}")
        self.chunk = min(chunk, self.region)
        self.readahead = readahead
        self._cursor = 0
        self._chunk_steps = np.arange(self.chunk, dtype=np.int64)
        self._readahead_steps = np.arange(
            min(self.readahead, self.region), dtype=np.int64
        )

    def pages_for_execution(self) -> ExecutionAccess:
        demand = self._range.page_array(
            (self._cursor + self._chunk_steps) % self.region
        ).tolist()
        self._cursor = (self._cursor + self.chunk) % self.region
        # Sequential read-ahead covers the chunk being scanned plus a
        # look-ahead beyond it: the engine recognises the sequential pattern
        # and fetches ahead of the scan cursor, so the demand accesses
        # themselves land as buffer-pool hits while the I/O shows up as
        # read-ahead block requests (the Figure 4(d) signature).
        prefetch = list(demand)
        if len(self._readahead_steps):
            prefetch.extend(
                self._range.page_array(
                    (self._cursor + self._readahead_steps) % self.region
                ).tolist()
            )
        return ExecutionAccess(demand=demand, prefetch=prefetch)

    def footprint_pages(self) -> int:
        return self.region


class IndexLookup(AccessPattern):
    """Point lookups through a B+-tree followed by data-page fetches."""

    def __init__(
        self,
        index: BTreeIndex,
        stream: RandomStream,
        lookups_per_execution: int = 1,
        rows_per_lookup: int = 1,
        key_theta: float = 0.6,
        key_space: int | None = None,
    ) -> None:
        if lookups_per_execution <= 0:
            raise ValueError("lookups per execution must be positive")
        if rows_per_lookup <= 0:
            raise ValueError("rows per lookup must be positive")
        self.index = index
        self.lookups_per_execution = lookups_per_execution
        self.rows_per_lookup = rows_per_lookup
        self._stream = stream
        space = min(key_space or index.table.row_count, index.table.row_count)
        # Keys map to rows directly; skew comes from the Zipf ranks.
        self._zipf = ZipfGenerator(space, key_theta, stream)
        self._space = space

    def pages_for_execution(self) -> ExecutionAccess:
        demand: list[int] = []
        table = self.index.table
        last_row = table.row_count - 1
        stride = max(1, table.row_count // self._space)
        first_page = table.pages.start
        rows_per_page = table.rows_per_page
        # One batched draw consumes the same doubles as one sample() per
        # lookup: nothing else draws from the stream in between.
        for rank in self._zipf.sample_many(self.lookups_per_execution).tolist():
            row = min(rank * stride, last_row)
            demand.extend(self.index.lookup_path(row))
            # Rows are clamped into the table, so page_of_row's bounds
            # check cannot fire: inline its arithmetic.
            demand.extend(
                first_page + min(row + offset, last_row) // rows_per_page
                for offset in range(self.rows_per_lookup)
            )
        return ExecutionAccess(demand=demand)

    def footprint_pages(self) -> int:
        return (
            self.index.internal_pages.count
            + self.index.leaf_count
            + self.index.table.page_count
        )


class IndexRangeScan(AccessPattern):
    """Range predicates served from index leaves plus matching data pages."""

    def __init__(
        self,
        index: BTreeIndex,
        stream: RandomStream,
        row_span: int,
        start_theta: float = 0.8,
        data_page_fraction: float = 0.25,
    ) -> None:
        if row_span <= 0:
            raise ValueError(f"row span must be positive: {row_span}")
        if not 0 <= data_page_fraction <= 1:
            raise ValueError("data page fraction must be in [0, 1]")
        self.index = index
        self.row_span = row_span
        self.data_page_fraction = data_page_fraction
        self._stream = stream
        starts = max(1, index.table.row_count - row_span)
        self._zipf = ZipfGenerator(starts, start_theta, stream)

    def pages_for_execution(self) -> ExecutionAccess:
        start = self._zipf.sample()
        demand = list(self.index.range_path(start, self.row_span))
        table = self.index.table
        matched_pages = max(1, int(self.row_span / table.rows_per_page))
        fetch = max(1, int(matched_pages * self.data_page_fraction))
        first_page = table.page_of_row(start) - table.pages.start
        demand.extend(table.scan_pages(first_page, fetch))
        return ExecutionAccess(demand=demand)

    def footprint_pages(self) -> int:
        return (
            self.index.internal_pages.count
            + self.index.leaf_count
            + self.index.table.page_count
        )


class PlanSwitchingPattern(AccessPattern):
    """Chooses between an indexed plan and a fallback plan at each execution.

    This is the ``O_DATE``-drop mechanism: while ``index_name`` is available
    in the catalog the indexed plan runs; once the index is dropped every
    execution takes the fallback (scan-like) plan, changing the query class's
    footprint and miss-ratio curve without touching the workload mix.
    """

    def __init__(
        self,
        catalog: IndexCatalog,
        index_name: str,
        indexed_plan: AccessPattern,
        fallback_plan: AccessPattern,
    ) -> None:
        self._catalog = catalog
        self.index_name = index_name
        self.indexed_plan = indexed_plan
        self.fallback_plan = fallback_plan

    @property
    def using_index(self) -> bool:
        return self._catalog.available(self.index_name)

    def pages_for_execution(self) -> ExecutionAccess:
        plan = self.indexed_plan if self.using_index else self.fallback_plan
        return plan.pages_for_execution()

    def footprint_pages(self) -> int:
        plan = self.indexed_plan if self.using_index else self.fallback_plan
        return plan.footprint_pages()


class CompositePattern(AccessPattern):
    """Concatenates several sub-patterns' references in one execution.

    Models queries with multiple operators (e.g. an index probe plus a
    partial scan of a second relation).  Sub-patterns execute in order.
    """

    def __init__(self, parts: list[AccessPattern]) -> None:
        if not parts:
            raise ValueError("composite pattern needs at least one part")
        self.parts = list(parts)

    def pages_for_execution(self) -> ExecutionAccess:
        result = ExecutionAccess()
        for part in self.parts:
            access = part.pages_for_execution()
            result.demand.extend(access.demand)
            result.prefetch.extend(access.prefetch)
        return result

    def footprint_pages(self) -> int:
        return sum(part.footprint_pages() for part in self.parts)
