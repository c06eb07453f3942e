"""Unit tests for Mattson stack analysis and miss-ratio curves."""

import numpy as np
import pytest
from mrc_oracle import FenwickTree

from repro.core.mrc import (
    MissRatioCurve,
    MRCParameters,
    MRCTracker,
    stack_distances,
)
from repro.engine.bufferpool import LRUBufferPool


class TestFenwickTree:
    def test_prefix_sum_empty(self):
        assert FenwickTree(10).prefix_sum(5) == 0

    def test_add_and_prefix(self):
        tree = FenwickTree(10)
        tree.add(3, 1)
        tree.add(7, 2)
        assert tree.prefix_sum(4) == 1
        assert tree.prefix_sum(8) == 3

    def test_range_sum(self):
        tree = FenwickTree(10)
        for i in range(10):
            tree.add(i, 1)
        assert tree.range_sum(2, 5) == 3

    def test_negative_delta(self):
        tree = FenwickTree(4)
        tree.add(1, 1)
        tree.add(1, -1)
        assert tree.prefix_sum(4) == 0

    def test_prefix_clips_at_size(self):
        tree = FenwickTree(4)
        tree.add(0, 1)
        assert tree.prefix_sum(100) == 1

    def test_out_of_range_add(self):
        with pytest.raises(IndexError):
            FenwickTree(4).add(4, 1)

    def test_invalid_range(self):
        with pytest.raises(IndexError):
            FenwickTree(4).range_sum(3, 1)


class TestStackDistances:
    def test_first_accesses_are_cold(self):
        assert stack_distances([1, 2, 3]).tolist() == [0, 0, 0]

    def test_immediate_reuse_distance_one(self):
        assert stack_distances([1, 1]).tolist() == [0, 1]

    def test_classic_example(self):
        # Trace a b c a: the reuse of a sees b and c in between -> depth 3.
        assert stack_distances([1, 2, 3, 1]).tolist() == [0, 0, 0, 3]

    def test_repeated_intermediate_counts_once(self):
        # a b b a: only one distinct page between the two accesses to a.
        assert stack_distances([1, 2, 2, 1]).tolist() == [0, 0, 1, 2]

    def test_empty_trace(self):
        assert len(stack_distances([])) == 0

    def test_matches_naive_implementation(self):
        rng = np.random.default_rng(5)
        trace = rng.integers(0, 30, size=300)

        def naive(trace):
            stack = []
            out = []
            for page in trace:
                if page in stack:
                    depth = len(stack) - stack.index(page)
                    out.append(depth)
                    stack.remove(page)
                else:
                    out.append(0)
                stack.append(page)
            return out

        assert stack_distances(trace).tolist() == naive(trace.tolist())


class TestMissRatioCurve:
    def test_zero_memory_always_misses(self):
        curve = MissRatioCurve.from_trace([1, 1, 2, 2])
        assert curve.miss_ratio(0) == 1.0

    def test_large_memory_leaves_cold_misses(self):
        trace = [1, 2, 3, 1, 2, 3]
        curve = MissRatioCurve.from_trace(trace)
        assert curve.miss_ratio(100) == pytest.approx(0.5)  # 3 cold of 6

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(7)
        trace = rng.integers(0, 50, size=2000)
        curve = MissRatioCurve.from_trace(trace)
        ratios = [curve.miss_ratio(m) for m in range(0, 60)]
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_matches_lru_simulation(self):
        # Mattson's one-pass prediction must equal an actual LRU pool.
        rng = np.random.default_rng(11)
        trace = rng.integers(0, 40, size=1500)
        curve = MissRatioCurve.from_trace(trace)
        for capacity in (1, 4, 16, 64):
            pool = LRUBufferPool(capacity)
            for page in trace:
                pool.access(int(page))
            assert curve.hits_at(capacity) == pool.stats.hits

    def test_cyclic_scan_is_lru_pathological(self):
        # Scanning N pages cyclically: zero hits until the region fits.
        trace = list(range(20)) * 5
        curve = MissRatioCurve.from_trace(trace)
        assert curve.miss_ratio(19) == 1.0
        assert curve.miss_ratio(20) == pytest.approx(20 / 100)

    def test_empty_trace_safe(self):
        curve = MissRatioCurve.from_trace([])
        assert curve.miss_ratio(10) == 0.0

    def test_curve_sampling(self):
        curve = MissRatioCurve.from_trace([1, 1, 2, 2])
        samples = curve.curve([1, 2])
        assert samples[0][0] == 1 and 0.0 <= samples[0][1] <= 1.0

    def test_rejects_negative_memory(self):
        with pytest.raises(ValueError):
            MissRatioCurve.from_trace([1]).miss_ratio(-1)


class TestParameters:
    def test_total_memory_capped_by_server(self):
        trace = list(range(100)) + list(range(100))
        curve = MissRatioCurve.from_trace(trace)
        params = curve.parameters(server_memory_pages=50)
        assert params.total_memory <= 50

    def test_total_memory_at_saturation(self):
        # Working set of 10 pages heavily reused: saturates at 10 pages.
        trace = list(range(10)) * 50
        curve = MissRatioCurve.from_trace(trace)
        params = curve.parameters(server_memory_pages=1000)
        assert params.total_memory == 10

    def test_acceptable_at_most_total(self):
        trace = list(range(10)) * 50
        params = MissRatioCurve.from_trace(trace).parameters(1000)
        assert params.acceptable_memory <= params.total_memory

    def test_acceptable_ratio_within_threshold(self):
        rng = np.random.default_rng(3)
        trace = rng.integers(0, 200, size=5000)
        curve = MissRatioCurve.from_trace(trace)
        params = curve.parameters(1000, acceptable_threshold=0.05)
        assert params.acceptable_miss_ratio <= params.ideal_miss_ratio + 0.05 + 1e-9

    def test_rejects_bad_server_memory(self):
        with pytest.raises(ValueError):
            MissRatioCurve.from_trace([1]).parameters(0)


class TestSignificance:
    def base(self, total=4000, acceptable=3000):
        return MRCParameters(
            total_memory=total,
            ideal_miss_ratio=0.1,
            acceptable_memory=acceptable,
            acceptable_miss_ratio=0.15,
        )

    def test_identical_not_significant(self):
        assert not self.base().significantly_differs_from(self.base())

    def test_large_relative_change_significant(self):
        changed = self.base(acceptable=1500)
        assert changed.significantly_differs_from(self.base())

    def test_change_below_relative_threshold_not_significant(self):
        changed = self.base(acceptable=2800)
        assert not changed.significantly_differs_from(self.base())

    def test_small_absolute_change_never_significant(self):
        # 40-page jitter in a 100-page class: relative 40% but absolute tiny.
        small = MRCParameters(100, 0.1, 100, 0.1)
        jitter = MRCParameters(140, 0.1, 140, 0.1)
        assert not jitter.significantly_differs_from(small)

    def test_direction_symmetric(self):
        grown = self.base(acceptable=6000)
        shrunk = self.base(acceptable=1000)
        assert grown.significantly_differs_from(self.base())
        assert shrunk.significantly_differs_from(self.base())

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            self.base().significantly_differs_from(self.base(), relative=-1)


class TestMRCTracker:
    def test_compute_and_lookup(self):
        tracker = MRCTracker(server_memory_pages=100)
        params = tracker.compute("app/q", list(range(10)) * 5)
        assert tracker.has("app/q")
        assert tracker.parameters_of("app/q") == params

    def test_unknown_context_raises(self):
        tracker = MRCTracker(server_memory_pages=100)
        with pytest.raises(KeyError):
            tracker.parameters_of("ghost")

    def test_recomputation_counter(self):
        tracker = MRCTracker(server_memory_pages=100)
        tracker.compute("a", [1, 2, 3])
        tracker.compute("a", [1, 2, 3, 4])
        assert tracker.recomputations == 2

    def test_forget(self):
        tracker = MRCTracker(server_memory_pages=100)
        tracker.compute("a", [1, 2])
        tracker.forget("a")
        assert not tracker.has("a")

    def test_store_external_curve(self):
        tracker = MRCTracker(server_memory_pages=100)
        curve = MissRatioCurve.from_trace([1, 1, 2])
        params = curve.parameters(100)
        tracker.store("x", curve, params)
        assert tracker.curve_of("x") is curve
        assert tracker.parameters_of("x") == params

    def test_contexts_sorted(self):
        tracker = MRCTracker(server_memory_pages=100)
        tracker.compute("b", [1])
        tracker.compute("a", [1])
        assert tracker.contexts() == ["a", "b"]


class TestNoReuseEdgeCase:
    """All-cold traces (``max_depth == 0``) — the curve has no shape.

    A trace that never revisits a page yields zero warm hits: no amount of
    memory helps, so every size is equivalent and the MRC parameters
    collapse to the documented convention of one page.
    """

    def test_all_cold_trace_has_no_depth(self):
        curve = MissRatioCurve.from_trace([1, 2, 3, 4])
        assert curve.max_depth == 0
        assert curve.minimum_miss_ratio == 1.0

    def test_smallest_size_clamps_to_one_page(self):
        curve = MissRatioCurve.from_trace([1, 2, 3, 4])
        for target in (0.0, 0.5, 1.0, 2.0):
            assert curve._smallest_size_with_ratio(target) == 1

    def test_parameters_collapse_to_one_page(self):
        params = MissRatioCurve.from_trace([1, 2, 3, 4]).parameters(8192)
        assert params.total_memory == 1
        assert params.ideal_miss_ratio == 1.0
        assert params.acceptable_memory == 1
        assert params.acceptable_miss_ratio == 1.0

    def test_empty_trace_parameters(self):
        params = MissRatioCurve.from_trace([]).parameters(8192)
        assert params.total_memory == 1
        assert params.ideal_miss_ratio == 0.0  # no accesses, no misses
        assert params.acceptable_memory == 1

    def test_single_access_trace(self):
        params = MissRatioCurve.from_trace([42]).parameters(8192)
        assert params.total_memory == 1
        assert params.ideal_miss_ratio == 1.0


class TestTrackerTelemetry:
    def test_compute_publishes_counter_and_histogram(self):
        from repro.obs import MetricRegistry

        registry = MetricRegistry()
        tracker = MRCTracker(server_memory_pages=100, registry=registry)
        tracker.compute("tpcw/q1", [1, 2, 1, 2])
        tracker.compute("tpcw/q2", [1, 2, 3])
        tracker.compute("rubis/q1", [5, 5])
        assert registry.value("mrc.recomputations", app="tpcw") == 2.0
        assert registry.value("mrc.recomputations", app="rubis") == 1.0
        hist = registry.histogram("mrc.trace_length")
        assert hist.count == 3
        assert hist.sum == 4 + 3 + 2

    def test_store_counts_as_recomputation(self):
        from repro.obs import MetricRegistry

        registry = MetricRegistry()
        tracker = MRCTracker(server_memory_pages=100, registry=registry)
        curve = MissRatioCurve.from_trace([1, 1, 2])
        tracker.store("tpcw/q1", curve, curve.parameters(100))
        assert registry.value("mrc.recomputations", app="tpcw") == 1.0
        assert tracker.recomputations == 1

    def test_default_registry_records_nothing(self):
        tracker = MRCTracker(server_memory_pages=100)
        tracker.compute("tpcw/q1", [1, 2, 1])
        assert tracker.registry.snapshot() == []
        assert tracker.recomputations == 1
