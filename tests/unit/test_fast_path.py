"""Differential tests for the per-query fast path.

Class sampling, Zipf draws, B+-tree lookup paths and index lookups each
have a cheaper implementation than the obvious one.  Every case here
pins the cheap one to the obvious one — numpy's own ``choice(p=)``, an
explicit ``searchsorted``, the per-call tree walk, one draw per lookup —
index for index, so a seeded run produces the same pages as before.
"""

import math

import numpy as np
import pytest

from repro.engine.access import IndexLookup
from repro.engine.indexes import BTreeIndex
from repro.engine.pages import PageSpaceAllocator
from repro.engine.tables import Table
from repro.sim.rng import RandomStream, ZipfGenerator

DRAWS = 20_000


def reference_choices(seed, vectors):
    """numpy's weighted choice, one call per draw, on a fresh generator
    seeded like ``RandomStream``'s."""
    rng = np.random.default_rng(seed)
    picks = []
    for weights in vectors:
        probs = np.asarray(weights, dtype=float)
        picks.append(int(rng.choice(len(probs), p=probs / probs.sum())))
    return picks


def fast_choices(stream, vectors):
    return [stream.choice(range(len(w)), weights=w) for w in vectors]


class TestCachedChoice:
    @pytest.mark.parametrize(
        "weights",
        [
            [1.0, 2.0, 3.0, 4.0],
            [0.0, 5.0, 0.0, 1.0, 0.0],  # zero weights, leading and trailing
            [3.0, 0.0],
            [0.1] * 14,
        ],
    )
    def test_matches_numpy_choice(self, weights):
        stream = RandomStream(11, "mix")
        vectors = [weights] * DRAWS
        assert fast_choices(stream, vectors) == reference_choices(
            stream.seed, vectors
        )

    def test_weight_vector_changed_mid_stream(self):
        stream = RandomStream(12, "mix")
        before = [5.0, 1.0, 1.0, 3.0]
        after = [5.0, 1.0, 4.0, 3.0]  # a zoo burst scales one class
        vectors = [before] * (DRAWS // 2) + [after] * (DRAWS // 2)
        assert fast_choices(stream, vectors) == reference_choices(
            stream.seed, vectors
        )

    def test_alternating_weight_vectors(self):
        stream = RandomStream(13, "mix")
        first, second = [1.0, 2.0, 3.0], [3.0, 0.0, 1.0, 2.0]
        vectors = [first if i % 2 else second for i in range(DRAWS)]
        assert fast_choices(stream, vectors) == reference_choices(
            stream.seed, vectors
        )

    def test_numpy_weight_array(self):
        stream = RandomStream(14, "mix")
        weights = np.array([0.5, 0.25, 0.0, 0.25])
        vectors = [weights] * DRAWS
        assert fast_choices(stream, vectors) == reference_choices(
            stream.seed, vectors
        )

    def test_mutated_list_is_a_new_vector(self):
        stream = RandomStream(15, "mix")
        weights = [1.0, 1.0]
        expected = reference_choices(stream.seed, [[1.0, 1.0]] + [[0.0, 1.0]] * 50)
        picks = [stream.choice([0, 1], weights=weights)]
        weights[0] = 0.0  # same list object, new contents
        picks += [stream.choice([0, 1], weights=weights) for _ in range(50)]
        assert picks == expected
        assert set(picks[1:]) == {1}

    def test_unweighted_choice_unchanged(self):
        stream = RandomStream(16, "plain")
        rng = np.random.default_rng(stream.seed)
        items = list("abcdefg")
        assert [stream.choice(items) for _ in range(500)] == [
            items[int(rng.integers(0, len(items)))] for _ in range(500)
        ]


class TestCachedChoiceErrors:
    @pytest.mark.parametrize(
        "items, weights",
        [
            (["a", "b"], [0.0, 0.0]),  # zero sum
            (["a"], [-1.0]),  # negative sum
            (["a", "b"], [3.0, -1.0]),  # a negative weight, positive sum
            (["a", "b"], [math.nan, 1.0]),  # NaN
            (["a", "b"], [math.inf, 1.0]),  # inf normalises to NaN
            (["a", "b", "c"], [1.0, 1.0]),  # length mismatch
            ([], []),  # empty
        ],
    )
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_raises_value_error(self, items, weights):
        with pytest.raises(ValueError):
            RandomStream(1, "bad").choice(items, weights=weights)

    def test_raises_after_a_valid_vector_is_cached(self):
        stream = RandomStream(1, "bad")
        stream.choice(["a", "b"], weights=[1.0, 1.0])
        with pytest.raises(ValueError):
            stream.choice(["a", "b"], weights=[0.0, 0.0])
        with pytest.raises(ValueError):
            stream.choice(["a", "b", "c"], weights=[1.0, 1.0])

    def test_failed_vector_draws_nothing(self):
        stream = RandomStream(2, "bad")
        twin = RandomStream(2, "bad")
        with pytest.raises(ValueError):
            stream.choice(["a", "b"], weights=[1.0, -1.0])
        assert stream.generator.random() == twin.generator.random()


class TestZipfDraws:
    @pytest.mark.parametrize("n, theta", [(1, 0.9), (7, 0.0), (1000, 0.8), (50_000, 1.2)])
    def test_sample_matches_uniform_searchsorted(self, n, theta):
        zipf = ZipfGenerator(n, theta, RandomStream(3, "zipf"))
        rng = np.random.default_rng(zipf._stream.seed)
        cdf = zipf._cdf
        expected = [
            int(np.searchsorted(cdf, rng.uniform(), side="left"))
            for _ in range(5000)
        ]
        assert [zipf.sample() for _ in range(5000)] == expected

    @pytest.mark.parametrize("n, theta", [(1, 0.9), (1000, 0.8), (50_000, 1.2)])
    def test_sample_many_matches_uniform_searchsorted(self, n, theta):
        zipf = ZipfGenerator(n, theta, RandomStream(4, "zipf"))
        rng = np.random.default_rng(zipf._stream.seed)
        for count in (0, 1, 25, 4000):
            expected = np.searchsorted(
                zipf._cdf, rng.uniform(size=count), side="left"
            )
            drawn = zipf.sample_many(count)
            assert drawn.dtype == np.int64
            assert drawn.tolist() == expected.tolist()

    def test_sample_and_sample_many_share_the_stream(self):
        a = ZipfGenerator(300, 0.9, RandomStream(5, "zipf"))
        b = ZipfGenerator(300, 0.9, RandomStream(5, "zipf"))
        assert [a.sample() for _ in range(64)] == b.sample_many(64).tolist()


def per_call_lookup_path(index, row):
    """The tree walk as it was computed on every lookup before the
    per-level layout moved to construction."""
    leaf_index = min(row // index.leaf_entries, index.leaf_count - 1)
    level_sizes = []
    size = index.leaf_count
    while size > 1:
        size = -(-size // index.fanout)
        level_sizes.append(size)
    offset_base = 0
    offsets = []
    for size in reversed(level_sizes):
        stride = max(1, index.leaf_count // size)
        offsets.append(offset_base + min(leaf_index // stride, size - 1))
        offset_base += size
    if not offsets:
        offsets = [0]
    path = [
        index.internal_pages.page(min(o, index.internal_pages.count - 1))
        for o in offsets
    ]
    path.append(index.leaf_of_row(row))
    return path


def make_index(rows, fanout, leaf_entries):
    allocator = PageSpaceAllocator(base=1000)
    table = Table.create(allocator, "t", row_count=rows, row_bytes=512)
    return BTreeIndex.create(
        allocator, "idx", table, fanout=fanout, leaf_entries=leaf_entries
    )


class TestLookupPath:
    @pytest.mark.parametrize(
        "rows, fanout, leaf_entries, height",
        [
            (50, 4, 100, 1),  # a single leaf: the root is the only internal page
            (1000, 16, 100, 2),
            (1000, 10, 100, 2),  # exactly fanout leaves
            (4000, 8, 100, 3),
            (700, 7, 20, 3),  # ragged last page at both internal levels
            (5000, 8, 40, 4),
            (9999, 7, 13, 5),
        ],
    )
    def test_matches_per_call_formula_for_every_row(
        self, rows, fanout, leaf_entries, height
    ):
        index = make_index(rows, fanout, leaf_entries)
        assert index.height == height
        for row in range(rows):
            assert index.lookup_path(row) == per_call_lookup_path(index, row)

    def test_rows_outside_the_table_still_raise(self):
        index = make_index(1000, 16, 100)
        for row in (-1, 1000):
            with pytest.raises(IndexError):
                index.lookup_path(row)


class TestIndexLookupBatchedDraws:
    @pytest.mark.parametrize(
        "lookups, rows_per_lookup, key_space",
        [(1, 1, None), (3, 1, None), (5, 2, 700), (8, 3, 20_000)],
    )
    def test_same_pages_as_one_draw_per_lookup(
        self, lookups, rows_per_lookup, key_space
    ):
        index = make_index(20_000, 12, 50)
        pattern = IndexLookup(
            index, RandomStream(9, "lookup"), lookups, rows_per_lookup,
            key_theta=0.7, key_space=key_space,
        )
        reference = ZipfGenerator(
            min(key_space or 20_000, 20_000), 0.7, RandomStream(9, "lookup")
        )
        table = index.table
        for _ in range(300):
            expected = []
            for _ in range(lookups):
                row = reference.sample() * max(1, table.row_count // pattern._space)
                row = min(row, table.row_count - 1)
                expected.extend(index.lookup_path(row))
                for offset in range(rows_per_lookup):
                    expected.append(
                        table.page_of_row(min(row + offset, table.row_count - 1))
                    )
            assert pattern.pages_for_execution().demand == expected
