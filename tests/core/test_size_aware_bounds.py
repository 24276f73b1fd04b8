"""Soundness of the size-aware group bound.

A group bound must be at least the exact similarity of every *live*
member — right after the build, after ``register`` widens a group's size
range, after ``unregister`` leaves it loose, and after ``rebuild_bits``
re-tightens it.  It is checked for every registered measure, on sets and
on multisets.  The :func:`corpus` strategy is shared with the join's
property test (``test_join.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import Dataset
from repro.core.engine import as_query_record
from repro.core.search import query_group_bounds
from repro.core.similarity import MEASURES, JaccardSimilarity, Similarity, _SizePeakedMeasure
from repro.core.tgm import TokenGroupMatrix
from repro.core.updates import insert_set

TOKENS = [f"t{i}" for i in range(14)]


def token_lists(multiset: bool):
    """Sets (or multisets) of 1..12 tokens — a wide size spread on a small vocabulary."""
    if multiset:
        return st.lists(st.sampled_from(TOKENS), min_size=1, max_size=12)
    return st.lists(st.sampled_from(TOKENS), min_size=1, max_size=12, unique=True)


def corpus(multiset: bool):
    """(token lists, group of each record, query tokens, inserts, removal picks)."""
    return st.integers(min_value=2, max_value=24).flatmap(
        lambda size: st.tuples(
            st.lists(token_lists(multiset), min_size=size, max_size=size),
            st.lists(st.integers(0, 4), min_size=size, max_size=size),
            token_lists(multiset).map(lambda tokens: tokens + ["unseen"][: len(tokens) % 2]),
            st.lists(token_lists(multiset), max_size=6),
            st.lists(st.integers(0, 10_000), max_size=size),
        )
    )


def assert_bounds_cover_live_members(dataset, tgm, measure, query):
    bounds = query_group_bounds(tgm, query)
    for group_id, members in enumerate(tgm.group_members):
        for record_index in members:
            assert bounds[group_id] >= measure(query, dataset.records[record_index])


@pytest.mark.parametrize("columnar", [False, True], ids=["records", "columnar"])
@pytest.mark.parametrize("backend", ["dense", "roaring"])
@pytest.mark.parametrize("multiset", [False, True], ids=["set", "multiset"])
@pytest.mark.parametrize("name", sorted(MEASURES))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_group_bound_covers_every_live_member(name, multiset, backend, columnar, data):
    lists, assignment, query_tokens, inserts, removals = data.draw(corpus(multiset))
    measure = MEASURES[name]
    dataset = Dataset.from_token_lists(lists)
    if columnar:
        dataset.columnar()  # the build reads sizes from the CSR view
    groups = [[i for i, g in enumerate(assignment) if g == group] for group in range(5)]
    tgm = TokenGroupMatrix(dataset, groups, measure, backend)
    query = as_query_record(dataset, query_tokens)
    assert_bounds_cover_live_members(dataset, tgm, measure, query)

    for tokens in inserts:  # register: ranges widen
        insert_set(dataset, tgm, tokens)
    query = as_query_record(dataset, query_tokens)
    assert_bounds_cover_live_members(dataset, tgm, measure, query)

    live = sorted(i for members in tgm.group_members for i in members)
    for pick in removals:  # unregister: ranges stay loose
        if len(live) > 1:
            tgm.unregister(live.pop(pick % len(live)))
    assert_bounds_cover_live_members(dataset, tgm, measure, query)

    tgm.rebuild_bits(dataset)  # re-tightened to the live members
    assert_bounds_cover_live_members(dataset, tgm, measure, query)
    lo, hi = tgm.size_ranges()
    for group_id, members in enumerate(tgm.group_members):
        sizes = [len(dataset.records[i]) for i in members] or [0]
        assert (lo[group_id], hi[group_id]) == (min(sizes), max(sizes))


class TestSizedBounds:
    def test_size_blind_when_the_range_covers_the_count(self):
        jaccard = JaccardSimilarity()
        counts = np.array([0, 1, 2, 3])
        sized = jaccard.sized_bounds(counts, 3, np.full(4, 1), np.full(4, 9))
        assert sized.tolist() == jaccard.bounds_from_counts(counts, 3).tolist()

    def test_range_below_and_above_the_count(self):
        jaccard = JaccardSimilarity()
        # |Q| = 4, c = 3.  Members of size <= 2 share at most 2: 2/4.
        # Members of size >= 6 share at most 3: 3/(4 + 6 - 3).
        sized = jaccard.sized_bounds(np.array([3, 3]), 4, np.array([1, 6]), np.array([2, 9]))
        assert sized.tolist() == [2 / 4, 3 / 7]

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 40), st.integers(0, 40)),
            min_size=1, max_size=12,
        ),
        query_size=st.integers(0, 30),
    )
    def test_closed_forms_equal_the_definition(self, rows, query_size):
        """Measures that override ``sized_bounds`` return the mixin's values bit for bit."""
        counts = np.array([min(c, query_size) for c, _, _ in rows])
        lo = np.array([min(a, b) for _, a, b in rows])
        hi = np.array([max(a, b) for _, a, b in rows])
        for measure in MEASURES.values():
            assert (
                measure.sized_bounds(counts, query_size, lo, hi).tolist()
                == _SizePeakedMeasure.sized_bounds(measure, counts, query_size, lo, hi).tolist()
            )

    def test_empty_group_scores_zero(self):
        for measure in MEASURES.values():
            assert measure.sized_bounds(np.array([2]), 3, np.array([0]), np.array([0]))[0] == 0.0

    def test_third_party_measure_keeps_the_size_blind_bound(self):
        class Halved(Similarity):
            name = "halved"

            def from_overlap(self, shared, size_a, size_b):
                union = size_a + size_b - shared
                return shared / union / 2 if union else 0.0

            def group_upper_bound(self, covered, query_size):
                return covered / query_size / 2 if query_size else 0.0

        measure = Halved()
        counts = np.array([0, 1, 2])
        sized = measure.sized_bounds(counts, 2, np.array([5, 5, 5]), np.array([5, 5, 5]))
        assert sized.tolist() == measure.bounds_from_counts(counts, 2).tolist()
