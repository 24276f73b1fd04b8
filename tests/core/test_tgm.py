"""Tests for the token-group matrix, both backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import Dataset
from repro.core.sets import SetRecord
from repro.core.tgm import TokenGroupMatrix
from repro.partitioning import MinTokenPartitioner


def build_tiny_tgm(tiny_dataset, backend="dense"):
    # Figure 1's situation: two groups over T = {A, B, C, D}.
    groups = [[0, 1, 4], [2, 3, 5]]
    return TokenGroupMatrix(tiny_dataset, groups, backend=backend)


class TestConstruction:
    @pytest.mark.parametrize("backend", ["dense", "roaring"])
    def test_bits_match_membership(self, tiny_dataset, backend):
        tgm = build_tiny_tgm(tiny_dataset, backend)
        a, b, c, d = (tiny_dataset.universe.id_of(t) for t in "ABCD")
        # Group 0 = {AB, AC, ABC} covers A, B, C but not D.
        assert tgm.contains(0, a) and tgm.contains(0, b) and tgm.contains(0, c)
        assert not tgm.contains(0, d)
        # Group 1 = {BCD, D, CD} covers B, C, D but not A.
        assert not tgm.contains(1, a)
        assert tgm.contains(1, d)

    def test_unknown_backend_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="backend"):
            TokenGroupMatrix(tiny_dataset, [[0]], backend="wat")

    def test_group_vocabulary_size(self, tiny_dataset):
        tgm = build_tiny_tgm(tiny_dataset)
        assert tgm.group_vocabulary_size(0) == 3
        assert tgm.group_vocabulary_size(1) == 3

    def test_out_of_range_token_contains_false(self, tiny_dataset):
        tgm = build_tiny_tgm(tiny_dataset)
        assert not tgm.contains(0, 999)


class TestBounds:
    def test_figure1_example(self, tiny_dataset):
        """Query {A}: paper bound 1 for the group containing A, 0 for the other."""
        tgm = build_tiny_tgm(tiny_dataset)
        a = tiny_dataset.universe.id_of("A")
        paper = tgm.measure.bounds_from_counts(tgm.covered_counts([a]), 1)
        assert paper[0] == pytest.approx(1.0)
        assert paper[1] == pytest.approx(0.0)
        # Group 0's members hold 2..3 tokens, so none can beat {A} vs {A, B}.
        bounds = tgm.upper_bounds([a], 1)
        assert bounds[0] == pytest.approx(0.5)
        assert bounds[1] == pytest.approx(0.0)

    def test_unseen_token_dilutes_bound(self, tiny_dataset):
        tgm = build_tiny_tgm(tiny_dataset)
        a = tiny_dataset.universe.id_of("A")
        # Query {A, unseen}: |Q| = 2 but only A can be covered.
        paper = tgm.measure.bounds_from_counts(tgm.covered_counts([a]), 2)
        assert paper[0] == pytest.approx(0.5)
        # ... and a member of size >= 2 sharing only A scores at most 1/3.
        bounds = tgm.upper_bounds([a], 2)
        assert bounds[0] == pytest.approx(1 / 3)

    def test_empty_known_tokens(self, tiny_dataset):
        tgm = build_tiny_tgm(tiny_dataset)
        assert (tgm.upper_bounds([], 3) == 0.0).all()

    def test_multiset_query_bound_uses_multiplicity(self):
        """Regression: Q = {a,a} against a group holding {a,a} must bound 1.

        A group's vocabulary only records *presence*, so the best-case
        overlap for a covered token is the query's full multiplicity; the
        unweighted bound (1/2 here) would wrongly prune the exact match.
        """
        dataset = Dataset.from_token_lists([["a", "a"], ["b"]])
        tgm = TokenGroupMatrix(dataset, [[0], [1]])
        a = dataset.universe.id_of("a")
        bounds = tgm.upper_bounds([a], query_size=2, weights=[2])
        assert bounds[0] == pytest.approx(1.0)
        unweighted = tgm.measure.bounds_from_counts(tgm.covered_counts([a]), 2)
        assert unweighted[0] == pytest.approx(0.5)
        # Size-aware: the group's one member has 2 tokens, so at most 1/3.
        assert tgm.upper_bounds([a], query_size=2)[0] == pytest.approx(1 / 3)

    @pytest.mark.parametrize("backend", ["dense", "roaring"])
    def test_weighted_counts_backends_agree(self, zipf_small, backend):
        partition = MinTokenPartitioner().partition(zipf_small, 8)
        dense = TokenGroupMatrix(zipf_small, partition.groups, backend="dense")
        other = TokenGroupMatrix(zipf_small, partition.groups, backend=backend)
        tokens = [0, 3, 7]
        weights = [2, 1, 3]
        np.testing.assert_array_equal(
            dense.covered_counts(tokens, weights), other.covered_counts(tokens, weights)
        )

    @pytest.mark.parametrize("backend", ["dense", "roaring"])
    def test_backends_agree(self, zipf_small, backend):
        partition = MinTokenPartitioner().partition(zipf_small, 8)
        dense = TokenGroupMatrix(zipf_small, partition.groups, backend="dense")
        other = TokenGroupMatrix(zipf_small, partition.groups, backend=backend)
        query = list(zipf_small.records[3].distinct)
        np.testing.assert_allclose(
            dense.upper_bounds(query, len(query)), other.upper_bounds(query, len(query))
        )

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=249), min_size=1, max_size=10))
    def test_bound_dominates_every_member(self, query_tokens):
        """Core invariant: UB(Q, G) >= Sim(Q, S) for all S ∈ G."""
        from repro.datasets import zipf_dataset

        dataset = zipf_dataset(120, 250, (2, 8), seed=5)
        partition = MinTokenPartitioner().partition(dataset, 6)
        tgm = TokenGroupMatrix(dataset, partition.groups)
        query = SetRecord(query_tokens)
        bounds = tgm.upper_bounds(list(query.distinct), len(query))
        for group_id, members in enumerate(tgm.group_members):
            for record_index in members:
                similarity = tgm.measure(query, dataset.records[record_index])
                assert bounds[group_id] >= similarity - 1e-12


class TestUpdates:
    def test_extend_universe_grows_columns(self, tiny_dataset):
        tgm = build_tiny_tgm(tiny_dataset)
        tgm.extend_universe(10)
        assert tgm.universe_size == 10
        assert not tgm.contains(0, 9)

    def test_extend_universe_cannot_shrink(self, tiny_dataset):
        tgm = build_tiny_tgm(tiny_dataset)
        with pytest.raises(ValueError):
            tgm.extend_universe(1)

    @pytest.mark.parametrize("backend", ["dense", "roaring"])
    def test_register_flips_bits_and_grows(self, backend):
        dataset = Dataset.from_token_lists([["a", "b"], ["c"]])
        tgm = TokenGroupMatrix(dataset, [[0], [1]], backend=backend)
        new_record = SetRecord([0, 4])  # token 4 is new
        dataset.universe.intern_all(["x", "y", "z"])
        dataset.append(new_record)
        tgm.register(0, 2, new_record)
        assert tgm.universe_size >= 5
        assert tgm.contains(0, 4)
        assert 2 in tgm.group_members[0]


class TestSize:
    def test_dense_size_is_bits(self, tiny_dataset):
        tgm = build_tiny_tgm(tiny_dataset)
        assert tgm.byte_size() == (2 * 4 + 7) // 8

    def test_roaring_smaller_on_sparse_data(self):
        from repro.datasets import zipf_dataset

        dataset = zipf_dataset(200, 60_000, (2, 6), seed=3)
        partition = MinTokenPartitioner().partition(dataset, 4)
        dense = TokenGroupMatrix(dataset, partition.groups, backend="dense")
        roaring = TokenGroupMatrix(dataset, partition.groups, backend="roaring")
        roaring.run_optimize()
        assert roaring.byte_size() < dense.byte_size()

    def test_repr_mentions_backend(self, tiny_dataset):
        assert "dense" in repr(build_tiny_tgm(tiny_dataset))
