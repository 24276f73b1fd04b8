"""Tests for the prefix-filter similarity self-join.

The join must return bit-identical pairs to the armed oracle of
:mod:`repro.testing.oracle` — the plain all-pairs scalar walk over the
live records, with no filter of any kind — same records, same float64
similarities, same order, for every measure, backend, chunk budget,
shard count, and after updates.
"""

import random
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_size_aware_bounds import corpus

from repro.core import (
    LES3,
    Dataset,
    TokenGroupMatrix,
    group_join_profiles,
    similarity_self_join,
)
from repro.core.similarity import MEASURES
from repro.datasets import zipf_dataset
from repro.distributed import ShardedLES3
from repro.partitioning import MinTokenPartitioner
from repro.testing import oracle


def verification(verify):
    """The scalar oracle for ``"scalar"``, the prefix-filter join otherwise."""
    return oracle.armed() if verify == "scalar" else nullcontext()


def scalar_self_join(*args, **kwargs):
    with oracle.armed():
        return similarity_self_join(*args, **kwargs)


@pytest.fixture(scope="module")
def indexed(zipf_small):
    partition = MinTokenPartitioner().partition(zipf_small, 12)
    return zipf_small, TokenGroupMatrix(zipf_small, partition.groups)


class TestExactness:
    @pytest.mark.parametrize("threshold", [0.3, 0.6, 0.9])
    def test_matches_brute_force(self, indexed, threshold):
        dataset, tgm = indexed
        result = similarity_self_join(dataset, tgm, threshold)
        assert result.pairs == scalar_self_join(dataset, tgm, threshold).pairs

    def test_cosine_join(self, zipf_small):
        partition = MinTokenPartitioner().partition(zipf_small, 8)
        tgm = TokenGroupMatrix(zipf_small, partition.groups, measure="cosine")
        result = similarity_self_join(zipf_small, tgm, 0.8)
        assert result.pairs == scalar_self_join(zipf_small, tgm, 0.8).pairs

    def test_duplicates_found(self):
        dataset = Dataset.from_token_lists([["a", "b"], ["a", "b"], ["c", "d"]])
        tgm = TokenGroupMatrix(dataset, [[0, 2], [1]])
        result = similarity_self_join(dataset, tgm, 1.0)
        assert result.pairs == [(0, 1, 1.0)]

    @pytest.mark.parametrize("groups", [[[0, 1], [2]], [[0], [1, 2]]])
    @pytest.mark.parametrize("verify", ["columnar", "scalar"])
    def test_multisets_sharing_a_token_twice(self, groups, verify):
        """Regression: one shared distinct token may be two units of overlap.

        The join expands {a, a} into the elements (a, 0) and (a, 1), so the
        identical pair shares two elements and scores 1.0.
        """
        dataset = Dataset.from_token_lists([["a", "a"], ["a", "a"], ["b"]])
        tgm = TokenGroupMatrix(dataset, groups)
        with verification(verify):
            assert similarity_self_join(dataset, tgm, 0.5).pairs == [(0, 1, 1.0)]

    def test_oracle_scores_every_live_pair(self):
        """The armed join is an independent reference: no filter at all."""
        engine = LES3.build(
            zipf_dataset(60, 90, (2, 8), seed=5), num_groups=4,
            partitioner=MinTokenPartitioner(),
        )
        engine.remove(7)
        with oracle.armed():
            result = engine.join(0.9)
        assert result.stats.candidates_verified == 59 * 58 // 2


class TestFloatRounding:
    """A pair that reaches δ exactly, where float64 rounds the filter's bound.

    Record 1 shares ``overlap`` tokens with record 0, and they are record
    0's most frequent (last-ranked) ones.  ``f · |S_0|`` rounds up past
    the integer ``overlap`` (``0.28 * 25 == 7.000000000000001``,
    ``0.8 * 0.8 * 25 == 16.000000000000004``), so a prefix cut at
    ``|S| − ⌈f·|S|⌉ + 1`` holds none of the shared tokens; and for the
    max-bounded measures ``|S_1| / f`` rounds down below ``|S_0|``
    (``7 / 0.28 == 24.999999999999996``), so a length filter without
    slack drops record 0.
    """

    @pytest.mark.parametrize(
        "measure, threshold, size, overlap, other",
        [
            ("jaccard", 0.28, 25, 7, 0),
            ("dice", 0.1, 57, 3, 0),
            ("cosine", 0.8, 25, 16, 0),
            ("overlap", 0.28, 25, 7, 18),
            ("containment", 0.28, 25, 7, 18),
        ],
    )
    def test_pair_at_the_threshold_is_found(self, measure, threshold, size, overlap, other):
        common = [f"c{i}" for i in range(overlap)]
        rare = [f"r{i}" for i in range(size - overlap)]
        extra = [f"e{i}" for i in range(other)]
        dataset = Dataset.from_token_lists([rare + common, common + extra])
        tgm = TokenGroupMatrix(dataset, [[0, 1]], measure)
        similarity = tgm.measure.from_overlap(overlap, size, overlap + other)
        assert similarity >= threshold
        assert similarity_self_join(dataset, tgm, threshold).pairs == [(0, 1, similarity)]
        assert scalar_self_join(dataset, tgm, threshold).pairs == [(0, 1, similarity)]


class TestPruning:
    def test_prefix_filter_prunes_clustered_data(self):
        """Token-disjoint clusters: no cross-cluster pair is ever a candidate."""
        rng = random.Random(6)
        lists = []
        for cluster in range(4):
            base = cluster * 40
            for _ in range(20):
                lists.append([str(t) for t in rng.sample(range(base, base + 30), 6)])
        dataset = Dataset.from_token_lists(lists)
        tgm = TokenGroupMatrix(
            dataset, [list(range(c * 20, (c + 1) * 20)) for c in range(4)]
        )
        result = similarity_self_join(dataset, tgm, 0.4)
        within_clusters = 4 * 20 * 19 // 2
        assert 0 < result.stats.candidates_verified <= within_clusters
        assert result.stats.similarity_computations == result.stats.candidates_verified
        assert result.pairs == scalar_self_join(dataset, tgm, 0.4).pairs

    def test_higher_threshold_verifies_less(self, indexed):
        dataset, tgm = indexed
        loose = similarity_self_join(dataset, tgm, 0.5).stats.candidates_verified
        strict = similarity_self_join(dataset, tgm, 0.95).stats.candidates_verified
        assert strict <= loose


THRESHOLDS = (0.14, 0.28, 0.5, 0.7, 0.8, 1.0)


def assert_joins_match_the_oracle(engines):
    for threshold in THRESHOLDS:
        with oracle.armed():
            expected = engines[0].join(threshold).pairs
        for engine in engines:
            with oracle.armed():
                assert engine.join(threshold).pairs == expected
            assert engine.join(threshold).pairs == expected


@pytest.mark.parametrize("multiset", [False, True], ids=["set", "multiset"])
@pytest.mark.parametrize("name", sorted(MEASURES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_prefix_join_equals_the_oracle(name, multiset, data):
    """Single engine and 2- and 3-shard engines, before and after writes."""
    lists, assignment, _, inserts, removals = data.draw(corpus(multiset))
    groups = [[i for i, g in enumerate(assignment) if g == group] for group in range(5)]
    groups = [members for members in groups if members]  # a shard never holds only empty groups

    def engine(shards):
        dataset = Dataset.from_token_lists(lists)
        single = LES3(dataset, TokenGroupMatrix(dataset, groups, MEASURES[name]))
        return single if shards == 1 else ShardedLES3.from_engine(single, shards, workers=1)

    engines = [engine(shards) for shards in (1, 2, 3)]
    assert_joins_match_the_oracle(engines)
    live = list(range(len(lists)))
    picks = []
    for pick in removals:
        if len(live) > 1:
            picks.append(live.pop(pick % len(live)))
    for each in engines:
        for tokens in inserts:
            each.insert(tokens)
        for record_index in picks:
            each.remove(record_index)
    assert_joins_match_the_oracle(engines)


class TestColumnarEquivalence:
    """The prefix-filter join must match the scalar oracle: identical pairs."""

    @pytest.mark.parametrize(
        "measure", sorted(["jaccard", "dice", "cosine", "overlap", "containment"])
    )
    @pytest.mark.parametrize("backend", ["dense", "roaring"])
    def test_measures_and_backends(self, zipf_small, measure, backend):
        partition = MinTokenPartitioner().partition(zipf_small, 10)
        tgm = TokenGroupMatrix(zipf_small, partition.groups, measure, backend)
        for threshold in (0.4, 0.8):
            scalar = scalar_self_join(zipf_small, tgm, threshold)
            columnar = similarity_self_join(zipf_small, tgm, threshold)
            assert columnar.pairs == scalar.pairs  # identical floats, identical order

    def test_tiny_tiling_budget_is_exact(self, indexed):
        """max_cells=1 forces one probing record per chunk; pairs must not change."""
        dataset, tgm = indexed
        expected = scalar_self_join(dataset, tgm, 0.5).pairs
        for max_cells in (1, 7, 64):
            tiled = similarity_self_join(dataset, tgm, 0.5, max_cells=max_cells)
            assert tiled.pairs == expected

    def test_multiset_records(self):
        rng = random.Random(3)
        dataset = Dataset.from_token_lists(
            [
                [rng.randrange(40) for _ in range(rng.randint(1, 9))]
                for _ in range(70)
            ]
        )
        partition = MinTokenPartitioner().partition(dataset, 6)
        tgm = TokenGroupMatrix(dataset, partition.groups)
        scalar = scalar_self_join(dataset, tgm, 0.5)
        columnar = similarity_self_join(dataset, tgm, 0.5)
        assert columnar.pairs == scalar.pairs

    def test_equivalence_after_inserts_and_removes(self):
        dataset = zipf_dataset(100, 160, (2, 7), seed=19)
        engine = LES3.build(dataset, num_groups=5, partitioner=MinTokenPartitioner())
        engine.join(0.5)  # build the columnar view before mutating
        engine.insert(["77", "78", "brand-new-token"])
        engine.insert(["1", "1", "2"])
        engine.remove(3)
        engine.remove(41)
        for threshold in (0.3, 0.7):
            with oracle.armed():
                scalar = engine.join(threshold)
            columnar = engine.join(threshold)
            assert columnar.pairs == scalar.pairs
            assert not any(x in (3, 41) or y in (3, 41) for x, y, _ in columnar.pairs)

    def test_engine_join_matches_oracle(self, zipf_small):
        engine = LES3.build(zipf_small, num_groups=8, partitioner=MinTokenPartitioner())
        with oracle.armed():
            scalar = engine.join(0.6)
        assert engine.join(0.6).pairs == scalar.pairs


class TestValidation:
    def test_invalid_threshold(self, indexed):
        dataset, tgm = indexed
        with pytest.raises(ValueError):
            similarity_self_join(dataset, tgm, 0.0)
        with pytest.raises(ValueError):
            similarity_self_join(dataset, tgm, 1.5)

    def test_verify_keyword_is_gone(self, indexed):
        dataset, tgm = indexed
        with pytest.raises(TypeError, match="verify"):
            similarity_self_join(dataset, tgm, 0.5, verify="scalar")

    def test_precomputed_profiles_are_accepted(self, indexed):
        dataset, tgm = indexed
        profiles = group_join_profiles(dataset, tgm.group_members)
        assert similarity_self_join(
            dataset, tgm, 0.5, profiles=profiles
        ).pairs == similarity_self_join(dataset, tgm, 0.5).pairs

    def test_result_iterable_and_sized(self, indexed):
        dataset, tgm = indexed
        result = similarity_self_join(dataset, tgm, 0.9)
        assert len(result) == len(list(result))
