"""Tests for the TGM-accelerated similarity self-join.

The columnar verification kernel must return bit-identical pairs to the
scalar per-pair walk armed by :mod:`repro.testing.oracle` — same records,
same float64 similarities, same order — for every measure, backend, tiling
budget, and after updates.
"""

import random
from contextlib import nullcontext

import pytest

from repro.core import (
    LES3,
    Dataset,
    TokenGroupMatrix,
    similarity_join_between,
    similarity_self_join,
)
from repro.datasets import zipf_dataset
from repro.partitioning import MinTokenPartitioner
from repro.testing import oracle


def verification(verify):
    """The scalar oracle for ``"scalar"``, the columnar kernel otherwise."""
    return oracle.armed() if verify == "scalar" else nullcontext()


def scalar_self_join(*args, **kwargs):
    with oracle.armed():
        return similarity_self_join(*args, **kwargs)


def brute_force_join(dataset, threshold, measure):
    pairs = []
    records = dataset.records
    for x in range(len(records)):
        for y in range(x + 1, len(records)):
            similarity = measure(records[x], records[y])
            if similarity >= threshold:
                pairs.append((x, y, similarity))
    return sorted(pairs)


@pytest.fixture(scope="module")
def indexed(zipf_small):
    partition = MinTokenPartitioner().partition(zipf_small, 12)
    return zipf_small, TokenGroupMatrix(zipf_small, partition.groups)


class TestExactness:
    @pytest.mark.parametrize("threshold", [0.3, 0.6, 0.9])
    def test_matches_brute_force(self, indexed, threshold):
        dataset, tgm = indexed
        result = similarity_self_join(dataset, tgm, threshold)
        expected = brute_force_join(dataset, threshold, tgm.measure)
        assert result.pairs == expected

    def test_cosine_join(self, zipf_small):
        partition = MinTokenPartitioner().partition(zipf_small, 8)
        tgm = TokenGroupMatrix(zipf_small, partition.groups, measure="cosine")
        result = similarity_self_join(zipf_small, tgm, 0.8)
        assert result.pairs == brute_force_join(zipf_small, 0.8, tgm.measure)

    def test_duplicates_found(self):
        dataset = Dataset.from_token_lists([["a", "b"], ["a", "b"], ["c", "d"]])
        tgm = TokenGroupMatrix(dataset, [[0, 2], [1]])
        result = similarity_self_join(dataset, tgm, 1.0)
        assert result.pairs == [(0, 1, 1.0)]

    @pytest.mark.parametrize("groups", [[[0, 1], [2]], [[0], [1, 2]]])
    @pytest.mark.parametrize("verify", ["columnar", "scalar"])
    def test_multisets_sharing_a_token_twice(self, groups, verify):
        """Regression: one shared distinct token may be two units of overlap.

        The group-pair cap counted shared *distinct* tokens, which bounded
        {a, a} vs {a, a} at 1/3 and pruned the identical pair.
        """
        dataset = Dataset.from_token_lists([["a", "a"], ["a", "a"], ["b"]])
        tgm = TokenGroupMatrix(dataset, groups)
        with verification(verify):
            assert similarity_self_join(dataset, tgm, 0.5).pairs == [(0, 1, 1.0)]


class TestPruning:
    def test_group_pairs_pruned_on_clustered_data(self):
        """Group-pair pruning works when cross-group vocabularies barely
        overlap (token-disjoint clusters); on heavy-tailed data the bound
        is weak and the per-pair size filter carries the pruning."""
        import random

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
        assert result.stats.groups_pruned > 0
        total_pairs = len(dataset) * (len(dataset) - 1) // 2
        assert result.stats.candidates_verified < total_pairs
        assert result.pairs == brute_force_join(dataset, 0.4, tgm.measure)

    def test_higher_threshold_verifies_less(self, indexed):
        dataset, tgm = indexed
        loose = similarity_self_join(dataset, tgm, 0.5).stats.candidates_verified
        strict = similarity_self_join(dataset, tgm, 0.95).stats.candidates_verified
        assert strict <= loose


class TestColumnarEquivalence:
    """The kernel must match the scalar oracle: identical pairs."""

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
            assert columnar.pairs == brute_force_join(zipf_small, threshold, tgm.measure)

    def test_tiny_tiling_budget_is_exact(self, indexed):
        """max_cells=1 forces single-record tiles; pairs must not change."""
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
        assert columnar.pairs == brute_force_join(dataset, 0.5, tgm.measure)

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


class TestJoinBetween:
    def test_tiles_the_self_join(self, zipf_small):
        """self(A) + self(B) + between(A, B) == self-join of everything."""
        partition = MinTokenPartitioner().partition(zipf_small, 12)
        half = len(partition.groups) // 2
        tgm_all = TokenGroupMatrix(zipf_small, partition.groups)
        tgm_a = TokenGroupMatrix(zipf_small, partition.groups[:half])
        tgm_b = TokenGroupMatrix(zipf_small, partition.groups[half:])
        for threshold in (0.4, 0.7):
            expected = similarity_self_join(zipf_small, tgm_all, threshold).pairs
            for verify in ("scalar", "columnar"):
                with verification(verify):
                    tiled = sorted(
                        similarity_self_join(zipf_small, tgm_a, threshold).pairs
                        + similarity_self_join(zipf_small, tgm_b, threshold).pairs
                        + similarity_join_between(zipf_small, tgm_a, tgm_b, threshold).pairs
                    )
                assert tiled == expected

    def test_overlapping_tgms_never_self_pair(self):
        """A record the TGMs share is skipped identically by kernel and oracle."""
        dataset = Dataset.from_token_lists([["a", "b"], ["a", "b", "c"], ["x", "y"]])
        tgm_a = TokenGroupMatrix(dataset, [[0, 1]])
        tgm_b = TokenGroupMatrix(dataset, [[0, 2]])
        with oracle.armed():
            scalar = similarity_join_between(dataset, tgm_a, tgm_b, 0.5)
        columnar = similarity_join_between(dataset, tgm_a, tgm_b, 0.5)
        assert columnar.pairs == scalar.pairs
        assert all(x != y for x, y, _ in columnar.pairs)

    def test_precomputed_profiles_match(self, zipf_small):
        from repro.core import group_join_profiles

        partition = MinTokenPartitioner().partition(zipf_small, 6)
        tgm_a = TokenGroupMatrix(zipf_small, partition.groups[:3])
        tgm_b = TokenGroupMatrix(zipf_small, partition.groups[3:])
        profiles_a = group_join_profiles(zipf_small, tgm_a.group_members)
        profiles_b = group_join_profiles(zipf_small, tgm_b.group_members)
        assert similarity_join_between(
            zipf_small, tgm_a, tgm_b, 0.5,
            profiles_a=profiles_a, profiles_b=profiles_b,
        ).pairs == similarity_join_between(zipf_small, tgm_a, tgm_b, 0.5).pairs
        assert similarity_self_join(
            zipf_small, tgm_a, 0.5, profiles=profiles_a
        ).pairs == similarity_self_join(zipf_small, tgm_a, 0.5).pairs

    def test_measure_mismatch_rejected(self, zipf_small):
        partition = MinTokenPartitioner().partition(zipf_small, 4)
        tgm_a = TokenGroupMatrix(zipf_small, partition.groups[:2], "jaccard")
        tgm_b = TokenGroupMatrix(zipf_small, partition.groups[2:], "cosine")
        with pytest.raises(ValueError, match="measure"):
            similarity_join_between(zipf_small, tgm_a, tgm_b, 0.5)


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

    def test_result_iterable_and_sized(self, indexed):
        dataset, tgm = indexed
        result = similarity_self_join(dataset, tgm, 0.9)
        assert len(result) == len(list(result))
