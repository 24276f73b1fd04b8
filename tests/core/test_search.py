"""Exactness and behaviour tests for TGM range / kNN search."""

import heapq
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BruteForceSearch
from repro.core import Dataset, TokenGroupMatrix, knn_search, range_search
from repro.core import search as search_module
from repro.core.metrics import QueryStats
from repro.core.search import knn_visit_groups, range_collect_groups
from repro.core.sets import SetRecord
from repro.partitioning import MinTokenPartitioner, RandomPartitioner
from repro.workloads import perturbed_queries, sample_queries


@pytest.fixture(scope="module")
def indexed(zipf_small):
    partition = MinTokenPartitioner().partition(zipf_small, 12)
    return zipf_small, TokenGroupMatrix(zipf_small, partition.groups)


class TestRangeExactness:
    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_matches_brute_force(self, indexed, threshold):
        dataset, tgm = indexed
        brute = BruteForceSearch(dataset)
        for query in sample_queries(dataset, 15, seed=1):
            expected = brute.range_search(query, threshold)
            actual = range_search(dataset, tgm, query, threshold)
            assert actual.matches == expected.matches

    def test_out_of_database_queries(self, indexed):
        dataset, tgm = indexed
        brute = BruteForceSearch(dataset)
        for query in perturbed_queries(dataset, 10, seed=2):
            assert (
                range_search(dataset, tgm, query, 0.4).matches
                == brute.range_search(query, 0.4).matches
            )

    def test_threshold_one_returns_only_duplicates(self, indexed):
        dataset, tgm = indexed
        query = dataset.records[0]
        result = range_search(dataset, tgm, query, 1.0)
        assert all(similarity == 1.0 for _, similarity in result.matches)
        assert 0 in result.indices()

    def test_invalid_threshold_rejected(self, indexed):
        dataset, tgm = indexed
        with pytest.raises(ValueError):
            range_search(dataset, tgm, dataset.records[0], 1.5)


class TestKnnExactness:
    @pytest.mark.parametrize("k", [1, 5, 17])
    def test_similarities_match_brute_force(self, indexed, k):
        dataset, tgm = indexed
        brute = BruteForceSearch(dataset)
        for query in sample_queries(dataset, 15, seed=3):
            expected = sorted((s for _, s in brute.knn_search(query, k).matches), reverse=True)
            actual = sorted((s for _, s in knn_search(dataset, tgm, query, k).matches), reverse=True)
            assert actual == pytest.approx(expected)

    def test_k_exceeding_database_returns_everything(self, indexed):
        dataset, tgm = indexed
        result = knn_search(dataset, tgm, dataset.records[0], len(dataset) + 10)
        assert len(result) == len(dataset)

    def test_result_sorted_by_similarity(self, indexed):
        dataset, tgm = indexed
        result = knn_search(dataset, tgm, dataset.records[0], 10)
        similarities = [s for _, s in result.matches]
        assert similarities == sorted(similarities, reverse=True)

    def test_invalid_k_rejected(self, indexed):
        dataset, tgm = indexed
        with pytest.raises(ValueError):
            knn_search(dataset, tgm, dataset.records[0], 0)


class TestPruning:
    def test_some_groups_pruned_on_selective_query(self, indexed):
        dataset, tgm = indexed
        result = range_search(dataset, tgm, dataset.records[0], 0.9)
        assert result.stats.groups_pruned > 0
        assert result.stats.candidates_verified < len(dataset)

    def test_stats_columns_visited(self, indexed):
        dataset, tgm = indexed
        query = dataset.records[0]
        result = range_search(dataset, tgm, query, 0.5)
        assert result.stats.columns_visited == len(query.distinct) * tgm.num_groups

    def test_better_partitioning_prunes_more(self, zipf_small):
        """A structure-aware partition should verify fewer candidates than random."""
        random_tgm = TokenGroupMatrix(
            zipf_small, RandomPartitioner(seed=0).partition(zipf_small, 12).groups
        )
        mintoken_tgm = TokenGroupMatrix(
            zipf_small, MinTokenPartitioner().partition(zipf_small, 12).groups
        )
        queries = sample_queries(zipf_small, 30, seed=4)
        random_total = sum(
            range_search(zipf_small, random_tgm, q, 0.7).stats.candidates_verified
            for q in queries
        )
        mintoken_total = sum(
            range_search(zipf_small, mintoken_tgm, q, 0.7).stats.candidates_verified
            for q in queries
        )
        assert mintoken_total < random_total


class TestUnseenQueryTokens:
    def test_phantom_tokens_count_toward_query_size(self, indexed):
        dataset, tgm = indexed
        universe = len(dataset.universe)
        base = list(dataset.records[0].distinct)
        query = SetRecord(base + [universe + 100])
        result = range_search(dataset, tgm, query, 0.1)
        brute = BruteForceSearch(dataset)
        assert result.matches == brute.range_search(query, 0.1).matches


@settings(max_examples=25, deadline=None)
@given(
    query_tokens=st.sets(st.integers(min_value=0, max_value=249), min_size=1, max_size=12),
    threshold=st.sampled_from([0.2, 0.5, 0.9]),
)
def test_property_range_equals_brute_force(zipf_small, query_tokens, threshold):
    partition = MinTokenPartitioner().partition(zipf_small, 10)
    tgm = TokenGroupMatrix(zipf_small, partition.groups)
    query = SetRecord(query_tokens)
    expected = BruteForceSearch(zipf_small).range_search(query, threshold)
    actual = range_search(zipf_small, tgm, query, threshold)
    assert actual.matches == expected.matches


# -- the tie-class wavefront against the sequential walk --------------------

_LEVELS = [0.0, 0.25, 0.5, 0.75, 1.0]  # few distinct values: heavy ties everywhere


def sequential_knn(groups, bounds, sims, k, heap):
    """Section 6 verbatim: stop rule before every group, every member pushed."""
    order = sorted(range(len(groups)), key=lambda g: -bounds[g])  # stable
    verified = 0
    for position, group_id in enumerate(order):
        if bounds[group_id] <= 0.0:
            return verified, len(groups) - position, [groups[g] for g in order[position:]]
        if len(heap) >= k and bounds[group_id] < heap[0][0]:
            return verified, len(groups) - position, []
        for index in groups[group_id]:
            verified += 1
            entry = (sims[index], -index)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
    return verified, 0, []


@st.composite
def visit_cases(draw):
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=8))
    indices = draw(st.permutations(range(sum(sizes))))
    groups, start = [], 0
    for size in sizes:
        groups.append(list(indices[start:start + size]))
        start += size
    bounds = [draw(st.sampled_from(_LEVELS)) for _ in groups]
    sims = [0.0] * len(indices)
    for members, bound in zip(groups, bounds):
        for index in members:
            sims[index] = min(bound, draw(st.sampled_from(_LEVELS)))
    k = draw(st.integers(1, len(indices) + 3))
    # Answers another shard already put in the shared heap: foreign indices.
    prefill = draw(st.lists(st.sampled_from(_LEVELS), max_size=k))
    heap = [(sim, -(len(indices) + offset)) for offset, sim in enumerate(prefill)]
    heapq.heapify(heap)
    return groups, bounds, sims, k, heap


@settings(max_examples=200, deadline=None)
@given(
    case=visit_cases(),
    chunk=st.sampled_from([1, 3, 2048]),
    threshold=st.sampled_from(_LEVELS),
)
def test_property_wavefront_equals_sequential_walk(case, chunk, threshold):
    groups, bounds, sims, k, prefilled = case
    # Record i holds the single token i, so a fake measure can look its
    # similarity up; the fake verifier is the kernel's protocol — a sized
    # index sequence in, a similarity vector out.
    dataset = Dataset.from_token_lists([[str(i)] for i in range(len(sims))])
    tgm = TokenGroupMatrix(dataset, groups)
    bounds_array = np.array(bounds, dtype=np.float64)
    sims_array = np.array(sims, dtype=np.float64)
    query = SetRecord([0])

    def measure(_query, record):
        return sims[record.tokens[0]]

    def verifier(members):
        return sims_array[np.asarray(members, dtype=np.int64)]

    expected_heap = list(prefilled)
    verified, pruned, zeros = sequential_knn(groups, bounds, sims, k, expected_heap)
    with mock.patch.object(search_module, "_WAVE_CHUNK", chunk):
        for kernel in (None, verifier):  # the scalar oracle, then the wavefront
            heap, stats, zero_candidates = list(prefilled), QueryStats(), []
            knn_visit_groups(
                dataset, tgm, query, k, bounds_array, heap, stats, measure,
                zero_candidates, kernel,
            )
            assert sorted(heap) == sorted(expected_heap)
            assert (stats.candidates_verified, stats.groups_pruned) == (verified, pruned)
            assert stats.similarity_computations == verified
            assert zero_candidates == zeros

        outcomes = []
        for kernel in (None, verifier):
            matches, stats = [], QueryStats()
            range_collect_groups(
                dataset, tgm, query, threshold, bounds_array, matches, stats, measure, kernel
            )
            outcomes.append((matches, stats.candidates_verified, stats.groups_pruned))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == [
            (index, sims[index])
            for members, bound in zip(groups, bounds) if bound >= threshold
            for index in members if sims[index] >= threshold
        ]
