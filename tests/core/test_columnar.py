"""The columnar CSR view and the vectorized verification kernel.

The kernel's contract is *bit-identical* similarities: for any records
(sets or multisets), any query, and any measure, ``GroupVerifier`` must
return exactly what the scalar ``measure(query, record)`` walk returns —
same floats, not approximately equal floats.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarView, GroupVerifier, make_verifier
from repro.core.dataset import Dataset
from repro.core.sets import SetRecord
from repro.core.similarity import MEASURES, Similarity, get_measure
from repro.core.tokens import TokenUniverse
from repro.testing import oracle


def random_dataset(seed: int, num_sets: int = 60, num_tokens: int = 80, multisets: bool = False) -> Dataset:
    rng = random.Random(seed)
    records = []
    for _ in range(num_sets):
        size = rng.randint(1, 12)
        if multisets:
            tokens = [rng.randrange(num_tokens) for _ in range(size)]
        else:
            tokens = rng.sample(range(num_tokens), min(size, num_tokens))
        records.append(SetRecord(tokens))
    return Dataset(records, TokenUniverse(range(num_tokens)))


class TestColumnarView:
    def test_csr_structure_matches_records(self):
        dataset = random_dataset(0, multisets=True)
        view = dataset.columnar()
        assert view.num_records == len(dataset)
        for index, record in enumerate(dataset.records):
            tokens = view.tokens_of(index)
            counts = view.counts_of(index)
            assert list(tokens) == sorted(record.distinct)
            assert {int(t): int(c) for t, c in zip(tokens, counts)} == dict(record.counts())
            assert view.size_of(index) == len(record)

    def test_plain_sets_have_unit_counts(self):
        dataset = random_dataset(1, multisets=False)
        view = dataset.columnar()
        for index in range(len(dataset)):
            assert (view.counts_of(index) == 1).all()

    def test_view_is_cached_on_the_dataset(self):
        dataset = random_dataset(2)
        assert dataset.columnar() is dataset.columnar()

    def test_sync_appends_inserted_records(self):
        dataset = random_dataset(3, num_sets=10)
        view = dataset.columnar()
        before = view.num_records
        dataset.append(SetRecord([0, 3, 5]))
        dataset.append(SetRecord([1, 1, 2]))  # multiset tail
        synced = dataset.columnar()
        assert synced is view
        assert synced.num_records == before + 2
        assert list(synced.tokens_of(before)) == [0, 3, 5]
        assert list(synced.tokens_of(before + 1)) == [1, 2]
        assert list(synced.counts_of(before + 1)) == [2, 1]
        assert synced.size_of(before + 1) == 3

    def test_incremental_sync_matches_fresh_build(self):
        dataset = random_dataset(4, num_sets=20, multisets=True)
        view = dataset.columnar()
        rng = random.Random(7)
        for _ in range(50):  # enough appends to force several capacity grows
            size = rng.randint(1, 9)
            dataset.append(SetRecord([rng.randrange(80) for _ in range(size)]))
            view.sync()
        fresh = ColumnarView(dataset)
        assert view.num_records == fresh.num_records == len(dataset)
        assert view.nnz == fresh.nnz
        for index in range(len(dataset)):
            assert (view.tokens_of(index) == fresh.tokens_of(index)).all()
            assert (view.counts_of(index) == fresh.counts_of(index)).all()
            assert view.size_of(index) == fresh.size_of(index)

    def test_byte_size_positive(self):
        assert random_dataset(5).columnar().byte_size() > 0


class TestGroupVerifier:
    @pytest.mark.parametrize("name", sorted(MEASURES))
    @pytest.mark.parametrize("multisets", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_scalar_walk(self, name, multisets, seed):
        dataset = random_dataset(seed, multisets=multisets)
        measure = get_measure(name)
        rng = random.Random(seed + 100)
        view = dataset.columnar()
        for _ in range(10):
            query = dataset.records[rng.randrange(len(dataset))]
            members = rng.sample(range(len(dataset)), rng.randint(1, len(dataset)))
            verifier = view.verifier(query, measure)
            similarities = verifier(members)
            expected = [measure(query, dataset.records[index]) for index in members]
            assert similarities.dtype == np.float64
            assert similarities.tolist() == expected  # exact, not approx

    def test_multiset_query_against_set_records(self):
        dataset = random_dataset(11, multisets=False)
        measure = get_measure("jaccard")
        query = SetRecord([0, 0, 1, 2, 2, 2])
        verifier = dataset.columnar().verifier(query, measure)
        members = list(range(len(dataset)))
        expected = [measure(query, record) for record in dataset.records]
        assert verifier(members).tolist() == expected

    def test_phantom_query_tokens_count_toward_size_only(self):
        # Tokens at/beyond the universe can overlap nothing but still
        # inflate |Q| (Section 3.1) — exactly like the scalar path.
        dataset = random_dataset(12)
        universe_size = len(dataset.universe)
        measure = get_measure("jaccard")
        query = SetRecord([0, 1, universe_size + 5, universe_size + 9])
        verifier = dataset.columnar().verifier(query, measure)
        members = list(range(len(dataset)))
        expected = [measure(query, record) for record in dataset.records]
        assert verifier(members).tolist() == expected

    def test_empty_member_list(self):
        dataset = random_dataset(13)
        verifier = dataset.columnar().verifier(dataset.records[0], get_measure("jaccard"))
        assert verifier([]).shape == (0,)

    def test_verifier_sees_records_inserted_after_build(self):
        dataset = random_dataset(14, num_sets=8)
        view = dataset.columnar()  # built before the insert
        index = dataset.append(SetRecord([0, 2, 4]))
        measure = get_measure("cosine")
        query = SetRecord([0, 2])
        verifier = view.verifier(query, measure)
        assert verifier([index]).tolist() == [measure(query, dataset.records[index])]


class TestMakeVerifier:
    def test_armed_oracle_returns_none(self):
        dataset = random_dataset(20)
        query, measure = dataset.records[0], get_measure("jaccard")
        assert isinstance(make_verifier(dataset, query, measure), GroupVerifier)
        assert isinstance(make_verifier(dataset, query, measure, "columnar"), GroupVerifier)
        with oracle.armed():
            assert make_verifier(dataset, query, measure, "columnar") is None
        assert isinstance(make_verifier(dataset, query, measure), GroupVerifier)

    def test_unknown_mode_raises(self):
        dataset = random_dataset(21)
        for mode in ("scalar", "simd", "Columnar"):
            with pytest.raises(ValueError, match="unknown verification kernel"):
                make_verifier(dataset, dataset.records[0], get_measure("jaccard"), mode)


overlap_triples = st.tuples(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
).filter(lambda t: t[0] <= min(t[1], t[2]))


class TestFromOverlaps:
    @pytest.mark.parametrize("name", sorted(MEASURES))
    @given(triples=st.lists(overlap_triples, min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_from_overlap(self, name, triples):
        measure = get_measure(name)
        shared = np.array([t[0] for t in triples], dtype=np.int64)
        sizes_a = np.array([t[1] for t in triples], dtype=np.int64)
        sizes_b = np.array([t[2] for t in triples], dtype=np.int64)
        vectorized = measure.from_overlaps(shared, sizes_a, sizes_b)
        expected = [measure.from_overlap(*t) for t in triples]
        assert vectorized.tolist() == expected

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_broadcasts_scalar_query_size(self, name):
        measure = get_measure(name)
        result = measure.from_overlaps(np.array([1, 2, 0]), 4, np.array([2, 5, 3]))
        expected = [measure.from_overlap(1, 4, 2), measure.from_overlap(2, 4, 5),
                    measure.from_overlap(0, 4, 3)]
        assert result.tolist() == expected

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_zero_sizes_do_not_divide_by_zero(self, name):
        measure = get_measure(name)
        result = measure.from_overlaps(np.array([0, 0]), 0, np.array([0, 3]))
        assert result.tolist() == [measure.from_overlap(0, 0, 0), measure.from_overlap(0, 0, 3)]

    def test_base_class_fallback_loops_the_scalar_method(self):
        class Wacky(Similarity):
            name = "wacky"

            def from_overlap(self, shared, size_a, size_b):
                return shared / (1 + size_a + size_b)

            def group_upper_bound(self, covered, query_size):
                return 1.0

        measure = Wacky()
        result = measure.from_overlaps(np.array([1, 3]), 2, np.array([4, 6]))
        assert result.tolist() == [1 / 7, 3 / 9]
