"""Tests for logical deletion (tombstones) in the TGM and engine."""

from contextlib import nullcontext

import pytest

import repro
from repro.core import (
    LES3,
    Dataset,
    TokenGroupMatrix,
    knn_search,
    range_search,
    validate_tgm,
)
from repro.core.persistence import save_engine
from repro.core.updates import remove_set
from repro.maintenance import compact_index
from repro.partitioning import MinTokenPartitioner
from repro.testing import oracle
from repro.workloads import sample_queries


@pytest.fixture()
def indexed(zipf_small):
    dataset = Dataset(list(zipf_small.records), zipf_small.universe.copy())
    partition = MinTokenPartitioner().partition(dataset, 8)
    return dataset, TokenGroupMatrix(dataset, partition.groups)


class TestRemove:
    def test_removed_record_not_returned(self, indexed):
        dataset, tgm = indexed
        query = dataset.records[5]
        assert 5 in range_search(dataset, tgm, query, 1.0).indices()
        remove_set(tgm, 5)
        assert 5 not in range_search(dataset, tgm, query, 1.0).indices()
        assert 5 not in knn_search(dataset, tgm, query, len(dataset)).indices()

    def test_remove_unknown_record_raises(self, indexed):
        _, tgm = indexed
        with pytest.raises(KeyError):
            remove_set(tgm, 10_000)

    def test_double_remove_raises(self, indexed):
        _, tgm = indexed
        remove_set(tgm, 3)
        with pytest.raises(KeyError):
            remove_set(tgm, 3)

    def test_search_exact_on_survivors(self, indexed):
        dataset, tgm = indexed
        removed = {2, 7, 11, 30}
        for record_index in removed:
            remove_set(tgm, record_index)
        measure = tgm.measure
        for query in sample_queries(dataset, 10, seed=60):
            expected = sorted(
                (
                    (i, measure(query, dataset.records[i]))
                    for i in range(len(dataset))
                    if i not in removed and measure(query, dataset.records[i]) >= 0.5
                ),
                key=lambda pair: (-pair[1], pair[0]),
            )
            assert range_search(dataset, tgm, query, 0.5).matches == expected

    def test_validation_accepts_declared_removals(self, indexed):
        dataset, tgm = indexed
        remove_set(tgm, 4)
        assert not validate_tgm(dataset, tgm).ok  # undeclared → orphan
        assert validate_tgm(dataset, tgm, removed={4}).ok

    def test_validation_flags_expected_absent_but_present(self, indexed):
        dataset, tgm = indexed
        report = validate_tgm(dataset, tgm, removed={4})  # never removed
        assert not report.ok
        assert 4 in report.duplicate_records


class TestRebuildBits:
    @pytest.mark.parametrize("backend", ["dense", "roaring"])
    def test_rebuild_tightens_after_deletions(self, zipf_small, backend):
        dataset = Dataset(list(zipf_small.records), zipf_small.universe.copy())
        partition = MinTokenPartitioner().partition(dataset, 6)
        tgm = TokenGroupMatrix(dataset, partition.groups, backend=backend)
        victims = list(tgm.group_members[0][:10])
        for record_index in victims:
            remove_set(tgm, record_index)
        stale_vocab = tgm.group_vocabulary_size(0)
        tgm.rebuild_bits(dataset)
        assert tgm.group_vocabulary_size(0) <= stale_vocab
        # Still exact after the rebuild.
        query = dataset.records[tgm.group_members[0][0]]
        result = range_search(dataset, tgm, query, 1.0)
        assert query in [dataset.records[i] for i in result.indices()]

    def test_rebuild_preserves_exactness(self, indexed):
        dataset, tgm = indexed
        removed = {1, 9, 17}
        for record_index in removed:
            remove_set(tgm, record_index)
        tgm.rebuild_bits(dataset)
        measure = tgm.measure
        for query in sample_queries(dataset, 8, seed=61):
            expected = sorted(
                (
                    (i, measure(query, dataset.records[i]))
                    for i in range(len(dataset))
                    if i not in removed and measure(query, dataset.records[i]) >= 0.6
                ),
                key=lambda pair: (-pair[1], pair[0]),
            )
            assert range_search(dataset, tgm, query, 0.6).matches == expected


class TestEngineLifecycle:
    def test_insert_remove_insert(self):
        dataset = Dataset.from_token_lists([["a", "b"], ["c", "d"]])
        engine = LES3.build(dataset, num_groups=2, partitioner=MinTokenPartitioner())
        index, _ = engine.insert(["x", "y"])
        assert engine.knn(["x", "y"], k=1).matches[0][0] == index
        engine.remove(index)
        assert engine.knn(["x", "y"], k=1).matches[0][1] < 1.0
        new_index, _ = engine.insert(["x", "y"])
        assert engine.knn(["x", "y"], k=1).matches[0] == (new_index, 1.0)

    @pytest.mark.parametrize(
        "then", ["reinsert_same_group", "extend_universe", "rebuild_bits", "compact_reload"]
    )
    def test_kernel_member_arrays_follow_membership(self, then, tmp_path):
        """A removed record must leave the kernel's cached member arrays too.

        ``reinsert_same_group`` is the trap: the group's length is back to
        what it was, so a cache validated by length would serve record 0.
        """
        dataset = Dataset.from_token_lists(
            [["a", "b"], ["a", "b", "c"], ["c", "d"], ["d", "e"]]
        )
        save_engine(LES3(dataset, TokenGroupMatrix(dataset, [[0, 1], [2, 3]])), tmp_path / "idx")
        engine = repro.load(tmp_path / "idx")
        assert engine.knn(["a", "b"], k=4).matches[0] == (0, 1.0)  # arrays now cached
        assert engine.remove(0) == 0
        assert engine.knn(["a", "b"], k=4).indices()[0] == 1  # re-cached without 0
        expected = [1]
        if then == "reinsert_same_group":
            assert engine.insert(["a", "b"]) == (4, 0)
            assert engine.tgm.group_members[0] == [1, 4]
            expected = [4, 1]
        elif then == "extend_universe":
            assert engine.insert(["a", "never-seen"]) == (4, 0)
            expected = [1, 4]
        elif then == "rebuild_bits":
            engine.tgm.rebuild_bits(engine.dataset)
        else:
            compact_index(tmp_path / "idx")
            engine = repro.load(tmp_path / "idx")
        for verification in (nullcontext(), oracle.armed()):
            with verification:
                result = engine.knn(["a", "b"], k=4)
            assert [index for index, sim in result.matches if sim > 0.0] == expected
            assert 0 not in result.indices()

    def test_default_group_count_rule(self, zipf_small):
        from repro.core.engine import suggest_num_groups

        assert suggest_num_groups(10_000) == 50
        assert suggest_num_groups(10) == 2
        dataset = Dataset(list(zipf_small.records), zipf_small.universe.copy())
        engine = LES3.build(dataset, partitioner=MinTokenPartitioner())
        assert engine.tgm.num_groups == suggest_num_groups(len(dataset))