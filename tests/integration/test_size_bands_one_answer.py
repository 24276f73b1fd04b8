"""One answer everywhere on a size-banded index, before and after writes.

Over a corpus whose set sizes fall into several bands, every way of asking
— ``execute`` per request, ``execute_batch``, ``execute`` under the scalar
oracle (:mod:`repro.testing.oracle`) — on a
single engine and on a 4-shard ``ShardedLES3`` saved and loaded with
``mode="memory"`` and ``mode="mmap"`` must return the same matches, for
kNN, range and join.  Within one engine the ``QueryStats`` of every path
agree too (the scalar join walk excepted: it counts size-filtered pairs
differently by design), and the two loaded engines agree counter for
counter.  Inserts of new sizes widen group size ranges and removes leave
them loose, so the check is repeated after writes.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import Dataset, LES3
from repro.api import QueryRequest, WriteRequest, apply_write, execute, execute_batch
from repro.datasets import zipf_dataset
from repro.distributed import ShardedLES3, save_sharded
from repro.partitioning import MinTokenPartitioner
from repro.partitioning.base import size_band_cuts
from repro.testing import oracle as scalar_oracle

NUM_GROUPS = 24
LOADS = ("memory", "mmap")


@pytest.fixture(scope="module")
def token_lists():
    dataset = zipf_dataset(260, 320, (1, 24), seed=31)
    return [[f"t{token}" for token in record.tokens] for record in dataset.records]


@pytest.fixture
def engines(token_lists, tmp_path):
    """``{"single": LES3, "memory": ShardedLES3, "mmap": ShardedLES3}``."""
    single = LES3.build(
        Dataset.from_token_lists(token_lists), num_groups=NUM_GROUPS,
        partitioner=MinTokenPartitioner(),
    )
    sharded = ShardedLES3.from_engine(single, 4)
    loaded = {}
    for load in LOADS:
        save_sharded(sharded, tmp_path / load)
        loaded[load] = repro.load(tmp_path / load, mode=load)
    return {"single": single, **loaded}


def requests(token_lists):
    probes = [token_lists[i] for i in (0, 3, 17, 42, 99, 180)]
    probes += [tokens[:-1] + ["unseen"] for tokens in probes[:3]]
    probes += [["t0"], ["ghost"], [f"t{t}" for t in range(0, 60, 2)]]
    built = []
    for tokens in probes:
        built += [QueryRequest.knn(tokens, k) for k in (1, 7)]
        built += [QueryRequest.range(tokens, threshold) for threshold in (0.3, 0.6)]
    built += [QueryRequest.join(threshold) for threshold in (0.5, 0.8)]
    return built


def answers(engine, token_lists):
    """Every path's answers on one engine; asserts they agree; returns ``execute``'s."""
    direct = [execute(engine, request) for request in requests(token_lists)]
    batched = execute_batch(engine, requests(token_lists))
    with scalar_oracle.armed():
        scalar = [execute(engine, request) for request in requests(token_lists)]
    for one, batch, oracle in zip(direct, batched, scalar):
        assert one.matches == batch.matches == oracle.matches
        assert one.stats == batch.stats
        if one.kind != "join":
            assert one.stats == oracle.stats
    return direct


def assert_one_answer(engines, token_lists):
    per_engine = {name: answers(engine, token_lists) for name, engine in engines.items()}
    for name in LOADS:
        assert [r.matches for r in per_engine[name]] == [r.matches for r in per_engine["single"]]
    assert [r.stats for r in per_engine["memory"]] == [r.stats for r in per_engine["mmap"]]


def test_the_corpus_is_banded(engines, token_lists):
    sizes = np.array([len(tokens) for tokens in token_lists])
    assert len(size_band_cuts(sizes, min(6, NUM_GROUPS))) + 1 >= 3
    tgm = engines["single"].tgm
    assert tgm.num_groups <= NUM_GROUPS
    lo, hi = tgm.size_ranges()
    assert (hi - lo).max() < sizes.max() - sizes.min()


def test_one_answer_before_and_after_writes(engines, token_lists):
    assert_one_answer(engines, token_lists)
    writes = [
        WriteRequest.insert(["t1"]),
        WriteRequest.insert([f"t{t}" for t in range(40)]),
        WriteRequest.insert(token_lists[3] + ["fresh"]),
        WriteRequest.insert(["fresh", "newer"]),
        WriteRequest.remove(0),
        WriteRequest.remove(42),
        WriteRequest.remove(len(token_lists) + 1),
    ]
    for write in writes:
        indices = {apply_write(engine, write).index for engine in engines.values()}
        assert len(indices) == 1  # every engine places the write at the same index
    assert_one_answer(engines, token_lists)
