"""One execution path: the sharded gather equals the single engine, bit for bit.

Until PR 13 shard work could also be scattered to a thread or process
pool (``parallel=``) and this file compared those modes with the serial
gather.  The pools are gone; what stays is the contract they were
checked against, stated against the real oracle — a single
:class:`~repro.core.engine.LES3` over the same data — for every query
kind (kNN, range, batches, join), all five measures, S ∈ {1, 2, 4, 8},
and every way an engine comes up (built in memory, or saved and loaded
with ``mode="memory"|"mmap"|"lazy"``).  ``parallel`` itself is checked
once, as the removed parameter it now is — and so is ``degraded``, the
option that let a sharded engine answer without a failed shard until
PR 16: an answer is the exact one or an exception.
"""

from __future__ import annotations

import asyncio
import importlib

import pytest

import repro
from repro import Dataset, LES3
from repro.api import QueryRequest, execute
from repro.cli import main
from repro.core.engine import as_query_record
from repro.core.similarity import MEASURES
from repro.datasets import zipf_dataset
from repro.distributed import ShardedLES3, save_sharded
from repro.partitioning import MinTokenPartitioner
from repro.serve import ReproServer, request_json, wait_ready

SHARD_COUNTS = (1, 2, 4, 8)
LOADS = ("built", "memory", "mmap", "lazy")


@pytest.fixture(scope="module")
def token_lists():
    # String tokens: a save stringifies tokens, so loaded engines and the
    # in-memory oracle must intern the same universe.
    dataset = zipf_dataset(160, 240, (2, 8), seed=29)
    return [[f"t{token}" for token in record.tokens] for record in dataset.records]


@pytest.fixture(scope="module")
def query_tokens(token_lists):
    stored = [token_lists[i] for i in (0, 7, 31, 64, 99, 158)]
    perturbed = [tokens[:-1] + ["unseen"] for tokens in stored[:3]]
    return stored + perturbed + [["nope"], ["nope", "nada"], ["t0", "ghost", "ghost"]]


@pytest.fixture(scope="module")
def singles(token_lists):
    """The oracle per measure: one LES3 over the whole dataset."""
    return {
        measure: LES3.build(
            Dataset.from_token_lists(token_lists), num_groups=10,
            partitioner=MinTokenPartitioner(), measure=measure,
        )
        for measure in MEASURES
    }


# Every shard count and every load for one measure; every measure at
# every shard count, each through a different load.
MATRIX = [("jaccard", shards, load) for shards in SHARD_COUNTS for load in LOADS] + [
    (measure, shards, LOADS[(row + column) % len(LOADS)])
    for row, measure in enumerate(sorted(set(MEASURES) - {"jaccard"}))
    for column, shards in enumerate(SHARD_COUNTS)
]


@pytest.fixture(scope="module")
def brought_up(singles, tmp_path_factory):
    """``(measure, shards, load) -> `` the re-sharded engine, built or saved and loaded."""
    root = tmp_path_factory.mktemp("one-path")
    saved: dict = {}

    def bring_up(measure, shards, load):
        if (measure, shards) not in saved:
            sharded = ShardedLES3.from_engine(singles[measure], shards)
            save_sharded(sharded, root / f"{measure}-S{shards}")
            saved[measure, shards] = sharded
        if load == "built":
            return saved[measure, shards]
        return repro.load(root / f"{measure}-S{shards}", mode=load)

    return bring_up


@pytest.mark.parametrize("measure, shards, load", MATRIX)
def test_sharded_equals_single_engine(singles, brought_up, query_tokens, measure, shards, load):
    single = singles[measure]
    sharded = brought_up(measure, shards, load)
    for tokens in query_tokens:
        for k in (1, 5):
            assert sharded.knn(tokens, k).matches == single.knn(tokens, k).matches
        for threshold in (0.0, 0.4, 1.0):
            assert (
                sharded.range(tokens, threshold).matches
                == single.range(tokens, threshold).matches
            )
    records = [as_query_record(sharded.dataset, tokens) for tokens in query_tokens]
    oracle_records = [as_query_record(single.dataset, tokens) for tokens in query_tokens]
    assert [r.matches for r in sharded.batch_knn_record(records, 5)] == [
        r.matches for r in single.batch_knn_record(oracle_records, 5)
    ]
    assert [r.matches for r in sharded.batch_range_record(records, 0.4)] == [
        r.matches for r in single.batch_range_record(oracle_records, 0.4)
    ]
    assert sharded.join(0.5).pairs == single.join(0.5).pairs


@pytest.mark.parametrize("load", LOADS)
def test_k_exceeding_database_and_scalar_verify(singles, brought_up, query_tokens, load):
    single = singles["jaccard"]
    sharded = brought_up("jaccard", 4, load)
    k = len(single.dataset.records) + 10
    for tokens in query_tokens[:4]:
        assert sharded.knn(tokens, k).matches == single.knn(tokens, k).matches
        assert (
            sharded.knn(tokens, 5, verify="scalar").matches
            == single.knn(tokens, 5).matches
        )


@pytest.mark.parametrize("load", ["memory", "mmap"])
def test_still_equal_after_writes_and_after_reload(token_lists, tmp_path, load):
    single = LES3.build(
        Dataset.from_token_lists(token_lists), num_groups=10,
        partitioner=MinTokenPartitioner(),
    )
    directory = tmp_path / "idx"
    save_sharded(ShardedLES3.from_engine(single, 4), directory)
    sharded = repro.load(directory, mode=load)
    for engine in (single, sharded):
        placed = [engine.insert(tokens)[0] for tokens in (["w-a", "w-b"], ["w-b", "t1"])]
        engine.remove(placed[0])
        engine.remove(5)
    probes = [["w-a", "w-b"], ["w-b", "t1"], token_lists[5], token_lists[40]]
    for reloaded in (sharded, *(repro.load(directory, mode=m) for m in LOADS[1:])):
        for tokens in probes:
            assert reloaded.knn(tokens, 4).matches == single.knn(tokens, 4).matches
            assert reloaded.range(tokens, 0.3).matches == single.range(tokens, 0.3).matches
        assert reloaded.join(0.6).pairs == single.join(0.6).pairs


class TestRemovedParameter:
    """``parallel`` selects nothing any more: passing it is a ``TypeError``."""

    def test_query_methods(self, brought_up, query_tokens):
        sharded = brought_up("jaccard", 2, "built")
        record = as_query_record(sharded.dataset, query_tokens[0])
        for call in (
            lambda: sharded.knn(query_tokens[0], 3, parallel="thread"),
            lambda: sharded.range(query_tokens[0], 0.5, parallel="process"),
            lambda: sharded.knn_record(record, 3, parallel="serial"),
            lambda: sharded.range_record(record, 0.5, parallel="serial"),
            lambda: sharded.batch_knn_record([record], 3, parallel="thread"),
            lambda: sharded.batch_range_record([record], 0.5, parallel="thread"),
            lambda: sharded.join(0.5, parallel="process"),
        ):
            with pytest.raises(TypeError, match="parallel"):
                call()

    def test_constructors(self, singles, brought_up):
        sharded = brought_up("jaccard", 2, "built")
        single = singles["jaccard"]
        with pytest.raises(TypeError, match="parallel"):
            ShardedLES3(sharded.dataset, sharded.tgms, sharded.measure, parallel="thread")
        with pytest.raises(TypeError, match="parallel"):
            ShardedLES3.from_engine(single, 2, parallel="thread")
        with pytest.raises(TypeError, match="parallel"):
            ShardedLES3.build(single.dataset, 2, parallel="thread")

    def test_engine_owns_nothing_to_close(self, brought_up):
        sharded = brought_up("jaccard", 2, "built")
        assert not hasattr(sharded, "close") and not hasattr(sharded, "__exit__")


class TestRemovedDegraded:
    """``degraded`` is gone from every layer: engines, requests, HTTP, CLI."""

    def test_engine_methods_and_request_constructors(self, singles, brought_up, query_tokens):
        tokens = query_tokens[0]
        for engine in (singles["jaccard"], brought_up("jaccard", 2, "built")):
            record = as_query_record(engine.dataset, tokens)
            for call in (
                lambda: engine.knn(tokens, 3, degraded="strict"),
                lambda: engine.range(tokens, 0.5, degraded="strict"),
                lambda: engine.knn_record(record, 3, degraded="strict"),
                lambda: engine.range_record(record, 0.5, degraded="strict"),
                lambda: engine.batch_knn_record([record], 3, degraded="partial"),
                lambda: engine.batch_range_record([record], 0.5, degraded="partial"),
                lambda: engine.join(0.5, degraded="partial"),
            ):
                with pytest.raises(TypeError, match="degraded"):
                    call()
        for build in (
            lambda: QueryRequest.knn(tokens, k=1, degraded="strict"),
            lambda: QueryRequest.range(tokens, threshold=0.5, degraded="strict"),
            lambda: QueryRequest.join(threshold=0.5, degraded="partial"),
        ):
            with pytest.raises(TypeError, match="degraded"):
                build()

    def test_names_are_not_importable(self):
        import repro.core.engine

        assert not hasattr(repro.core.engine, "DEGRADED_MODES")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.serve.resilience")

    def test_http_field_cli_flag_and_payload_key(self, brought_up, query_tokens, tmp_path, capsys):
        sharded = brought_up("jaccard", 2, "built")
        directory = str(tmp_path / "idx")
        save_sharded(sharded, directory)
        tokens = query_tokens[0]

        async def over_http():
            server = ReproServer(directory, port=0)
            await server.start()
            await wait_ready(server.host, server.port)
            try:
                refused = await request_json(
                    server.host, server.port, "POST", "/knn",
                    {"tokens": ["a"], "k": 1, "degraded": "strict"},
                )
                answered = await request_json(
                    server.host, server.port, "POST", "/knn", {"tokens": tokens, "k": 3}
                )
            finally:
                await server.stop()
            return refused, answered

        (status, body), (ok, answer) = asyncio.run(over_http())
        assert status == 400 and "unknown field(s) ['degraded']" in body["error"]
        assert ok == 200 and "failed_shards" not in answer
        for request in (
            QueryRequest.knn(tokens, k=3),
            QueryRequest.range(tokens, threshold=0.4),
            QueryRequest.join(threshold=0.5),
        ):
            assert "failed_shards" not in execute(sharded, request).to_payload()
        with pytest.raises(SystemExit) as usage:
            main(["knn", directory, "--query", "t1", "-k", "1", "--degraded", "partial"])
        assert usage.value.code == 2
        assert "unrecognized arguments: --degraded" in capsys.readouterr().err
