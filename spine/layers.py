"""The traced run: every per-layer metric, measured around public calls into each layer.

``trace_worker`` runs inside a worker process (``worker.py trace``).  It
rebuilds the workload's index as the decomposed public calls
``LES3.build`` makes, times the load paths, replays a sample of the op
list through :func:`spine.tracer.traced_query` (asserting the replay
answers exactly as ``execute`` does), and takes the layer-specific
measurements the table in ``spine/README.md`` lists.  A metric a
workload does not exercise reads 0.  Times are medians; counts come
from ``QueryStats`` and repeat exactly for a given seed.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import repro
from repro import LES3, Dataset, ShardedLES3, TokenGroupMatrix, execute, execute_batch, save_engine, save_sharded
from repro.core import (
    batch_covered_counts,
    group_join_profiles,
    knn_pruning_efficiency,
    range_pruning_efficiency,
    similarity_self_join,
)
from repro.core.engine import as_query_record, suggest_num_groups
from repro.learn.cascade import L2PPartitioner
from repro.maintenance import compact_index
from repro.partitioning import MinTokenPartitioner
from repro.serve import QueryService
from spine import stats
from spine.procs import directory_bytes
from spine.spec import PER_LAYER
from spine.tracer import ROOT_SPAN, Tracer, traced_query
from spine.worker import SHARDS, apply_mixed, as_request, matches_of, perform

__all__ = ["DOMINANCE", "SAMPLE_REQUESTS", "trace_worker", "dominance_failures"]

#: Workload → the regime it was designed to measure, as (share metric, comparison, limit).
#: A workload that drifts out of its regime fails loudly instead of measuring something else.
DOMINANCE: dict[str, list[tuple[str, str, float]]] = {
    "knn-zipf": [("spine.share.visit_verify", ">=", 0.8), ("spine.share.bounds", "<=", 0.05)],
    "batch-clustered": [("spine.share.candidates_of_db", "<=", 0.02), ("spine.share.non_verify", ">=", 0.4)],
    "join-dblp": [],
    "serve-rw": [("spine.share.execute_of_http_p50", "<=", 0.2)],
}

#: Requests replayed through the traced chain (the driver picks them: ``traced.sample_requests``).
SAMPLE_REQUESTS = 300


def dominance_failures(workload: str, layers: dict) -> list[str]:
    failures = []
    for metric, comparison, limit in DOMINANCE[workload]:
        value = layers[metric]
        if (comparison == ">=" and value < limit) or (comparison == "<=" and value > limit):
            failures.append(f"{workload}: {metric} = {value:.4f}, designed to be {comparison} {limit}")
    return failures


def _timed(function: Callable, *args: object, **kwargs: object) -> tuple[float, object]:
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - start, result


def _median_us(samples_ns: list) -> float:
    return stats.median(samples_ns) / 1e3 if samples_ns else 0.0


def _build(layers: dict, token_lists: list, sharded: bool, index_dir: str) -> tuple[LES3, object]:
    """``build_index`` of the worker, one public call per layer."""
    layers["core.dataset.ingest_s"], dataset = _timed(Dataset.from_token_lists, token_lists)
    partitioner = L2PPartitioner(measure="jaccard", seed=0)
    layers["learn.l2p_partition_s"], partition = _timed(
        partitioner.partition, dataset, suggest_num_groups(len(dataset))
    )
    layers["learn.models_trained"] = partitioner.stats_.models_trained
    layers["core.tgm.build_s"], tgm = _timed(TokenGroupMatrix, dataset, partition.groups, "jaccard", "dense")
    single = LES3(dataset, tgm)
    layers["core.tgm.index_bytes"] = single.index_bytes()
    if not sharded:
        layers["core.persistence.save_s"], _ = _timed(save_engine, single, index_dir)
        return single, single
    layers["distributed.from_engine_s"], engine = _timed(ShardedLES3.from_engine, single, num_shards=SHARDS)
    layers["core.tgm.index_bytes"] = engine.index_bytes()
    layers["distributed.persistence.save_s"], _ = _timed(save_sharded, engine, index_dir)
    return single, engine


def _files_and_loads(layers: dict, index_dir: str, sharded: bool) -> object:
    directory = Path(index_dir)
    layers["storage.dataset_bin_bytes"] = (directory / "dataset.bin").stat().st_size
    layers["storage.dataset_txt_bytes"] = (directory / "dataset.txt").stat().st_size
    layers["core.persistence.index_json_bytes"] = sum(p.stat().st_size for p in directory.rglob("*.json"))
    imports = []
    for _ in range(3):
        seconds, _ = _timed(subprocess.run, [sys.executable, "-c", "import repro"], check=True, timeout=60)
        imports.append(seconds)
    layers["cli.import_s"] = stats.median(imports)
    layers["api.load_memory_s"], in_memory = _timed(repro.load, index_dir, mode="memory")
    layers["core.columnar.build_s"], _ = _timed(in_memory.dataset.columnar)
    if sharded:
        layers["api.load_lazy_s"], _ = _timed(repro.load, index_dir, mode="lazy")
    layers["api.load_mmap_s"], engine = _timed(repro.load, index_dir, mode="mmap")
    return engine


def _replay(layers: dict, engine: object, requests: list[dict]) -> tuple[Tracer, list]:
    """The sample untraced through ``execute``, then traced; answers and counters must agree.

    Returns the tracer and the untraced answers, which the driver gates against the oracle.
    """
    untraced_ns, answers = [], []
    for request in requests:
        start = time.perf_counter_ns()
        answers.append(perform(engine, request))
        untraced_ns.append(time.perf_counter_ns() - start)
    tracer = Tracer()
    verified = {"knn": 0, "range": 0}
    for op_id, (request, untraced) in enumerate(zip(requests, answers)):
        traced, records = traced_query(tracer, engine, request, op_id)
        verified[request["kind"]] += records
        same_counters = (
            traced.stats.candidates_verified == untraced.stats.candidates_verified
            and traced.stats.groups_pruned == untraced.stats.groups_pruned
        )
        if traced.matches != untraced.matches or not same_counters:
            raise AssertionError(f"the traced replay of op {op_id} diverged from execute()")
    selfs = tracer.self_times()
    op_ns = tracer.durations(ROOT_SPAN)
    for metric, span in (
        ("api.intern_us", "api.intern"),
        ("core.search.prepare_us", "core.search.prepare"),
        ("core.tgm.bounds_us", "core.tgm.bounds"),
        ("distributed.shard_bounds_us", "distributed.shard_bounds"),
        ("core.search.visit_us", "core.search.visit"),
        ("core.search.range_collect_us", "core.search.range_collect"),
        ("core.columnar.verify_us", "core.columnar.verify"),
        ("core.search.finalize_us", "core.search.finalize"),
        ("api.payload_us", "api.payload"),
    ):
        layers[metric] = _median_us(list(selfs.get(span, {}).values()))
    verify_ns = sum(selfs.get("core.columnar.verify", {}).values())
    layers["core.columnar.verify_records_per_s"] = sum(verified.values()) / (verify_ns / 1e9) if verify_ns else 0.0
    layers["api.execute_us"] = _median_us(untraced_ns)
    stage_ns = [op_ns[i] - selfs[ROOT_SPAN][i] - selfs["api.payload"][i] for i in range(len(requests))]
    layers["api.execute_overhead_us"] = stats.median([u - s for u, s in zip(untraced_ns, stage_ns)]) / 1e3
    # The replay serialises a payload per op and ``execute`` does not, so that span is left out of the comparison.
    traced_ns = sum(op_ns.values()) - sum(selfs["api.payload"].values())
    layers["spine.trace_overhead_share"] = 1.0 - sum(untraced_ns) / traced_ns

    database = len(engine.dataset)
    for kind, efficiency in (("knn", knn_pruning_efficiency), ("range", range_pruning_efficiency)):
        results = [a for r, a in zip(requests, answers) if r["kind"] == kind]
        if results:
            layers[f"core.search.candidates_per_{kind}"] = sum(
                a.stats.candidates_verified for a in results
            ) / len(results)
            layers[f"core.metrics.pe_{kind}"] = sum(
                efficiency(database, a.stats.candidates_verified, len(a.matches)) for a in results
            ) / len(results)
    layers["core.search.groups_pruned_share"] = sum(a.stats.groups_pruned for a in answers) / (
        engine.num_groups * len(answers)
    )
    total = sum(op_ns.values())

    def share(*spans: str) -> float:
        return sum(sum(selfs.get(span, {}).values()) for span in spans) / total

    layers["spine.share.visit_verify"] = share("core.search.visit", "core.search.range_collect", "core.columnar.verify")
    layers["spine.share.bounds"] = share("core.tgm.bounds", "core.search.prepare", "distributed.shard_bounds")
    layers["spine.share.non_verify"] = 1.0 - share("core.columnar.verify")
    layers["spine.share.candidates_of_db"] = sum(a.stats.candidates_verified for a in answers) / (
        database * len(answers)
    )
    return tracer, [matches_of(a) for a in answers]


def _batch_layers(layers: dict, single: LES3, engine: ShardedLES3, mapped: object, batches: list[list[dict]]) -> None:
    """What only the sharded, batched workload exercises."""
    covered_ns, knn_ns, range_ns, batch_ns, one_by_one_ns = [], [], [], [], []
    for batch in batches:
        records = [as_query_record(mapped.dataset, r["tokens"]) for r in batch]
        knns = [rec for rec, r in zip(records, batch) if r["kind"] == "knn"]
        ranges = [rec for rec, r in zip(records, batch) if r["kind"] == "range"]
        start = time.perf_counter_ns()
        for tgm in mapped.tgms:
            batch_covered_counts(tgm, records)
        covered_ns.append(time.perf_counter_ns() - start)
        start = time.perf_counter_ns()
        mapped.batch_knn_record(knns, batch[0]["k"])
        knn_ns.append(time.perf_counter_ns() - start)
        start = time.perf_counter_ns()
        mapped.batch_range_record(ranges, batch[1]["threshold"])
        range_ns.append(time.perf_counter_ns() - start)
        requests = [as_request(r) for r in batch]
        start = time.perf_counter_ns()
        execute_batch(mapped, requests)
        batch_ns.append(time.perf_counter_ns() - start)
        start = time.perf_counter_ns()
        for request in requests:
            execute(mapped, request)
        one_by_one_ns.append(time.perf_counter_ns() - start)
    layers["core.batch.covered_counts_us"] = _median_us(covered_ns)
    layers["distributed.batch_knn_us"] = _median_us(knn_ns)
    layers["distributed.batch_range_us"] = _median_us(range_ns)
    layers["api.single_execute_rps"] = len(batches[0]) / (stats.median(one_by_one_ns) / 1e9)
    layers["api.batch_speedup"] = stats.median(one_by_one_ns) / stats.median(batch_ns)
    # The same built data as one engine and as four shards, both in memory.
    records = [as_query_record(single.dataset, r["tokens"]) for batch in batches for r in batch if r["kind"] == "knn"]
    per_engine = {}
    for label, target in (("single", single), ("sharded", engine)):
        samples = []
        for record in records:
            start = time.perf_counter_ns()
            target.knn_record(record, batches[0][0]["k"])
            samples.append(time.perf_counter_ns() - start)
        per_engine[label] = _median_us(samples)
    layers["distributed.single_knn_us"] = per_engine["single"]
    layers["distributed.shard_overhead"] = per_engine["sharded"] / per_engine["single"]


def _join_layers(layers: dict, engine: LES3, op: dict) -> list:
    """The join as ``group_join_profiles`` + ``similarity_self_join``; returns ``execute``'s answer."""
    untraced = perform(engine, op)
    layers["core.join.profiles_s"], profiles = _timed(group_join_profiles, engine.dataset, engine.tgm.group_members)
    joined = similarity_self_join(engine.dataset, engine.tgm, op["threshold"], profiles=profiles)
    if joined.pairs != untraced.matches:
        raise AssertionError("the decomposed join diverged from execute()")
    layers["core.join.group_pairs_scored"] = joined.stats.groups_scored
    layers["core.join.group_pairs_pruned"] = joined.stats.groups_pruned
    layers["core.join.candidate_pairs"] = joined.stats.candidates_verified
    layers["core.join.result_pairs"] = len(joined.pairs)
    layers["core.join.useful_share"] = len(joined.pairs) / max(joined.stats.candidates_verified, 1)
    block = list(range(min(2000, len(engine.dataset))))
    seconds, _ = _timed(engine.dataset.columnar().pairwise_overlaps, block, block)
    layers["core.columnar.pairwise_cells_per_s"] = len(block) ** 2 / seconds
    return matches_of(untraced)


async def _service_layers(layers: dict, engine: object, requests: list[dict]) -> None:
    """The micro-batcher without sockets: one request in flight, then 32."""
    prepared = [as_request(r) for r in requests]
    async with QueryService(engine) as service:
        samples = []
        for request in prepared:
            start = time.perf_counter_ns()
            await service.submit(request)
            samples.append(time.perf_counter_ns() - start)
        layers["serve.service.submit_us"] = _median_us(samples)
    async with QueryService(engine) as service:
        lanes = [prepared[lane::32] for lane in range(32)]

        async def lane_loop(lane: list) -> None:
            for request in lane:
                await service.submit(request)

        start = time.perf_counter()
        await asyncio.gather(*(lane_loop(lane) for lane in lanes))
        layers["serve.service.c32_ops_per_s"] = len(prepared) / (time.perf_counter() - start)
        layers["serve.service.c32_mean_batch_size"] = service.stats.snapshot()["mean_batch_size"]


def _write_layers(layers: dict, index_dir: str, mixed: list[dict]) -> None:
    """The write path on its own: apply, log growth, replay on load, compaction."""
    # workers=1 on every load here: the concurrent shard rebuild races on a replayed tail (defect
    # D1), and the clean load must rebuild the shard TGMs the same serial way to be subtracted.
    clean_load_s, engine = _timed(repro.load, index_dir, mode="mmap", workers=1)
    latencies, _ = apply_mixed(engine, mixed)
    layers["api.apply_write_us"] = _median_us(latencies)
    layers["core.delta.bytes_per_write"] = (Path(index_dir) / "delta.log").stat().st_size / len(mixed)
    del engine
    replay_load_s, _ = _timed(repro.load, index_dir, mode="mmap", workers=1)
    layers["core.delta.replay_s"] = replay_load_s - clean_load_s
    layers["maintenance.compact_s"], _ = _timed(compact_index, index_dir, workers=1)
    layers["maintenance.bytes_rewritten"] = directory_bytes(Path(index_dir))


def trace_worker(spec: dict) -> dict:
    token_lists = json.loads(Path(spec["lists_path"]).read_text())
    inputs = json.loads(Path(spec["ops_path"]).read_text())
    sharded = spec["engine"] == "sharded"
    layers: dict = {name: 0.0 for name in PER_LAYER}
    single, built = _build(layers, token_lists, sharded, spec["index_dir"])
    mapped = _files_and_loads(layers, spec["index_dir"], sharded)

    ops = inputs["ops"]
    spans: list = []
    if spec["op"] == "join":
        sample_answers = [_join_layers(layers, mapped, inputs["sample"][0])]
    else:
        requests = inputs["sample"]
        if spec["op"] == "knn":
            # The same kNN requests on a MinToken build of the same data: the paper's ordering
            # is L2P >= MinToken, and this is where that ordering is checked by numbers.
            mintoken = LES3.build(single.dataset, num_groups=single.num_groups, partitioner=MinTokenPartitioner())
            knns = [perform(mintoken, r) for r in requests if r["kind"] == "knn"]
            layers["partitioning.mintoken_pe_knn"] = sum(
                knn_pruning_efficiency(len(single.dataset), a.stats.candidates_verified, len(a.matches)) for a in knns
            ) / len(knns)
        tracer, sample_answers = _replay(layers, mapped, requests)
        spans = tracer.spans
        if spec["op"] == "batch":
            _batch_layers(layers, single, built, mapped, [op for op in ops if isinstance(op, list)][:10])
        if spec["op"] == "serve":
            asyncio.run(_service_layers(layers, mapped, requests))
    del mapped
    # Insert ordinals count inserts only, so dropping the reads of a mix keeps removes valid.
    writes = [op for op in inputs["mixed"] if op["kind"] != "knn"]
    _write_layers(layers, spec["index_dir"], writes)
    return {"layers": layers, "spans": spans, "sample_answers": sample_answers}
