"""The program under test for the library workloads, one command per process.

``build``      token lists → ``Dataset`` → ``LES3.build`` (→ ``from_engine``) → save
``coldstart``  ``repro.load(mode="mmap")`` → the first answer, printed at once
``run``        load → timed ops → timed writes → post-write probes
``trace``      the same index and ops replayed as public layer calls (``spine.layers``)

It receives only files the driver generated and uses only public
``repro`` names.  It never judges its own answers: they go back to the
driver, which compares them with the oracle.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import repro
from repro import LES3, Dataset, QueryRequest, ShardedLES3, execute, execute_batch, save_engine, save_sharded
from repro.api import WriteRequest, apply_write
from spine import procs

__all__ = ["SHARDS", "as_request", "perform", "matches_of", "build_index", "apply_mixed", "peak_rss_mib"]

#: Shards of the "sharded" engine shape (``batch-clustered``).
SHARDS = 4


def as_request(op: dict) -> QueryRequest:
    if op["kind"] == "knn":
        return QueryRequest.knn(op["tokens"], k=op["k"])
    if op["kind"] == "range":
        return QueryRequest.range(op["tokens"], threshold=op["threshold"])
    return QueryRequest.join(threshold=op["threshold"])


def perform(engine: object, op: dict | list) -> object:
    """One closed-loop op: a generated request (or batch of them) through the public API."""
    if isinstance(op, list):
        return execute_batch(engine, [as_request(request) for request in op])
    return execute(engine, as_request(op))


def matches_of(result: object) -> list:
    if isinstance(result, list):
        return [matches_of(one) for one in result]
    return [list(match) for match in result.matches]


def peak_rss_mib() -> float:
    """This process's own high-water mark.  Not ``ru_maxrss``: a forked child inherits the driver's."""
    return procs.peak_rss_mib(os.getpid())


def build_index(token_lists: list, engine_kind: str, index_dir: str) -> object:
    """The whole setup path of a user with raw token lists and an empty directory."""
    dataset = Dataset.from_token_lists(token_lists)
    engine = LES3.build(dataset)
    if engine_kind == "sharded":
        sharded = ShardedLES3.from_engine(engine, num_shards=SHARDS)
        save_sharded(sharded, index_dir)
        return sharded
    save_engine(engine, index_dir)
    return engine


def apply_mixed(engine: object, mixed: list) -> tuple[list[int], list[int]]:
    """Apply the insert/remove list one op at a time; (latencies in ns, acknowledged insert indices)."""
    latencies, inserted = [], []
    for op in mixed:
        start = time.perf_counter_ns()
        if op["kind"] == "insert":
            inserted.append(apply_write(engine, WriteRequest.insert(op["tokens"])).index)
        else:
            apply_write(engine, WriteRequest.remove(inserted[op["insert"]]))
        latencies.append(time.perf_counter_ns() - start)
    return latencies, inserted


def _build(spec: dict) -> dict:
    token_lists = json.loads(Path(spec["lists_path"]).read_text())
    engine = build_index(token_lists, spec["engine"], spec["index_dir"])
    return {"num_groups": engine.num_groups, "peak_rss_mib": peak_rss_mib()}


def _coldstart(spec: dict) -> None:
    engine = repro.load(spec["index_dir"], mode="mmap", workers=spec["workers"])
    print(json.dumps(matches_of(perform(engine, spec["probe"]))), flush=True)


def _run(spec: dict) -> dict:
    inputs = json.loads(Path(spec["ops_path"]).read_text())
    ops, keep = inputs["ops"], set(inputs["gate"])
    engine = repro.load(spec["index_dir"], mode="mmap")
    for op in ops[: inputs["warmup"]]:
        perform(engine, op)
    kept: dict[int, object] = {}
    ends: list[int] = []
    failed = 0
    started = time.perf_counter_ns()
    for _ in range(inputs["passes"]):
        for position, op in enumerate(ops):
            try:
                result = perform(engine, op)
            except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
                print(f"op {position} failed: {error!r}", file=sys.stderr)
                failed += 1
                result = None
            ends.append(time.perf_counter_ns())
            if position in keep:
                kept[position] = result
    write_latencies, inserted = apply_mixed(engine, inputs["mixed"])
    probes = [matches_of(perform(engine, probe)) for probe in inputs["post_gate"]]
    return {
        "started_ns": started,
        "end_ns": ends,
        "failed": failed,
        "answers": {str(i): None if r is None else matches_of(r) for i, r in kept.items()},
        "write_latency_ns": write_latencies,
        "inserted": inserted,
        "post_write_answers": probes,
        "peak_rss_mib": peak_rss_mib(),
    }


def main(argv: list[str]) -> int:
    command, spec = argv[1], json.loads(Path(argv[2]).read_text())
    if command == "coldstart":
        _coldstart(spec)
        return 0
    if command == "trace":
        from spine.layers import trace_worker

        result = trace_worker(spec)
    else:
        result = {"build": _build, "run": _run}[command](spec)
    Path(spec["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
