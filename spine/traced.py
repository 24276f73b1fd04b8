"""The driver's side of a traced run (``--trace 1``).

A worker process takes the library-side layer measurements
(:mod:`spine.layers`); for ``serve-rw`` the driver adds what only an
outside client can see — readiness, ``/healthz`` round trips, the
``/stats`` delta over a short two-connection phase, and how much of an
HTTP read is the engine's ``execute``.  The sampled answers are gated
against the oracle exactly as in an untraced run.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from pathlib import Path

from spine import stats
from spine.harness import CORRUPTED, check, lists_file, set_up
from spine.layers import SAMPLE_REQUESTS
from spine.library import expected_answers, write_ops_file
from spine.loadgen import Connection
from spine.oracle import Oracle, answer
from spine.procs import Server, run_worker
from spine.serve_rw import mixed_phase, wait_ready
from spine.spec import PER_LAYER
from spine.workloads import Inputs

__all__ = ["run_traced", "sample_requests"]

#: ``knn-zipf`` adds range requests at this threshold to its traced sample (pe_range, range_collect).
TRACED_RANGE_THRESHOLD = 0.7
#: Sampled replay answers compared with the oracle.
GATED_ANSWERS = 100
HEALTHZ_TRIPS = 200


def sample_requests(inputs: Inputs) -> list[dict]:
    """The single requests the traced run answers: the head of the op list, batches flattened.

    ``join-dblp``'s ops are all the same join, so its sample is that one join.
    """
    if inputs.workload.op == "join":
        return inputs.ops[:1]
    flat = [r for op in inputs.ops for r in (op if isinstance(op, list) else [op])][:SAMPLE_REQUESTS]
    if inputs.workload.op == "knn":
        flat += [
            {"kind": "range", "tokens": r["tokens"], "threshold": TRACED_RANGE_THRESHOLD}
            for r in flat[: SAMPLE_REQUESTS // 5]
        ]
    return flat


async def _client_side(
    layers: dict, server: Server, inputs: Inputs, oracle: Oracle, corrupt: bool
) -> tuple[list, dict]:
    """Fill in the ``serve.*`` layers only a client can see; returns (round trips, phase counts)."""
    connection = Connection(server.host, server.port)
    try:
        await wait_ready(connection)
        layers["serve.http.ready_s"] = time.perf_counter() - server.spawned_at
        trips = []
        for _ in range(HEALTHZ_TRIPS):
            start = time.perf_counter_ns()
            await connection.request("GET", "/healthz")
            trips.append(time.perf_counter_ns() - start)
        layers["serve.http.healthz_us"] = stats.median(trips) / 1e3
    finally:
        await connection.close()
    expected = expected_answers(oracle, inputs, corrupt)
    trips, _, service = await mixed_phase(server, inputs, expected, oracle)
    before, after = service["before"], service["after"]
    batches = after["batches_dispatched"] - before["batches_dispatched"]
    layers["serve.service.batches_dispatched"] = batches
    layers["serve.service.mean_batch_size"] = (after["queries_served"] - before["queries_served"]) / max(batches, 1)
    layers["serve.service.rejected"] = after["queries_rejected"] - before["queries_rejected"]
    layers["serve.service.timed_out"] = after["queries_timed_out"] - before["queries_timed_out"]
    return trips, service


def run_traced(inputs: Inputs, workdir: Path, corrupt: bool = False) -> dict:
    oracle = Oracle(inputs.token_lists)
    sample = sample_requests(inputs)
    ops_path, _, _ = write_ops_file(inputs, workdir, sample=sample)
    traced = run_worker(
        "trace",
        {
            "lists_path": str(lists_file(inputs, workdir)), "ops_path": str(ops_path),
            "index_dir": str(workdir / "traced-index"),
            "engine": inputs.workload.engine, "op": inputs.workload.op,
        },
        workdir,
    )
    layers = {name: 0.0 for name in PER_LAYER} | traced["layers"]
    for position, (request, got) in enumerate(list(zip(sample, traced["sample_answers"]))[:GATED_ANSWERS]):
        expected = CORRUPTED if corrupt and position == 0 else answer(oracle, request)
        check(f"traced sample request {position}", got, expected)

    attempted, failed = len(traced["sample_answers"]), 0
    if inputs.workload.op == "serve":
        # A third of the op lists is enough for medians and the /stats delta.
        short = len(inputs.ops) // 3
        phase = replace(
            inputs, ops=inputs.ops[:short], mixed=inputs.mixed[:short], gate=[i for i in inputs.gate if i < short]
        )
        with Server(set_up(inputs, workdir).index_dir, workdir) as server:
            trips, phase_counts = asyncio.run(_client_side(layers, server, phase, oracle, corrupt))
        http_p50_us = stats.median([(t.end_ns - t.start_ns) / 1e3 for t in trips if t.ok and t.kind == "knn"])
        layers["serve.http.overhead_us"] = http_p50_us - layers["serve.service.submit_us"]
        layers["spine.share.execute_of_http_p50"] = layers["api.execute_us"] / http_p50_us
        attempted += phase_counts["attempted"] + HEALTHZ_TRIPS
        failed = phase_counts["failed"]
    return {
        "metrics": {name: {"value": value, "min": value, "max": value} for name, value in layers.items()},
        "attempted": attempted,
        "failed": failed,
        "spans": traced["spans"],
        "detail": {"trace_worker_wall_s": traced["wall_s"], "spans": len(traced["spans"])},
    }
