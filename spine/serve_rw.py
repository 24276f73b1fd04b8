"""The ``serve-rw`` workload: reads beside writes against the real server process.

``python -m repro serve <dir> --mode mmap`` (default batching flags)
runs as a subprocess; the spine's own client holds two keep-alive
connections.  Connection A sends kNN reads; connection B sends the
seeded 60/28/12 mix of kNN reads, ``/insert`` and ``/remove``.  Then
the server is SIGKILLed, restarted (the cold starts, delta replay
included), and the index is compacted — with the same gate after each
step: every sampled acknowledged insert is its own nearest neighbour at
similarity 1.0, every removed one is gone, and the sampled reads match
the oracle bit for bit.

Durability here is *process-crash* durability only: SIGKILL leaves the
operating system's page cache intact, so an acknowledged write that was
written but never fsynced would still pass.  Power loss is a known gap.
"""

from __future__ import annotations

import asyncio
import signal
import subprocess
import sys
import time
from pathlib import Path

from spine import stats
from spine.harness import (
    COLD_STARTS,
    SLICES,
    TAIL,
    TAIL_SHARE,
    GateFailure,
    check,
    check_insert_probe,
    insert_probe_sample,
    replay_writes,
    set_up,
)
from spine.library import expected_answers
from spine.loadgen import REQUEST_ERRORS, Caller, Connection, request_of
from spine.oracle import Oracle, answer
from spine.procs import CHILD_TIMEOUT, Server, spawn_options
from spine.workloads import Inputs

__all__ = ["run_serve", "mixed_phase", "poll", "wait_ready", "first_answer", "compact"]


async def poll(connection: Connection, method: str, path: str, payload: dict | None = None) -> dict:
    """Repeat one request until it answers 200 (the server answers 503 while its index loads)."""
    deadline = time.monotonic() + CHILD_TIMEOUT
    status, reply = 0, {}
    while time.monotonic() < deadline:
        try:
            status, reply = await connection.request(method, path, payload)
        except REQUEST_ERRORS as error:
            status, reply = 0, {"error": repr(error)}
        if status == 200:
            return reply
        await asyncio.sleep(0.002)
    raise RuntimeError(f"{method} {path} never answered 200; last reply {status}: {reply}")


async def wait_ready(connection: Connection) -> None:
    """Poll ``/healthz`` until the index is loaded (the socket binds before the load)."""
    await poll(connection, "GET", "/healthz")


async def ask(connection: Connection, op: dict) -> list:
    path, payload = request_of(op, [])
    status, reply = await connection.request("POST", path, payload)
    if status != 200:
        raise GateFailure(f"{path} answered {status}: {reply}")
    return reply["matches"]


async def first_answer(server: Server, probe: dict) -> tuple[float, list]:
    """Seconds from spawn to the first 200 on ``/knn``, and that answer."""
    connection = Connection(server.host, server.port)
    try:
        reply = await poll(connection, "POST", *request_of(probe, []))
        return time.perf_counter() - server.spawned_at, reply["matches"]
    finally:
        await connection.close()


class FinalState:
    """What every post-write gate compares against: the oracle after the acknowledged writes."""

    def __init__(self, oracle: Oracle, inputs: Inputs, inserted: list[int]) -> None:
        removed = replay_writes(oracle, inputs.mixed, inserted)
        probes, ordinals = insert_probe_sample(inputs.mixed, inputs.seed)
        self.reads = [(inputs.ops[i], answer(oracle, inputs.ops[i])) for i in inputs.gate]
        self.probes = [
            (probe, answer(oracle, probe), inserted[ordinal], inserted[ordinal] in removed)
            for probe, ordinal in zip(probes, ordinals)
        ]
        self.probe_answer = answer(oracle, inputs.probe)

    @property
    def requests(self) -> int:
        return len(self.reads) + len(self.probes)

    async def gate(self, label: str, connection: Connection) -> None:
        for op, expected in self.reads:
            check(f"{label}: sampled read", await ask(connection, op), expected)
        for probe, expected, index, removed in self.probes:
            got = await ask(connection, probe)
            check(f"{label}: probe of insert {index}", got, expected)
            check_insert_probe(f"{label}: probe of insert {index}", got, index, removed)


async def _gate_server(label: str, server: Server, final: FinalState) -> None:
    connection = Connection(server.host, server.port)
    try:
        await wait_ready(connection)
        await final.gate(label, connection)
    finally:
        await connection.close()


async def mixed_phase(server: Server, inputs: Inputs, expected: dict, oracle: Oracle) -> tuple[list, FinalState, dict]:
    """Pre-gate (which is also the warm-up), the timed two-connection phase, the quiesced gate.

    Returns the round trips made while both callers were active, the final state and ``/stats`` before/after.
    """
    a, b = Connection(server.host, server.port), Connection(server.host, server.port)
    try:
        await wait_ready(a)
        for position, oracle_answer in expected.items():
            for connection in (a, b):
                check(f"serve-rw pre-gate op {position}", await ask(connection, inputs.ops[position]), oracle_answer)
        _, before = await a.request("GET", "/stats")
        reader, mixer = Caller(a, inputs.ops), Caller(b, inputs.mixed)
        await asyncio.gather(reader.run(), mixer.run())
        _, after = await a.request("GET", "/stats")
        final = FinalState(oracle, inputs, mixer.inserted)
        await final.gate("quiesced server", a)
    finally:
        await a.close()
        await b.close()
    # The windows cover only the time both callers were sending: one connection alone is another workload.
    everything = reader.trips + mixer.trips
    overlap_end = min(reader.trips[-1].end_ns, mixer.trips[-1].end_ns)
    return [t for t in everything if t.end_ns <= overlap_end], final, {
        "before": before["service"], "after": after["service"],
        "attempted": len(everything), "failed": sum(not t.ok for t in everything),
    }


def compact(index_dir: Path, workdir: Path) -> float:
    """``python -m repro compact`` as an operator would run it; returns its wall seconds."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "compact", str(index_dir)],
        **spawn_options(workdir), timeout=CHILD_TIMEOUT, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _per_window(trips: list) -> dict:
    """Cut the phase into ``SLICES`` equal time windows; every metric is the windows' median.

    The index mutates, so the phase cannot be repeated; the windows a
    host burst lands in are outvoted instead.
    """
    begin, end = min(t.start_ns for t in trips), max(t.end_ns for t in trips)
    width = (end - begin) / SLICES
    windows: list[list] = [[] for _ in range(SLICES)]
    for trip in trips:
        windows[min(int((trip.end_ns - begin) / width), SLICES - 1)].append(trip)

    def spread(reads: bool, share: float) -> dict:
        samples = [[(t.end_ns - t.start_ns) / 1e6 for t in w if t.ok and (t.kind == "knn") == reads] for w in windows]
        # A smoke-sized phase can leave a window without a single write; it has no percentile to vote with.
        return stats.summarize([stats.percentile(sample, share) for sample in samples if sample])

    return {
        "ops_per_s": stats.summarize([sum(t.ok for t in w) / (width / 1e9) for w in windows]),
        "lat_p50_ms": spread(True, 0.50),
        f"lat_{TAIL}_ms": spread(True, TAIL_SHARE),
        "write_lat_p50_ms": spread(False, 0.50),
        f"write_lat_{TAIL}_ms": spread(False, TAIL_SHARE),
    }


def run_serve(inputs: Inputs, workdir: Path, corrupt: bool = False) -> dict:
    setup = set_up(inputs, workdir)
    oracle = Oracle(inputs.token_lists)
    expected = expected_answers(oracle, inputs, corrupt)

    with Server(setup.index_dir, workdir) as server:
        trips, final, service = asyncio.run(mixed_phase(server, inputs, expected, oracle))
        peak_rss = server.peak_rss_mib()
        server.stop(signal.SIGKILL)

    cold = []
    for spawn in range(COLD_STARTS):
        with Server(setup.index_dir, workdir) as server:
            elapsed, got = asyncio.run(first_answer(server, inputs.probe))
            check(f"restart {spawn}: first answer", got, final.probe_answer)
            cold.append(elapsed)
            if spawn == 0:
                asyncio.run(_gate_server("restart after SIGKILL", server, final))

    compact_s = compact(setup.index_dir, workdir)
    with Server(setup.index_dir, workdir) as server:
        asyncio.run(_gate_server("compacted index", server, final))

    metrics = {
        "setup_s": stats.summarize([stats.median(setup.build_walls) + stats.median(cold)]),
        "cold_start_s": stats.summarize(cold),
        **_per_window(trips),
        "peak_rss_mb": stats.summarize([peak_rss]),
        "disk_bytes_per_set": stats.summarize([setup.disk_bytes_per_set]),
    }
    reads = sum(t.kind == "knn" for t in trips)
    return {
        "metrics": metrics,
        "attempted": service["attempted"] + 2 * len(expected) + 3 * final.requests + COLD_STARTS,
        "failed": service["failed"],
        "detail": {
            "build_wall_s": setup.build_walls,
            "num_groups": setup.build["num_groups"],
            "latency_samples": reads,
            "write_samples": len(trips) - reads,
            "timed_wall_s": (max(t.end_ns for t in trips) - min(t.start_ns for t in trips)) / 1e9,
            "compact_s": compact_s,
            "service_stats": service["after"],
        },
    }
