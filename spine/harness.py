"""What every workload shares: the gates, the setup phase and the pass arithmetic."""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from spine import stats
from spine.oracle import Oracle
from spine.procs import directory_bytes, run_worker
from spine.workloads import K, Inputs

__all__ = [
    "UNBOUNDED", "TAIL", "TAIL_SHARE", "SLICES", "SETUP_REPEATS", "COLD_STARTS", "POST_GATE",
    "GateFailure", "check", "check_insert_probe", "replay_writes", "insert_probe_sample", "lists_file", "CORRUPTED",
    "Setup", "set_up", "repeated_read_metrics", "sliced_latency_metrics",
]

#: Measured and printed by every untraced run, but without a bound: on the reference box the
#: spread of a tail across ten seeds (10-55 % of its median) exceeds the largest bound allowed.
UNBOUNDED = {"lat_p95_ms": "ms", "write_lat_p95_ms": "ms"}
#: The tail percentile: the highest with at least ten samples beyond it in every pass of every
#: workload but join-dblp (whose passes hold three joins).
TAIL, TAIL_SHARE = "p95", 0.95
#: Slices of a write list, and time windows of the serve-rw phase.
SLICES = 12
#: Builds per run, each in a fresh process; ``setup_s`` takes their median.
SETUP_REPEATS = 3
COLD_STARTS = 7
#: Acknowledged inserts probed after the write phase (a seeded sample).
POST_GATE = 100


#: What ``--corrupt-gate`` replaces one oracle answer with: no engine answers this.
CORRUPTED = [[-1, 0.5]]


class GateFailure(Exception):
    """An answer differed from the oracle: the run prints no metrics and exits non-zero."""


def check(label: str, got: object, expected: object) -> None:
    """Bit-for-bit equality of JSON-shaped answers (indices and float64 similarities, in order)."""
    if got != expected:
        raise GateFailure(f"{label}: got {str(got)[:300]} but the oracle says {str(expected)[:300]}")


def check_insert_probe(label: str, matches: list, index: int, removed: bool) -> None:
    """The durability fact: a live insert is its own nearest neighbour at 1.0; a removed one is gone."""
    if removed:
        if any(match[0] == index for match in matches):
            raise GateFailure(f"{label}: removed record {index} is still answered")
    elif not matches or matches[0] != [index, 1.0]:
        raise GateFailure(f"{label}: acknowledged insert {index} is not its own nearest neighbour: {matches[:2]}")


@dataclass
class Setup:
    """A built, saved index and what building it cost."""

    index_dir: Path
    build_walls: list[float]  # one wall-clock time per build process
    build: dict  # the last build's own report (group count, peak RSS)
    disk_bytes_per_set: float


def lists_file(inputs: Inputs, workdir: Path) -> Path:
    """The corpus as the build processes read it (written once per run)."""
    path = workdir / "lists.json"
    if not path.exists():
        path.write_text(json.dumps(inputs.token_lists))
    return path


def set_up(inputs: Inputs, workdir: Path) -> Setup:
    """Build and save the index ``SETUP_REPEATS`` times in fresh processes; keep the last."""
    lists_path = lists_file(inputs, workdir)
    walls, result, index_dir = [], {}, workdir / "index"
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(index_dir, ignore_errors=True)
        result = run_worker(
            "build",
            {
                "lists_path": str(lists_path), "index_dir": str(index_dir),
                "engine": inputs.workload.engine,
            },
            workdir,
        )
        walls.append(result["wall_s"])
    return Setup(index_dir, walls, result, directory_bytes(index_dir) / len(inputs.token_lists))


def repeated_read_metrics(passes: Sequence[Sequence[float]], requests_per_op: int) -> dict:
    """Throughput and read latency of an op list executed once per pass.

    Every figure is wall clock: ``ops_per_s`` is requests completed per
    second of a pass, a percentile is taken over the pass's own op
    latencies, and the metric is the median of the passes, so whatever
    the program does while a pass runs (collector pauses, cache
    rebuilds, compaction) is in it.
    """
    out = {"ops_per_s": stats.summarize([requests_per_op * len(one) / (sum(one) / 1e3) for one in passes])}
    for name, share in (("lat_p50_ms", 0.50), (f"lat_{TAIL}_ms", TAIL_SHARE)):
        out[name] = stats.summarize([stats.percentile(one, share) for one in passes])
    return out


def sliced_latency_metrics(latencies_ms: Sequence[float], prefix: str) -> dict:
    """p50 and the tail percentile of ops that cannot be repeated (writes).

    The list is cut into ``SLICES`` consecutive slices and each percentile
    is the median of the slices' percentiles, so the slices a host burst
    lands in are outvoted.
    """
    parts = [[latencies_ms[i] for i in part] for part in stats.slices(len(latencies_ms), SLICES)]
    return {
        f"{prefix}_p50_ms": stats.summarize([stats.percentile(p, 0.50) for p in parts]),
        f"{prefix}_{TAIL}_ms": stats.summarize([stats.percentile(p, TAIL_SHARE) for p in parts]),
    }


def replay_writes(oracle: Oracle, mixed: list[dict], inserted: list[int]) -> set[int]:
    """Apply the acknowledged writes to the oracle; returns the removed record indices.

    The engine acknowledged each insert with the index it placed it at;
    the oracle must place it at the same one, or every later comparison
    would be about different records.
    """
    removed: set[int] = set()
    ordinal = 0
    for op in mixed:
        if op["kind"] == "insert":
            check(f"index acknowledged for insert {ordinal}", inserted[ordinal], oracle.insert(op["tokens"]))
            ordinal += 1
        elif op["kind"] == "remove":
            oracle.remove(inserted[op["insert"]])
            removed.add(inserted[op["insert"]])
    return removed


def insert_probe_sample(mixed: list[dict], seed: int) -> tuple[list[dict], list[int]]:
    """A seeded sample of the insert ops: (kNN requests for their own tokens, their insert ordinals)."""
    positions = [position for position, op in enumerate(mixed) if op["kind"] == "insert"]
    ordinal_of = {position: ordinal for ordinal, position in enumerate(positions)}
    sample = sorted(random.Random(seed).sample(positions, min(POST_GATE, len(positions))))
    probes = [{"kind": "knn", "tokens": mixed[position]["tokens"], "k": K} for position in sample]
    return probes, [ordinal_of[position] for position in sample]
