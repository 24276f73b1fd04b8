"""The untraced run of a library workload (``knn-zipf``, ``batch-clustered``, ``join-dblp``).

build (fresh process, ``SETUP_REPEATS`` times) → ``COLD_STARTS`` cold starts on
the saved index → one worker process: load, warm-up, the timed op list,
the timed write list, post-write probes → one more fresh process that
must replay the writes.  Every answer that comes back is compared with
the oracle before a single metric is computed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from spine import stats
from spine.harness import (
    COLD_STARTS,
    check,
    check_insert_probe,
    CORRUPTED,
    insert_probe_sample,
    repeated_read_metrics,
    replay_writes,
    set_up,
    sliced_latency_metrics,
)
from spine.oracle import Oracle, answer
from spine.procs import cold_start, run_worker
from spine.workloads import PASSES, Inputs

__all__ = ["run_library", "expected_answers", "write_ops_file"]


def expected_answers(oracle: Oracle, inputs: Inputs, corrupt: bool = False) -> dict[int, list]:
    """Oracle answers for the gate sample; ``corrupt`` falsifies one (the gate's own self-test)."""
    expected = {}
    for position in inputs.gate:
        op = inputs.ops[position]
        expected[position] = [answer(oracle, r) for r in op] if isinstance(op, list) else answer(oracle, op)
    if corrupt:
        expected[inputs.gate[0]] = CORRUPTED
    return expected


def write_ops_file(inputs: Inputs, workdir: Path, **extra: object) -> tuple[Path, list[dict], list[int]]:
    """The requests file the worker receives; also the sampled insert probes and their ordinals."""
    probes, ordinals = insert_probe_sample(inputs.mixed, inputs.seed)
    ops_path = workdir / "ops.json"
    ops_path.write_text(json.dumps({
        "ops": inputs.ops,
        "gate": inputs.gate,
        "warmup": max(len(inputs.ops) * PASSES // 10, 1),
        "passes": PASSES,
        "mixed": inputs.mixed,
        "post_gate": probes,
        **extra,
    }))
    return ops_path, probes, ordinals


def run_library(inputs: Inputs, workdir: Path, corrupt: bool = False) -> dict:
    setup = set_up(inputs, workdir)
    oracle = Oracle(inputs.token_lists)
    expected = expected_answers(oracle, inputs, corrupt)
    probe_answer = answer(oracle, inputs.probe)
    cold = []
    for _ in range(COLD_STARTS):
        elapsed, got = cold_start(setup.index_dir, inputs.probe, workdir)
        check("cold-start probe", got, probe_answer)
        cold.append(elapsed)

    ops_path, probes, ordinals = write_ops_file(inputs, workdir)
    os.sync()  # so the program's fsyncs wait for its own bytes, not for the driver's input files
    run = run_worker("run", {"index_dir": str(setup.index_dir), "ops_path": str(ops_path)}, workdir)
    for position, oracle_answer in expected.items():
        check(f"{inputs.workload.name} op {position}", run["answers"][str(position)], oracle_answer)
    removed = replay_writes(oracle, inputs.mixed, run["inserted"])
    for probe, ordinal, got in zip(probes, ordinals, run["post_write_answers"]):
        index = run["inserted"][ordinal]
        check(f"post-write probe of insert {ordinal}", got, answer(oracle, probe))
        check_insert_probe(f"post-write probe of insert {ordinal}", got, index, index in removed)
    # The writes must survive the process: a fresh one replays delta.log and answers the
    # same.  workers=1 because the default concurrent shard rebuild races on a mapped
    # dataset with a replayed tail (README, defect D1) — a crash here would be that defect.
    _, got = cold_start(setup.index_dir, probes[-1], workdir, workers=1)
    check("reload after the write phase", got, answer(oracle, probes[-1]))

    count = len(inputs.ops)
    ends = run["end_ns"]
    starts = [run["started_ns"], *ends[:-1]]
    passes = [
        [(ends[i] - starts[i]) / 1e6 for i in range(p * count, (p + 1) * count)] for p in range(PASSES)
    ]
    requests_per_op = len(inputs.ops[0]) if isinstance(inputs.ops[0], list) else 1
    write_ms = [ns / 1e6 for ns in run["write_latency_ns"]]
    metrics = {
        "setup_s": stats.summarize([stats.median(setup.build_walls) + stats.median(cold)]),
        "cold_start_s": stats.summarize(cold),
        **repeated_read_metrics(passes, requests_per_op),
        **sliced_latency_metrics(write_ms, "write_lat"),
        "peak_rss_mb": stats.summarize([run["peak_rss_mib"]]),
        "disk_bytes_per_set": stats.summarize([setup.disk_bytes_per_set]),
    }
    return {
        "metrics": metrics,
        "attempted": PASSES * count + len(inputs.mixed) + len(probes) + COLD_STARTS + 1,
        "failed": run["failed"],
        "detail": {
            "build_wall_s": setup.build_walls,
            "build_peak_rss_mib": setup.build["peak_rss_mib"],
            "num_groups": setup.build["num_groups"],
            "ops_per_pass": count,
            "write_samples": len(write_ms),
            "timed_wall_s": (ends[-1] - run["started_ns"]) / 1e9,
        },
    }
