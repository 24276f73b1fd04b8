"""Sharded scatter-gather: shard counts, load paths, and the lifecycle.

A clustered database (noisy copies of per-cluster templates, each cluster
owning a contiguous token block) is served by ``ShardedLES3`` at
S ∈ {1, 4, 8} with locality-preserving (``"range"``) placement, then
**saved, reloaded, and benchmarked**.  The query numbers isolate the
*hierarchical bound* — the shard vocabulary prunes whole shards before
their per-group bounds are even computed, so per-query scoring shrinks
as shards get finer.

Each shard count also measures the **out-of-core load paths**: every
load mode (``"memory"``, ``"mmap"``, ``"lazy"``) runs in a fresh
subprocess that reports wall-clock load time and the resident-set (RSS)
delta the load caused, and the mmap-loaded engine's query throughput is
compared against the in-memory one (matches asserted bit-identical
first).  ``--mode`` picks which load path the query benchmark itself
runs on.

The save → load round trip is asserted bit-identical at every shard
count before any number is reported.  Each run appends one entry to the
``BENCH_sharded.json`` trajectory (repo root by default; entries before
PR 13 also carry ``thread``/``process`` columns of the execution modes
that PR removed — ``serial`` there is ``knn_qps``/``range_qps`` here).
Run directly::

    PYTHONPATH=src python benchmarks/bench_sharded.py          # full size
    PYTHONPATH=src python benchmarks/bench_sharded.py --smoke  # CI-tiny
    PYTHONPATH=src python benchmarks/bench_sharded.py --smoke --mode mmap

The script exits non-zero if any shard count or load mode ever
disagrees; on full-size runs it additionally enforces that the
mmap-backed loads (``mmap`` or ``lazy``) beat the in-memory load by ≥ 5x
on load time or resident memory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro
from repro.bench import append_trajectory
from repro.core.dataset import Dataset
from repro.core.sets import SetRecord
from repro.core.tokens import TokenUniverse
from repro.distributed import ShardedLES3, save_sharded
from repro.partitioning import MinTokenPartitioner
from repro.workloads import sample_queries

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_sharded.json"
SHARD_COUNTS = (1, 4, 8)
LOAD_MODES = ("memory", "mmap", "lazy")
K = 10
THRESHOLD = 0.6

# Runs in a fresh interpreter per (directory, load mode): the parent's heap
# would drown the signal, a child's RSS delta is exactly what the load costs.
_MEASURE_SNIPPET = """\
import json, sys, time

def rss_bytes():
    try:
        with open('/proc/self/status') as handle:
            for line in handle:
                if line.startswith('VmRSS:'):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource  # non-Linux fallback: peak RSS (coarser, still a delta)
    scale = 1024 if sys.platform != 'darwin' else 1
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale

import repro

directory, mode = sys.argv[1], sys.argv[2]
before = rss_bytes()
start = time.perf_counter()
engine = repro.load(directory, mode=mode)
cold_seconds = time.perf_counter() - start
rss_delta = rss_bytes() - before
# The second load times the load path itself, free of one-shot interpreter
# and library initialization; the first engine is dropped so the modes'
# steady-state numbers stay comparable.
del engine
start = time.perf_counter()
engine = repro.load(directory, mode=mode)
seconds = time.perf_counter() - start
print(json.dumps({
    'seconds': seconds,
    'cold_seconds': cold_seconds,
    'rss_bytes': rss_delta,
}))
"""


def measure_load(directory: Path, mode: str) -> dict:
    """Load time and RSS delta of one load mode, in a fresh subprocess."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _MEASURE_SNIPPET, str(directory), mode],
        capture_output=True, text=True, env=env,
    )
    if result.returncode != 0:
        raise RuntimeError(f"load measurement ({mode}) failed: {result.stderr}")
    return json.loads(result.stdout)


def bench_load_paths(index_dir: Path, loaded: ShardedLES3, queries) -> dict:
    """Per-mode load cost plus mmap-vs-memory query throughput.

    ``loaded`` is the already-loaded in-memory reference engine; the
    mmap engine's batch answers are asserted bit-identical to it before
    any throughput is reported.
    """
    out: dict = {mode: measure_load(index_dir, mode) for mode in LOAD_MODES}
    memory = out["memory"]
    for mode in ("mmap", "lazy"):
        out[f"{mode}_load_speedup"] = memory["seconds"] / max(out[mode]["seconds"], 1e-9)
        out[f"{mode}_rss_improvement"] = memory["rss_bytes"] / max(out[mode]["rss_bytes"], 1)
    mapped = repro.load(index_dir, mode="mmap")
    mapped_queries = sample_queries(mapped.dataset, len(queries), seed=1)
    # Warm-up pass: fault the touched pages in before timing, so the
    # number reflects steady-state mmap throughput, not first-touch IO.
    mapped.batch_knn_record(mapped_queries, K)
    start = time.perf_counter()
    knn_results = mapped.batch_knn_record(mapped_queries, K)
    knn_seconds = time.perf_counter() - start
    start = time.perf_counter()
    range_results = mapped.batch_range_record(mapped_queries, THRESHOLD)
    range_seconds = time.perf_counter() - start
    assert [r.matches for r in knn_results] == [
        r.matches for r in loaded.batch_knn_record(queries, K)
    ], "mmap load changed kNN answers"
    assert [r.matches for r in range_results] == [
        r.matches for r in loaded.batch_range_record(queries, THRESHOLD)
    ], "mmap load changed range answers"
    out["mmap_knn_qps"] = len(queries) / knn_seconds
    out["mmap_range_qps"] = len(queries) / range_seconds
    return out


def clustered_block_dataset(
    num_sets: int, num_clusters: int, seed: int = 0
) -> Dataset:
    """Template clusters over contiguous token blocks (locality-shardable)."""
    block, template_size, set_size, noise = 40, 15, 12, 0.02
    rng = random.Random(seed)
    num_tokens = num_clusters * block
    templates = [
        rng.sample(range(c * block, (c + 1) * block), template_size)
        for c in range(num_clusters)
    ]
    records = []
    for i in range(num_sets):
        tokens = set(rng.sample(templates[i % num_clusters], set_size))
        if rng.random() < noise:
            tokens.discard(next(iter(tokens)))
            tokens.add(rng.randrange(num_tokens))
        records.append(SetRecord(tokens))
    return Dataset(records, TokenUniverse(range(num_tokens)))


def check_round_trip(engine: ShardedLES3, loaded: ShardedLES3, queries) -> None:
    """Loaded engine must answer exactly like the one that was saved."""
    local = sample_queries(loaded.dataset, len(queries), seed=1)
    assert [r.matches for r in loaded.batch_knn_record(local, K)] == [
        r.matches for r in engine.batch_knn_record(queries, K)
    ], "save -> load changed kNN answers"
    assert [r.matches for r in loaded.batch_range_record(local, THRESHOLD)] == [
        r.matches for r in engine.batch_range_record(queries, THRESHOLD)
    ], "save -> load changed range answers"
    assert loaded.join(THRESHOLD).pairs == engine.join(THRESHOLD).pairs, (
        "save -> load changed join pairs"
    )


def bench_queries(loaded: ShardedLES3, queries, repeats: int) -> dict:
    """Best-of-``repeats`` batch throughput of the loaded engine."""
    knn_best = range_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        loaded.batch_knn_record(queries, K)
        knn_best = min(knn_best, time.perf_counter() - start)
        start = time.perf_counter()
        loaded.batch_range_record(queries, THRESHOLD)
        range_best = min(range_best, time.perf_counter() - start)
    return {"knn_qps": len(queries) / knn_best, "range_qps": len(queries) / range_best}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (CI rot canary)")
    parser.add_argument("--sets", type=int, default=None, help="database size")
    parser.add_argument("--queries", type=int, default=None, help="batch size")
    parser.add_argument("--repeat", type=int, default=None, help="timing repetitions")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode", default="memory", choices=list(LOAD_MODES),
        help="load path of the engine the query benchmark runs on "
        "(the load-path comparison itself always measures all three)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="trajectory JSON path")
    args = parser.parse_args(argv)

    num_sets = args.sets if args.sets is not None else (600 if args.smoke else 12_000)
    num_queries = args.queries if args.queries is not None else (30 if args.smoke else 200)
    repeats = args.repeat if args.repeat is not None else (1 if args.smoke else 2)
    if num_sets <= 0 or num_queries <= 0 or repeats <= 0:
        parser.error("--sets, --queries, and --repeat must be positive")
    num_clusters = max(num_sets // 25, 4)
    num_groups = num_clusters

    dataset = clustered_block_dataset(num_sets, num_clusters, seed=args.seed)
    queries = sample_queries(dataset, num_queries, seed=1)
    dataset.columnar()  # whole-database one-time cost, outside every timing
    print(
        f"# {num_sets} sets, {num_clusters} clusters, {num_groups} groups, "
        f"{num_queries} queries, {os.cpu_count()} core(s)"
    )

    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        for shards in SHARD_COUNTS:
            start = time.perf_counter()
            engine = ShardedLES3.build(
                dataset, shards, num_groups=num_groups,
                partitioner_factory=lambda shard_id: MinTokenPartitioner(),
                strategy="range", workers=1,
            )
            build_seconds = time.perf_counter() - start
            index_dir = Path(scratch) / f"S{shards}"
            start = time.perf_counter()
            save_sharded(engine, index_dir)
            save_seconds = time.perf_counter() - start
            start = time.perf_counter()
            loaded = repro.load(index_dir, mode=args.mode)
            load_seconds = time.perf_counter() - start
            check_round_trip(engine, loaded, queries)
            local_queries = sample_queries(loaded.dataset, num_queries, seed=1)
            loaded.dataset.columnar()
            row = {"load_paths": bench_load_paths(index_dir, loaded, local_queries)}
            row.update(bench_queries(loaded, local_queries, repeats))
            row.update(
                shards=shards,
                build_seconds=build_seconds,
                save_seconds=save_seconds,
                load_seconds=load_seconds,
                queries_mode=args.mode,
            )
            rows.append(row)
            paths = row["load_paths"]
            print(
                f"S={shards}: build {build_seconds:.2f}s, save {save_seconds:.2f}s, "
                f"load[{args.mode}] {load_seconds:.2f}s, round-trip OK; "
                f"knn {row['knn_qps']:,.0f} q/s / range {row['range_qps']:,.0f} q/s"
            )
            print(
                f"S={shards} load paths: "
                + ", ".join(
                    f"{mode} {paths[mode]['seconds'] * 1000:.0f} ms / "
                    f"{paths[mode]['rss_bytes'] / 1e6:.1f} MB"
                    for mode in LOAD_MODES
                )
                + f"; mmap speedup {paths['mmap_load_speedup']:.1f}x load / "
                f"{paths['mmap_rss_improvement']:.1f}x RSS, "
                f"lazy {paths['lazy_load_speedup']:.1f}x load / "
                f"{paths['lazy_rss_improvement']:.1f}x RSS; "
                f"mmap knn {paths['mmap_knn_qps']:,.0f} q/s, "
                f"range {paths['mmap_range_qps']:,.0f} q/s"
            )

    best_out_of_core = max(
        row["load_paths"][key]
        for row in rows
        for key in (
            "mmap_load_speedup", "mmap_rss_improvement",
            "lazy_load_speedup", "lazy_rss_improvement",
        )
    )
    append_trajectory(
        args.out,
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "smoke": args.smoke,
            "config": {
                "sets": num_sets,
                "clusters": num_clusters,
                "groups": num_groups,
                "queries": num_queries,
                "repeats": repeats,
                "seed": args.seed,
                "k": K,
                "threshold": THRESHOLD,
                "cpus": os.cpu_count(),
            },
            "shard_counts": rows,
            "best_out_of_core_improvement": best_out_of_core,
        },
    )
    print(f"# appended to {args.out}")
    if not args.smoke and best_out_of_core < 5.0:
        print(
            "FAIL: mmap-backed loads beat the in-memory load by "
            f"{best_out_of_core:.1f}x at best — below the 5x acceptance bar"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
