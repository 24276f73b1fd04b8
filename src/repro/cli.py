"""Command-line interface: build, query, persist, validate, and inspect indexes.

Usage::

    repro build data.txt index --groups 64
    repro save index sharded-index --shards 4
    repro load sharded-index --mode lazy
    repro knn index --query "a b c" -k 10 --shards 4
    repro knn sharded-index --query "a b c" -k 10
    repro range index --query "a b c" --threshold 0.7 --mode mmap
    repro join sharded-index --threshold 0.8
    repro bench sharded-index --queries 200 -k 10 --mode mmap
    repro serve sharded-index --mode lazy
    repro stats data.txt
    repro validate sharded-index

``data.txt`` is the standard one-set-per-line, whitespace-separated token
format used by the public set-similarity benchmarks.  Every query command
routes through the unified :func:`repro.load` entry point, which
auto-detects whether its index directory holds a single-engine save
(``repro build``) or a sharded save (``repro save``); results are
identical either way.  ``--shards S`` re-shards a loaded *single-engine*
index in memory.  ``--mode memory|mmap|lazy`` picks the dataset load
path (parse ``dataset.txt``, map the binary ``dataset.bin``, or
additionally build shard indexes on demand).  Results are identical in
every combination.  ``repro serve`` turns a saved index into a long-lived
HTTP query service with micro-batching (see ``docs/serving.md``).  See
``docs/cli.md`` for the complete reference.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.api import QueryRequest, execute, load
from repro.core.dataset import Dataset
from repro.core.engine import LES3
from repro.core.persistence import PersistenceError, is_sharded_index, save_engine, verify_dataset_files
from repro.core.resilience import DeadlineExceeded
from repro.core.validation import validate_tgm
from repro.distributed import ShardedLES3, save_sharded

__all__ = ["main", "build_parser"]

_LOAD_ERRORS = (PersistenceError, FileNotFoundError)


class _CliError(Exception):
    """A user-facing CLI argument/usage error (printed, exit code 1)."""


def _add_timeout_flag(command) -> None:
    command.add_argument(
        "--timeout-ms", type=int, default=None,
        help="per-query deadline in milliseconds (expired queries fail)",
    )


def _add_mode_flag(command) -> None:
    command.add_argument(
        "--mode", default="memory", choices=["memory", "mmap", "lazy"],
        help="dataset load path: parse dataset.txt into RAM (memory), map the "
        "binary dataset.bin (mmap), or additionally build shard indexes on "
        "demand (lazy; sharded directories only) — results are identical",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LES3: learning-based exact set similarity search",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="partition a dataset and persist the index")
    build.add_argument("data", help="dataset file (one set per line)")
    build.add_argument("index", help="output index directory")
    build.add_argument("--groups", type=int, default=0, help="group count (default 0.5%% of |D|)")
    build.add_argument("--measure", default="jaccard", help="similarity measure")
    build.add_argument("--backend", default="dense", choices=["dense", "roaring"])
    build.add_argument("--pairs", type=int, default=40_000, help="training pairs per model")
    build.add_argument("--epochs", type=int, default=3)
    build.add_argument("--workers", type=int, default=1, help="parallel model training threads")
    build.add_argument("--seed", type=int, default=0)

    save = commands.add_parser(
        "save", help="re-shard a single-engine index and persist it as a sharded index"
    )
    save.add_argument("index", help="single-engine index directory (from `repro build`)")
    save.add_argument("out", help="output sharded index directory")
    save.add_argument("--shards", type=int, required=True, help="shard count")

    load_cmd = commands.add_parser("load", help="load an index (either kind) and summarize it")
    load_cmd.add_argument("index", help="index directory (single-engine or sharded)")
    _add_mode_flag(load_cmd)

    knn = commands.add_parser("knn", help="k nearest neighbours of a query set")
    knn.add_argument("index", help="index directory (single-engine or sharded)")
    knn.add_argument("--query", required=True, help="space-separated query tokens")
    knn.add_argument("-k", type=int, default=10)
    knn.add_argument("--shards", type=int, default=1, help="re-shard a single-engine index")
    _add_mode_flag(knn)
    _add_timeout_flag(knn)

    range_cmd = commands.add_parser("range", help="all sets within a similarity threshold")
    range_cmd.add_argument("index", help="index directory (single-engine or sharded)")
    range_cmd.add_argument("--query", required=True, help="space-separated query tokens")
    range_cmd.add_argument("--threshold", type=float, required=True)
    range_cmd.add_argument("--shards", type=int, default=1, help="re-shard a single-engine index")
    _add_mode_flag(range_cmd)
    _add_timeout_flag(range_cmd)

    join = commands.add_parser("join", help="exact similarity self-join of the indexed data")
    join.add_argument("index", help="index directory (single-engine or sharded)")
    join.add_argument("--threshold", type=float, required=True)
    join.add_argument("--shards", type=int, default=1, help="re-shard a single-engine index")
    join.add_argument("--limit", type=int, default=20, help="pairs to print (0 = none)")
    _add_mode_flag(join)
    _add_timeout_flag(join)

    bench = commands.add_parser("bench", help="batch-query throughput of a built index")
    bench.add_argument("index", help="index directory (single-engine or sharded)")
    bench.add_argument("--queries", type=int, default=200, help="batch size (sampled from the data)")
    bench.add_argument("-k", type=int, default=10, help="kNN depth (0 disables the kNN pass)")
    bench.add_argument("--threshold", type=float, default=0.7, help="range threshold (negative disables)")
    bench.add_argument("--shards", type=int, default=1, help="re-shard a single-engine index")
    bench.add_argument("--repeat", type=int, default=1, help="timing repetitions (best is reported)")
    bench.add_argument("--seed", type=int, default=0, help="query sampling seed")
    _add_mode_flag(bench)

    serve_cmd = commands.add_parser(
        "serve", help="serve an index over HTTP with micro-batched queries"
    )
    serve_cmd.add_argument("index", help="index directory (single-engine or sharded)")
    serve_cmd.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_cmd.add_argument(
        "--port", type=int, default=8722, help="bind port (0 picks an ephemeral one)"
    )
    _add_mode_flag(serve_cmd)
    serve_cmd.add_argument(
        "--max-batch", type=int, default=64,
        help="largest micro-batch dispatched to the engine (1 = no batching)",
    )
    serve_cmd.add_argument(
        "--max-queue", type=int, default=256,
        help="admission bound: in-flight requests beyond it get 503 + Retry-After",
    )
    serve_cmd.add_argument(
        "--concurrency", type=int, default=1,
        help="batches allowed in flight simultaneously (one engine thread each)",
    )
    serve_cmd.add_argument(
        "--default-timeout-ms", type=int, default=None,
        help="deadline for requests without their own timeout_ms (504 on expiry)",
    )
    serve_cmd.add_argument(
        "--max-timeout-ms", type=int, default=None,
        help="server-side cap on any request's timeout_ms budget",
    )
    serve_cmd.add_argument(
        "--drain-seconds", type=float, default=5.0,
        help="graceful-shutdown budget: SIGTERM stops accepting and finishes "
        "in-flight requests within this many seconds",
    )

    compact = commands.add_parser(
        "compact",
        help="fold the delta log into a fresh base generation (crash-safe)",
    )
    compact.add_argument("index", help="index directory (single-engine or sharded)")
    compact.add_argument(
        "--workers", type=int, default=None, help="shard build threads (sharded saves)"
    )

    rebalance = commands.add_parser(
        "rebalance",
        help="re-shard a saved index from its columnar file (no re-partitioning)",
    )
    rebalance.add_argument("index", help="index directory (single-engine or sharded)")
    rebalance.add_argument("--shards", type=int, required=True, help="target shard count")
    rebalance.add_argument(
        "--workers", type=int, default=None, help="shard build threads"
    )

    stats = commands.add_parser("stats", help="Table 2-style statistics of a dataset file")
    stats.add_argument("data", help="dataset file")

    validate = commands.add_parser("validate", help="check index integrity (either kind)")
    validate.add_argument("index", help="index directory (single-engine or sharded)")

    lint = commands.add_parser(
        "lint",
        help="AST-based invariant checks over the engine's own source",
        description=(
            "Run the repro static-analysis rules (bit-identity, concurrency, "
            "resilience, hygiene) over Python files; see docs/static-analysis.md."
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "benchmarks"],
        help="files/directories to check (default: src tests benchmarks)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="report format (json is the stable machine interface)",
    )
    lint.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="CODES",
        help="only run these comma-separated codes/prefixes (e.g. RL3,RL101)",
    )
    lint.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="CODES",
        help="skip these comma-separated codes/prefixes (applied after --select)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table (code, scope, summary) and exit",
    )
    return parser


def _cmd_build(args) -> int:
    dataset = Dataset.load(args.data)
    if not len(dataset):
        print("error: dataset is empty", file=sys.stderr)
        return 1
    num_groups = args.groups if args.groups > 0 else max(int(0.005 * len(dataset)), 2)
    from repro.learn.cascade import L2PPartitioner

    partitioner = L2PPartitioner(
        measure=args.measure,
        pairs_per_model=args.pairs,
        epochs=args.epochs,
        workers=args.workers,
        seed=args.seed,
    )
    start = time.perf_counter()
    engine = LES3.build(
        dataset,
        num_groups=num_groups,
        partitioner=partitioner,
        measure=args.measure,
        backend=args.backend,
    )
    elapsed = time.perf_counter() - start
    save_engine(engine, args.index)
    print(
        f"built {engine.tgm.num_groups} groups over {len(dataset)} sets "
        f"in {elapsed:.2f}s; index at {args.index} ({engine.index_bytes()} bytes)"
    )
    return 0


def _print_matches(engine, matches) -> None:
    for record_index, similarity in matches:
        tokens = " ".join(str(t) for t in engine.tokens_of(record_index))
        print(f"{similarity:.4f}\t#{record_index}\t{tokens}")


def _load_query_engine(args):
    """Load either index kind, honouring ``--shards``/``--mode``.

    One :func:`repro.load` call auto-detects the directory kind (the
    per-command sniffing this file used to repeat lives there now).
    Single-engine directories are optionally re-sharded in memory
    (``--shards S``); sharded directories load as-is (they already fix
    their shard count).  ``--mode mmap`` maps the binary ``dataset.bin``
    instead of parsing ``dataset.txt``; ``--mode lazy`` additionally
    builds shard indexes on first visit (sharded directories only).
    """
    shards = getattr(args, "shards", 1)
    mode = getattr(args, "mode", "memory")
    engine = load(args.index, mode=mode)
    if isinstance(engine, ShardedLES3):
        if shards != 1:
            raise _CliError(
                "--shards re-shards single-engine indexes; this index is already "
                "sharded (its shard count is fixed by the save)"
            )
    elif shards != 1:
        engine = ShardedLES3.from_engine(engine, shards)
    return engine


def _cmd_save(args) -> int:
    if args.shards < 1:
        print("error: --shards must be positive", file=sys.stderr)
        return 1
    try:
        # The one remaining explicit kind-sniff: `repro save` must refuse a
        # sharded input *before* paying a full load of it.
        if is_sharded_index(args.index):
            raise _CliError(
                f"{args.index} is already a sharded index; `repro save` re-shards "
                "single-engine indexes (from `repro build`)"
            )
        engine = load(args.index)
    except (_CliError, *_LOAD_ERRORS) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    start = time.perf_counter()
    sharded = ShardedLES3.from_engine(engine, args.shards)
    save_sharded(sharded, args.out)
    elapsed = time.perf_counter() - start
    print(
        f"sharded {len(sharded.dataset)} sets into {sharded.num_shards} shard(s) "
        f"(placement {sharded.placement!r}) in {elapsed:.2f}s; index at {args.out}"
    )
    return 0


def _cmd_load(args) -> int:
    try:
        engine = _load_query_engine(args)
    except (_CliError, *_LOAD_ERRORS) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if isinstance(engine, ShardedLES3):
        sizes = " ".join(str(size) for size in engine.shard_sizes())
        print(
            f"sharded index: {len(engine.dataset)} sets, {engine.num_shards} shard(s) "
            f"[{sizes}], {engine.num_groups} groups, measure {engine.measure.name!r}, "
            f"placement {engine.placement!r}, "
            f"{len(engine.removed)} tombstone(s), {engine.index_bytes()} index bytes"
        )
    else:
        print(
            f"single-engine index: {len(engine.dataset)} sets, "
            f"{engine.num_groups} groups, measure {engine.measure.name!r}, "
            f"{len(engine.removed)} tombstone(s), "
            f"{engine.index_bytes()} index bytes"
        )
    return 0


def _cmd_knn(args) -> int:
    if args.shards < 1:
        print("error: --shards must be positive", file=sys.stderr)
        return 1
    try:
        request = QueryRequest.knn(
            args.query.split(), k=args.k, timeout_ms=args.timeout_ms
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        engine = _load_query_engine(args)
    except (_CliError, *_LOAD_ERRORS) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        result = execute(engine, request)
        _print_matches(engine, result.matches)
        print(
            f"# verified {result.stats.candidates_verified}/{len(engine.dataset)} sets, "
            f"pruned {result.stats.groups_pruned}/{engine.num_groups} groups",
            file=sys.stderr,
        )
        return 0
    except DeadlineExceeded as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


def _cmd_range(args) -> int:
    if args.shards < 1:
        print("error: --shards must be positive", file=sys.stderr)
        return 1
    try:
        request = QueryRequest.range(
            args.query.split(), threshold=args.threshold,
            timeout_ms=args.timeout_ms,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        engine = _load_query_engine(args)
    except (_CliError, *_LOAD_ERRORS) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        result = execute(engine, request)
        _print_matches(engine, result.matches)
        print(
            f"# {len(result.matches)} matches; verified "
            f"{result.stats.candidates_verified}/{len(engine.dataset)} sets",
            file=sys.stderr,
        )
        return 0
    except DeadlineExceeded as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


def _cmd_join(args) -> int:
    if args.shards < 1:
        print("error: --shards must be positive", file=sys.stderr)
        return 1
    if args.limit < 0:
        print("error: --limit must be non-negative", file=sys.stderr)
        return 1
    try:
        request = QueryRequest.join(threshold=args.threshold, timeout_ms=args.timeout_ms)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        query_engine = _load_query_engine(args)
    except (_CliError, *_LOAD_ERRORS) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        result = execute(query_engine, request)
        for x, y, similarity in result.matches[: args.limit]:
            print(f"{similarity:.4f}\t#{x}\t#{y}")
        if args.limit and len(result.matches) > args.limit:
            print(f"... and {len(result.matches) - args.limit} more pairs")
        print(
            f"# {len(result.matches)} pairs; verified {result.stats.candidates_verified} "
            f"candidates, pruned {result.stats.groups_pruned}/"
            f"{result.stats.groups_scored} group pairs",
            file=sys.stderr,
        )
        return 0
    except DeadlineExceeded as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


def _load_bench_engine(args) -> ShardedLES3:
    """Load the bench target, always as a sharded engine.

    Unlike the query commands, ``repro bench`` times the batch kernels
    through the sharded scatter-gather path even for single-engine saves
    (a 1-shard in-memory wrap), so its report always carries a shard
    count.
    """
    engine = load(args.index, mode=args.mode)
    if isinstance(engine, ShardedLES3):
        if args.shards != 1:
            raise _CliError(
                "--shards re-shards single-engine indexes; this index is already "
                "sharded (its shard count is fixed by the save)"
            )
        return engine
    return ShardedLES3.from_engine(engine, args.shards)


def _cmd_bench(args) -> int:
    if args.queries <= 0:
        print("error: --queries must be positive", file=sys.stderr)
        return 1
    if args.shards < 1:
        print("error: --shards must be positive", file=sys.stderr)
        return 1
    if args.repeat < 1:
        print("error: --repeat must be positive", file=sys.stderr)
        return 1
    if args.threshold > 1.0:
        print("error: threshold must be in [0, 1]", file=sys.stderr)
        return 1
    from repro.workloads import sample_queries

    try:
        sharded = _load_bench_engine(args)
    except (_CliError, *_LOAD_ERRORS) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    queries = sample_queries(sharded.dataset, args.queries, seed=args.seed)
    print(
        f"# {len(sharded.dataset)} sets, {sharded.num_groups} groups, "
        f"{sharded.num_shards} shard(s), {len(queries)} queries"
    )
    # Build the CSR view outside the timed region: it is a one-time,
    # whole-database cost, not a per-batch one.
    sharded.dataset.columnar()
    passes = []
    if args.k > 0:
        passes.append(("knn", lambda: sharded.batch_knn_record(queries, args.k)))
    if args.threshold >= 0:
        passes.append(("range", lambda: sharded.batch_range_record(queries, args.threshold)))
    for name, run in passes:
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            results = run()
            best = min(best, time.perf_counter() - start)
        matches = sum(len(result) for result in results)
        print(
            f"{name}: {len(queries) / best:,.0f} queries/s "
            f"({best * 1000:.1f} ms/batch, {matches} matches)"
        )
    return 0


def _cmd_stats(args) -> int:
    stats = Dataset.load(args.data).stats()
    print(f"sets:      {stats.num_sets}")
    print(f"max size:  {stats.max_set_size}")
    print(f"min size:  {stats.min_set_size}")
    print(f"avg size:  {stats.avg_set_size:.1f}")
    print(f"universe:  {stats.universe_size}")
    return 0


def _cmd_validate(args) -> int:
    try:
        engine = load(args.index)
        verify_dataset_files(args.index)
    except (ValueError, FileNotFoundError) as error:
        print(f"index CORRUPT: {error}")
        return 2
    if isinstance(engine, ShardedLES3):
        # Global coverage (each record in exactly one shard, tombstones
        # excepted) was already enforced by the load; per shard, check the
        # TGM invariants with every record outside the shard treated as
        # intentionally absent.
        all_records = set(range(len(engine.dataset)))
        ok = True
        for shard_id, tgm in enumerate(engine.tgms):
            assigned = {
                record_index
                for members in tgm.group_members
                for record_index in members
            }
            report = validate_tgm(
                engine.dataset, tgm, removed=all_records - assigned
            )
            print(f"shard {shard_id:04d}: {report.summary()}")
            ok = ok and report.ok
        print("index OK" if ok else "index CORRUPT")
        return 0 if ok else 2
    report = validate_tgm(engine.dataset, engine.tgm, removed=engine.removed)
    print(report.summary())
    return 0 if report.ok else 2


def _cmd_compact(args) -> int:
    from repro.maintenance import compact_index

    try:
        stats = compact_index(args.index, workers=args.workers)
    except (_CliError, *_LOAD_ERRORS) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    kind = f"sharded ({stats['num_shards']} shard(s))" if stats["sharded"] else "single-engine"
    print(
        f"compacted {kind} index at {args.index}: folded {stats['ops_folded']} "
        f"delta op(s) into a new generation of {stats['num_records']} sets, "
        f"{stats['num_tombstones']} tombstone(s)"
    )
    return 0


def _cmd_rebalance(args) -> int:
    from repro.maintenance import rebalance_index

    if args.shards < 1:
        print("error: --shards must be positive", file=sys.stderr)
        return 1
    try:
        stats = rebalance_index(args.index, args.shards, workers=args.workers)
    except (_CliError, *_LOAD_ERRORS) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    sizes = " ".join(str(size) for size in stats["shard_sizes"])
    print(
        f"rebalanced index at {args.index}: {stats['num_records']} sets, "
        f"{stats['num_groups']} groups over {stats['num_shards']} shard(s) "
        f"[{sizes}], folded {stats['ops_folded']} delta op(s)"
    )
    return 0


def _cmd_serve(args) -> int:
    if args.port < 0 or args.port > 65535:
        print("error: --port must be in [0, 65535]", file=sys.stderr)
        return 1
    for flag, value in (
        ("--max-batch", args.max_batch),
        ("--max-queue", args.max_queue),
        ("--concurrency", args.concurrency),
    ):
        if value < 1:
            print(f"error: {flag} must be positive", file=sys.stderr)
            return 1
    if args.drain_seconds < 0:
        print("error: --drain-seconds must be >= 0", file=sys.stderr)
        return 1
    for flag, value in (
        ("--default-timeout-ms", args.default_timeout_ms),
        ("--max-timeout-ms", args.max_timeout_ms),
    ):
        if value is not None and value <= 0:
            print(f"error: {flag} must be positive", file=sys.stderr)
            return 1
    from repro.serve import serve

    try:
        serve(
            args.index,
            announce=print,
            host=args.host,
            port=args.port,
            mode=args.mode,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            concurrency=args.concurrency,
            default_timeout_ms=args.default_timeout_ms,
            max_timeout_ms=args.max_timeout_ms,
            drain_seconds=args.drain_seconds,
        )
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _split_codes(expressions: list[str] | None) -> list[str] | None:
    if expressions is None:
        return None
    return [code.strip() for entry in expressions for code in entry.split(",") if code.strip()]


def _cmd_lint(args) -> int:
    from repro.analysis import RuleError, all_rules, analyze_paths, render_json, render_text

    if args.list_rules:
        for registered in all_rules():
            scope = ", ".join(registered.scope) if registered.scope else "all files"
            print(f"{registered.code}  {registered.name}  [{scope}]")
            print(f"       {registered.summary}")
            print(f"       protects: {registered.invariant}")
        return 0
    try:
        diagnostics, files_checked = analyze_paths(
            args.paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
        )
    except RuleError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    renderer = render_json if args.output_format == "json" else render_text
    print(renderer(diagnostics, files_checked))
    return 1 if diagnostics else 0


_COMMANDS = {
    "build": _cmd_build,
    "save": _cmd_save,
    "load": _cmd_load,
    "knn": _cmd_knn,
    "range": _cmd_range,
    "join": _cmd_join,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "compact": _cmd_compact,
    "rebalance": _cmd_rebalance,
    "stats": _cmd_stats,
    "validate": _cmd_validate,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
