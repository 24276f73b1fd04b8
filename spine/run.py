"""The spine's one command.

Contract mode (what ``BENCHMARK.json`` names)::

    python3 spine/run.py --workload knn-zipf --seed 7 --seconds 10 --trace 0

runs one workload once and prints, as the last line of stdout, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Suite mode (no ``--workload``)::

    PYTHONPATH=src python -m spine.run [--seed N] [--smoke] [--repeat-check]

runs all four workloads untraced, then traced, and prints every metric
by name with its unit, the environment block and the dominance report.

Exit codes: 0 success; 2 an exactness gate failed (no metrics are
printed); 3 a dominance assertion failed; 4 ``src/`` has uncommitted
changes and ``--allow-dirty`` was not given; 5 ``--repeat-check`` found
a disagreement beyond a bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy  # noqa: E402 - after the path set-up, like everything below

from spine.harness import UNBOUNDED, GateFailure  # noqa: E402
from spine.layers import DOMINANCE, dominance_failures  # noqa: E402
from spine.library import run_library  # noqa: E402
from spine.procs import PINNED_ENV, work_directory  # noqa: E402
from spine.serve_rw import run_serve  # noqa: E402
from spine.spec import BENCHMARK, END_TO_END, EXACT_COUNTS, PER_LAYER  # noqa: E402
from spine.traced import run_traced  # noqa: E402
from spine.workloads import CORPUS_SEED, WORKLOADS, make_inputs  # noqa: E402

#: Untraced runs per workload on each side of ``--repeat-check``.
REPEAT_RUNS = 3


def git_state() -> tuple[str | None, bool | None]:
    """(HEAD sha, whether ``src/`` is dirty); (None, None) when ROOT is not a git checkout."""

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return None, None
    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--", "src"))


def environment(args: argparse.Namespace) -> dict:
    sha, dirty = git_state()
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "pinned_thread_env": PINNED_ENV,
        "git_sha": sha,
        "src_dirty": dirty,
        "seed": args.seed,
        "corpus_seed": CORPUS_SEED,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def run_once(name: str, args: argparse.Namespace, trace: bool) -> dict:
    """One workload, one run.  Raises GateFailure before any metric exists."""
    started = time.perf_counter()
    inputs = make_inputs(name, args.seed, args.seconds, args.smoke)
    with work_directory(name) as workdir:
        runner = run_traced if trace else run_serve if inputs.workload.op == "serve" else run_library
        outcome = runner(inputs, workdir, args.corrupt_gate)
    spans = outcome.pop("spans", None)
    if spans is not None and args.trace_out:
        Path(args.trace_out).write_text(json.dumps({
            "workload": name, "columns": ["name", "start_ns", "end_ns", "parent", "op"], "spans": spans,
        }))
    outcome["detail"]["sizes"] = inputs.sizes
    outcome["detail"]["wall_s"] = time.perf_counter() - started
    return outcome


def values_of(outcome: dict) -> dict:
    return {name: metric["value"] for name, metric in outcome["metrics"].items()}


def print_table(name: str, outcome: dict, named: dict) -> None:
    """Every metric of ``named`` (``END_TO_END`` or ``PER_LAYER``) by name, with its unit."""
    print(f"== {name} ({'traced, per layer' if named is PER_LAYER else 'untraced, end to end'})")
    for metric, entry in named.items():
        m = outcome["metrics"][metric]
        spread = f"  (passes: min {m['min']:.4f}, max {m['max']:.4f})" if m["min"] != m["max"] else ""
        print(f"  {metric:<40} {m['value']:>16.4f} {entry['unit']}{spread}")
    for metric, unit in UNBOUNDED.items() if named is END_TO_END else ():
        print(f"  {metric:<40} {outcome['metrics'][metric]['value']:>16.4f} {unit}  (no bound: host noise exceeds any)")
    print(f"  attempted {outcome['attempted']}, failed {outcome['failed']}")
    print(f"  detail: {json.dumps(outcome['detail'])}")


def print_dominance(name: str, values: dict, smoke: bool) -> list[str]:
    """The share table of a traced run and the design-intent assertions on it.

    The regimes are properties of the full-size workloads; a smoke run prints them and asserts nothing.
    """
    shares = {metric: round(value, 4) for metric, value in values.items() if metric.startswith("spine.share.")}
    print(f"  shares of op time: {json.dumps(shares)}")
    for metric, comparison, limit in DOMINANCE[name]:
        print(f"  designed regime: {metric} {comparison} {limit}: measured {values[metric]:.4f}")
    failures = [] if smoke else dominance_failures(name, values)
    for failure in failures:
        print(f"dominance assertion failed: {failure}", file=sys.stderr)
    return failures


def contract_mode(args: argparse.Namespace) -> int:
    named = PER_LAYER if args.trace else END_TO_END
    outcome = run_once(args.workload, args, bool(args.trace))
    print_table(args.workload, outcome, named)
    if args.trace and print_dominance(args.workload, values_of(outcome), args.smoke):
        return 3
    print(json.dumps({
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": outcome["metrics"][name]["value"], "unit": entry["unit"]} for name, entry in named.items()
        },
    }))
    return 0


def suite(args: argparse.Namespace) -> tuple[dict, int]:
    """Every workload untraced, then traced; returns ({workload: {metric: value}}, exit code)."""
    results: dict = {}
    code = 0
    for name in WORKLOADS:
        outcome = run_once(name, args, trace=False)
        print_table(name, outcome, END_TO_END)
        results[name] = values_of(outcome)
    for name in WORKLOADS:
        outcome = run_once(name, args, trace=True)
        print_table(name, outcome, PER_LAYER)
        results[name].update(values_of(outcome))
        if print_dominance(name, results[name], args.smoke):
            code = 3
    return results, code


def repeat_check(args: argparse.Namespace) -> int:
    """Two sets of runs of this commit: end-to-end medians within their bounds, counts exactly equal.

    The host's speed drifts by a fifth over minutes, so two suites back
    to back disagree about the host, not about the commit.  The sets
    therefore alternate run by run (A B A B A B on each workload): both
    see the same minutes, and a metric is the median of its set's runs.
    """
    first, second = sets = ({}, {})
    worst = 0
    for name in WORKLOADS:
        untraced: tuple[list, list] = ([], [])
        for turn in range(2 * REPEAT_RUNS):
            outcome = run_once(name, args, trace=False)
            print_table(name, outcome, END_TO_END)
            untraced[turn % 2].append(values_of(outcome))
        for side, runs in zip(sets, untraced):
            side[name] = {metric: statistics.median(run[metric] for run in runs) for metric in END_TO_END}
            outcome = run_once(name, args, trace=True)
            print_table(name, outcome, PER_LAYER)
            side[name].update(values_of(outcome))
            if print_dominance(name, side[name], args.smoke):
                worst = 3
    print(f"{'workload':<16} {'metric':<40} {'first':>14} {'second':>14} {'worse by':>9} {'bound':>7}")
    for name in WORKLOADS:
        for metric, bound in END_TO_END.items():
            a, b = first[name][metric], second[name][metric]
            worse = (b - a) / a if bound["better"] == "lower" else (a - b) / a
            verdict = "" if abs(worse) <= bound["bound"] else "  DISAGREES"
            print(f"{name:<16} {metric:<40} {a:>14.4f} {b:>14.4f} {worse:>+9.4f} {bound['bound']:>7.4f}{verdict}")
            if verdict:
                worst = worst or 5
        for metric in EXACT_COUNTS:
            a, b = first[name][metric], second[name][metric]
            if a != b:
                print(f"{name:<16} {metric:<40} {a:>14.4f} {b:>14.4f}  COUNT DIFFERS")
                worst = worst or 5
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="The measurement spine (see spine/README.md).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=0, help="samples queries, writes, gate sample and probe")
    parser.add_argument(
        "--seconds", type=float, default=BENCHMARK["run_seconds"], help="op lists are sized to take this long"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="every workload at 1/20 size, same code path")
    parser.add_argument("--repeat-check", action="store_true", help="two interleaved sets of runs, compared")
    parser.add_argument("--allow-dirty", action="store_true", help="run although src/ has uncommitted changes")
    parser.add_argument("--trace-out", help="write the traced run's spans to this JSON file")
    parser.add_argument("--corrupt-gate", action="store_true", help="falsify one oracle answer (the gates' self-test)")
    args = parser.parse_args(argv)
    env = environment(args)
    if env["src_dirty"] and not args.allow_dirty:
        print("src/ has uncommitted changes; commit them or pass --allow-dirty to mark the result", file=sys.stderr)
        return 4
    print(f"environment: {json.dumps(env)}")
    try:
        if args.workload:
            return contract_mode(args)
        if args.repeat_check:
            return repeat_check(args)
        results, code = suite(args)
    except GateFailure as failure:
        print(f"exactness gate failed, no metrics: {failure}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": env, "results": results}))
    return code


if __name__ == "__main__":
    sys.exit(main())
