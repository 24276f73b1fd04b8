"""How steady the benchmark is: the acceptance arithmetic of its contract, run by hand.

    python3 spine/spread.py --seeds 10 --first-seed 100 --out spine/runs/b.json [--against spine/runs/a.json]
    python3 spine/spread.py --show --out spine/runs/b.json --against spine/runs/a.json

runs the command ``BENCHMARK.json`` names once per seed and workload
(untraced, seeds outermost so that slow minutes of the host are shared
by all workloads), keeps every result line in ``--out``, and prints per
end-to-end metric × workload the median, the distance between the first
and third quartile as a share of it, and the bound.  With ``--against``
it also prints by how much this set's median is worse than the other
set's.  The run sets the bounds were confirmed from are in
``spine/runs/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from spine.spec import BENCHMARK, END_TO_END  # noqa: E402 - after the path set-up


def one_run(workload: str, seed: int) -> dict:
    command = [
        *BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0",
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited with code {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return {"seed": seed, "wall_s": time.perf_counter() - start, **result}


def medians_and_spreads(runs: dict) -> dict:
    """{workload: {metric: (median, quartile distance / median)}} of one set of runs."""
    table: dict = {}
    for workload, results in runs.items():
        table[workload] = {}
        for metric in END_TO_END:
            values = [result["metrics"][metric]["value"] for result in results]
            first, middle, third = statistics.quantiles(values, n=4)
            table[workload][metric] = (middle, (third - first) / middle)
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out", required=True, help="JSON file that keeps every run of this set")
    parser.add_argument("--against", help="an earlier set: print how much worse this set's medians are")
    parser.add_argument("--show", action="store_true", help="run nothing: print the table of the set already in --out")
    args = parser.parse_args(argv)
    workloads = [workload["name"] for workload in BENCHMARK["workloads"]]
    if args.show:
        runs = json.loads(Path(args.out).read_text())["runs"]
    else:
        runs = {workload: [] for workload in workloads}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            for workload in workloads:
                runs[workload].append(one_run(workload, seed))
                print(f"seed {seed} {workload}: {runs[workload][-1]['wall_s']:.1f} s", file=sys.stderr)
        Path(args.out).write_text(json.dumps({"started": time.strftime("%Y-%m-%d %H:%M:%S"), "runs": runs}, indent=1))
    table = medians_and_spreads(runs)
    other = medians_and_spreads(json.loads(Path(args.against).read_text())["runs"]) if args.against else None
    heads = ("workload", "metric", "median", "spread", "bound", "spread/bound", "worse by")
    print("{:<16} {:<20} {:>14} {:>8} {:>7} {:>13} {:>9}".format(*heads))
    code = 0
    for workload in workloads:
        for metric, entry in END_TO_END.items():
            median, spread = table[workload][metric]
            line = f"{workload:<16} {metric:<20} {median:>14.4f} {spread:>8.4f} {entry['bound']:>7.4f}"
            line += f" {spread / entry['bound']:>13.2f}" if entry["bound"] else f" {'-':>13}"
            worse = 0.0
            if other is not None:
                base = other[workload][metric][0]
                worse = (median - base) / base if entry["better"] == "lower" else (base - median) / base
                line += f" {worse:>+9.4f}"
            if (spread > entry["bound"] and metric != "setup_s") or worse > entry["bound"]:
                line += "  BEYOND THE BOUND"
                code = 1
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
