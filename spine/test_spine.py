"""The spine's own tests.  Run by explicit path (``testpaths`` is ``tests``)::

    PYTHONPATH=src python -m pytest spine/test_spine.py -q
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro import Dataset  # noqa: E402 - after the path set-up, like everything below
from repro.baselines import BruteForceSearch  # noqa: E402
from repro.core.engine import as_query_record  # noqa: E402
from spine.layers import DOMINANCE  # noqa: E402
from spine.oracle import Oracle  # noqa: E402
from spine.spec import BENCHMARK, END_TO_END, EXACT_COUNTS, PER_LAYER  # noqa: E402
from spine.tracer import Tracer  # noqa: E402
from spine.workloads import WORKLOADS, make_inputs  # noqa: E402


def run_spine(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "spine" / "run.py"), "--allow-dirty", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )


def result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_meets_its_contract_and_names_the_workloads_the_code_runs():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["spine"] and BENCHMARK["command"] == ["python3", "spine/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in BENCHMARK["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCHMARK["per_layer"])
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128 and 1 <= BENCHMARK["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    for metric in (*END_TO_END.values(), *PER_LAYER.values()):
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 <= m["bound"] <= 0.25 for m in END_TO_END.values())
    setup = END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in END_TO_END.values())
    assert {metric for regime in DOMINANCE.values() for metric, _, _ in regime} <= set(PER_LAYER)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_between_seeds(name):
    first, again, other = (make_inputs(name, seed, 12, smoke=True) for seed in (3, 3, 4))
    assert (first.ops, first.mixed, first.gate, first.probe) == (again.ops, again.mixed, again.gate, again.probe)
    assert first.token_lists == again.token_lists
    assert (first.mixed, first.probe) != (other.mixed, other.probe)
    assert len(first.gate) * (len(first.ops[0]) if isinstance(first.ops[0], list) else 1) >= min(100, len(first.ops))


def test_oracle_agrees_with_brute_force_and_set_arithmetic():
    inputs = make_inputs("batch-clustered", 5, 12, smoke=True)
    lists = inputs.token_lists[:400]
    oracle, dataset = Oracle(lists), Dataset.from_token_lists(lists)
    brute = BruteForceSearch(dataset)
    for request in inputs.ops[0][:8]:
        record = as_query_record(dataset, request["tokens"])
        assert oracle.knn(request["tokens"], 10) == brute.knn_search(record, 10).matches
        assert oracle.range(request["tokens"], 0.3) == brute.range_search(record, 0.3).matches
    sets = [set(tokens) for tokens in lists[:120]]
    expected = [
        (x, y, len(sets[x] & sets[y]) / len(sets[x] | sets[y]))
        for x in range(len(sets)) for y in range(x + 1, len(sets))
        if len(sets[x] & sets[y]) / len(sets[x] | sets[y]) >= 0.5
    ]
    assert Oracle(lists[:120]).join(0.5) == expected


def test_oracle_follows_writes():
    oracle = Oracle([["a", "b"], ["b", "c"], ["x"]])
    assert oracle.insert(["a", "b", "new"]) == 3
    oracle.remove(0)
    assert oracle.knn(["a", "b", "new"], 2) == [(3, 1.0), (1, 0.25)]
    with pytest.raises(KeyError):
        oracle.remove(0)


def test_tracer_self_time_is_duration_minus_children():
    tracer = Tracer()
    tracer.op_id = 7
    tracer.begin("op")
    tracer.call("child", sum, [1, 2])
    tracer.call("child", sum, [3])
    tracer.end()
    selfs, (root, first, second) = tracer.self_times(), tracer.spans
    assert first[3] == second[3] == 0 and root[3] == -1 and {span[4] for span in tracer.spans} == {7}
    assert selfs["child"][7] == (first[2] - first[1]) + (second[2] - second[1])
    assert selfs["op"][7] == (root[2] - root[1]) - selfs["child"][7]


def test_spine_imports_only_public_repro_names_and_nothing_from_benchmarks():
    for path in sorted((ROOT / "spine").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            modules = []
            if isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
                if node.module.split(".")[0] == "repro":
                    private = [alias.name for alias in node.names if alias.name.startswith("_")]
                    assert not private, f"{path.name} imports private {private} from {node.module}"
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            assert not any(module.split(".")[0] == "benchmarks" for module in modules), path.name
            assert not any(part.startswith("_") for module in modules for part in module.split(".")[1:]), path.name
            if path.name == "loadgen.py":  # the client must not borrow the server's HTTP helpers
                assert not any(module.split(".")[0] == "repro" for module in modules)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_exactly_the_named_metrics(name):
    untraced = result_line(run_spine("--workload", name, "--seed", "11", "--smoke", "--trace", "0"))
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert untraced["correct"] is True and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert {n: m["unit"] for n, m in untraced["metrics"].items()} == {n: m["unit"] for n, m in END_TO_END.items()}
    assert all(isinstance(m["value"], (int, float)) and m["value"] > 0 for m in untraced["metrics"].values())

    traced = [result_line(run_spine("--workload", name, "--seed", "11", "--smoke", "--trace", "1")) for _ in range(2)]
    assert {n: m["unit"] for n, m in traced[0]["metrics"].items()} == {n: m["unit"] for n, m in PER_LAYER.items()}
    for metric in EXACT_COUNTS:
        assert traced[0]["metrics"][metric]["value"] == traced[1]["metrics"][metric]["value"], metric


def test_a_corrupted_expected_answer_exits_nonzero_and_prints_no_metrics():
    for trace in ("0", "1"):
        done = run_spine("--workload", "batch-clustered", "--smoke", "--trace", trace, "--corrupt-gate")
        assert done.returncode == 2
        assert "metrics" not in done.stdout and "exactness gate failed" in done.stderr
