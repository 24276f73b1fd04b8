"""Crash-safe compaction: interrupt ``compact_index`` everywhere.

The contract (mirroring ``test_crash_safe_save``): a compaction
interrupted at *any* injection point — its own ``compact.*`` points or
any of the fold-and-swap ``save.*`` points it rides — leaves the target
directory loadable as exactly the **old** generation (base + its intact
``delta.log``) or the **new** generation (folded base, empty delta),
never a mix.  Both generations answer queries identically, so the check
is twofold: the manifest epoch + delta presence must agree on *which*
generation survived, and the loaded engine must answer bit-identically
to the pre-crash reference either way.

The matrix is discovered, not hand-written: ``recording()`` captures the
ordered trace of a clean compaction on a scratch copy, and every
occurrence becomes one targeted injection.  A second matrix hard-kills
``repro compact`` subprocesses (SIGKILL via the ``kill`` fault action)
at every distinct point — the crash leaves no Python exception handling
to clean up, which is the scenario the two-step rename exists for.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import repro
from repro.core import LES3, Dataset
from repro.core.delta import DELTA_LOG
from repro.core.persistence import (
    recover_interrupted_swap,
    save_engine,
)
from repro.datasets import zipf_dataset
from repro.distributed import save_sharded
from repro.distributed.sharded import ShardedLES3
from repro.maintenance import compact_index
from repro.partitioning import MinTokenPartitioner
from repro.testing.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    armed,
    disarm,
    recording,
)


@pytest.fixture(autouse=True)
def _disarmed():
    disarm()
    yield
    disarm()


@pytest.fixture(scope="module")
def small_dataset() -> Dataset:
    return zipf_dataset(120, 160, (2, 7), seed=5)


def build_engine(dataset: Dataset) -> LES3:
    data = Dataset(list(dataset.records), dataset.universe.copy())
    return LES3.build(data, num_groups=6, partitioner=MinTokenPartitioner())


def build_sharded(dataset: Dataset) -> ShardedLES3:
    return ShardedLES3.build(
        dataset, 3, num_groups=6,
        partitioner_factory=lambda shard_id: MinTokenPartitioner(),
        strategy="range",
    )


def make_dirty(tmp_path, dataset, sharded: bool):
    """A saved generation with two pending delta ops (insert + remove)."""
    directory = tmp_path / "dirty"
    if sharded:
        engine = build_sharded(dataset)
        save_sharded(engine, directory)
    else:
        engine = build_engine(dataset)
        save_engine(engine, directory)
    engine.insert(["compact-a", "compact-b"])
    engine.remove(2)
    old_epoch = json.loads((directory / "manifest.json").read_text())["epoch"]
    return directory, old_epoch


def reference_answers(directory, load):
    """Queries + answers of the pre-crash state (base + delta replayed)."""
    engine = load(directory)
    queries = [engine.tokens_of(i) for i in (0, 7, 31)] + [["compact-a", "compact-b"]]
    answers = [engine.knn(q, 5).matches for q in queries]
    return len(engine.dataset), set(engine.removed), queries, answers


def record_trace(directory, tmp_path):
    """The ordered (point, detail) hits of one clean compaction."""
    probe = tmp_path / "probe"
    shutil.copytree(directory, probe)
    with recording() as trace:
        compact_index(probe)
    shutil.rmtree(probe)
    assert trace, "a compaction must traverse at least one injection point"
    return trace


def injections(trace):
    """One (point, skip) per occurrence in the trace (keyed by point alone:
    details carry directory paths that differ between runs)."""
    seen: dict[str, int] = {}
    for point, _detail in trace:
        skip = seen.get(point, 0)
        seen[point] = skip + 1
        yield point, skip


def assert_old_or_new(target, load, old_epoch, expected):
    """Post-crash: exactly the old generation or the new one, never mixed."""
    num_records, removed, queries, answers = expected
    # A hard kill between the two swap renames parks the old generation
    # at a .old-* sibling; every loader heals that first, so the check
    # does too (the explicit call keeps the epoch assertions meaningful).
    recover_interrupted_swap(target)
    assert target.exists(), "compaction must never lose the index"
    manifest = json.loads((target / "manifest.json").read_text())
    if (target / DELTA_LOG).exists():
        # Old generation: the base manifest is untouched and the delta is
        # still the one the writes produced (the load below replays it).
        assert manifest["epoch"] == old_epoch, (
            "a new manifest next to a surviving delta log is a mixed "
            "generation — the swap must be atomic"
        )
    else:
        assert manifest["epoch"] != old_epoch, (
            "the old manifest without its delta log loses committed writes"
        )
    loaded = load(target)
    assert len(loaded.dataset) == num_records
    assert set(loaded.removed) == removed
    for query, answer in zip(queries, answers):
        assert loaded.knn(query, 5).matches == answer


class TestCompactEngineMatrix:
    def test_interrupted_everywhere(self, small_dataset, tmp_path):
        dirty, old_epoch = make_dirty(tmp_path, small_dataset, sharded=False)
        expected = reference_answers(dirty, repro.load)
        trace = record_trace(dirty, tmp_path)
        points = {point for point, _ in trace}
        assert {"compact.load", "compact.fold", "save.swap"} <= points
        for n, (point, skip) in enumerate(injections(trace)):
            target = tmp_path / f"fault-{n}"
            shutil.copytree(dirty, target)
            with armed(FaultPlan([FaultRule(point, skip=skip)])):
                with pytest.raises(InjectedFault):
                    compact_index(target)
            assert_old_or_new(target, repro.load, old_epoch, expected)
            assert not list(tmp_path.glob(f"fault-{n}.tmp-*")), (
                f"staging left behind after fault at {point} #{skip}"
            )

    def test_clean_compact_folds_and_empties_delta(self, small_dataset, tmp_path):
        dirty, old_epoch = make_dirty(tmp_path, small_dataset, sharded=False)
        expected = reference_answers(dirty, repro.load)
        stats = compact_index(dirty)
        assert stats["ops_folded"] == 2
        assert not (dirty / DELTA_LOG).exists()
        assert_old_or_new(dirty, repro.load, old_epoch, expected)
        # Idempotent: compacting a clean generation folds nothing.
        assert compact_index(dirty)["ops_folded"] == 0


class TestCompactShardedMatrix:
    def test_interrupted_everywhere(self, small_dataset, tmp_path):
        dirty, old_epoch = make_dirty(tmp_path, small_dataset, sharded=True)
        expected = reference_answers(dirty, repro.load)
        trace = record_trace(dirty, tmp_path)
        for n, (point, skip) in enumerate(injections(trace)):
            target = tmp_path / f"fault-{n}"
            shutil.copytree(dirty, target)
            with armed(FaultPlan([FaultRule(point, skip=skip)])):
                with pytest.raises(InjectedFault):
                    compact_index(target)
            assert_old_or_new(target, repro.load, old_epoch, expected)


class TestCompactKillMatrix:
    """SIGKILL (not an exception) at every distinct point, via the CLI."""

    def test_killed_at_every_point(self, small_dataset, tmp_path):
        dirty, old_epoch = make_dirty(tmp_path, small_dataset, sharded=False)
        expected = reference_answers(dirty, repro.load)
        points = sorted({point for point, _ in record_trace(dirty, tmp_path)})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH", "")])
        )
        for n, point in enumerate(points):
            target = tmp_path / f"kill-{n}"
            shutil.copytree(dirty, target)
            env["REPRO_FAULTS"] = FaultPlan(
                [FaultRule(point, action="kill")]
            ).to_json()
            result = subprocess.run(
                [sys.executable, "-m", "repro.cli", "compact", str(target)],
                capture_output=True, text=True, env=env, cwd=os.getcwd(),
            )
            assert result.returncode != 0, f"kill at {point} did not kill"
            assert_old_or_new(target, repro.load, old_epoch, expected)
