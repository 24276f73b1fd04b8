"""Stateful property test of the LSM-style write path (delta + compaction).

Hypothesis drives arbitrary interleavings of open-universe inserts,
logical deletes, knn/range queries, saves, reloads (text and mmap), and
compactions — against a brute-force dict model.  The invariants:

* Every query answer is *exactly* the brute-force answer — same record
  indices, same float64 similarities, same canonical order — no matter
  how many delta ops are pending, which load mode produced the engine,
  or how many compactions have folded the log.
* Tombstoned records never resurface: not in any query answer, and
  still tombstoned after a compaction rewrote the base generation.
* A reload (which replays ``delta.log`` over the base) reproduces the
  live engine's state exactly; a compaction leaves an empty delta.

The brute-force similarity uses the same integer-overlap formula as
:meth:`repro.core.similarity.Jaccard.from_overlap`, so float64 results
are bit-identical by construction, not approximately close.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

import repro
from repro.core import LES3, Dataset
from repro.core.delta import DELTA_LOG
from repro.core.persistence import save_engine
from repro.distributed import save_sharded
from repro.distributed.sharded import ShardedLES3
from repro.maintenance import compact_index
from repro.partitioning import MinTokenPartitioner

token = st.integers(min_value=0, max_value=60).map(lambda t: f"t{t}")
fresh_token = st.integers(min_value=0, max_value=20).map(lambda t: f"fresh{t}")
token_set = st.lists(token, min_size=1, max_size=8, unique=True)
open_token_set = st.lists(token | fresh_token, min_size=1, max_size=8, unique=True)


def brute_similarities(model: dict[int, frozenset], query) -> dict[int, float]:
    """Jaccard against every live record, same arithmetic as the engine."""
    query = frozenset(query)
    sims = {}
    for index, tokens in model.items():
        shared = len(query & tokens)
        union = len(query) + len(tokens) - shared
        sims[index] = shared / union if union > 0 else 0.0
    return sims


def brute_knn(model, query, k):
    ranked = sorted(brute_similarities(model, query).items(), key=lambda m: (-m[1], m[0]))
    return ranked[:k]


def brute_range(model, query, threshold):
    sims = brute_similarities(model, query)
    kept = [(i, s) for i, s in sims.items() if s >= threshold]
    return sorted(kept, key=lambda m: (-m[1], m[0]))


class _DeltaMachineBase(RuleBasedStateMachine):
    """Shared rules; subclasses supply build/save/load/compact plumbing."""

    def __init__(self):
        super().__init__()
        self.scratch = Path(tempfile.mkdtemp())
        self.directory = self.scratch / "index"
        self.saved = False

    def teardown(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def _init_model(self, initial):
        self.model = {i: frozenset(tokens) for i, tokens in enumerate(initial)}
        self.tombstones: set[int] = set()

    # -- mutations ---------------------------------------------------------

    @rule(tokens=open_token_set)
    def insert(self, tokens):
        index = self.engine.insert(tokens)[0]
        assert index not in self.model, "insert reused a live index"
        assert index not in self.tombstones, "insert resurrected a tombstone"
        self.model[index] = frozenset(tokens)

    @rule(data=st.data())
    def remove(self, data):
        if len(self.model) <= 1:
            return
        victim = data.draw(st.sampled_from(sorted(self.model)))
        self.engine.remove(victim)
        del self.model[victim]
        self.tombstones.add(victim)

    # -- queries vs the brute-force model ----------------------------------

    @rule(query=open_token_set, k=st.integers(min_value=1, max_value=6))
    def knn_matches_brute_force(self, query, k):
        got = self.engine.knn(query, k).matches
        assert got == brute_knn(self.model, query, k)
        assert self.tombstones.isdisjoint(index for index, _ in got)

    @rule(query=open_token_set, threshold=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    def range_matches_brute_force(self, query, threshold):
        got = self.engine.range(query, threshold).matches
        assert got == brute_range(self.model, query, threshold)
        assert self.tombstones.isdisjoint(index for index, _ in got)

    # -- persistence lifecycle ---------------------------------------------

    @rule()
    def save(self):
        self._save()
        self.saved = True
        assert not (self.directory / DELTA_LOG).exists(), (
            "a fresh save must start with an empty delta (save folds)"
        )

    @rule(mode=st.sampled_from(["memory", "mmap"]))
    def reload(self, mode):
        if not self.saved:
            return
        self.engine = self._load(mode)
        assert set(self._removed()) == self.tombstones

    @rule()
    def compact(self):
        if not self.saved:
            return
        stats = compact_index(self.directory)
        assert not (self.directory / DELTA_LOG).exists()
        assert stats["num_tombstones"] == len(self.tombstones)
        self.engine = self._load("memory")
        assert self.engine._delta.num_ops == 0
        # Tombstones never resurface after the base is rewritten.
        assert set(self._removed()) == self.tombstones


class SingleEngineDeltaMachine(_DeltaMachineBase):
    @initialize(initial=st.lists(token_set, min_size=2, max_size=10))
    def build(self, initial):
        dataset = Dataset.from_token_lists(initial)
        self.engine = LES3.build(
            dataset, num_groups=3, partitioner=MinTokenPartitioner()
        )
        self._init_model(initial)

    def _save(self):
        save_engine(self.engine, self.directory)

    def _load(self, mode):
        return repro.load(self.directory, mode=mode)

    def _removed(self):
        return self.engine.removed


class ShardedDeltaMachine(_DeltaMachineBase):
    @initialize(initial=st.lists(token_set, min_size=2, max_size=10))
    def build(self, initial):
        dataset = Dataset.from_token_lists(initial)
        self.engine = ShardedLES3.build(
            dataset, 2, num_groups=4,
            partitioner_factory=lambda shard_id: MinTokenPartitioner(),
        )
        self._init_model(initial)

    def _save(self):
        save_sharded(self.engine, self.directory)

    def _load(self, mode):
        return repro.load(self.directory, mode=mode)

    def _removed(self):
        return self.engine.removed


TestSingleEngineDelta = SingleEngineDeltaMachine.TestCase
TestSingleEngineDelta.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)

TestShardedDelta = ShardedDeltaMachine.TestCase
TestShardedDelta.settings = settings(
    max_examples=15, stateful_step_count=15, deadline=None
)
