"""Property test: a persisted engine answers exactly like the live one.

Hypothesis drives arbitrary interleavings of open-universe insertions and
logical deletions; at any point the engine can be saved and reloaded, and
the round-tripped engine must answer knn, range, and self-join queries
*identically* to the live engine — same record indices, same float64
similarities, same order.  External tokens are strings, so the dataset
file round-trips them verbatim and record indices stay aligned.

This is the regression net for the delete/persistence bug: before manifest
format v2 an engine that had seen a single ``remove_set`` could be saved
but never loaded again (the load-time coverage check rejected the gap the
tombstone left in ``groups.json``).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

import repro
from repro.core import LES3, Dataset, save_engine
from repro.partitioning import MinTokenPartitioner

token = st.integers(min_value=0, max_value=60).map(lambda t: f"t{t}")
# Tokens the initial build has never seen: inserts with these grow the universe.
fresh_token = st.integers(min_value=0, max_value=20).map(lambda t: f"fresh{t}")
token_set = st.lists(token, min_size=1, max_size=8, unique=True)
open_token_set = st.lists(token | fresh_token, min_size=1, max_size=8, unique=True)


class RoundTripModel(RuleBasedStateMachine):
    @initialize(initial=st.lists(token_set, min_size=2, max_size=10))
    def build(self, initial):
        dataset = Dataset.from_token_lists(initial)
        self.engine = LES3.build(dataset, num_groups=3, partitioner=MinTokenPartitioner())
        self.live: set[int] = set(range(len(initial)))

    @rule(tokens=open_token_set)
    def insert(self, tokens):
        index, _ = self.engine.insert(tokens)
        self.live.add(index)

    @rule(data=st.data())
    def remove(self, data):
        if len(self.live) <= 1:
            return
        victim = data.draw(st.sampled_from(sorted(self.live)))
        self.engine.remove(victim)
        self.live.discard(victim)

    @rule(
        queries=st.lists(open_token_set, min_size=1, max_size=3),
        threshold=st.sampled_from([0.25, 0.5, 1.0]),
        k=st.integers(min_value=1, max_value=5),
    )
    def round_trip(self, queries, threshold, k):
        engine = self.engine
        with tempfile.TemporaryDirectory() as tmp:
            save_engine(engine, Path(tmp) / "index")
            loaded = repro.load(Path(tmp) / "index")
            assert loaded.removed == engine.removed
            assert loaded.verify == engine.verify
            assert len(loaded.dataset) == len(engine.dataset)
            for query in queries:
                assert loaded.range(query, threshold).matches == \
                    engine.range(query, threshold).matches
                assert loaded.knn(query, k).matches == engine.knn(query, k).matches
            assert loaded.join(threshold).pairs == engine.join(threshold).pairs
            # Saving the loaded engine round-trips again (save is stable).
            save_engine(loaded, Path(tmp) / "index2")
            reloaded = repro.load(Path(tmp) / "index2")
            assert reloaded.removed == engine.removed
            assert reloaded.join(threshold).pairs == engine.join(threshold).pairs


TestPersistenceRoundTrip = RoundTripModel.TestCase
TestPersistenceRoundTrip.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None
)


class TextVsBinaryModel(RuleBasedStateMachine):
    """Text load vs binary (mmap) load of one save: bit-identical answers.

    Every save now writes the dataset twice — ``dataset.txt`` (parsed
    into records by ``mode="memory"``) and ``dataset.bin`` (mapped by
    ``mode="mmap"``).  Whatever interleaving of open-universe inserts and
    logical deletes produced the engine, the two loads of the same
    directory must agree on knn, range, and join answers exactly —
    same indices, same float64 similarities, same order.
    """

    @initialize(initial=st.lists(token_set, min_size=2, max_size=10))
    def build(self, initial):
        dataset = Dataset.from_token_lists(initial)
        self.engine = LES3.build(dataset, num_groups=3, partitioner=MinTokenPartitioner())
        self.live: set[int] = set(range(len(initial)))

    @rule(tokens=open_token_set)
    def insert(self, tokens):
        index, _ = self.engine.insert(tokens)
        self.live.add(index)

    @rule(data=st.data())
    def remove(self, data):
        if len(self.live) <= 1:
            return
        victim = data.draw(st.sampled_from(sorted(self.live)))
        self.engine.remove(victim)
        self.live.discard(victim)

    @rule(
        queries=st.lists(open_token_set, min_size=1, max_size=3),
        threshold=st.sampled_from([0.25, 0.5, 1.0]),
        k=st.integers(min_value=1, max_value=5),
    )
    def text_and_binary_loads_agree(self, queries, threshold, k):
        with tempfile.TemporaryDirectory() as tmp:
            save_engine(self.engine, Path(tmp) / "index")
            from_text = repro.load(Path(tmp) / "index", mode="memory")
            from_binary = repro.load(Path(tmp) / "index", mode="mmap")
            assert from_binary.removed == from_text.removed
            assert from_binary.verify == from_text.verify
            for query in queries:
                assert from_text.knn(query, k).matches == \
                    from_binary.knn(query, k).matches
                assert from_text.range(query, threshold).matches == \
                    from_binary.range(query, threshold).matches
            assert from_text.join(threshold).pairs == from_binary.join(threshold).pairs


TestTextVsBinary = TextVsBinaryModel.TestCase
TestTextVsBinary.settings = settings(
    max_examples=15, stateful_step_count=10, deadline=None
)
