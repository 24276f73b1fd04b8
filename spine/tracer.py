"""An outside-in tracer: spans around public layer calls, recorded from the spine's own files.

``repro`` has no spans of its own yet, so the traced run replays each
op as the chain of public calls the engines themselves make —
``as_query_record`` → (``shard_bounds``) → ``prepare_query`` →
``TokenGroupMatrix.upper_bounds`` → ``knn_visit_groups`` /
``range_collect_groups`` (handed a timing wrapper around the verifier,
so verification is a child span and the visit's *self* time is the
remainder) → ``pad_zero_matches`` + ``finalize_result`` →
``QueryResult.to_payload``.  Each op is one root span; child spans carry
name, start, end, parent and op id; everything stays in memory until
the run ends.  A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable

from repro import QueryResult, ShardedLES3
from repro.core import QueryStats, SearchResult
from repro.core.columnar import make_verifier
from repro.core.engine import as_query_record
from repro.core.search import (
    finalize_result,
    knn_heap_matches,
    knn_visit_groups,
    pad_zero_matches,
    prepare_query,
    range_collect_groups,
)

__all__ = ["Tracer", "traced_query", "ROOT_SPAN"]

ROOT_SPAN = "op"


class Tracer:
    """Spans as ``[name, start_ns, end_ns, parent_span, op_id]`` rows, in start order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op_id = -1

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter_ns()

    def call(self, name: str, function: Callable, *args: object) -> object:
        self.begin(name)
        try:
            return function(*args)
        finally:
            self.end()

    def self_times(self) -> dict[str, dict[int, int]]:
        """Layer name → op id → self nanoseconds (span duration minus its direct children)."""
        child_time = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for index, (name, start, end, _, op_id) in enumerate(self.spans):
            totals[name][op_id] += end - start - child_time[index]
        return totals

    def durations(self, name: str) -> dict[int, int]:
        """Op id → total nanoseconds of the spans called ``name`` (children included)."""
        totals: dict[int, int] = defaultdict(int)
        for span_name, start, end, _, op_id in self.spans:
            if span_name == name:
                totals[op_id] += end - start
        return totals


class _TimedVerifier:
    """The verifier the visit loops call, with a child span around every call."""

    def __init__(self, verifier: Callable, tracer: Tracer) -> None:
        self._verifier, self._tracer = verifier, tracer
        self.records = 0

    def __call__(self, members: list[int]) -> object:
        self.records += len(members)
        return self._tracer.call("core.columnar.verify", self._verifier, members)


def traced_query(tracer: Tracer, engine: object, op: dict, op_id: int) -> tuple[SearchResult, int]:
    """One kNN or range request as a chain of public layer calls; (result, records verified).

    Mirrors the serial plans of ``LES3`` and ``ShardedLES3`` — shard
    order, shard skipping and zero-bound padding included — so answers
    and ``QueryStats`` must equal ``execute``'s; the caller asserts it.
    """
    tracer.op_id = op_id
    tracer.begin(ROOT_SPAN)
    dataset, measure, knn = engine.dataset, engine.measure, op["kind"] == "knn"
    record = tracer.call("api.intern", as_query_record, dataset, op["tokens"])
    stats = QueryStats()
    verifier = _TimedVerifier(make_verifier(dataset, record, measure, "columnar"), tracer)
    heap: list = []
    zeros: list = []
    matches: list = []
    if isinstance(engine, ShardedLES3):
        tgms = engine.tgms
        shard_bounds = tracer.call("distributed.shard_bounds", engine.shard_bounds, record)
        order = sorted(range(len(tgms)), key=lambda s: (-shard_bounds[s], s)) if knn else list(range(len(tgms)))
    else:
        tgms, shard_bounds, order = [engine.tgm], None, [0]
    for position, shard in enumerate(order):
        tgm = tgms[shard]
        if shard_bounds is not None:
            bound = shard_bounds[shard]
            if knn and (bound <= 0.0 or (len(heap) >= op["k"] and bound < heap[0][0])):
                for rest in order[position:]:
                    stats.groups_pruned += tgms[rest].num_groups
                    if bound <= 0.0:
                        zeros.extend(tgms[rest].group_members)
                break
            if not knn and bound < op["threshold"]:
                stats.groups_pruned += tgm.num_groups
                continue
        known, weights, query_size = tracer.call("core.search.prepare", prepare_query, record, tgm.universe_size)
        bounds = tracer.call("core.tgm.bounds", tgm.upper_bounds, known, query_size, weights)
        stats.groups_scored += tgm.num_groups
        stats.columns_visited += len(known) * tgm.num_groups
        if knn:
            tracer.call(
                "core.search.visit", knn_visit_groups,
                dataset, tgm, record, op["k"], bounds, heap, stats, measure, zeros, verifier,
            )
        else:
            tracer.call(
                "core.search.range_collect", range_collect_groups,
                dataset, tgm, record, op["threshold"], bounds, matches, stats, measure, verifier,
            )
    tracer.begin("core.search.finalize")
    if knn:
        pad_zero_matches(heap, op["k"], zeros)
        matches = knn_heap_matches(heap)
    result = finalize_result(matches, stats)
    tracer.end()
    tracer.begin("api.payload")
    json.dumps(QueryResult(op["kind"], result.matches, result.stats).to_payload())
    tracer.end()
    tracer.end()
    return result, verifier.records
