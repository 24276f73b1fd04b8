"""Batched query processing.

Applications such as data cleaning (dedupe every record) and the PAR-G
kNN-graph construction issue thousands of queries at once.  Scoring all
groups for a *batch* of queries is one sparse-matrix product instead of a
Python loop, which shifts the per-query TGM scan from milliseconds to
microseconds on the dense backend.

Only the group-scoring stage is batched; verification remains per-query
(it already touches only surviving groups).  The sharded engine reuses
:func:`query_weight_matrix` to build the batch query matrix once and
multiply it against every shard's (smaller) TGM.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.columnar import make_verifier
from repro.core.dataset import Dataset
from repro.core.metrics import QueryStats
from repro.core.search import (
    SearchResult,
    count_group_scoring,
    finalize_result,
    knn_heap_matches,
    knn_visit_groups,
    pad_zero_matches,
    prepare_query,
    range_collect_groups,
)
from repro.core.sets import SetRecord
from repro.core.tgm import TokenGroupMatrix

__all__ = [
    "query_weight_matrix",
    "batch_covered_counts",
    "batch_range_search",
    "batch_knn_search",
]


def query_weight_matrix(
    queries: Sequence[SetRecord], universe_size: int
) -> np.ndarray:
    """Multiplicity-weighted query-token matrix, shape ``(len(queries), U)``.

    Row ``i`` holds ``count_{Q_i}(t)`` for every known token ``t``; unseen
    tokens (ids at or beyond ``universe_size``) are dropped, matching
    :func:`repro.core.search.prepare_query`.  Multiplying by a TGM (or a
    slice of one) yields the covered counts for the whole batch at once.
    """
    weighted = np.zeros((len(queries), universe_size), dtype=np.int64)
    for i, query in enumerate(queries):
        known, weights, _ = prepare_query(query, universe_size)
        weighted[i, known] = weights
    return weighted


def batch_covered_counts(
    tgm: TokenGroupMatrix, queries: Sequence[SetRecord]
) -> np.ndarray:
    """``|Q_i ∩ GS_g|`` for every query i and group g, shape (len(queries), n).

    Dense backend: one boolean matrix product over the *union* of the
    batch's known tokens — the product is ``(B × |union|) @ (|union| × n)``,
    far smaller than the full universe width, and only the touched TGM
    columns are ever materialized (a full-matrix conversion would copy
    ``n × U`` floats per batch, dwarfing the BLAS win).  Roaring backend:
    falls back to per-query scoring (still correct, not faster).
    """
    if tgm.backend != "dense":
        rows = []
        for query in queries:
            known, weights, _ = prepare_query(query, tgm.universe_size)
            rows.append(tgm.covered_counts(known, weights))
        return np.stack(rows) if rows else np.zeros((0, tgm.num_groups), dtype=np.int64)
    if not queries:
        return np.zeros((0, tgm.num_groups), dtype=np.int64)
    per_query = [prepare_query(query, tgm.universe_size) for query in queries]
    union = sorted({token for known, _, _ in per_query for token in known})
    if not union:
        return np.zeros((len(queries), tgm.num_groups), dtype=np.int64)
    column_of = {token: column for column, token in enumerate(union)}
    # The product runs in float64 so it goes through BLAS (an int64 matmul
    # falls back to numpy's slow generic loop); every partial sum is an
    # integer far below 2^53, so the rounded counts are exact.
    weighted = np.zeros((len(queries), len(union)), dtype=np.float64)
    for i, (known, weights, _) in enumerate(per_query):
        for token, weight in zip(known, weights):
            weighted[i, column_of[token]] = weight
    counts = weighted @ tgm._matrix[:, union].T.astype(np.float64)
    return np.rint(counts).astype(np.int64)


def batch_range_search(
    dataset: Dataset,
    tgm: TokenGroupMatrix,
    queries: Sequence[SetRecord],
    threshold: float,
) -> list[SearchResult]:
    """Range search for every query; one TGM scan for the whole batch.

    Verification of the surviving groups stays per-query, through the
    columnar kernel.  Matches are bit-identical to looping
    :func:`range_search`.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    counts = batch_covered_counts(tgm, queries)
    measure = tgm.measure
    results = []
    for i, query in enumerate(queries):
        stats = QueryStats()
        count_group_scoring(stats, tgm, query)
        bounds = tgm.bounds_from_counts(counts[i], len(query))
        matches: list[tuple[int, float]] = []
        verifier = make_verifier(dataset, query, measure)
        range_collect_groups(
            dataset, tgm, query, threshold, bounds, matches, stats, measure, verifier
        )
        results.append(finalize_result(matches, stats))
    return results


def batch_knn_search(
    dataset: Dataset,
    tgm: TokenGroupMatrix,
    queries: Sequence[SetRecord],
    k: int,
) -> list[SearchResult]:
    """kNN for every query; one TGM scan for the whole batch.

    Group scoring is shared — one :func:`batch_covered_counts` product
    covers every query — while the best-first descent and verification
    stay per-query (their order is query-specific).  Matches are
    bit-identical to looping :func:`knn_search`.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    counts = batch_covered_counts(tgm, queries)
    measure = tgm.measure
    results = []
    for i, query in enumerate(queries):
        stats = QueryStats()
        count_group_scoring(stats, tgm, query)
        bounds = tgm.bounds_from_counts(counts[i], len(query))
        heap: list[tuple[float, int]] = []
        zero_candidates: list[list[int]] = []
        verifier = make_verifier(dataset, query, measure)
        knn_visit_groups(
            dataset, tgm, query, k, bounds, heap, stats, measure,
            zero_candidates, verifier,
        )
        pad_zero_matches(heap, k, zero_candidates)
        results.append(finalize_result(knn_heap_matches(heap), stats))
    return results
