"""Query processing over the TGM: range search and kNN search (Section 6).

Both searches are *exact*: groups are only skipped when the TGM upper bound
proves no member can qualify, and every surviving member is verified with
the exact similarity.

kNN is best-first over groups: they are scored once (``O(n · |Q|)``),
ranked by descending bound, and visited until the next bound is strictly
below the current kth similarity.  A bound is a function of the covered
token count (at most ``|Q|`` values) and of the group's member-size range
(:meth:`~repro.core.tgm.TokenGroupMatrix.bounds_from_counts`), and the
partitioners cut groups into a few size bands, so the ranking falls into
roughly ``|Q|`` × bands **tie classes** — maximal runs of groups with
equal bound.  The sequential walk never stops inside a tie class (the
lemma and its proof, which need only the bound's soundness, are in
:func:`knn_visit_groups`), so the columnar path advances a class at a
time, as a *wavefront*: the class's members are concatenated from the
TGM's cached member arrays, verified by the kernel in bounded chunks
(``_WAVE_CHUNK`` records, so temporaries stay cache-sized), filtered
against the current and the chunk's own kth similarity on the array
side, and only the handful of survivors go through ``heapq``.  Kernel
calls and Python-level work per query therefore scale with the tie
classes and ``k``, not with the number of groups or candidates; matches
and every ``QueryStats`` counter equal the sequential walk's.  Ties on
similarity are broken by record index so results are deterministic.
Range search collects the members of every surviving group through the
same chunked helper and selects with the threshold on the similarity
vector.

There is one verification path and one oracle: every query runs the
above through the columnar kernel (:mod:`repro.core.columnar`) over the
dataset's CSR view; the sequential per-group, per-record walk — the
algorithm as the paper states it — is kept only as the reference every
test compares the wavefront against, reachable by arming
:mod:`repro.testing.oracle` (which makes ``make_verifier`` return
``None``).

The building blocks are exposed for reuse: :func:`query_group_bounds`
scores one TGM, :func:`knn_visit_groups` / :func:`range_collect_groups`
verify one TGM's surviving groups into a shared heap / match list, and
:func:`finalize_result` applies the canonical ``(-similarity, index)``
tie-break and stats finalization.  The batch layer and the sharded engine
(:mod:`repro.distributed`) are built from the same pieces, so all query
paths share one definition of result order — and of the visit.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

import numpy as np

from repro.core.columnar import GroupVerifier, make_verifier
from repro.core.dataset import Dataset
from repro.core.metrics import QueryStats
from repro.core.sets import SetRecord
from repro.core.similarity import Similarity
from repro.core.tgm import TokenGroupMatrix

__all__ = [
    "SearchResult",
    "range_search",
    "knn_search",
    "prepare_query",
    "match_sort_key",
    "finalize_result",
    "query_group_bounds",
    "count_group_scoring",
    "knn_visit_groups",
    "pad_zero_matches",
    "knn_heap_matches",
    "range_collect_groups",
]


class SearchResult:
    """Matches plus the cost counters of the query that produced them."""

    __slots__ = ("matches", "stats")

    def __init__(self, matches: list[tuple[int, float]], stats: QueryStats) -> None:
        self.matches = matches
        self.stats = stats

    def indices(self) -> list[int]:
        return [index for index, _ in self.matches]

    def __len__(self) -> int:
        return len(self.matches)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return iter(self.matches)


def match_sort_key(match: tuple[int, float]) -> tuple[float, int]:
    """Canonical result order: similarity descending, record index ascending."""
    return (-match[1], match[0])


def finalize_result(matches: list[tuple[int, float]], stats: QueryStats) -> SearchResult:
    """Sort ``matches`` canonically, record the result size, wrap them up.

    Every query path — range, kNN, batch, and the sharded merge — funnels
    through here, so tie-breaking is identical everywhere by construction.
    """
    matches.sort(key=match_sort_key)
    stats.result_size = len(matches)
    return SearchResult(matches, stats)


def prepare_query(
    query: SetRecord, universe_size: int
) -> tuple[list[int], list[int], int]:
    """Split a query into (known token ids, their multiplicities, full |Q|).

    Token ids at or beyond ``universe_size`` are unseen (Section 3.1): they
    contribute nothing to any group bound but still count towards ``|Q|``.
    Multiplicities matter for multiset queries: a group covering token ``t``
    may contain a set carrying ``t`` at full query multiplicity, so the
    bound must credit ``count_Q(t)``, not 1.
    """
    known: list[int] = []
    weights: list[int] = []
    for token, count in query.counts().items():
        if token < universe_size:
            known.append(token)
            weights.append(count)
    return known, weights, len(query)


def query_group_bounds(
    tgm: TokenGroupMatrix, query: SetRecord, stats: QueryStats | None = None
) -> np.ndarray:
    """Score one TGM for a query: the per-group similarity upper bounds.

    When ``stats`` is given, the scoring cost (groups scored, TGM columns
    visited) is accumulated into it.
    """
    known, weights, query_size = prepare_query(query, tgm.universe_size)
    bounds = tgm.upper_bounds(known, query_size, weights)
    if stats is not None:
        count_group_scoring(stats, tgm, query)
    return bounds


def count_group_scoring(stats: QueryStats, tgm: TokenGroupMatrix, query: SetRecord) -> None:
    """Account one scoring of ``tgm``: every group, one column per known token.

    Batched scoring accounts each query here too, so its stats equal the
    per-query path's.
    """
    known = sum(1 for token in query.distinct if token < tgm.universe_size)
    stats.groups_scored += tgm.num_groups
    stats.columns_visited += known * tgm.num_groups


# Records per kernel call.  A tie class can hold most of the database; the
# kernel's temporaries (gather index, tokens, counts, contributions) are a
# few dozen bytes per gathered entry, and chunks of this size keep them
# cache-sized instead of fresh multi-megabyte allocations — which is both
# faster (no page faults) and what keeps peak RSS where the per-group loop
# had it.  A constant, not a knob: no workload wants another value.
_WAVE_CHUNK = 2048


def _count_verified(stats: QueryStats, count: int) -> None:
    stats.candidates_verified += count
    stats.similarity_computations += count


def _verified_chunks(
    tgm: TokenGroupMatrix,
    group_ids: Iterable[int],
    verifier: GroupVerifier,
    stats: QueryStats,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Kernel-verify the listed groups' members, ``_WAVE_CHUNK`` at a time.

    Yields ``(record indices, similarities)`` array pairs that together
    cover the groups' members once each, groups in the order given and
    members in list order.  ``verifier`` is an opaque callable (sized
    index sequence in, similarity vector out); similarities are
    elementwise, so how the members are cut into calls cannot change them.
    """
    members = tgm.members_of(group_ids)
    _count_verified(stats, len(members))
    for start in range(0, len(members), _WAVE_CHUNK):
        chunk = members[start:start + _WAVE_CHUNK]
        yield chunk, verifier(chunk)


def _scalar_similarities(
    dataset: Dataset,
    query: SetRecord,
    members: list[int],
    measure: Similarity,
    stats: QueryStats,
) -> list[float]:
    """The oracle walk: one ``measure(query, record)`` call per member."""
    _count_verified(stats, len(members))
    return [measure(query, dataset.records[index]) for index in members]


def _push(heap: list[tuple[float, int]], k: int, entry: tuple[float, int]) -> None:
    if len(heap) < k:
        heapq.heappush(heap, entry)
    elif entry > heap[0]:
        heapq.heapreplace(heap, entry)


def _merge_top_k(
    heap: list[tuple[float, int]], k: int, members: np.ndarray, sims: np.ndarray
) -> None:
    """Fold one verified chunk into the top-k heap.

    Equivalent to pushing every ``(similarity, -index)`` entry, but entries
    that cannot enter are dropped on the array side first: those strictly
    below the current kth similarity when the heap is full, then those
    strictly below the chunk's own kth largest similarity (``k`` chunk
    entries at or above it outrank them).  Ties with either value are
    kept — the record index decides them in the heap.  ``np.partition``
    yields a *value* here, never an order.
    """
    if len(heap) >= k:
        keep = sims >= heap[0][0]
        members, sims = members[keep], sims[keep]
    if len(sims) > k:
        keep = sims >= np.partition(sims, len(sims) - k)[len(sims) - k]
        members, sims = members[keep], sims[keep]
    for entry in zip(sims.tolist(), (-members).tolist()):
        _push(heap, k, entry)


def knn_visit_groups(
    dataset: Dataset,
    tgm: TokenGroupMatrix,
    query: SetRecord,
    k: int,
    bounds: np.ndarray,
    heap: list[tuple[float, int]],
    stats: QueryStats,
    measure: Similarity | None = None,
    zero_candidates: list[list[int]] | None = None,
    verifier: GroupVerifier | None = None,
) -> None:
    """Best-first visit of one TGM's groups, feeding a shared top-k heap.

    ``heap`` holds ``(similarity, -record_index)`` entries: the root is the
    weakest current answer; ``-index`` makes ties prefer *smaller* record
    indices.  The heap may already carry answers from other TGMs (the
    sharded scatter-gather) — pruning against it stays exact because a
    group is only skipped when its bound is *strictly* below the current
    kth similarity.

    Groups are ranked by descending bound and the stop rule is tested
    before each step.  Without a ``verifier`` a step is one group,
    verified record by record with ``measure(query, record)``: the
    sequential algorithm of Section 6, kept as the oracle.  With one (the
    columnar kernel) a step is a *tie class* — a maximal run of groups
    with equal bound — verified in bounded kernel shots and merged on the
    array side (:func:`_merge_top_k`).  The two visit the same groups:

    **Tie-class lemma.**  If the sequential walk visits group ``j``, it
    visits every group whose bound equals ``bound_j``.
    *Proof.*  Just before ``j`` was visited, fewer than ``k`` heap entries
    were strictly above ``bound_j`` — with ``k`` of them the kth similarity
    would exceed ``bound_j`` and ``j`` would have been pruned.  Members of
    ``j`` are at most ``bound_j`` (the bound is sound), so visiting ``j``
    adds no entry above it: a full heap still has kth ≤ ``bound_j``, and
    the next group, if tied with ``j``, passes the stop rule.  By
    induction the whole run does.  ∎

    Hence testing the stop rule once per tie class visits exactly the
    sequential walk's groups, and since the top ``k`` of a fixed candidate
    set under the total order ``(similarity, -index)`` is unique, the
    heap's contents and ``stats`` (``candidates_verified``,
    ``groups_pruned``) are identical too — for a private heap and a
    shared one alike, as the proof never asks where heap entries came
    from.  (If rounding ever lifts a float similarity an ulp above its
    bound, the wavefront can only finish the class the sequential walk
    broke off in: it verifies more, never less.)

    Groups whose bound is exactly 0 share no token with the query (or
    have no member): their members are provably at similarity 0 and are
    never verified.  Their member lists are appended to
    ``zero_candidates`` (when given) so :func:`pad_zero_matches` can pad
    an underfull result canonically.
    """
    measure = measure if measure is not None else tgm.measure
    order = np.argsort(-bounds, kind="stable")
    groups: list[int] = order.tolist()
    ranked: list[float] = bounds[order].tolist()
    position = 0
    while position < len(groups):
        bound = ranked[position]
        if bound <= 0.0:
            # Bounds are sorted: this and all remaining groups are at 0.
            if zero_candidates is not None:
                zero_candidates.extend(tgm.group_members[g] for g in groups[position:])
            break
        if len(heap) >= k and bound < heap[0][0]:
            break
        end = position + 1
        if verifier is None:
            members = tgm.group_members[groups[position]]
            sims = _scalar_similarities(dataset, query, members, measure, stats)
            for record_index, similarity in zip(members, sims):
                _push(heap, k, (similarity, -record_index))
        else:
            while end < len(groups) and ranked[end] == bound:
                end += 1
            wave = _verified_chunks(tgm, groups[position:end], verifier, stats)
            for chunk, chunk_sims in wave:
                _merge_top_k(heap, k, chunk, chunk_sims)
        position = end
    # Both breaks leave ``position`` at the first unvisited group.
    stats.groups_pruned += tgm.num_groups - position


def pad_zero_matches(
    heap: list[tuple[float, int]],
    k: int,
    zero_candidates: list[list[int]],
) -> None:
    """Pad an underfull top-k heap with zero-similarity records, canonically.

    Members of zero-bound groups are at similarity exactly 0 without
    verification.  When the result has fewer than ``k`` entries with
    positive similarity, the remaining slots go to the *smallest record
    indices* among all zero-similarity candidates — a canonical choice
    that does not depend on the partitioning or sharding, which is what
    makes single-engine and sharded results bit-identical.
    """
    if len(heap) >= k and heap[0][0] > 0.0:
        return
    positives = [entry for entry in heap if entry[0] > 0.0]
    zeros = {-neg_index for similarity, neg_index in heap if similarity == 0.0}
    for members in zero_candidates:
        zeros.update(members)
    slots = k - len(positives)
    heap[:] = positives + [(0.0, -index) for index in sorted(zeros)[:slots]]


def knn_heap_matches(heap: list[tuple[float, int]]) -> list[tuple[int, float]]:
    """Convert a top-k heap of ``(similarity, -index)`` into match pairs."""
    return [(-neg_index, similarity) for similarity, neg_index in heap]


def range_collect_groups(
    dataset: Dataset,
    tgm: TokenGroupMatrix,
    query: SetRecord,
    threshold: float,
    bounds: np.ndarray,
    matches: list[tuple[int, float]],
    stats: QueryStats,
    measure: Similarity | None = None,
    verifier: GroupVerifier | None = None,
) -> None:
    """Verify one TGM's surviving groups into a shared match list.

    Range search verifies every member of every surviving group, so with
    a ``verifier`` the whole TGM's candidates go through the kernel as one
    member array in bounded chunks and the threshold selects on the
    similarity vector.  Candidate order — groups in id order, members in
    list order — is that of the scalar walk (no ``verifier``: one
    ``measure`` call per member, the oracle), so matches and stats are
    identical bit for bit.
    """
    measure = measure if measure is not None else tgm.measure
    surviving: list[int] = np.flatnonzero(bounds >= threshold).tolist()
    if verifier is None:
        for group_id in surviving:
            members = tgm.group_members[group_id]
            sims = _scalar_similarities(dataset, query, members, measure, stats)
            for record_index, similarity in zip(members, sims):
                if similarity >= threshold:
                    matches.append((record_index, similarity))
    else:
        for chunk, chunk_sims in _verified_chunks(tgm, surviving, verifier, stats):
            keep = chunk_sims >= threshold
            matches.extend(zip(chunk[keep].tolist(), chunk_sims[keep].tolist()))
    stats.groups_pruned += tgm.num_groups - len(surviving)


def range_search(
    dataset: Dataset,
    tgm: TokenGroupMatrix,
    query: SetRecord,
    threshold: float,
    measure: Similarity | None = None,
) -> SearchResult:
    """All sets with ``Sim(Q, S) >= threshold`` (Definition 2.2)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    measure = measure if measure is not None else tgm.measure
    stats = QueryStats()
    bounds = query_group_bounds(tgm, query, stats)
    matches: list[tuple[int, float]] = []
    verifier = make_verifier(dataset, query, measure)
    range_collect_groups(
        dataset, tgm, query, threshold, bounds, matches, stats, measure, verifier
    )
    return finalize_result(matches, stats)


def knn_search(
    dataset: Dataset,
    tgm: TokenGroupMatrix,
    query: SetRecord,
    k: int,
    measure: Similarity | None = None,
) -> SearchResult:
    """The ``k`` most similar sets (Definition 2.1), best-first over groups."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    measure = measure if measure is not None else tgm.measure
    stats = QueryStats()
    bounds = query_group_bounds(tgm, query, stats)
    heap: list[tuple[float, int]] = []
    zero_candidates: list[list[int]] = []
    verifier = make_verifier(dataset, query, measure)
    knn_visit_groups(
        dataset, tgm, query, k, bounds, heap, stats, measure, zero_candidates, verifier
    )
    pad_zero_matches(heap, k, zero_candidates)
    return finalize_result(knn_heap_matches(heap), stats)
