"""Exact set similarity self-join by prefix filtering over the CSR view.

The paper's related work (Section 8) is dominated by threshold joins, so
this module provides the join as an extension of the reproduced system:
find all pairs ``(S_x, S_y)``, ``x < y``, of live records with
``Sim(S_x, S_y) >= δ``.  It is the AllPairs / PPJoin prefix filter
(Bayardo et al., WWW'07; Xiao et al., WWW'08), run as whole-array numpy
steps over the dataset's columnar view — no Python loop per record or
per posting:

* **Elements and order.** Each multiset is expanded into
  ``(token, occurrence)`` elements, so the set overlap of two expansions
  is the multiset overlap of the records.  Every element of the live
  records gets one global rank, rarest first (ties by token, then
  occurrence), and each record's elements are sorted by that rank.
* **Required overlap.** A pair reaching δ shares at least
  ``α = ⌈f · |S|⌉`` elements, where ``f · |S|`` is ``δ · max(|x|, |y|)``
  for Jaccard, ``δ/(2−δ) · max`` for Dice, ``δ² · max`` for cosine, and
  ``δ · min(|x|, |y|)`` for the overlap coefficient and containment.  The
  first three also give the length filter ``|y| <= |x| / f``.
* **Prefix filter.** A record sharing ``α`` elements with a partner
  shares one of its first ``|S| − α + 1`` (its *prefix*).  For the
  max-bounded measures any record's ``α`` holds, so two matching records'
  prefixes meet; for the min-bounded ones only the smaller record's
  does, so its prefix must meet the larger record's whole element set.
  Each record takes one extra prefix element and one extra unit of
  length slack, so float rounding of ``f · |S|`` and ``|S| / f`` can only
  add candidates, never drop a pair.
* **Candidates.** Records are ranked by ``(size, index)``.  Each prefix
  element of a record probes the posting list of that element among the
  indexed entries; its partners are one ``searchsorted`` window — the
  larger-ranked records up to the length filter.  Candidate pairs are
  deduplicated per chunk of probing records, chunks bounded by
  ``max_cells``.
* **Verification.** Each candidate's exact overlap is counted from the
  sorted element lists, and the similarity comes from the measure's own
  float64 :meth:`~repro.core.similarity.Similarity.from_overlaps`
  formula, oriented ``Sim(S_min index, S_max index)`` — the scalar
  formula's operations, so pairs and similarities are bit-identical.

While :mod:`repro.testing.oracle` is armed, the join is instead the plain
all-pairs scalar walk over the live records: no prefix, no length filter.

>>> from repro import Dataset, LES3
>>> dataset = Dataset.from_token_lists(
...     [["a", "b", "c"], ["a", "b", "c", "d"], ["x", "y"], ["x", "y"]]
... )
>>> engine = LES3.build(dataset, num_groups=2)
>>> engine.join(0.75).pairs
[(0, 1, 0.75), (2, 3, 1.0)]
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.columnar import DEFAULT_TILE_CELLS, ColumnarView
from repro.core.dataset import Dataset
from repro.core.metrics import QueryStats
from repro.core.similarity import (
    ContainmentSimilarity,
    CosineSimilarity,
    DiceSimilarity,
    JaccardSimilarity,
    OverlapCoefficient,
    Similarity,
)
from repro.core.tgm import TokenGroupMatrix
from repro.testing import oracle

__all__ = [
    "JoinResult",
    "similarity_self_join",
    "prefix_filter_join",
    "group_join_profiles",
]


class JoinResult:
    """Join pairs plus the cost counters of the computation."""

    __slots__ = ("pairs", "stats")

    def __init__(self, pairs: list[tuple[int, int, float]], stats: QueryStats) -> None:
        self.pairs = pairs
        self.stats = stats

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int, float]]:
        return iter(self.pairs)


def group_join_profiles(
    dataset: Dataset, groups: list[list[int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Live vocabulary matrix, minimum member sizes, and token columns.

    Returns ``(vocab, min_sizes, columns)``: a boolean group × token
    matrix, the minimum live member size per group, and the sorted int64
    token ids the matrix columns stand for.  The columns cover exactly
    the distinct tokens of the *current* members — not the whole
    universe and not the TGM bits (which may carry lingering tokens
    after deletions).  The prefix-filter join does not use the profile;
    it is kept as a per-group vocabulary summary of a TGM.
    """
    # One vectorized CSR gather per group instead of a per-record walk:
    # a mapped dataset profiles its groups without materializing any record.
    view = dataset.columnar()
    group_tokens = [
        np.unique(view.tokens_of_records(members)) if members
        else np.zeros(0, dtype=np.int64)
        for members in groups
    ]
    columns = (
        np.unique(np.concatenate(group_tokens)) if groups
        else np.zeros(0, dtype=np.int64)
    )
    vocab = np.zeros((len(groups), len(columns)), dtype=bool)
    min_sizes = np.zeros(len(groups), dtype=np.int64)
    for group_id, members in enumerate(groups):
        vocab[group_id, np.searchsorted(columns, group_tokens[group_id])] = True
        if members:
            min_sizes[group_id] = int(view.sizes_of(members).min())
    return vocab, min_sizes, columns


#: Measure type → ``(f, by_max)`` for a threshold δ: a pair scoring at least
#: δ shares at least ``f · max(|x|, |y|)`` elements when ``by_max``, else at
#: least ``f · min(|x|, |y|)``.  Exact types only — a subclass may change
#: the formula.  Any other measure gets ``(0, False)``: a candidate needs
#: one shared element, sound for every measure scoring disjoint sets 0.
_OVERLAP_BOUNDS: dict[type, Callable[[float], tuple[float, bool]]] = {
    JaccardSimilarity: lambda t: (t, True),
    DiceSimilarity: lambda t: (t / (2.0 - t), True),
    CosineSimilarity: lambda t: (t * t, True),
    OverlapCoefficient: lambda t: (t, False),
    ContainmentSimilarity: lambda t: (t, False),
}


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")


def _live_members(groups: Iterable[Sequence[int]]) -> np.ndarray:
    """The sorted record indices of the union of the member lists."""
    lists = [np.asarray(members, dtype=np.int64) for members in groups]
    return np.unique(np.concatenate(lists)) if lists else np.zeros(0, dtype=np.int64)


def _ranked_elements(
    view: ColumnarView, members: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, int]:
    """Every record's elements as ``row · E + rank``, sorted ascending.

    ``row`` is the record's position in ``members`` (multiset sizes
    ``sizes``); ``rank`` is its element's global rarest-first rank among
    the ``E`` distinct elements (ties by token, then occurrence).  So the
    result holds record after record, each one's elements in global
    order, and record ``row``'s ``|S|`` entries start at the running sum
    of the sizes before it.
    """
    tokens, counts, _, _ = view._gather(members)
    top = int(counts.max()) if counts.size else 1
    if top > 1:
        # Multisets: count c of a token becomes occurrences 0 .. c-1.
        entry = np.repeat(np.arange(len(tokens), dtype=np.int64), counts)
        occurrence = np.arange(len(entry), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        tokens = tokens[entry] * top + occurrence
        del entry, occurrence
    del counts
    distinct, element, frequency = np.unique(tokens, return_inverse=True, return_counts=True)
    del tokens
    width = len(distinct)
    rank = np.empty(width, dtype=np.int64)
    rank[np.argsort(frequency, kind="stable")] = np.arange(width, dtype=np.int64)
    del distinct, frequency
    keys = rank[element.ravel()]
    del element
    keys += np.repeat(np.arange(len(members), dtype=np.int64) * width, sizes)
    keys.sort(kind="stable")
    return keys, width


def _overlaps(
    keys: np.ndarray, starts: np.ndarray, sizes: np.ndarray, width: int,
    x: np.ndarray, y: np.ndarray,
) -> np.ndarray:
    """Exact element overlap of every pair ``(x[i], y[i])`` of record rows.

    Each element of ``x[i]`` is looked up among ``y[i]``'s in the sorted
    ``keys`` (``row · width + rank``): one ``searchsorted`` over all the
    pairs' ``Σ |S_x|`` lookups.
    """
    # In-place steps: at most three lookup-sized arrays are alive at once.
    lengths = sizes[x]
    positions = np.repeat(starts[x] - (np.cumsum(lengths) - lengths), lengths)
    positions += np.arange(len(positions), dtype=np.int64)
    lookups = keys[positions]
    del positions
    lookups %= width
    lookups += np.repeat(y * width, lengths)
    found = np.searchsorted(keys, lookups)
    np.minimum(found, len(keys) - 1, out=found)
    hit = keys[found] == lookups
    del found, lookups
    pair = np.repeat(np.arange(len(x), dtype=np.int64), lengths)
    return np.bincount(pair[hit], minlength=len(x))


def _scalar_join(
    dataset: Dataset, members: list[int], measure: Similarity, threshold: float
) -> JoinResult:
    """The oracle: every pair of live records, scored by the scalar measure."""
    records = dataset.records
    pairs = []
    for i, x in enumerate(members):
        for y in members[i + 1:]:
            similarity = measure(records[x], records[y])
            if similarity >= threshold:
                pairs.append((x, y, similarity))
    scored = len(members) * (len(members) - 1) // 2
    stats = QueryStats(
        candidates_verified=scored, similarity_computations=scored, result_size=len(pairs)
    )
    return JoinResult(pairs, stats)


def prefix_filter_join(
    dataset: Dataset,
    groups: Iterable[Sequence[int]],
    measure: Similarity,
    threshold: float,
    max_cells: int = DEFAULT_TILE_CELLS,
) -> JoinResult:
    """All pairs of the listed records with ``Sim >= threshold``, exactly.

    ``groups`` are member lists whose union is the set of records joined
    (a TGM's ``group_members``, or every shard's).  See the module
    docstring for the algorithm.  ``max_cells`` bounds each chunk's
    candidate expansion and verification lookups, in int64 cells; one
    probing record's candidates are never split, so a chunk exceeds it
    only when a single record does.
    """
    _check_threshold(threshold)
    members = _live_members(groups)
    if oracle.active():
        return _scalar_join(dataset, members.tolist(), measure, threshold)
    stats = QueryStats()
    view = dataset.columnar()
    sizes = view.sizes_of(members)
    order = np.argsort(sizes, kind="stable")  # rank by (size, index)
    members, sizes = members[order], sizes[order]
    num_rows = len(members)
    keys, width = _ranked_elements(view, members, sizes)
    starts = np.cumsum(sizes) - sizes
    bound = _OVERLAP_BOUNDS.get(type(measure))
    fraction, by_max = bound(threshold) if bound is not None else (0.0, False)

    # Prefix: |S| - ⌈f·|S|⌉ + 1 elements, plus one for float rounding.
    prefix = np.minimum(sizes, sizes - np.ceil(fraction * sizes).astype(np.int64) + 2)
    position = np.arange(len(keys), dtype=np.int64) - np.repeat(starts, sizes)
    probes = keys[position < np.repeat(prefix, sizes)]
    del position
    probe_rows, probe_elements = probes // width, probes % width
    # The posting lists, as element · rows + row sorted: the prefixes when
    # every record's prefix must meet, else every element.
    indexed = probes if by_max else keys
    postings = (indexed % width) * num_rows + indexed // width
    postings.sort(kind="stable")
    del probes, indexed
    if by_max:
        # Length filter |y| <= |x| / f, plus one unit for float rounding.
        limits = np.searchsorted(sizes, np.floor(sizes / fraction) + 1, side="right")
    else:
        limits = np.full(num_rows, num_rows, dtype=np.int64)
    # A probe's window: the posting list's rows after its own, up to the limit.
    lows = np.searchsorted(postings, probe_elements * num_rows + probe_rows, side="right")
    highs = np.searchsorted(postings, probe_elements * num_rows + limits[probe_rows])
    windows = highs - lows
    del probe_elements, highs

    # Chunks of probing rows (probes are row-ordered) whose candidate
    # expansion and verification lookups stay within max_cells.
    probe_starts = np.concatenate([[0], np.cumsum(prefix)])
    cost = np.cumsum(np.bincount(probe_rows, weights=windows, minlength=num_rows) * sizes)
    budget = max(int(max_cells), 1)
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    r0 = 0
    while r0 < num_rows:
        base = cost[r0 - 1] if r0 else 0.0
        r1 = max(int(np.searchsorted(cost, base + budget, side="right")), r0 + 1)
        p0, p1 = probe_starts[r0], probe_starts[r1]
        r0 = r1
        span = windows[p0:p1]
        total = int(span.sum())
        if total == 0:
            continue
        offsets = np.repeat(lows[p0:p1] - (np.cumsum(span) - span), span)
        offsets += np.arange(total, dtype=np.int64)
        partners = postings[offsets]
        del offsets
        partners %= num_rows
        partners += np.repeat(probe_rows[p0:p1] * num_rows, span)
        pairs = np.unique(partners)
        del partners
        x, y = pairs // num_rows, pairs % num_rows  # ranks: |S_x| <= |S_y|
        shared = _overlaps(keys, starts, sizes, width, x, y)
        stats.candidates_verified += len(pairs)
        # Orient Sim(S_min index, S_max index) for asymmetric measures.
        swap = members[x] > members[y]
        first, second = np.where(swap, y, x), np.where(swap, x, y)
        similarity = measure.from_overlaps(shared, sizes[first], sizes[second])
        keep = similarity >= threshold
        found.append((members[first[keep]], members[second[keep]], similarity[keep]))

    stats.similarity_computations = stats.candidates_verified
    result: list[tuple[int, int, float]] = []
    if found:
        lefts, rights, similarities = (np.concatenate(column) for column in zip(*found))
        ordered = np.lexsort((rights, lefts))
        result = list(zip(
            lefts[ordered].tolist(), rights[ordered].tolist(), similarities[ordered].tolist()
        ))
    stats.result_size = len(result)
    return JoinResult(result, stats)


def similarity_self_join(
    dataset: Dataset,
    tgm: TokenGroupMatrix,
    threshold: float,
    max_cells: int = DEFAULT_TILE_CELLS,
    profiles: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> JoinResult:
    """All pairs of the TGM's live members with ``Sim >= threshold``, exactly.

    Parameters
    ----------
    dataset : Dataset
        The shared database of sets.
    tgm : TokenGroupMatrix
        A built TGM over ``dataset``: its members are the records joined
        and its measure is the similarity.
    threshold : float
        The join threshold δ, in ``(0, 1]``.
    max_cells : int, optional
        Cap on the join's per-chunk buffers, in int64 cells.
    profiles : tuple, optional
        A precomputed :func:`group_join_profiles`.  Accepted for callers
        that pass one; the prefix-filter join does not use it.

    Returns
    -------
    JoinResult
        ``pairs`` — sorted ``(x, y, Sim(S_x, S_y))`` triples with
        ``x < y`` (asymmetric measures are oriented by record index) —
        plus the cost counters in ``stats``.

    Examples
    --------
    >>> from repro import Dataset, LES3
    >>> from repro.core import similarity_self_join
    >>> dataset = Dataset.from_token_lists(
    ...     [["a", "b"], ["a", "b", "c"], ["x", "y"]]
    ... )
    >>> engine = LES3.build(dataset, num_groups=2)
    >>> similarity_self_join(dataset, engine.tgm, 0.5).pairs
    [(0, 1, 0.6666666666666666)]
    """
    return prefix_filter_join(dataset, tgm.group_members, tgm.measure, threshold, max_cells)
