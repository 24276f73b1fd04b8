"""TGM-accelerated exact set similarity self-join.

The paper's related work (Section 8) is dominated by threshold joins; the
TGM supports them naturally, so this module provides the join as an
extension of the reproduced system: find all pairs ``(S_x, S_y)``,
``x < y``, with ``Sim(S_x, S_y) >= δ``.

Pruning happens at two granularities:

* **Group-pair bound**: for groups ``G_a, G_b`` with vocabularies
  ``V_a, V_b``, minimum member sizes ``m_a, m_b`` and maximum member
  sizes ``M_a, M_b``, any cross pair has overlap at most
  ``c = min(κ · |V_a ∩ V_b|, M_a, M_b)`` — ``κ`` is the largest token
  multiplicity in the dataset (1 for plain sets: multisets can share a
  token more than once), and a set shares no more tokens than it has —
  and both sizes at least ``m_a, m_b``; so ``Sim`` is at most
  ``measure.from_overlap(c, m*, m*)`` with the most favourable feasible
  sizes.  Pairs of groups failing δ are skipped wholesale.  The
  vocabulary caps come out of one boolean matrix product over the
  groups' live vocabularies; the maximum sizes are the TGM's group size
  ranges (:meth:`~repro.core.tgm.TokenGroupMatrix.size_ranges`), which
  pays off most on size-banded groups.
* **Within surviving group pairs**, candidates are verified exactly.
  The default ``verify="columnar"`` path scores a whole group pair in
  one vectorized shot: both groups' CSR slices are gathered from the
  dataset's columnar view, the full pairwise overlap matrix is computed
  blockwise (:meth:`~repro.core.columnar.ColumnarView.pairwise_overlaps`,
  tiled so memory stays bounded on large groups), and exact similarities
  come out of one :meth:`~repro.core.similarity.Similarity.from_overlap_matrix`
  call — the same float64 operations as the scalar formula, so the
  resulting pairs are bit-identical.  ``verify="scalar"`` keeps the
  original per-pair walk (with its per-pair Jaccard size filter) as the
  escape hatch and test oracle.

:func:`similarity_join_between` joins the groups of two *disjoint* TGMs
over one shared dataset — the cross-shard building block of
``ShardedLES3.join`` (:mod:`repro.distributed.sharded`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.columnar import DEFAULT_TILE_CELLS, VERIFY_MODES, ColumnarView
from repro.core.dataset import Dataset
from repro.core.metrics import QueryStats
from repro.core.similarity import JaccardSimilarity, Similarity
from repro.core.tgm import TokenGroupMatrix

__all__ = [
    "JoinResult",
    "similarity_self_join",
    "similarity_join_between",
    "best_feasible_pair_bound",
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


def max_token_multiplicity(dataset: Dataset) -> int:
    """The largest multiplicity of any token in any record; 1 for plain sets.

    Vocabulary caps count shared *distinct* tokens, but two multisets
    sharing a token overlap on it up to this many times, so a sound
    overlap cap is the distinct cap times this.
    """
    counts = dataset.columnar().flat_counts()
    return int(counts.max()) if counts.size else 1


def best_feasible_pair_bound(
    measure: Similarity, shared_cap: int, min_a: int, min_b: int
) -> float:
    """Upper bound of Sim across two groups given vocab overlap and min sizes.

    The most favourable feasible pair takes the full vocabulary overlap and
    sets exactly as large as required: ``overlap = shared_cap`` and
    ``size = max(min_size, overlap)`` on both sides (a set's size can never
    be below its overlap, and every supported measure is non-increasing in
    set size at fixed overlap).  Because the bound is monotone in the cap
    and antitone in the minimum sizes, it stays sound when computed from
    any vocabulary superset and any size lower bound — which is what makes
    shard-level caps (``ShardedLES3.join``) sound too.
    """
    if shared_cap <= 0:
        return 0.0
    size_a = max(min_a, shared_cap, 1)
    size_b = max(min_b, shared_cap, 1)
    bound = measure.from_overlap(shared_cap, size_a, size_b)
    if measure.symmetric:
        return bound
    # Asymmetric measures: the reported pair may be oriented either way
    # (the join orients by record index), so the bound must cover both.
    return max(bound, measure.from_overlap(shared_cap, size_b, size_a))


def group_join_profiles(
    dataset: Dataset, groups: list[list[int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Live vocabulary matrix, minimum member sizes, and token columns.

    Returns ``(vocab, min_sizes, columns)``: a boolean group × token
    matrix, the minimum live member size per group, and the sorted int64
    token ids the matrix columns stand for.  The columns cover exactly
    the distinct tokens of the *current* members — not the whole
    universe (which may have grown far wider through open-universe
    inserts) and not the TGM bits (which may carry lingering tokens
    after deletions) — so both the matrix footprint and the cap matmul
    scale with the data's real vocabulary, and the group-pair bounds
    stay as tight as the data allows.  The joins compute this per TGM;
    the sharded join precomputes one profile per shard and passes it
    down so cross-shard calls don't rebuild the same profiles once per
    shard pair (profiles with different column spaces are aligned on
    their shared tokens, which is exact — a token two groups share is in
    both column sets by construction).
    """
    # One vectorized CSR gather per group instead of a per-record walk:
    # identical vocabularies and minimum sizes, but a mapped dataset
    # profiles its groups without materializing any record.
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


def _vocab_caps(
    vocab_a: np.ndarray, vocab_b: np.ndarray, max_cells: int = DEFAULT_TILE_CELLS
) -> np.ndarray:
    """``|V_a ∩ V_b|`` for every group pair, as an int64 matrix.

    The right operand is a free ``uint8`` view of the bool vocabulary
    matrix (no copy); only a row block of the left operand is ever cast
    up for the matmul, so the extra memory stays bounded at ``max_cells``
    cells however large the group × universe matrices are.
    """
    caps = np.empty((len(vocab_a), len(vocab_b)), dtype=np.int64)
    right = vocab_b.view(np.uint8).T
    block = max(1, max_cells // max(vocab_a.shape[1], 1))
    for r0 in range(0, len(vocab_a), block):
        caps[r0:r0 + block] = vocab_a[r0:r0 + block].astype(np.int32) @ right
    return caps


def _vocab_caps_self(
    vocab: np.ndarray, max_cells: int = DEFAULT_TILE_CELLS
) -> np.ndarray:
    """Symmetric ``|V_a ∩ V_b|`` caps of a group set against itself.

    Same contract as :func:`_vocab_caps(vocab, vocab)` but only the upper
    triangle goes through the matmul; the lower triangle is mirrored, which
    halves the O(G² · width) pruning-phase work the self-join pays.
    """
    caps = np.empty((len(vocab), len(vocab)), dtype=np.int64)
    right = vocab.view(np.uint8).T
    block = max(1, max_cells // max(vocab.shape[1], 1))
    for r0 in range(0, len(vocab), block):
        r1 = min(r0 + block, len(vocab))
        caps[r0:r1, r0:] = vocab[r0:r1].astype(np.int32) @ right[:, r0:]
        caps[r0:, r0:r1] = caps[r0:r1, r0:].T
    return caps


def _pair_bound_matrix(
    measure: Similarity,
    caps: np.ndarray,
    mins_a: np.ndarray,
    mins_b: np.ndarray,
    maxs_a: np.ndarray,
    maxs_b: np.ndarray,
) -> np.ndarray:
    """Vectorized :func:`best_feasible_pair_bound` over a cap matrix.

    Each vocabulary cap is first lowered to the smaller of the two
    groups' maximum member sizes: no cross pair can overlap by more.
    Sound for any size upper bounds, loose ones included.
    """
    caps = np.minimum(caps, np.minimum(maxs_a[:, None], maxs_b[None, :]))
    sizes_a = np.maximum(np.maximum(mins_a[:, None], caps), 1)
    sizes_b = np.maximum(np.maximum(mins_b[None, :], caps), 1)
    bounds = measure.from_overlaps(caps, sizes_a, sizes_b)
    if not measure.symmetric:
        bounds = np.maximum(bounds, measure.from_overlaps(caps, sizes_b, sizes_a))
    return np.where(caps > 0, bounds, 0.0)


def _verify_pair_scalar(
    dataset: Dataset,
    measure: Similarity,
    jaccard: bool,
    threshold: float,
    members_a: list[int],
    members_b: list[int],
    within: bool,
    pairs: list[tuple[int, int, float]],
    stats: QueryStats,
) -> None:
    """The original per-pair walk: one exact similarity per candidate pair.

    The reported similarity is ``Sim(S_min, S_max)`` — oriented by record
    index, not by iteration order, so asymmetric measures (containment)
    give one well-defined answer per unordered pair regardless of how the
    partitioning laid the records out.
    """
    for i, x in enumerate(members_a):
        record_x = dataset.records[x]
        candidates = members_a[i + 1:] if within else members_b
        for y in candidates:
            if x == y:
                continue
            record_y = dataset.records[y]
            if jaccard:
                # Size filter: Jaccard >= δ needs δ ≤ min/max size ratio.
                small = min(len(record_x), len(record_y))
                large = max(len(record_x), len(record_y))
                if small < threshold * large:
                    continue
            if x < y:
                similarity = measure(record_x, record_y)
            else:
                similarity = measure(record_y, record_x)
            stats.candidates_verified += 1
            stats.similarity_computations += 1
            if similarity >= threshold:
                pairs.append((min(x, y), max(x, y), similarity))


def _verify_pair_columnar(
    view: ColumnarView,
    measure: Similarity,
    threshold: float,
    members_a: list[int],
    members_b: list[int],
    within: bool,
    pairs: list[tuple[int, int, float]],
    stats: QueryStats,
    max_cells: int,
) -> None:
    """Score one group pair in vectorized row-block shots over the CSR view.

    The overlap matrix and the measure's ``from_overlap_matrix`` apply
    the same integer and float64 operations as the scalar walk, so the
    surviving pairs carry bit-identical similarities.  For a group joined
    with itself only the strict upper triangle (by member position) is
    kept — the same unordered pairs the scalar walk visits; shared
    records between overlapping collections are masked out like the
    scalar walk's ``x == y`` skip.

    Tiling happens at this level too: rows are processed in blocks of at
    most ``max_cells / |cols|``, so the overlap/similarity slabs — not
    just :meth:`~repro.core.columnar.ColumnarView.pairwise_overlaps`'
    internal buffers — stay bounded on arbitrarily large groups.
    """
    rows = np.asarray(members_a, dtype=np.int64)
    cols = rows if within else np.asarray(members_b, dtype=np.int64)
    sizes_cols = view.sizes_of(cols)
    scored = len(rows) * (len(rows) - 1) // 2 if within else len(rows) * len(cols)
    stats.candidates_verified += scored
    stats.similarity_computations += scored
    row_block = max(1, max_cells // max(len(cols), 1))
    for r0 in range(0, len(rows), row_block):
        block = rows[r0:r0 + row_block]
        # Within a group, a row only ever pairs with later member
        # positions — score the columns from the block's start onward and
        # skip the lower-triangle cells entirely instead of masking them.
        block_cols = cols[r0:] if within else cols
        sizes_block_cols = sizes_cols[r0:] if within else sizes_cols
        overlaps = view.pairwise_overlaps(block, block_cols, max_cells)
        sizes_block = view.sizes_of(block)
        similarities = measure.from_overlap_matrix(
            overlaps, sizes_block, sizes_block_cols
        )
        if not measure.symmetric:
            # Canonical orientation Sim(S_min, S_max): where the row
            # record has the larger index, score with arguments swapped.
            swapped = measure.from_overlaps(
                overlaps, sizes_block_cols[None, :], sizes_block[:, None]
            )
            similarities = np.where(
                block[:, None] <= block_cols[None, :], similarities, swapped
            )
        keep = similarities >= threshold
        if within:
            # Strict upper triangle by member position (local: the block
            # row at offset i is the column at offset i).
            keep &= np.arange(len(block_cols))[None, :] > np.arange(len(block))[:, None]
        else:
            keep &= block[:, None] != block_cols[None, :]
        for i, j in zip(*np.nonzero(keep)):
            x, y = int(block[i]), int(block_cols[j])
            similarity = float(similarities[i, j])
            pairs.append((x, y, similarity) if x < y else (y, x, similarity))


def _check_join_args(threshold: float, verify: str) -> None:
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if verify not in VERIFY_MODES:
        raise ValueError(f"unknown verify mode {verify!r}; expected one of {VERIFY_MODES}")


def similarity_self_join(
    dataset: Dataset,
    tgm: TokenGroupMatrix,
    threshold: float,
    verify: str = "columnar",
    max_cells: int = DEFAULT_TILE_CELLS,
    profiles: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> JoinResult:
    """All pairs with ``Sim >= threshold`` (x < y), exactly.

    Parameters
    ----------
    dataset : Dataset
        The shared database of sets.
    tgm : TokenGroupMatrix
        A built TGM over ``dataset``; its groups drive the group-pair
        vocabulary pruning.
    threshold : float
        The join threshold δ, in ``(0, 1]``.
    verify : {"columnar", "scalar"}, default ``"columnar"``
        Verification path: the blockwise pairwise kernel, or the
        per-pair walk.  The returned pairs are bit-identical either way;
        only the cost counters differ (the scalar walk skips
        size-filtered Jaccard pairs before computing a similarity, the
        kernel scores every cell of a surviving group pair).
    max_cells : int, optional
        Cap on the kernel's intermediate buffers, in int64 cells.
    profiles : tuple, optional
        A precomputed :func:`group_join_profiles` for this TGM (must
        reflect the current memberships).

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
    _check_join_args(threshold, verify)
    measure = tgm.measure
    stats = QueryStats()
    pairs: list[tuple[int, int, float]] = []
    groups = tgm.group_members
    vocab, min_sizes, _ = profiles if profiles is not None else group_join_profiles(
        dataset, groups
    )
    caps = _vocab_caps_self(vocab, max_cells) * max_token_multiplicity(dataset)
    _, max_sizes = tgm.size_ranges()
    bounds = _pair_bound_matrix(measure, caps, min_sizes, min_sizes, max_sizes, max_sizes)
    view = dataset.columnar() if verify == "columnar" else None
    jaccard = isinstance(measure, JaccardSimilarity)
    for a in range(len(groups)):
        if not groups[a]:
            continue
        for b in range(a, len(groups)):
            if not groups[b]:
                continue
            stats.groups_scored += 1
            if bounds[a, b] < threshold:
                stats.groups_pruned += 1
                continue
            if view is None:
                _verify_pair_scalar(
                    dataset, measure, jaccard, threshold,
                    groups[a], groups[b], a == b, pairs, stats,
                )
            else:
                _verify_pair_columnar(
                    view, measure, threshold,
                    groups[a], groups[b], a == b, pairs, stats, max_cells,
                )
    pairs.sort()
    stats.result_size = len(pairs)
    return JoinResult(pairs, stats)


def similarity_join_between(
    dataset: Dataset,
    tgm_a: TokenGroupMatrix,
    tgm_b: TokenGroupMatrix,
    threshold: float,
    verify: str = "columnar",
    max_cells: int = DEFAULT_TILE_CELLS,
    profiles_a: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    profiles_b: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> JoinResult:
    """All cross pairs between two TGMs over one shared dataset.

    Both TGMs must index record subsets of ``dataset`` — disjoint, as the
    shards of a :class:`~repro.distributed.sharded.ShardedLES3` are — and
    agree on the measure.  Only pairs with one record in each TGM are
    returned (a record the TGMs share is never paired with itself, in
    either verify mode); combined with each TGM's
    :func:`similarity_self_join` this tiles the full self-join exactly
    once, which is how the sharded join stays bit-identical to the
    single-engine one.  ``profiles_a`` / ``profiles_b`` accept
    precomputed :func:`group_join_profiles` for the respective TGMs.
    """
    _check_join_args(threshold, verify)
    if tgm_a.measure.name != tgm_b.measure.name:
        raise ValueError(
            f"cannot join across measures {tgm_a.measure.name!r} and "
            f"{tgm_b.measure.name!r} — bounds would be unsound"
        )
    measure = tgm_a.measure
    stats = QueryStats()
    pairs: list[tuple[int, int, float]] = []
    vocab_a, mins_a, cols_a = profiles_a if profiles_a is not None else (
        group_join_profiles(dataset, tgm_a.group_members)
    )
    vocab_b, mins_b, cols_b = profiles_b if profiles_b is not None else (
        group_join_profiles(dataset, tgm_b.group_members)
    )
    # The two profiles cover different token column spaces; align them on
    # the shared tokens.  Exact: a token two records share is in both
    # column sets by construction, so no overlap escapes the projection.
    _, idx_a, idx_b = np.intersect1d(
        cols_a, cols_b, assume_unique=True, return_indices=True
    )
    caps = _vocab_caps(
        np.ascontiguousarray(vocab_a[:, idx_a]),
        np.ascontiguousarray(vocab_b[:, idx_b]),
        max_cells,
    ) * max_token_multiplicity(dataset)
    bounds = _pair_bound_matrix(
        measure, caps, mins_a, mins_b, tgm_a.size_ranges()[1], tgm_b.size_ranges()[1]
    )
    view = dataset.columnar() if verify == "columnar" else None
    jaccard = isinstance(measure, JaccardSimilarity)
    for a, members_a in enumerate(tgm_a.group_members):
        if not members_a:
            continue
        for b, members_b in enumerate(tgm_b.group_members):
            if not members_b:
                continue
            stats.groups_scored += 1
            if bounds[a, b] < threshold:
                stats.groups_pruned += 1
                continue
            if view is None:
                _verify_pair_scalar(
                    dataset, measure, jaccard, threshold,
                    members_a, members_b, False, pairs, stats,
                )
            else:
                _verify_pair_columnar(
                    view, measure, threshold,
                    members_a, members_b, False, pairs, stats, max_cells,
                )
    pairs.sort()
    stats.result_size = len(pairs)
    return JoinResult(pairs, stats)
