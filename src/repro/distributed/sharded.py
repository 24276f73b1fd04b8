"""ShardedLES3 — scatter-gather set similarity search over S shards.

The dataset is split across shards (:mod:`repro.distributed.sharding`),
each shard gets its own TGM built concurrently with a
``ThreadPoolExecutor`` (the same pattern the L2P cascade uses for models
of one level), and queries are answered by scatter-gather:

1. **Shard scoring.**  Every shard maintains a *shard vocabulary* — the
   union of its groups' token sets.  Because every measure's group bound
   is monotone in the covered-token count, the bound computed from the
   shard vocabulary upper-bounds every group bound inside the shard, and
   therefore every member's similarity.  Scoring all shards costs
   ``O(S · |Q|)`` — one row of bits per shard instead of ``n`` rows.
2. **Shard pruning.**  Shards are visited in descending bound order; once
   the running global kth similarity (kNN) or the threshold (range)
   strictly exceeds a shard's bound, that shard — and every shard after
   it — is skipped *before its per-group bounds are even computed*.
3. **Gather.**  Surviving shards are searched with the exact same group
   visit used by the single engine (:func:`repro.core.search`), and the
   merge applies the canonical ``(-similarity, index)`` tie-break.

Results are therefore *bit-identical* to a single :class:`repro.core.LES3`
over the same data — same records, same similarities, same order — for
any shard count, any placement strategy, and any per-shard partitioner.
Sharding is purely a throughput/scale knob, never a correctness one.

**Execution.**  There is one execution path: the calling thread visits
shards in descending bound order into a shared top-k heap, with
cross-shard early termination — the paper's sequential best-first walk
lifted one level.  ``docs/architecture.md`` has the data-flow picture
and the measurements behind having no pool inside the engine.
"""

from __future__ import annotations

import os
from collections.abc import Sequence as SequenceABC
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.core.batch import batch_covered_counts
from repro.core.cache import LRUCache
from repro.core.columnar import make_verifier
from repro.core.dataset import Dataset
from repro.core.engine import LES3, as_query_record, suggest_num_groups
from repro.core.join import JoinResult, prefix_filter_join
from repro.core.metrics import QueryStats
from repro.core.persistence import PersistenceError
from repro.core.resilience import Deadline
from repro.core.search import (
    SearchResult,
    count_group_scoring,
    finalize_result,
    knn_heap_matches,
    knn_visit_groups,
    pad_zero_matches,
    prepare_query,
    query_group_bounds,
    range_collect_groups,
)
from repro.core.sets import SetRecord
from repro.core.similarity import Similarity, get_measure
from repro.core.tgm import TokenGroupMatrix
from repro.core.updates import insert_set
from repro.distributed.sharding import assign_shards, lpt_balance
from repro.testing.faults import fault_point

if TYPE_CHECKING:
    from repro.partitioning.base import Partitioner

__all__ = ["ShardedLES3", "LazyShardTGMs"]


def _build_concurrently(
    builders: Sequence[Callable[[], TokenGroupMatrix]], workers: int | None
) -> list[TokenGroupMatrix]:
    """Run shard-build thunks, in a thread pool when it can help."""
    if workers is None:
        workers = min(len(builders), os.cpu_count() or 1)
    if workers <= 1 or len(builders) <= 1:
        return [build() for build in builders]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(build) for build in builders]
        return [future.result() for future in futures]


class LazyShardTGMs(SequenceABC):
    """Shard TGMs built on first visit and evicted through a small LRU.

    The out-of-core counterpart of the eager TGM list: ``tgms[shard_id]``
    runs the shard's build thunk on a cache miss and keeps at most
    ``capacity`` built TGMs resident, evicting the least recently visited
    one beyond that.  Pruned shards therefore never pay their index
    build, and resident index memory is bounded by the capacity rather
    than the shard count — which is what ``repro.load(..., mode="lazy")``
    hands to :class:`ShardedLES3`.  The cache is a thread-safe
    :class:`~repro.core.cache.LRUCache` because library callers may
    read one engine from several threads (two readers racing on one
    shard may both build it; the first publish wins — TGM builds are
    deterministic and immutable afterwards, so that is only spent time).

    Iterating the sequence builds every shard (it is how ``repro
    validate`` walks a lazy engine); queries only ever index it.
    """

    __slots__ = ("_builders", "_cache")

    def __init__(self, builders: Sequence, capacity: int) -> None:
        self._builders = list(builders)
        self._cache = LRUCache(capacity)

    def __len__(self) -> int:
        return len(self._builders)

    @property
    def capacity(self) -> int:
        """Maximum number of TGMs kept resident."""
        return self._cache.capacity

    def __getitem__(self, shard_id: int) -> TokenGroupMatrix:
        if isinstance(shard_id, slice):
            raise TypeError("lazy shard lists do not support slicing")
        if shard_id < 0:
            shard_id += len(self._builders)
        return self._cache.get_or_build(shard_id, self._builders[shard_id])

    def resident(self) -> list[TokenGroupMatrix]:
        """The TGMs currently held by the LRU (for size accounting)."""
        return self._cache.resident()


class ShardedLES3:
    """Sharded, exact set similarity search over one logical dataset.

    All shards share the global :class:`~repro.core.dataset.Dataset`
    (records and token universe); each shard's TGM owns a disjoint subset
    of the record indices.  Construct via :meth:`build` (partition from
    scratch) or :meth:`from_engine` (re-shard an existing single-node
    engine); persist with
    :func:`repro.core.persistence.save_sharded` and restore with
    :func:`repro.load`.

    Parameters
    ----------
    dataset : Dataset
        The shared database of sets (possibly mmap-backed — see
        :meth:`repro.core.dataset.Dataset.from_columnar_file`).
    tgms : sequence of TokenGroupMatrix
        One TGM per shard, over disjoint record subsets of ``dataset``.
        May be a :class:`LazyShardTGMs` (``repro.load(..., mode="lazy")``),
        in which case ``shard_groups`` must carry the per-shard group
        membership so construction doesn't force every build; lazy
        engines are read-only.
    measure : str or Similarity, default ``"jaccard"``
        The similarity measure; must match every shard TGM's measure.

    Attributes
    ----------
    placement : str
        The record-placement policy this engine was built with
        (``"hash"``/``"size"``/``"range"`` from :meth:`build`, ``"lpt"``
        from :meth:`from_engine`, ``"custom"`` for hand-built shards);
        recorded in the sharded manifest on save.
    removed : dict[int, int]
        Logically deleted record index → the shard it was removed from
        (the persistence tombstone log).

    Examples
    --------
    >>> from repro import Dataset, ShardedLES3
    >>> dataset = Dataset.from_token_lists([["a", "b"], ["b", "c"], ["x", "y"]])
    >>> sharded = ShardedLES3.build(dataset, num_shards=2, num_groups=2)
    >>> sharded.knn(["a", "b"], k=1).matches
    [(0, 1.0)]
    >>> sharded.range(["x", "y"], threshold=0.5).matches
    [(2, 1.0)]
    """

    def __init__(
        self,
        dataset: Dataset,
        tgms: Sequence[TokenGroupMatrix],
        measure: str | Similarity = "jaccard",
        *,
        shard_groups: list[list[list[int]]] | None = None,
    ) -> None:
        if not len(tgms):
            raise ValueError("a sharded engine needs at least one shard")
        self.dataset = dataset
        # ``tgms`` may be a LazyShardTGMs (mode="lazy" loads): indexing it
        # builds the shard on demand, so the constructor must not iterate
        # it — the caller passes ``shard_groups`` instead.
        lazy = isinstance(tgms, LazyShardTGMs)
        self.tgms: Sequence[TokenGroupMatrix] = tgms if lazy else list(tgms)
        self.measure = get_measure(measure)
        self.placement = "custom"
        # Logically deleted record index -> shard it was removed from.
        # Queries never consult this (liveness is group membership); it is
        # the tombstone log the sharded manifests persist.
        self.removed: dict[int, int] = {}
        # Write-ahead delta segment of the saved generation (attached by
        # save_sharded/repro.load); None for in-memory builds.
        self._delta = None
        self._shard_of: dict[int, int] = {}
        self._shard_loads: list[int] = [0] * len(self.tgms)
        if shard_groups is None:
            if lazy:
                raise ValueError(
                    "lazily built shards need shard_groups (group membership "
                    "per shard) — reading it off the TGMs would force every build"
                )
            for shard_id, tgm in enumerate(self.tgms):
                if tgm.measure.name != self.measure.name:
                    raise ValueError(
                        f"shard {shard_id} is built for measure {tgm.measure.name!r}, "
                        f"engine uses {self.measure.name!r} — bounds would be unsound"
                    )
            # Share the TGMs' own membership lists so in-memory updates
            # (insert/remove mutate them in place) stay visible here.
            shard_groups = [tgm.group_members for tgm in self.tgms]
        self._shard_groups = shard_groups
        for shard_id, groups in enumerate(shard_groups):
            for members in groups:
                for record_index in members:
                    if record_index in self._shard_of:
                        raise ValueError(
                            f"record {record_index} assigned to more than one shard"
                        )
                    self._shard_of[record_index] = shard_id
                self._shard_loads[shard_id] += len(members)
        self._vocab = np.zeros((len(self.tgms), len(dataset.universe)), dtype=bool)
        view = dataset._columnar
        if view is not None:
            # Vectorized: one CSR gather per shard (a mapped dataset never
            # materializes a record here); bits are identical to the walk.
            view.sync()
            for shard_id, groups in enumerate(shard_groups):
                members = [index for group in groups for index in group]
                if members:
                    self._vocab[shard_id, view.tokens_of_records(members)] = True
        else:
            for record_index, shard_id in self._shard_of.items():
                record = dataset.records[record_index]
                self._vocab[shard_id, list(record.distinct)] = True

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: Dataset,
        num_shards: int,
        num_groups: int | None = None,
        partitioner_factory: Callable[[int], Partitioner] | None = None,
        measure: str | Similarity = "jaccard",
        backend: str = "dense",
        strategy: str = "hash",
        seed: int = 0,
        workers: int | None = None,
    ) -> "ShardedLES3":
        """Shard the dataset and build one TGM per shard, concurrently.

        Parameters
        ----------
        dataset : Dataset
            The database of sets (shared, not copied, across shards).
        num_shards : int
            Target shard count ``S``; clipped to the dataset size.
        num_groups : int, optional
            *Total* group budget, split across shards proportionally to
            shard size; defaults to the paper's per-shard rule of thumb.
        partitioner_factory : callable, optional
            ``shard_id -> Partitioner``; each shard needs its own instance
            because partitioners carry training state.  Defaults to the
            L2P cascade seeded per shard.
        measure, backend, seed :
            As in :meth:`repro.core.LES3.build`.
        strategy : {"hash", "size", "range"}, default ``"hash"``
            Record placement (see :mod:`repro.distributed.sharding`);
            recorded as :attr:`placement`.
        workers : int, optional
            Threads for the concurrent shard builds; defaults to
            ``min(num_shards, cpu_count)``.

        Returns
        -------
        ShardedLES3
            A built engine answering queries bit-identically to a single
            :class:`~repro.core.engine.LES3` over the same data.
        """
        measure = get_measure(measure)
        assignments = assign_shards(dataset, num_shards, strategy)
        if not assignments:
            engine = cls(dataset, [TokenGroupMatrix(dataset, [], measure, backend)], measure)
            engine.placement = strategy
            return engine
        if partitioner_factory is None:
            from repro.learn.cascade import L2PPartitioner

            def partitioner_factory(shard_id: int) -> Partitioner:
                return L2PPartitioner(measure=measure, seed=seed + shard_id)

        total = len(dataset)

        def shard_builder(
            shard_id: int, indices: list[int]
        ) -> Callable[[], TokenGroupMatrix]:
            def build() -> TokenGroupMatrix:
                if num_groups is None:
                    target = suggest_num_groups(len(indices))
                else:
                    target = max(1, round(num_groups * len(indices) / total))
                target = min(target, len(indices))
                view = Dataset([dataset.records[i] for i in indices], dataset.universe)
                partition = partitioner_factory(shard_id).partition(view, target)
                groups = [[indices[local] for local in group] for group in partition.groups]
                return TokenGroupMatrix(dataset, groups, measure, backend)

            return build

        builders = [
            shard_builder(shard_id, indices)
            for shard_id, indices in enumerate(assignments)
        ]
        engine = cls(dataset, _build_concurrently(builders, workers), measure)
        engine.placement = strategy
        return engine

    @classmethod
    def from_engine(
        cls,
        engine: LES3,
        num_shards: int,
        workers: int | None = None,
    ) -> "ShardedLES3":
        """Re-shard a built single-node engine without re-partitioning.

        The engine's existing groups are balanced across shards (largest
        groups first, each to the lightest shard), preserving the learned
        partitioning — only per-shard TGMs are rebuilt, concurrently.
        The engine's delete log carries over (tombstones are attributed
        to shard 0: they belong to no group, so the choice is pure
        bookkeeping for persistence).
        """
        return cls._from_groups(
            engine.dataset, engine.tgm.group_members, engine.measure,
            engine.tgm.backend, engine.removed, num_shards, workers,
        )

    @classmethod
    def _from_groups(
        cls,
        dataset: Dataset,
        groups: Sequence[Sequence[int]],
        measure: Similarity,
        backend: str,
        removed: Iterable[int],
        num_shards: int,
        workers: int | None,
    ) -> "ShardedLES3":
        """:meth:`from_engine` over plain data (``repro rebalance`` has no engine)."""
        if num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        groups = [list(members) for members in groups]
        num_shards = min(num_shards, len(groups)) or 1
        bins = lpt_balance([len(group) for group in groups], num_shards)
        shard_groups = [[groups[group_id] for group_id in bin_] for bin_ in bins]

        def shard_builder(assigned: list[list[int]]) -> Callable[[], TokenGroupMatrix]:
            def build() -> TokenGroupMatrix:
                return TokenGroupMatrix(dataset, assigned, measure, backend)

            return build

        builders = [shard_builder(assigned) for assigned in shard_groups]
        sharded = cls(dataset, _build_concurrently(builders, workers), measure)
        sharded.placement = "lpt"
        sharded.removed = {record_index: 0 for record_index in removed}
        return sharded

    # -- lifecycle ---------------------------------------------------------

    def _require_mutable(self, operation: str) -> None:
        """Lazily loaded engines are read-only.

        A mutation would live only in whichever TGMs happen to be LRU
        resident — eviction and rebuild from disk would silently undo it,
        turning an exact engine into a wrong-answer one.  Refusing is the
        only safe behavior.
        """
        if self.is_lazy:
            raise PersistenceError(
                f"cannot {operation} on a lazily loaded engine (mode='lazy'): "
                "shard indexes are rebuilt from disk on demand, so in-memory "
                "mutations would be lost on eviction — reload with "
                "mode='mmap' or mode='memory' to mutate"
            )

    # -- introspection -----------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.tgms)

    @property
    def num_groups(self) -> int:
        """Total group count across all shards."""
        return sum(len(groups) for groups in self._shard_groups)

    def _group_members_of(self, shard_id: int) -> list[list[int]]:
        """A shard's group membership without forcing a lazy TGM build."""
        return self._shard_groups[shard_id]

    def _num_groups_of(self, shard_id: int) -> int:
        return len(self._shard_groups[shard_id])

    @property
    def is_lazy(self) -> bool:
        """True when shard TGMs are built on demand (``mode="lazy"`` loads)."""
        return isinstance(self.tgms, LazyShardTGMs)

    def shard_sizes(self) -> list[int]:
        """Live record count per shard (maintained across inserts/removes)."""
        return list(self._shard_loads)

    def index_bytes(self) -> int:
        """Summed TGM sizes plus the shard-vocabulary index.

        On a lazy engine only the *resident* TGMs (the LRU's current
        contents) are counted — the evicted ones hold no memory, which is
        the point of the mode.
        """
        tgms = self.tgms.resident() if self.is_lazy else self.tgms
        return sum(tgm.byte_size() for tgm in tgms) + (self._vocab.size + 7) // 8

    def tokens_of(self, record_index: int) -> list[Hashable]:
        """External tokens of a stored record (for presenting results)."""
        record = self.dataset.records[record_index]
        return [self.dataset.universe.token_of(token_id) for token_id in record.tokens]

    # -- shard-level bounds ------------------------------------------------

    def _shard_covered(self, query: SetRecord) -> np.ndarray:
        """``|Q ∩ vocab(shard)|`` (multiplicity-weighted) for every shard."""
        known, weights, _ = prepare_query(query, self._vocab.shape[1])
        if not known:
            return np.zeros(self.num_shards, dtype=np.int64)
        return self._vocab[:, known] @ np.asarray(weights, dtype=np.int64)

    def shard_bounds(self, query: SetRecord) -> np.ndarray:
        """Similarity upper bound of every shard for ``query``.

        The bound from a shard's vocabulary dominates every group bound
        inside the shard (vocabularies only grow when groups merge and
        every measure's bound is monotone in the covered count), so a
        shard whose bound cannot beat the running kth similarity or the
        range threshold is skipped wholesale.
        """
        return self.measure.bounds_from_counts(self._shard_covered(query), len(query))

    def _batch_shard_covered(self, queries: Sequence[SetRecord]) -> np.ndarray:
        """Covered counts for a batch, shape ``(len(queries), S)``.

        Only the union of the batch's known tokens is gathered — the
        shard-scoring product is ``(B × |union|) @ (|union| × S)``, far
        smaller than the full universe width.
        """
        if not queries:
            return np.zeros((0, self.num_shards), dtype=np.int64)
        width = self._vocab.shape[1]
        per_query = [prepare_query(query, width) for query in queries]
        union = sorted({token for known, _, _ in per_query for token in known})
        if not union:
            return np.zeros((len(queries), self.num_shards), dtype=np.int64)
        column_of = {token: column for column, token in enumerate(union)}
        weighted = np.zeros((len(queries), len(union)), dtype=np.int64)
        for i, (known, weights, _) in enumerate(per_query):
            for token, weight in zip(known, weights):
                weighted[i, column_of[token]] = weight
        return weighted @ self._vocab[:, union].T.astype(np.int64)

    def _batch_shard_bound_rows(self, queries: Sequence[SetRecord]) -> list[np.ndarray]:
        covered = self._batch_shard_covered(queries)
        return [
            self.measure.bounds_from_counts(covered[i], len(query))
            for i, query in enumerate(queries)
        ]

    # -- kNN ---------------------------------------------------------------

    def _gather_knn(
        self,
        query: SetRecord,
        k: int,
        bounds: np.ndarray,
        deadline: Deadline | None = None,
    ) -> SearchResult:
        """Scatter-gather kNN given precomputed shard bounds (exact).

        The verification kernel (its per-query token scatter) is built
        once and shared by every surviving shard's group visit.  The
        deadline is checked at every shard boundary.
        """
        stats = QueryStats()
        order = sorted(range(self.num_shards), key=lambda s: (-bounds[s], s))
        heap: list[tuple[float, int]] = []
        zero_candidates: list[list[int]] = []
        verifier = make_verifier(self.dataset, query, self.measure)
        for position, shard_id in enumerate(order):
            if deadline is not None:
                deadline.check(f"scatter-gather at shard {shard_id}")
            bound = bounds[shard_id]
            if bound <= 0.0:
                # Sorted order: this and all remaining shards share no
                # token with the query — members are at similarity 0.
                for rest in order[position:]:
                    stats.groups_pruned += self._num_groups_of(rest)
                    zero_candidates.extend(self._group_members_of(rest))
                break
            if len(heap) >= k and bound < heap[0][0]:
                # No member of the remaining shards can displace the kth.
                for rest in order[position:]:
                    stats.groups_pruned += self._num_groups_of(rest)
                break
            fault_point("shard.exec", f"knn:shard={shard_id}")
            tgm = self.tgms[shard_id]
            group_bounds = query_group_bounds(tgm, query, stats)
            knn_visit_groups(
                self.dataset, tgm, query, k, group_bounds, heap, stats,
                self.measure, zero_candidates, verifier,
            )
        pad_zero_matches(heap, k, zero_candidates)
        return finalize_result(knn_heap_matches(heap), stats)

    def knn_record(
        self,
        query: SetRecord,
        k: int,
        deadline: Deadline | None = None,
    ) -> SearchResult:
        """kNN search with a pre-interned query record."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if deadline is not None:
            deadline.check("before query execution")
        return self._gather_knn(query, k, self.shard_bounds(query), deadline)

    def knn(
        self,
        query_tokens: Sequence[Hashable],
        k: int,
        deadline: Deadline | None = None,
    ) -> SearchResult:
        """kNN search over external tokens."""
        return self.knn_record(
            as_query_record(self.dataset, query_tokens), k, deadline=deadline
        )

    def batch_knn_record(
        self,
        queries: Sequence[SetRecord],
        k: int,
        deadline: Deadline | None = None,
    ) -> list[SearchResult]:
        """kNN for every query; shard scoring is one matrix product."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if deadline is not None:
            deadline.check("before query execution")
        bound_rows = self._batch_shard_bound_rows(queries)
        return [
            self._gather_knn(query, k, bound_rows[i], deadline)
            for i, query in enumerate(queries)
        ]

    # -- range -------------------------------------------------------------

    def _gather_range(
        self,
        query: SetRecord,
        threshold: float,
        bounds: np.ndarray,
        precomputed: dict[int, np.ndarray] | None = None,
        deadline: Deadline | None = None,
    ) -> SearchResult:
        """Scatter-gather range search given precomputed shard bounds.

        The deadline is checked at every shard boundary.
        """
        stats = QueryStats()
        matches: list[tuple[int, float]] = []
        verifier = make_verifier(self.dataset, query, self.measure)
        for shard_id in range(self.num_shards):
            if deadline is not None:
                deadline.check(f"scatter-gather at shard {shard_id}")
            if bounds[shard_id] < threshold:
                stats.groups_pruned += self._num_groups_of(shard_id)
                continue
            fault_point("shard.exec", f"range:shard={shard_id}")
            tgm = self.tgms[shard_id]
            if precomputed is not None and shard_id in precomputed:
                group_bounds = precomputed[shard_id]
                count_group_scoring(stats, tgm, query)
            else:
                group_bounds = query_group_bounds(tgm, query, stats)
            range_collect_groups(
                self.dataset, tgm, query, threshold, group_bounds,
                matches, stats, self.measure, verifier,
            )
        return finalize_result(matches, stats)

    def range_record(
        self,
        query: SetRecord,
        threshold: float,
        deadline: Deadline | None = None,
    ) -> SearchResult:
        """Range search with a pre-interned query record."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        if deadline is not None:
            deadline.check("before query execution")
        return self._gather_range(query, threshold, self.shard_bounds(query), None, deadline)

    def range(
        self,
        query_tokens: Sequence[Hashable],
        threshold: float,
        deadline: Deadline | None = None,
    ) -> SearchResult:
        """Range search over external tokens."""
        return self.range_record(
            as_query_record(self.dataset, query_tokens), threshold, deadline=deadline
        )

    def batch_range_record(
        self,
        queries: Sequence[SetRecord],
        threshold: float,
        deadline: Deadline | None = None,
    ) -> list[SearchResult]:
        """Range search for every query.

        Shard scoring is one matrix product for the whole batch.  Each
        shard's per-group scoring then runs only for the queries the
        shard-level bound could not prune — on the dense backend as one
        (sub-batch × tokens) product per shard.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        if deadline is not None:
            deadline.check("before query execution")
        bound_rows = self._batch_shard_bound_rows(queries)
        # Per shard: batch-score the surviving sub-batch of queries.
        per_query_bounds: list[dict[int, np.ndarray]] = [{} for _ in queries]
        for shard_id in range(self.num_shards):
            survivors = [
                i for i in range(len(queries))
                if bound_rows[i][shard_id] >= threshold
            ]
            if not survivors:
                continue
            tgm = self.tgms[shard_id]
            counts = batch_covered_counts(tgm, [queries[i] for i in survivors])
            for row, i in enumerate(survivors):
                per_query_bounds[i][shard_id] = tgm.bounds_from_counts(
                    counts[row], len(queries[i])
                )
        return [
            self._gather_range(query, threshold, bound_rows[i], per_query_bounds[i], deadline)
            for i, query in enumerate(queries)
        ]

    # -- self-join ---------------------------------------------------------

    def join(
        self,
        threshold: float,
        deadline: Deadline | None = None,
    ) -> JoinResult:
        """Exact similarity self-join over all shards.

        One :func:`~repro.core.join.prefix_filter_join` over the union of
        every shard's live members — the single engine's join over the
        same records, so the result is bit-identical to it for any shard
        count, placement, or per-shard partitioner.  It reads only group
        memberships, so a lazy load builds no shard TGM for it.
        """
        if deadline is not None:
            deadline.check("before query execution")
        groups = [
            members
            for shard_id in range(self.num_shards)
            for members in self._group_members_of(shard_id)
        ]
        return prefix_filter_join(self.dataset, groups, self.measure, threshold)

    # -- updates -----------------------------------------------------------

    def insert(self, tokens: Sequence[Hashable]) -> tuple[int, int, int]:
        """Insert a new set, routed to the lightest shard (open universe).

        Returns ``(record_index, shard_id, group_id)``.  Within the target
        shard the group is chosen exactly like the single engine's
        insertion (highest bound, ties to the smallest group).  On an
        engine attached to a saved generation the routing outcome is also
        appended to the generation's write-ahead ``delta.log``, so a
        reload reproduces exactly this state.  An engine that was never
        saved has no log to append to.
        """
        self._require_mutable("insert")
        loads = self._shard_loads
        shard_id = min(range(self.num_shards), key=lambda s: (loads[s], s))
        record_index, group_id = insert_set(self.dataset, self.tgms[shard_id], tokens)
        self._shard_of[record_index] = shard_id
        self._shard_loads[shard_id] += 1
        record = self.dataset.records[record_index]
        max_token = record.tokens[-1]
        if max_token >= self._vocab.shape[1]:
            width = max(len(self.dataset.universe), max_token + 1)
            extra = np.zeros((self.num_shards, width - self._vocab.shape[1]), dtype=bool)
            self._vocab = np.concatenate([self._vocab, extra], axis=1)
        self._vocab[shard_id, list(record.distinct)] = True
        self._log_mutation(
            "insert", tokens=tokens, index=record_index, group=group_id, shard=shard_id
        )
        return record_index, shard_id, group_id

    def remove(self, record_index: int) -> tuple[int, int]:
        """Logically delete a set; returns ``(shard_id, group_id)`` it left.

        Like the single engine, vocabulary bits linger until a rebuild —
        sound (bounds only loosen), and a shard rebuild restores tightness.
        The tombstone is logged in :attr:`removed`; on an engine attached
        to a saved generation it is also appended to ``delta.log``, so
        the save stays in sync (see :meth:`insert`).
        """
        self._require_mutable("remove")
        shard_id = self._shard_of.get(record_index)
        if shard_id is None:
            raise KeyError(f"record {record_index} is not registered in any shard")
        group_id = self.tgms[shard_id].unregister(record_index)
        del self._shard_of[record_index]
        self._shard_loads[shard_id] -= 1
        self.removed[record_index] = shard_id
        self._log_mutation("remove", index=record_index, group=group_id, shard=shard_id)
        return shard_id, group_id

    def _log_mutation(
        self,
        op: str,
        index: int,
        group: int,
        shard: int,
        tokens: Sequence[Hashable] | None = None,
    ) -> None:
        """Append a committed mutation to the generation's delta log.

        With a delta segment attached (the engine went through
        ``save_sharded``/``repro.load``) the op is made durable;
        without one (an in-memory build) there is nothing to do.
        """
        if self._delta is None:
            return
        try:
            if op == "insert":
                assert tokens is not None
                self._delta.log_insert(tokens, index, group, shard=shard)
            else:
                self._delta.log_remove(index, group, shard=shard)
        except FileNotFoundError:
            # The backing generation was deleted out from under us:
            # durability is moot, so degrade to a never-saved engine
            # (the mutation itself is applied and stays applied).
            self._delta = None

    def __repr__(self) -> str:
        return (
            f"ShardedLES3(|D|={len(self.dataset)}, shards={self.num_shards}, "
            f"groups={self.num_groups}, measure={self.measure.name!r})"
        )
