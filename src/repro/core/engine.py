"""LES3 — the end-to-end engine (partition → TGM → search → update).

This is the public facade most applications use::

    from repro import LES3, Dataset
    dataset = Dataset.from_token_lists(token_lists)
    engine = LES3.build(dataset, num_groups=64)
    result = engine.knn(query_tokens, k=10)
    result = engine.range(query_tokens, threshold=0.7)
    engine.insert(new_tokens)

``build`` accepts any :class:`repro.partitioning.Partitioner`; the default
is the paper's L2P cascade (imported lazily to keep the core free of the
learning stack).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Sequence

from repro.core.dataset import Dataset
from repro.core.join import JoinResult, similarity_self_join
from repro.core.resilience import Deadline
from repro.core.search import SearchResult, knn_search, range_search
from repro.core.sets import SetRecord
from repro.core.similarity import Similarity
from repro.core.tgm import TokenGroupMatrix
from repro.core.updates import insert_set, remove_set

if TYPE_CHECKING:
    from repro.partitioning.base import Partitioner

__all__ = [
    "LES3",
    "suggest_num_groups",
    "as_query_record",
]


def suggest_num_groups(database_size: int) -> int:
    """The paper's Section 7.5 rule of thumb: ``n ≈ 0.5% · |D|``.

    ``n`` counts TGM rows: a partitioner makes ``n // B`` token groups
    and splits each into ``B`` set-size bands
    (:meth:`repro.partitioning.Partitioner.partition`).
    """
    return max(int(0.005 * database_size), 2)


def as_query_record(dataset: Dataset, query_tokens: Sequence[Hashable]) -> SetRecord:
    """Map external query tokens to a SetRecord without growing the universe.

    Unseen tokens get synthetic ids beyond the universe so they count
    towards ``|Q|`` but match nothing (Section 3.1).  Shared by the
    single-node engine and the sharded engine so external queries intern
    identically everywhere.
    """
    universe = dataset.universe
    phantom = len(universe)
    token_ids = []
    phantom_map: dict[Hashable, int] = {}
    for token in query_tokens:
        token_id = universe.get_id(token)
        if token_id is None:
            if token not in phantom_map:
                phantom_map[token] = phantom
                phantom += 1
            token_id = phantom_map[token]
        token_ids.append(token_id)
    return SetRecord(token_ids)


class LES3:
    """Learning-based exact set similarity search engine.

    The single-node facade: a learned partition of the dataset, the TGM
    filter built over it, and exact bound-based kNN/range/join on top.
    Construct via :meth:`build`; persist with
    :func:`~repro.core.persistence.save_engine`; scale out by handing it
    to :meth:`repro.distributed.ShardedLES3.from_engine`.

    Parameters
    ----------
    dataset : Dataset
        The database of sets the engine answers queries over.
    tgm : TokenGroupMatrix
        A built token-group matrix whose groups cover the dataset.

    Attributes
    ----------
    removed : set of int
        Logically deleted record indices (the persistence tombstone log);
        record slots are never reused.

    Examples
    --------
    >>> from repro import Dataset, LES3
    >>> dataset = Dataset.from_token_lists([["a", "b"], ["b", "c"], ["x", "y"]])
    >>> engine = LES3.build(dataset, num_groups=2)
    >>> engine.knn(["a", "b"], k=1).matches
    [(0, 1.0)]
    >>> engine.range(["b", "c"], threshold=0.3).matches
    [(1, 1.0), (0, 0.3333333333333333)]
    >>> engine.join(0.3).pairs
    [(0, 1, 0.3333333333333333)]
    """

    def __init__(self, dataset: Dataset, tgm: TokenGroupMatrix) -> None:
        self.dataset = dataset
        self.tgm = tgm
        # Logically deleted record indices.  Record slots are never reused,
        # so this only grows; persistence writes it to the manifest and
        # validation treats these as intentional orphans.
        self.removed: set[int] = set()
        # The write-ahead delta segment of the generation this engine was
        # saved to / loaded from (None for in-memory builds).  When set,
        # insert/remove append their routing outcome to the generation's
        # delta.log so a reload replays to exactly this state.
        self._delta = None

    @classmethod
    def build(
        cls,
        dataset: Dataset,
        num_groups: int | None = None,
        partitioner: Partitioner | None = None,
        measure: str | Similarity = "jaccard",
        backend: str = "dense",
        seed: int = 0,
    ) -> "LES3":
        """Partition the dataset and build the TGM.

        Parameters
        ----------
        dataset:
            The database of sets.
        num_groups:
            Target group count — TGM rows, i.e. token groups × size
            bands, never more than this; defaults to the paper's rule of
            thumb ``n ≈ 0.005 · |D|`` (Section 7.5) via
            :func:`suggest_num_groups`.
        partitioner:
            Any :class:`repro.partitioning.Partitioner`; defaults to the L2P
            cascade with PTR representations.
        measure:
            Similarity measure used for bounds and verification.
        backend:
            TGM storage backend, ``"dense"`` or ``"roaring"``.
        seed:
            Seed for the default partitioner.
        """
        if num_groups is None:
            num_groups = suggest_num_groups(len(dataset))
        if partitioner is None:
            from repro.learn.cascade import L2PPartitioner

            partitioner = L2PPartitioner(measure=measure, seed=seed)
        partition = partitioner.partition(dataset, num_groups)
        tgm = TokenGroupMatrix(dataset, partition.groups, measure, backend)
        return cls(dataset, tgm)

    @property
    def measure(self) -> Similarity:
        return self.tgm.measure

    @property
    def num_groups(self) -> int:
        return self.tgm.num_groups

    def _as_record(self, query_tokens: Sequence[Hashable]) -> SetRecord:
        """External query tokens → SetRecord (see :func:`as_query_record`)."""
        return as_query_record(self.dataset, query_tokens)

    @staticmethod
    def _check_deadline(deadline: Deadline | None) -> None:
        """Refuse to start work whose deadline has already passed."""
        if deadline is not None:
            deadline.check("before query execution")

    def knn(
        self,
        query_tokens: Sequence[Hashable],
        k: int,
        deadline: Deadline | None = None,
    ) -> SearchResult:
        """kNN search over external tokens."""
        self._check_deadline(deadline)
        return knn_search(self.dataset, self.tgm, self._as_record(query_tokens), k)

    def range(
        self,
        query_tokens: Sequence[Hashable],
        threshold: float,
        deadline: Deadline | None = None,
    ) -> SearchResult:
        """Range search over external tokens."""
        self._check_deadline(deadline)
        return range_search(
            self.dataset, self.tgm, self._as_record(query_tokens), threshold
        )

    def knn_record(
        self,
        query: SetRecord,
        k: int,
        deadline: Deadline | None = None,
    ) -> SearchResult:
        """kNN search with a pre-interned query record."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self._check_deadline(deadline)
        return knn_search(self.dataset, self.tgm, query, k)

    def range_record(
        self,
        query: SetRecord,
        threshold: float,
        deadline: Deadline | None = None,
    ) -> SearchResult:
        """Range search with a pre-interned query record."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self._check_deadline(deadline)
        return range_search(self.dataset, self.tgm, query, threshold)

    def batch_knn_record(
        self,
        queries: Sequence[SetRecord],
        k: int,
        deadline: Deadline | None = None,
    ) -> list[SearchResult]:
        """kNN for every query (see :func:`repro.core.batch.batch_knn_search`)."""
        from repro.core.batch import batch_knn_search

        self._check_deadline(deadline)
        return batch_knn_search(self.dataset, self.tgm, queries, k)

    def batch_range_record(
        self,
        queries: Sequence[SetRecord],
        threshold: float,
        deadline: Deadline | None = None,
    ) -> list[SearchResult]:
        """Range search for every query; one TGM scan for the whole batch."""
        from repro.core.batch import batch_range_search

        self._check_deadline(deadline)
        return batch_range_search(self.dataset, self.tgm, queries, threshold)

    def join(
        self,
        threshold: float,
        deadline: Deadline | None = None,
    ) -> JoinResult:
        """Exact similarity self-join: all pairs with ``Sim >= threshold``."""
        self._check_deadline(deadline)
        return similarity_self_join(self.dataset, self.tgm, threshold)

    def insert(self, tokens: Sequence[Hashable]) -> tuple[int, int]:
        """Insert a new set (open universe); returns (record index, group id).

        On an engine attached to a saved generation (anything that went
        through ``save``/``load``) the insert is also appended to the
        generation's write-ahead ``delta.log`` — the save stays in sync
        and a reload replays to exactly this state.
        """
        record_index, group_id = insert_set(self.dataset, self.tgm, tokens)
        if self._delta is not None:
            try:
                self._delta.log_insert(tokens, record_index, group_id)
            except FileNotFoundError:
                self._detach_delta()
        return record_index, group_id

    def remove(self, record_index: int) -> int:
        """Logically delete a set; searches no longer return it.

        Durable like :meth:`insert`: an attached generation logs the
        tombstone to ``delta.log``.
        """
        group_id = remove_set(self.tgm, record_index)
        self.removed.add(record_index)
        if self._delta is not None:
            try:
                self._delta.log_remove(record_index, group_id)
            except FileNotFoundError:
                self._detach_delta()
        return group_id

    def _detach_delta(self) -> None:
        """The backing generation vanished (its directory was deleted).

        Durability for a deleted save is meaningless, so the engine
        degrades to what a never-saved one is: fully usable in memory,
        with nothing armed on disk.  The mutation that detected the loss
        is already applied and stays applied.
        """
        self._delta = None

    def tokens_of(self, record_index: int) -> list[Hashable]:
        """External tokens of a stored record (for presenting results)."""
        record = self.dataset.records[record_index]
        return [self.dataset.universe.token_of(token_id) for token_id in record.tokens]

    def index_bytes(self) -> int:
        return self.tgm.byte_size()

    def __repr__(self) -> str:
        return f"LES3(|D|={len(self.dataset)}, groups={self.tgm.num_groups}, measure={self.measure.name!r})"
