"""TGM — the token-group matrix index (Section 3).

``M[g, t] = 1`` iff some set in group ``g`` contains token ``t``
(Equation 1).  Given a query, the group bound is derived from the number of
query tokens covered by each group's vocabulary (Equation 2, generalised to
any measure satisfying the TGM Applicability Property via
:meth:`repro.core.similarity.Similarity.group_upper_bound`) and from the
range of its members' set sizes, which the matrix keeps beside the bits
(:meth:`TokenGroupMatrix.bounds_from_counts`).

Two storage backends are provided:

* ``dense`` — a ``numpy`` boolean matrix; bound computation for all groups is
  one column-gather + row-sum, the fastest option in pure Python.
* ``roaring`` — one :class:`repro.bitmap.RoaringBitmap` per group, matching
  the paper's Roaring-compressed deployment; used for the index-size
  experiment (Figure 11) and large sparse universes.

Both backends support growth: new sets set bits in an existing row, and new
tokens extend the universe (Section 6).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.bitmap.roaring import RoaringBitmap
from repro.core.dataset import Dataset
from repro.core.sets import SetRecord
from repro.core.similarity import Similarity, get_measure

__all__ = ["TokenGroupMatrix"]


class TokenGroupMatrix:
    """Bitmap index recording which tokens appear in which group.

    Parameters
    ----------
    dataset:
        The database the index is built over.
    groups:
        Record-index lists, one per group (typically ``Partition.groups``).
    measure:
        Similarity measure (name or instance); defines the group bound.
    backend:
        ``"dense"`` (numpy bool matrix) or ``"roaring"``.
    """

    def __init__(
        self,
        dataset: Dataset,
        groups: Sequence[Sequence[int]],
        measure: str | Similarity = "jaccard",
        backend: str = "dense",
    ) -> None:
        if backend not in ("dense", "roaring"):
            raise ValueError(f"unknown TGM backend {backend!r}")
        self.measure = get_measure(measure)
        self.backend = backend
        self.group_members: list[list[int]] = [list(group) for group in groups]
        # int64 copies of the member lists for the verification kernel,
        # built on first use; ``register``/``unregister`` — the only
        # in-place mutators of ``group_members`` — drop the touched group's.
        self._member_arrays: list[np.ndarray | None] = [None] * len(self.group_members)
        self._group_of: dict[int, int] = {
            record_index: group_id
            for group_id, members in enumerate(self.group_members)
            for record_index in members
        }
        self._universe_size = len(dataset.universe)
        # Per group, every member's multiset size lies in [_size_lo, _size_hi]
        # ([0, 0] for an empty group).  Like the bits, the range may be
        # loose — after ``unregister`` — but never too narrow.
        self._size_lo = np.zeros(len(self.group_members), dtype=np.int64)
        self._size_hi = np.zeros(len(self.group_members), dtype=np.int64)
        if backend == "dense":
            self._matrix = np.zeros((len(self.group_members), self._universe_size), dtype=bool)
            self._bitmaps: list[RoaringBitmap] | None = None
        else:
            self._matrix = None
            self._bitmaps = [RoaringBitmap() for _ in self.group_members]
        self._build_bits(dataset)

    # -- construction helpers -------------------------------------------------

    def _build_bits(self, dataset: Dataset) -> None:
        """Flip every group's token bits and set its size range from its current membership.

        When the dataset already carries a columnar view (always true for
        mapped datasets, and for any dataset that has answered a columnar
        query), the tokens come from one vectorized CSR gather per group —
        no Python record is materialized, which is what keeps
        ``mode="mmap"`` index rebuilds out-of-core.  Otherwise the
        original record walk runs; both paths set the identical bits.
        """
        self._size_lo[:] = 0
        self._size_hi[:] = 0
        view = dataset._columnar
        if view is not None:
            view.sync()
            for group_id, members in enumerate(self.group_members):
                if members:
                    tokens = view.tokens_of_records(members)
                    if self._matrix is not None:
                        self._matrix[group_id, tokens] = True
                    else:
                        self._bitmaps[group_id].update(tokens.tolist())
                    sizes = view.sizes_of(members)
                    self._size_lo[group_id] = sizes.min()
                    self._size_hi[group_id] = sizes.max()
        else:
            for group_id, members in enumerate(self.group_members):
                for record_index in members:
                    self._set_bits(group_id, dataset.records[record_index].distinct)
                if members:
                    sizes = [len(dataset.records[record_index]) for record_index in members]
                    self._size_lo[group_id] = min(sizes)
                    self._size_hi[group_id] = max(sizes)

    def _set_bits(self, group_id: int, token_ids: Iterable[int]) -> None:
        if self._matrix is not None:
            self._matrix[group_id, list(token_ids)] = True
        else:
            self._bitmaps[group_id].update(token_ids)

    @property
    def num_groups(self) -> int:
        return len(self.group_members)

    @property
    def universe_size(self) -> int:
        return self._universe_size

    def members_of(self, group_ids: Iterable[int]) -> np.ndarray:
        """Record indices of the listed groups as one ``int64`` array.

        Groups come in the order given and members in list order — the
        candidate order of a per-group walk.  The result is a fresh array;
        the per-group arrays it is concatenated from are cached.
        """
        arrays: list[np.ndarray] = []
        for group_id in group_ids:
            cached = self._member_arrays[group_id]
            if cached is None:
                cached = np.array(self.group_members[group_id], dtype=np.int64)
                self._member_arrays[group_id] = cached
            arrays.append(cached)
        if not arrays:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(arrays)

    def size_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """Per group, ``(lo, hi)`` with ``lo <= |S| <= hi`` for every member.

        Copies.  An empty group reports ``[0, 0]``.  After ``unregister``
        the range may be wider than the live members need (sound, like a
        stale bit); :meth:`rebuild_bits` re-tightens it.
        """
        return self._size_lo.copy(), self._size_hi.copy()

    def contains(self, group_id: int, token_id: int) -> bool:
        """``M[g, t]`` as a boolean."""
        if token_id >= self._universe_size:
            return False
        if self._matrix is not None:
            return bool(self._matrix[group_id, token_id])
        return token_id in self._bitmaps[group_id]

    def group_vocabulary_size(self, group_id: int) -> int:
        """``|GS_g|`` — number of distinct tokens present in group ``g``."""
        if self._matrix is not None:
            return int(self._matrix[group_id].sum())
        return len(self._bitmaps[group_id])

    # -- bound computation ------------------------------------------------------

    def covered_counts(
        self, token_ids: Sequence[int], weights: Sequence[int] | None = None
    ) -> np.ndarray:
        """``|Q ∩ GS_g|`` for every group, given the query's known token ids.

        ``weights`` are the query-side multiplicities (multiset queries): a
        group whose vocabulary contains token ``t`` may hold a set carrying
        ``t`` with any multiplicity, so the best-case overlap contributes
        the *full* query count of ``t`` (Theorem 3.1's tightness argument).
        Omitting ``weights`` treats the query as a plain set.
        """
        if self._matrix is not None:
            if not token_ids:
                return np.zeros(self.num_groups, dtype=np.int64)
            present = self._matrix[:, token_ids]
            if weights is None:
                return present.sum(axis=1, dtype=np.int64)
            return present @ np.asarray(weights, dtype=np.int64)
        if not token_ids:
            return np.zeros(self.num_groups, dtype=np.int64)
        query_bitmap = RoaringBitmap(token_ids)
        if weights is None:
            return np.array(
                [bitmap.intersection_cardinality(query_bitmap) for bitmap in self._bitmaps],
                dtype=np.int64,
            )
        # Weighted: intersect each group once with the query bitmap, then
        # sum the weights of the covered tokens via a boolean mask — no
        # per-token Python membership loop.
        tokens = np.asarray(token_ids, dtype=np.int64)
        token_weights = np.asarray(weights, dtype=np.int64)
        counts = np.zeros(self.num_groups, dtype=np.int64)
        for group_id, bitmap in enumerate(self._bitmaps):
            covered = bitmap.intersection(query_bitmap)
            if len(covered):
                hits = np.fromiter(covered, dtype=np.int64)
                counts[group_id] = token_weights[np.isin(tokens, hits)].sum()
        return counts

    def upper_bounds(
        self,
        token_ids: Sequence[int],
        query_size: int,
        weights: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Similarity upper bound between the query and every group.

        ``token_ids`` are the query tokens known to the universe;
        ``query_size`` is the full ``|Q|`` (duplicates and unseen tokens
        included — Section 3.1's handling of out-of-universe tokens);
        ``weights`` are per-token query multiplicities for multiset queries.
        """
        counts = self.covered_counts(token_ids, weights)
        return self.bounds_from_counts(counts, query_size)

    def bounds_from_counts(self, counts: np.ndarray, query_size: int) -> np.ndarray:
        """Per-group similarity upper bounds from one query's covered counts.

        The only place covered counts become group bounds — the single
        query path, the batch loops and the sharded batch path all call
        it, so every path prunes with the same numbers.  It hands the
        counts and the groups' member-size ranges to
        :meth:`~repro.core.similarity.Similarity.sized_bounds`.
        """
        return self.measure.sized_bounds(counts, query_size, self._size_lo, self._size_hi)

    # -- updates (Section 6) -----------------------------------------------------

    def extend_universe(self, new_size: int) -> None:
        """Grow the token dimension to ``new_size`` (new columns all zero)."""
        if new_size < self._universe_size:
            raise ValueError("the token universe can only grow")
        if new_size == self._universe_size:
            return
        if self._matrix is not None:
            extra = np.zeros((self.num_groups, new_size - self._universe_size), dtype=bool)
            self._matrix = np.concatenate([self._matrix, extra], axis=1)
        self._universe_size = new_size

    def register(self, group_id: int, record_index: int, record: SetRecord) -> None:
        """Insert a new record into a group and flip its token bits."""
        max_token = record.tokens[-1]
        if max_token >= self._universe_size:
            self.extend_universe(max_token + 1)
        size = len(record)
        members = self.group_members[group_id]
        if members:
            self._size_lo[group_id] = min(int(self._size_lo[group_id]), size)
            self._size_hi[group_id] = max(int(self._size_hi[group_id]), size)
        else:
            # No live member to cover (an emptied group's stale range may go).
            self._size_lo[group_id] = self._size_hi[group_id] = size
        members.append(record_index)
        self._member_arrays[group_id] = None
        self._group_of[record_index] = group_id
        self._set_bits(group_id, record.distinct)

    def unregister(self, record_index: int) -> int:
        """Remove a record from its group; returns the group id.

        The record→group map makes finding the group O(1); removing the
        record from its membership list is O(group size).  Token bits are
        *not* cleared (other members may share them, and a spurious bit
        only weakens pruning, never correctness); neither is the group's
        size range narrowed, for the same reason.  Heavily-deleted groups
        can be refreshed with :meth:`rebuild_bits`.
        """
        group_id = self._group_of.pop(record_index, None)
        if group_id is None:
            raise KeyError(f"record {record_index} is not registered in any group")
        self.group_members[group_id].remove(record_index)
        self._member_arrays[group_id] = None
        return group_id

    def rebuild_bits(self, dataset: Dataset) -> None:
        """Recompute every group's bits and size range from its current membership.

        After deletions the matrix can carry bits — and size ranges — no
        surviving member needs; they are sound but loosen the bounds.  A
        rebuild restores tightness in ``O(Σ |S|)`` without touching the
        partitioning.
        """
        if self._matrix is not None:
            self._matrix[:, :] = False
        else:
            self._bitmaps = [RoaringBitmap() for _ in self.group_members]
        self._build_bits(dataset)

    # -- size accounting -----------------------------------------------------------

    def byte_size(self) -> int:
        """Approximate index size in bytes.

        Dense: one bit per matrix cell.  Roaring: the sum of compressed
        container sizes.  Group membership lists are part of the data layout,
        not the filter, and are excluded (consistent across all methods in
        the Figure 11 comparison).
        """
        if self._matrix is not None:
            return (self._matrix.size + 7) // 8
        return sum(bitmap.byte_size() for bitmap in self._bitmaps)

    def run_optimize(self) -> None:
        """Run-compress the roaring backend (no-op for dense)."""
        if self._bitmaps is not None:
            for bitmap in self._bitmaps:
                bitmap.run_optimize()

    def __repr__(self) -> str:
        return (
            f"TokenGroupMatrix(groups={self.num_groups}, tokens={self._universe_size}, "
            f"backend={self.backend!r}, measure={self.measure.name!r})"
        )
