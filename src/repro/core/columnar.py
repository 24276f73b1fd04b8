"""Columnar (CSR) view of a dataset and the vectorized verification kernel.

Candidate verification — computing the exact similarity of the query
against every member of a surviving group — dominates query cost once TGM
pruning has done its job.  The scalar path walks a Python frozenset per
record; this module replaces that walk with numpy over a cache-friendly
columnar layout:

* :class:`ColumnarView` stores the whole database in CSR form: one flat
  sorted ``int64`` array of distinct token ids, a parallel multiplicity
  array (``1`` everywhere for plain sets), per-record offsets into the
  flat arrays, and the precomputed multiset size ``|S|`` of every record.
  The view is built once per :class:`~repro.core.dataset.Dataset` (cached
  on the dataset) and kept incrementally fresh: inserts append to the
  tail with amortized-O(1) capacity doubling, and logical deletes need no
  maintenance at all because group membership, not the layout, defines
  liveness.

* :class:`GroupVerifier` scores *all members of a group in one shot*:
  the query's token multiplicities are scattered into a universe-sized
  lookup array once per query; verifying a group gathers the members'
  concatenated CSR slices, reads each token's query-side multiplicity
  from the lookup, takes the elementwise ``min`` (the multiset overlap
  contribution), and reduces per record with ``np.add.reduceat``.  Exact
  similarities for the whole group then come out of one call to the
  measure's vectorized :meth:`~repro.core.similarity.Similarity.from_overlaps`.

The kernel computes the very same integer overlaps and applies the very
same float64 operations as the scalar ``overlap()`` path, so similarities
are bit-identical.  The scalar walk remains only as the test oracle,
reachable through :mod:`repro.testing.oracle`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.testing import oracle

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.dataset import Dataset
    from repro.core.sets import SetRecord
    from repro.core.similarity import Similarity

__all__ = [
    "ColumnarView",
    "GroupVerifier",
    "make_verifier",
    "DEFAULT_TILE_CELLS",
]

_MIN_CAPACITY = 1024

# Tiling budget for blockwise pairwise kernels: the largest intermediate
# (a dense per-row count table or a gathered contribution buffer) holds at
# most this many int64 cells (64K cells = 512 KiB), however large the
# record blocks are.  Small enough that a tile's temporaries are recycled
# inside the malloc heap: at 1 MiB per buffer glibc trims the freed heap
# top after each tile and the next tile faults it back in, where 512 KiB
# buffers stay resident.  It is also the default chunk budget of the
# prefix-filter self-join (core/join.py), whose per-chunk candidate and
# lookup buffers are sized by it.
DEFAULT_TILE_CELLS = 1 << 16


def _grow(array: np.ndarray, used: int, extra: int) -> np.ndarray:
    """Return ``array`` with capacity for ``used + extra`` (amortized doubling)."""
    need = used + extra
    if need <= len(array):
        return array
    capacity = max(2 * len(array), need, _MIN_CAPACITY)
    grown = np.empty(capacity, dtype=array.dtype)
    grown[:used] = array[:used]
    return grown


def _flatten_records(
    records: Sequence["SetRecord"],
) -> tuple[list[int], list[int], list[int], list[int]]:
    """CSR rows of ``records``: flat tokens, flat counts, row lengths, set sizes."""
    flat_tokens: list[int] = []
    flat_counts: list[int] = []
    lengths: list[int] = []
    sizes: list[int] = []
    for record in records:
        if record.is_multiset:
            items = sorted(record.counts().items())
            flat_tokens.extend(token for token, _ in items)
            flat_counts.extend(count for _, count in items)
            lengths.append(len(items))
        else:
            flat_tokens.extend(record.tokens)
            flat_counts.extend([1] * len(record.tokens))
            lengths.append(len(record.tokens))
        sizes.append(len(record))
    return flat_tokens, flat_counts, lengths, sizes


class ColumnarView:
    """CSR layout of a dataset: flat tokens + multiplicities + offsets + sizes.

    Record ``i`` occupies ``tokens[offsets[i]:offsets[i+1]]`` (distinct
    token ids, sorted ascending) with parallel per-token multiplicities in
    ``counts``; ``sizes[i]`` is the full multiset size ``|S_i|`` including
    duplicates.  :meth:`sync` appends any records the dataset gained since
    the last call; it never rewrites existing rows (records are immutable
    and deletes are logical), so a view stays valid across updates.

    :meth:`sync` is safe under concurrent *readers* of one dataset
    (several query batches of a service, pool-thread shard builds):
    appends are serialized by a lock and ``_num_records`` is published
    last, so a reader that sees the view caught up sees complete arrays.
    Readers racing a *writer* of the dataset are the caller's to exclude
    (the query service's engine gate does).
    """

    __slots__ = (
        "dataset", "_tokens", "_counts", "_offsets", "_sizes", "_num_records", "_nnz",
        "_sync_lock",
    )

    def __init__(self, dataset: "Dataset") -> None:
        self.dataset = dataset
        self._sync_lock = threading.Lock()
        self._tokens = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        self._offsets = np.zeros(1, dtype=np.int64)
        self._sizes = np.empty(0, dtype=np.int64)
        self._num_records = 0
        self._nnz = 0
        self.sync()

    # -- maintenance -------------------------------------------------------

    def sync(self) -> "ColumnarView":
        """Append any records added to the dataset since the last sync."""
        if len(self.dataset.records) == self._num_records:
            return self  # once per query: stays lock-free
        with self._sync_lock:
            records = self.dataset.records
            if len(records) == self._num_records:
                return self  # another reader appended them meanwhile
            flat_tokens, flat_counts, lengths, sizes = _flatten_records(
                records[self._num_records:]
            )
            extra_nnz = len(flat_tokens)
            extra_rows = len(lengths)
            self._tokens = _grow(self._tokens, self._nnz, extra_nnz)
            self._counts = _grow(self._counts, self._nnz, extra_nnz)
            self._tokens[self._nnz:self._nnz + extra_nnz] = flat_tokens
            self._counts[self._nnz:self._nnz + extra_nnz] = flat_counts
            self._offsets = _grow(self._offsets, self._num_records + 1, extra_rows)
            tail = self._offsets[self._num_records] + np.cumsum(lengths, dtype=np.int64)
            self._offsets[self._num_records + 1:self._num_records + 1 + extra_rows] = tail
            self._sizes = _grow(self._sizes, self._num_records, extra_rows)
            self._sizes[self._num_records:self._num_records + extra_rows] = sizes
            self._nnz += extra_nnz
            self._num_records += extra_rows  # last: publishes the rows to lock-free readers
        return self

    # -- introspection -----------------------------------------------------

    @property
    def num_records(self) -> int:
        """Records materialized so far (equals ``len(dataset)`` after sync)."""
        return self._num_records

    @property
    def nnz(self) -> int:
        """Total distinct-token entries across all materialized records."""
        return self._nnz

    def tokens_of(self, record_index: int) -> np.ndarray:
        """CSR token slice of one record (distinct ids, sorted)."""
        return self._tokens[self._offsets[record_index]:self._offsets[record_index + 1]]

    def counts_of(self, record_index: int) -> np.ndarray:
        """Per-token multiplicities parallel to :meth:`tokens_of`."""
        return self._counts[self._offsets[record_index]:self._offsets[record_index + 1]]

    def size_of(self, record_index: int) -> int:
        """Full multiset size ``|S|`` of one record."""
        return int(self._sizes[record_index])

    def flat_tokens(self) -> np.ndarray:
        """The used portion of the flat token array (all records, CSR order).

        Writers serialize this instead of reaching into ``_tokens``
        directly: a mapped view with an in-RAM tail overrides it to
        present base + tail as one logically contiguous array.
        """
        return self._tokens[: self._nnz]

    def flat_counts(self) -> np.ndarray:
        """The used portion of the flat multiplicity array (see :meth:`flat_tokens`)."""
        return self._counts[: self._nnz]

    def byte_size(self) -> int:
        """Bytes held by the CSR arrays (capacity, not just used cells)."""
        return sum(a.nbytes for a in (self._tokens, self._counts, self._offsets, self._sizes))

    def sizes_of(self, record_indices: Sequence[int]) -> np.ndarray:
        """Full multiset sizes of the listed records, as an int64 vector."""
        return self._sizes[np.asarray(record_indices, dtype=np.int64)]

    def tokens_of_records(self, record_indices: Sequence[int]) -> np.ndarray:
        """Distinct token ids of the listed records, concatenated.

        Tokens shared between records appear once per record (callers
        that need the union apply ``np.unique``).  This is the vectorized
        replacement for walking ``record.distinct`` per record — TGM bit
        construction, shard vocabularies, and join profiles all build
        from it, so a mapped dataset is indexed without materializing a
        single Python record.
        """
        members = np.asarray(record_indices, dtype=np.int64)
        if members.size == 0:
            return np.zeros(0, dtype=np.int64)
        tokens, _, _, _ = self._gather(members)
        return tokens

    # -- verification ------------------------------------------------------

    def verifier(self, query: "SetRecord", measure: "Similarity") -> "GroupVerifier":
        """A per-query kernel scoring whole groups against ``query``."""
        self.sync()
        return GroupVerifier(self, query, measure)

    def _gather(self, members: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated CSR slices of the listed records.

        Returns ``(tokens, counts, boundaries, lengths)``: the records'
        token and multiplicity entries back to back, the exclusive prefix
        sums marking where each record starts, and the per-record entry
        counts.
        """
        starts = self._offsets[members]
        lengths = self._offsets[members + 1] - starts
        total = int(lengths.sum())
        boundaries = np.cumsum(lengths) - lengths  # exclusive prefix sums
        gather = np.arange(total, dtype=np.int64) + np.repeat(starts - boundaries, lengths)
        return self._tokens[gather], self._counts[gather], boundaries, lengths

    def overlaps(self, query_counts: np.ndarray, member_indices: Sequence[int]) -> np.ndarray:
        """Multiset overlap of the scattered query with each listed record.

        ``query_counts`` is the universe-sized lookup array holding
        ``count_Q(t)`` at index ``t`` (zero elsewhere); the result is
        ``Σ_t min(count_Q(t), count_S(t))`` per member, an ``int64``
        vector aligned with ``member_indices``.
        """
        members = np.asarray(member_indices, dtype=np.int64)
        if members.size == 0:
            return np.zeros(0, dtype=np.int64)
        tokens, counts, boundaries, _ = self._gather(members)
        contributions = np.minimum(counts, query_counts[tokens])
        return np.add.reduceat(contributions, boundaries)

    def pairwise_overlaps(
        self,
        row_indices: Sequence[int],
        col_indices: Sequence[int],
        max_cells: int = DEFAULT_TILE_CELLS,
    ) -> np.ndarray:
        """Full pairwise multiset overlap matrix between two record blocks.

        ``result[i, j] = Σ_t min(count_rows[i](t), count_cols[j](t))`` —
        the exact multiset overlap of every row record with every column
        record, as an int64 matrix of shape ``(len(rows), len(cols))``:
        one call scores every pair of two record blocks.

        Memory stays bounded by blockwise tiling: a row block is scattered
        into a dense per-row count table over only the block's *distinct*
        tokens (not the whole universe — a column token the block never
        holds maps to a trailing all-zero sentinel column), and column
        records are gathered in chunks whose contribution buffer also
        stays under ``max_cells`` — so arbitrarily large groups never
        materialize more than ~2·``max_cells`` int64 cells of
        intermediates (plus the result matrix itself), and the cost per
        call scales with the records' entries, not the universe width.
        """
        self.sync()
        rows = np.asarray(row_indices, dtype=np.int64)
        cols = np.asarray(col_indices, dtype=np.int64)
        result = np.zeros((len(rows), len(cols)), dtype=np.int64)
        if rows.size == 0 or cols.size == 0:
            return result
        max_cells = max(int(max_cells), 1)
        row_nnz = self._offsets[rows + 1] - self._offsets[rows]
        col_nnz = self._offsets[cols + 1] - self._offsets[cols]
        col_cum = np.cumsum(col_nnz)
        r0 = 0
        while r0 < len(rows):
            # Grow the row block while its count table — at most
            # (rows × block entries + sentinel) cells — fits the budget.
            r1 = r0 + 1
            nnz = int(row_nnz[r0])
            while r1 < len(rows):
                grown = nnz + int(row_nnz[r1])
                if (r1 + 1 - r0) * (grown + 1) > max_cells:
                    break
                nnz = grown
                r1 += 1
            block = rows[r0:r1]
            tokens, counts, _, lengths = self._gather(block)
            vocab = np.unique(tokens)
            if vocab.size:
                table = np.zeros((len(block), vocab.size + 1), dtype=np.int64)
                positions = np.searchsorted(vocab, tokens)
                table[np.repeat(np.arange(len(block)), lengths), positions] = counts
                # Column chunks sized so the (block × chunk-nnz)
                # contribution buffer respects the cell budget; always at
                # least one record.
                budget = max(max_cells // len(block), 1)
                c0 = 0
                while c0 < len(cols):
                    base = int(col_cum[c0 - 1]) if c0 else 0
                    c1 = max(
                        int(np.searchsorted(col_cum, base + budget, side="right")),
                        c0 + 1,
                    )
                    chunk_tokens, chunk_counts, boundaries, _ = self._gather(cols[c0:c1])
                    positions = np.searchsorted(vocab, chunk_tokens)
                    positions[
                        (positions == vocab.size)
                        | (vocab[np.minimum(positions, vocab.size - 1)] != chunk_tokens)
                    ] = vocab.size  # tokens outside the block → zero column
                    contributions = np.minimum(
                        chunk_counts[None, :], table[:, positions]
                    )
                    result[r0:r1, c0:c1] = np.add.reduceat(
                        contributions, boundaries, axis=1
                    )
                    c0 = c1
            r0 = r1
        return result


class GroupVerifier:
    """Vectorized exact verification of one query against record groups.

    Built once per query (scattering the query's token multiplicities into
    a universe-sized lookup array); calling it with a group's member
    indices returns the exact similarity of every member, bit-identical to
    the scalar ``measure(query, record)`` walk.
    """

    __slots__ = ("view", "measure", "query_size", "_query", "_query_counts")

    def __init__(self, view: ColumnarView, query: "SetRecord", measure: "Similarity") -> None:
        self.view = view
        self.measure = measure
        self.query_size = len(query)
        self._query = query
        # The O(|universe|) scatter is deferred to the first verification:
        # a query whose every group is pruned never pays for it.
        self._query_counts: np.ndarray | None = None

    def _scatter(self) -> np.ndarray:
        if self._query_counts is None:
            width = len(self.view.dataset.universe)
            scattered = np.zeros(width, dtype=np.int64)
            for token, count in self._query.counts().items():
                # Tokens at or beyond the universe are phantoms (Section
                # 3.1): they count towards |Q| but overlap no stored record.
                if token < width:
                    scattered[token] = count
            self._query_counts = scattered
        return self._query_counts

    def __call__(self, member_indices: Sequence[int]) -> np.ndarray:
        """Exact similarities for every member, aligned with the input order."""
        members = np.asarray(member_indices, dtype=np.int64)
        shared = self.view.overlaps(self._scatter(), members)
        return self.measure.from_overlaps(shared, self.query_size, self.view._sizes[members])


def make_verifier(
    dataset: "Dataset",
    query: "SetRecord",
    measure: "Similarity",
    mode: str = "columnar",
) -> GroupVerifier | None:
    """The query's verification kernel over the dataset's cached CSR view.

    Returns ``None`` — which the group-visit helpers take as "verify one
    record at a time with ``measure(query, record)``" — only while
    :func:`repro.testing.oracle.armed` is active.  ``mode`` survives for
    callers that still name the kernel; ``"columnar"`` is its one value.
    """
    if mode != "columnar":
        raise ValueError(f"unknown verification kernel {mode!r}; the only one is 'columnar'")
    if oracle.active():
        return None
    return dataset.columnar().verifier(query, measure)
