"""Binary columnar on-disk format and the mmap-backed dataset view.

The text ``dataset.txt`` is the interchange format — human-auditable,
compatible with the public set-similarity benchmarks — but loading it
materializes every record as Python objects, which caps the database
size at available RAM.  This module adds the *out-of-core* path the
paper's disk experiments assume (Section 7.6): the dataset's CSR arrays
(the exact :class:`~repro.core.columnar.ColumnarView` layout every query
path already verifies against) are written once as a binary file,
``dataset.bin``, and mapped back with ``np.memmap`` so queries touch
only the pages they actually read.

The file is a sequence of little-endian *segments* behind a small JSON
header (see ``docs/formats.md`` for the byte-level reference):

====================  ==========  ===========================================
segment               dtype       contents
====================  ==========  ===========================================
``tokens``            ``<i8``     distinct token ids of every record, CSR-flat
``counts``            ``<i8``     per-token multiplicities, parallel to tokens
``offsets``           ``<i8``     record boundaries (``num_records + 1``)
``sizes``             ``<i8``     full multiset size ``|S|`` per record
``universe_blob``     ``|u1``     UTF-8 token strings, concatenated in id order
``universe_offsets``  ``<i8``     token-string boundaries (``universe + 1``)
====================  ==========  ===========================================

Every segment carries a SHA-256 digest in the header.  Eager
(``mode="memory"``) reads verify digests as they go; mapped
(``mode="mmap"``) opens verify the structural claims that are cheap
without touching the data — magic, header JSON, segment bounds against
the real file size, offset monotonicity — and leave the token payload
digests to :meth:`ColumnarFileReader.verify` (what ``repro validate``
runs).  Every integrity failure raises
:class:`~repro.core.persistence.PersistenceError`.

Token strings use the same normal form as ``dataset.txt`` (``str(token)``
per token), so a binary load and a text load of the same save answer
queries identically.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections.abc import Sequence as SequenceABC
from pathlib import Path
from typing import Iterator, overload

import numpy as np

from repro.core.cache import LRUCache
from repro.core.columnar import ColumnarView, _flatten_records, _grow as _csr_grow
from repro.core.dataset import Dataset
from repro.core.persistence import PersistenceError
from repro.core.sets import SetRecord
from repro.core.tokens import TokenUniverse
from repro.testing.faults import fault_point

__all__ = [
    "COLUMNAR_MAGIC",
    "COLUMNAR_FORMAT_VERSION",
    "ColumnarFileWriter",
    "ColumnarFileReader",
    "MappedColumnarView",
    "LazyRecords",
]

#: First eight bytes of every binary columnar file.
COLUMNAR_MAGIC = b"LES3BIN\x01"

#: Version of the segment layout written by :class:`ColumnarFileWriter`.
COLUMNAR_FORMAT_VERSION = 1

_ALIGN = 64
_SEGMENT_DTYPES = {
    "tokens": "<i8",
    "counts": "<i8",
    "offsets": "<i8",
    "sizes": "<i8",
    "universe_blob": "|u1",
    "universe_offsets": "<i8",
}
_SEGMENT_ORDER = tuple(_SEGMENT_DTYPES)
_READ_MODES = ("mmap", "memory")

# Materialized-record cache size of LazyRecords: bounds the Python-object
# footprint of scalar access patterns without growing with the dataset.
_RECORD_CACHE_CAPACITY = 2048


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _segment_digest(data: bytes | memoryview) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


class ColumnarFileWriter:
    """Writes a dataset's CSR arrays and universe as one binary file.

    Parameters
    ----------
    path : str or Path
        Target file (conventionally ``dataset.bin`` inside an index
        directory); overwritten if present.

    See Also
    --------
    ColumnarFileReader : reads the file back, eagerly or via ``np.memmap``.

    Examples
    --------
    >>> import tempfile, os
    >>> from repro import Dataset
    >>> from repro.storage import ColumnarFileWriter, ColumnarFileReader
    >>> dataset = Dataset.from_token_lists([["a", "b"], ["b", "c", "c"]])
    >>> path = os.path.join(tempfile.mkdtemp(), "dataset.bin")
    >>> header = ColumnarFileWriter(path).write(dataset)
    >>> header["num_records"], header["nnz"], header["universe_size"]
    (2, 4, 3)
    >>> [segment["name"] for segment in header["segments"]]
    ['tokens', 'counts', 'offsets', 'sizes', 'universe_blob', 'universe_offsets']
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def write(self, dataset: Dataset) -> dict:
        """Write ``dataset`` to :attr:`path`; return the header dictionary.

        The CSR arrays come from the dataset's cached
        :meth:`~repro.core.dataset.Dataset.columnar` view (built and
        synced on demand), so the written layout is exactly what the
        verification kernel computes against in memory.  Universe tokens
        are stored as ``str(token)`` — the same normal form as
        ``dataset.txt`` — in id order, so a reload reconstructs the
        identical id assignment.

        Parameters
        ----------
        dataset : Dataset
            The dataset to serialize; records and universe are captured.

        Returns
        -------
        dict
            The header that was written: ``format_version``,
            ``num_records``, ``nnz``, ``universe_size``, and one
            ``segments`` entry per segment with its dtype, element
            count, relative offset, byte length, and SHA-256 digest.
        """
        view = dataset.columnar()
        num_records = view.num_records
        nnz = view.nnz
        token_strings = [str(token) for token in dataset.universe]
        encoded = [token.encode("utf-8") for token in token_strings]
        blob = b"".join(encoded)
        universe_offsets = np.zeros(len(encoded) + 1, dtype="<i8")
        if encoded:
            np.cumsum([len(part) for part in encoded], out=universe_offsets[1:])
        segments = {
            "tokens": np.ascontiguousarray(view.flat_tokens(), dtype="<i8"),
            "counts": np.ascontiguousarray(view.flat_counts(), dtype="<i8"),
            "offsets": np.ascontiguousarray(view._offsets[: num_records + 1], dtype="<i8"),
            "sizes": np.ascontiguousarray(view._sizes[:num_records], dtype="<i8"),
            "universe_blob": np.frombuffer(blob, dtype="|u1"),
            "universe_offsets": universe_offsets,
        }
        entries = []
        cursor = 0
        for name in _SEGMENT_ORDER:
            data = segments[name]
            cursor = _align(cursor)
            entries.append(
                {
                    "name": name,
                    "dtype": _SEGMENT_DTYPES[name],
                    "count": int(data.size),
                    "offset": cursor,
                    "nbytes": int(data.nbytes),
                    "digest": _segment_digest(data.tobytes()),
                }
            )
            cursor += data.nbytes
        header = {
            "format_version": COLUMNAR_FORMAT_VERSION,
            "num_records": num_records,
            "nnz": nnz,
            "universe_size": len(dataset.universe),
            "segments": entries,
        }
        header_bytes = json.dumps(header).encode("utf-8")
        data_start = _align(len(COLUMNAR_MAGIC) + 8 + len(header_bytes))
        with open(self.path, "wb") as handle:
            handle.write(COLUMNAR_MAGIC)
            handle.write(len(header_bytes).to_bytes(8, "little"))
            handle.write(header_bytes)
            for entry in entries:
                handle.write(b"\x00" * (data_start + entry["offset"] - handle.tell()))
                handle.write(segments[entry["name"]].tobytes())
        return header


class ColumnarFileReader:
    """Reads a binary columnar file, eagerly or through ``np.memmap``.

    Parameters
    ----------
    path : str or Path
        A file written by :class:`ColumnarFileWriter`.
    mode : {"mmap", "memory"}, default ``"mmap"``
        ``"mmap"`` maps segments read-only so pages load on first touch
        (segment digests are *not* checked — run :meth:`verify` for a
        full check); ``"memory"`` reads each segment into RAM and
        verifies its digest immediately.

    Raises
    ------
    PersistenceError
        If the magic or header is malformed, a segment's claimed bounds
        exceed the real file size (a truncated file), structural
        invariants fail (offsets not monotone, counts inconsistent with
        the record/nnz totals), or — in ``"memory"`` mode — a segment
        digest does not match.
    FileNotFoundError
        If the file does not exist.

    Examples
    --------
    >>> import tempfile, os
    >>> from repro import Dataset
    >>> from repro.storage import ColumnarFileWriter, ColumnarFileReader
    >>> dataset = Dataset.from_token_lists([["a", "b"], ["b", "c", "c"]])
    >>> path = os.path.join(tempfile.mkdtemp(), "dataset.bin")
    >>> _ = ColumnarFileWriter(path).write(dataset)
    >>> reader = ColumnarFileReader(path, mode="memory")
    >>> reader.segment("tokens").tolist()
    [0, 1, 1, 2]
    >>> reader.verify()                     # every digest checks out
    >>> mapped = ColumnarFileReader(path).dataset()
    >>> [len(record) for record in mapped]  # record 1 is a multiset
    [2, 3]
    >>> sorted(str(token) for token in mapped.universe)
    ['a', 'b', 'c']
    """

    def __init__(self, path: str | Path, mode: str = "mmap") -> None:
        if mode not in _READ_MODES:
            raise ValueError(f"unknown read mode {mode!r}; expected one of {_READ_MODES}")
        self.path = Path(path)
        self.mode = mode
        self._segments: dict[str, np.ndarray] = {}
        fault_point("storage.open", str(self.path))
        file_size = self.path.stat().st_size
        with open(self.path, "rb") as handle:
            magic = handle.read(len(COLUMNAR_MAGIC))
            if magic != COLUMNAR_MAGIC:
                raise PersistenceError(
                    f"{self.path} is not a binary columnar file (bad magic {magic!r})"
                )
            header_size = int.from_bytes(handle.read(8), "little")
            if len(COLUMNAR_MAGIC) + 8 + header_size > file_size:
                raise PersistenceError(
                    f"{self.path} is shorter than its header length field claims "
                    f"({header_size} header bytes) — truncated file"
                )
            try:
                self.header = json.loads(handle.read(header_size).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise PersistenceError(
                    f"binary columnar header in {self.path} is not valid JSON "
                    f"(truncated write or corruption): {error}"
                ) from error
        self._data_start = _align(len(COLUMNAR_MAGIC) + 8 + header_size)
        self._check_header(file_size)

    # -- validation --------------------------------------------------------

    def _check_header(self, file_size: int) -> None:
        header = self.header
        if not isinstance(header, dict) or header.get("format_version") != COLUMNAR_FORMAT_VERSION:
            raise PersistenceError(
                f"unsupported binary columnar format version "
                f"{header.get('format_version') if isinstance(header, dict) else header!r} "
                f"in {self.path}"
            )
        entries = header.get("segments")
        if not isinstance(entries, list) or [e.get("name") for e in entries] != list(_SEGMENT_ORDER):
            raise PersistenceError(
                f"binary columnar header in {self.path} must list the segments "
                f"{list(_SEGMENT_ORDER)} in order"
            )
        self._entries: dict[str, dict] = {}
        for entry in entries:
            name = entry["name"]
            dtype = np.dtype(_SEGMENT_DTYPES[name])
            count, nbytes, offset = entry.get("count"), entry.get("nbytes"), entry.get("offset")
            if (
                not all(isinstance(v, int) and v >= 0 for v in (count, nbytes, offset))
                or entry.get("dtype") != _SEGMENT_DTYPES[name]
                or count * dtype.itemsize != nbytes
            ):
                raise PersistenceError(
                    f"segment {name!r} in {self.path} has an inconsistent header entry"
                )
            if self._data_start + offset + nbytes > file_size:
                raise PersistenceError(
                    f"{self.path} is shorter than its header claims: segment {name!r} "
                    f"needs bytes up to {self._data_start + offset + nbytes}, file has "
                    f"{file_size} — truncated file or tampered header"
                )
            self._entries[name] = entry
        self.num_records = header.get("num_records")
        self.nnz = header.get("nnz")
        self.universe_size = header.get("universe_size")
        for field in ("num_records", "nnz", "universe_size"):
            if not isinstance(getattr(self, field), int) or getattr(self, field) < 0:
                raise PersistenceError(
                    f"binary columnar header in {self.path} has invalid {field!r}"
                )
        expected_counts = {
            "tokens": self.nnz,
            "counts": self.nnz,
            "offsets": self.num_records + 1,
            "sizes": self.num_records,
            "universe_offsets": self.universe_size + 1,
        }
        for name, expected in expected_counts.items():
            if self._entries[name]["count"] != expected:
                raise PersistenceError(
                    f"segment {name!r} in {self.path} holds "
                    f"{self._entries[name]['count']} elements, header totals imply "
                    f"{expected} — corrupt header"
                )
        # The offsets array steers every gather; a corrupt one must never
        # drive out-of-bounds slices.  Checking it touches 8 bytes per
        # record — negligible next to the token payload, which mmap mode
        # deliberately leaves unread (see verify()).
        offsets = self.segment("offsets")
        if self.num_records and (
            offsets[0] != 0
            or offsets[-1] != self.nnz
            or bool(np.any(np.diff(offsets) < 0))
        ):
            raise PersistenceError(
                f"segment 'offsets' in {self.path} is not a monotone prefix-sum "
                f"array covering {self.nnz} entries — corrupt file"
            )
        universe_offsets = self.segment("universe_offsets")
        blob_bytes = self._entries["universe_blob"]["nbytes"]
        if self.universe_size and (
            universe_offsets[0] != 0
            or universe_offsets[-1] != blob_bytes
            or bool(np.any(np.diff(universe_offsets) < 0))
        ):
            raise PersistenceError(
                f"segment 'universe_offsets' in {self.path} is not a monotone "
                f"prefix-sum array covering {blob_bytes} blob bytes — corrupt file"
            )

    def verify(self) -> None:
        """Check every segment's SHA-256 digest (reads the whole file).

        ``mode="memory"`` already verified each segment on first read;
        this method is the full-integrity pass for mapped readers — what
        ``repro validate`` runs on directories that carry a
        ``dataset.bin``.

        Raises
        ------
        PersistenceError
            Naming the first segment whose bytes do not match the digest
            recorded in the header.
        """
        with open(self.path, "rb") as handle:
            for name in _SEGMENT_ORDER:
                entry = self._entries[name]
                handle.seek(self._data_start + entry["offset"])
                actual = _segment_digest(handle.read(entry["nbytes"]))
                if actual != entry["digest"]:
                    raise PersistenceError(
                        f"segment {name!r} in {self.path} digest mismatch (header "
                        f"{entry['digest']!r}, file {actual!r}) — corrupt or tampered"
                    )

    # -- segment access ----------------------------------------------------

    def segment(self, name: str) -> np.ndarray:
        """One segment as an array: a read-only memmap, or verified RAM.

        Arrays are cached per reader, so repeated access is free.  In
        ``"memory"`` mode the first access verifies the segment digest.
        """
        if name not in self._entries:
            raise KeyError(f"unknown segment {name!r}")
        if name not in self._segments:
            fault_point("storage.segment", f"{self.path}:{name}")
            entry = self._entries[name]
            dtype = np.dtype(entry["dtype"])
            offset = self._data_start + entry["offset"]
            count = entry["count"]
            if self.mode == "mmap" and count:
                array = np.memmap(self.path, dtype=dtype, mode="r", offset=offset, shape=(count,))
            else:
                with open(self.path, "rb") as handle:
                    handle.seek(offset)
                    raw = handle.read(entry["nbytes"])
                if self.mode == "memory" and _segment_digest(raw) != entry["digest"]:
                    raise PersistenceError(
                        f"segment {name!r} in {self.path} digest mismatch — corrupt "
                        f"or tampered (header records {entry['digest']!r})"
                    )
                array = np.frombuffer(raw, dtype=dtype).copy()
            self._segments[name] = array
        return self._segments[name]

    # -- reconstruction ----------------------------------------------------

    def universe(self) -> TokenUniverse:
        """Decode the stored token strings into a fresh universe.

        Tokens keep their stored order, so the returned universe assigns
        exactly the ids the CSR arrays reference — unlike a text reload,
        tokens that no record uses keep their slots too.
        """
        blob = self.segment("universe_blob").tobytes()
        offsets = self.segment("universe_offsets").tolist()
        try:
            text = blob.decode("utf-8")
            if len(text) == len(blob):
                # Pure-ASCII blob (the overwhelmingly common case): byte
                # offsets are character offsets, so one decode + plain
                # string slicing replaces a per-token bytes round trip.
                tokens = [
                    text[offsets[i]:offsets[i + 1]] for i in range(self.universe_size)
                ]
            else:
                tokens = [
                    blob[offsets[i]:offsets[i + 1]].decode("utf-8")
                    for i in range(self.universe_size)
                ]
        except UnicodeDecodeError as error:
            # Reachable in mmap mode, whose opens skip the payload digests.
            raise PersistenceError(
                f"universe blob in {self.path} is not valid UTF-8 "
                f"(corrupt or tampered): {error}"
            ) from error
        try:
            return TokenUniverse.from_id_order(tokens)
        except ValueError as error:
            raise PersistenceError(
                f"universe tokens in {self.path} are not distinct: {error}"
            ) from error

    def view(self) -> "MappedColumnarView":
        """The CSR arrays as a :class:`MappedColumnarView` (no records)."""
        return MappedColumnarView(self)

    def dataset(self) -> Dataset:
        """A :class:`~repro.core.dataset.Dataset` over this file.

        The returned dataset shares the reader's (possibly mapped)
        arrays: ``dataset.columnar()`` is the
        :class:`MappedColumnarView`, and ``dataset.records`` is a
        :class:`LazyRecords` sequence that materializes a
        :class:`~repro.core.sets.SetRecord` only when one is actually
        indexed — queries on the columnar verification path never do.
        """
        return Dataset.from_columnar_file(self)


class MappedColumnarView(ColumnarView):
    """A :class:`~repro.core.columnar.ColumnarView` over stored CSR arrays.

    Instead of being built by walking ``dataset.records``, the arrays
    come straight from a :class:`ColumnarFileReader` — read-only
    ``np.memmap`` views in ``"mmap"`` mode, so the token payload stays on
    disk until a query's gather touches it.  Every kernel the base view
    offers (:meth:`~repro.core.columnar.ColumnarView.overlaps`,
    :meth:`~repro.core.columnar.ColumnarView.pairwise_overlaps`, the
    per-query :class:`~repro.core.columnar.GroupVerifier`) works
    unchanged and bit-identically: they only ever *read* the arrays.

    Records appended after mapping (open-universe inserts, delta-log
    replay) land in an in-RAM CSR **tail**: the mapped token payload is
    never copied.  The first growth copies only the small ``offsets`` /
    ``sizes`` arrays into RAM (16 bytes per record) so they can extend;
    new token entries go to separate tail arrays whose logical offsets
    continue from the base ``nnz``, so one offsets array steers every
    kernel and a gather splits transparently between the mapping and the
    tail.  Base records stay page-faulted on demand however many records
    are appended.

    Examples
    --------
    >>> import tempfile, os
    >>> from repro import Dataset
    >>> from repro.storage import ColumnarFileWriter, ColumnarFileReader
    >>> dataset = Dataset.from_token_lists([["a", "b"], ["b", "c"]])
    >>> path = os.path.join(tempfile.mkdtemp(), "dataset.bin")
    >>> _ = ColumnarFileWriter(path).write(dataset)
    >>> view = ColumnarFileReader(path).view()
    >>> type(view).__name__, view.num_records, view.nnz
    ('MappedColumnarView', 2, 4)
    >>> view.tokens_of(1).tolist()          # served straight from the mapping
    [1, 2]
    """

    __slots__ = ("_base_nnz", "_tail_tokens", "_tail_counts")

    def __init__(self, reader: ColumnarFileReader) -> None:
        # Deliberately does NOT call ColumnarView.__init__ (which builds
        # the arrays by walking records): the stored arrays are adopted
        # as-is and the dataset back-reference is attached afterwards by
        # Dataset.from_columnar_file.  np.asarray re-types each memmap as
        # a base ndarray over the SAME mapped buffer (no copy, pages
        # still fault in lazily) — plain ndarray indexing is what the
        # query kernels' gather rates are calibrated for.
        self.dataset = None
        self._sync_lock = threading.Lock()
        self._tokens = np.asarray(reader.segment("tokens"))
        self._counts = np.asarray(reader.segment("counts"))
        self._offsets = np.asarray(reader.segment("offsets"))
        self._sizes = np.asarray(reader.segment("sizes"))
        self._num_records = reader.num_records
        self._nnz = reader.nnz
        # The CSR tail: entries at logical positions >= _base_nnz live in
        # the RAM tail arrays, everything below stays in the mapping.
        self._base_nnz = reader.nnz
        self._tail_tokens: np.ndarray | None = None
        self._tail_counts: np.ndarray | None = None

    def sync(self) -> "MappedColumnarView":
        """Append records added after mapping into the in-RAM CSR tail."""
        if self.dataset is None or len(self.dataset.records) == self._num_records:
            return self  # once per query: stays lock-free
        with self._sync_lock:
            records = self.dataset.records
            if len(records) == self._num_records:
                return self  # another reader appended them meanwhile
            if self._tail_tokens is None or self._tail_counts is None:
                # First growth.  offsets/sizes are 16 bytes per record —
                # copying them to RAM is what lets them extend past the
                # file; the token payload (the part that scales with
                # Σ|S|) stays mapped.
                self._offsets = np.array(self._offsets[: self._num_records + 1], dtype=np.int64)
                self._sizes = np.array(self._sizes[: self._num_records], dtype=np.int64)
                self._tail_tokens = np.empty(0, dtype=np.int64)
                self._tail_counts = np.empty(0, dtype=np.int64)
            flat_tokens, flat_counts, lengths, sizes = _flatten_records(
                records[self._num_records:]
            )
            extra_nnz = len(flat_tokens)
            extra_rows = len(lengths)
            used_tail = self._nnz - self._base_nnz
            self._tail_tokens = _csr_grow(self._tail_tokens, used_tail, extra_nnz)
            self._tail_counts = _csr_grow(self._tail_counts, used_tail, extra_nnz)
            self._tail_tokens[used_tail:used_tail + extra_nnz] = flat_tokens
            self._tail_counts[used_tail:used_tail + extra_nnz] = flat_counts
            self._offsets = _csr_grow(self._offsets, self._num_records + 1, extra_rows)
            tail = self._offsets[self._num_records] + np.cumsum(lengths, dtype=np.int64)
            self._offsets[self._num_records + 1:self._num_records + 1 + extra_rows] = tail
            self._sizes = _csr_grow(self._sizes, self._num_records, extra_rows)
            self._sizes[self._num_records:self._num_records + extra_rows] = sizes
            self._nnz += extra_nnz
            self._num_records += extra_rows  # last: publishes the rows to lock-free readers
        return self

    def tokens_of(self, record_index: int) -> np.ndarray:
        start, stop = int(self._offsets[record_index]), int(self._offsets[record_index + 1])
        if stop <= self._base_nnz:
            return self._tokens[start:stop]
        assert self._tail_tokens is not None
        return self._tail_tokens[start - self._base_nnz:stop - self._base_nnz]

    def counts_of(self, record_index: int) -> np.ndarray:
        start, stop = int(self._offsets[record_index]), int(self._offsets[record_index + 1])
        if stop <= self._base_nnz:
            return self._counts[start:stop]
        assert self._tail_counts is not None
        return self._tail_counts[start - self._base_nnz:stop - self._base_nnz]

    def flat_tokens(self) -> np.ndarray:
        if self._nnz == self._base_nnz:
            return self._tokens[: self._nnz]
        assert self._tail_tokens is not None
        return np.concatenate(
            [self._tokens, self._tail_tokens[: self._nnz - self._base_nnz]]
        )

    def flat_counts(self) -> np.ndarray:
        if self._nnz == self._base_nnz:
            return self._counts[: self._nnz]
        assert self._tail_counts is not None
        return np.concatenate(
            [self._counts, self._tail_counts[: self._nnz - self._base_nnz]]
        )

    def byte_size(self) -> int:
        total = super().byte_size()
        if self._tail_tokens is not None:
            assert self._tail_counts is not None
            total += self._tail_tokens.nbytes + self._tail_counts.nbytes
        return total

    def _gather(self, members: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        starts = self._offsets[members]
        lengths = self._offsets[members + 1] - starts
        total = int(lengths.sum())
        boundaries = np.cumsum(lengths) - lengths
        gather = np.arange(total, dtype=np.int64) + np.repeat(starts - boundaries, lengths)
        # A record lies wholly in the mapping or wholly in the RAM tail, so
        # which side a gather touches is decided per record, not per entry
        # — and not at all while the tail is empty.
        tail_records = starts >= self._base_nnz if self._nnz > self._base_nnz else None
        if tail_records is None or not tail_records.any():
            return self._tokens[gather], self._counts[gather], boundaries, lengths
        assert self._tail_tokens is not None and self._tail_counts is not None
        in_tail = np.repeat(tail_records, lengths)
        tokens = np.empty(total, dtype=np.int64)
        counts = np.empty(total, dtype=np.int64)
        in_base = ~in_tail
        base_gather = gather[in_base]
        tail_gather = gather[in_tail] - self._base_nnz
        tokens[in_base] = self._tokens[base_gather]
        counts[in_base] = self._counts[base_gather]
        tokens[in_tail] = self._tail_tokens[tail_gather]
        counts[in_tail] = self._tail_counts[tail_gather]
        return tokens, counts, boundaries, lengths


class LazyRecords(SequenceABC):
    """A list-like record container that materializes records on demand.

    Stands in for ``dataset.records`` on a mapped dataset: indexing
    builds the :class:`~repro.core.sets.SetRecord` from the view's CSR
    slices (a thread-safe :class:`~repro.core.cache.LRUCache` keeps
    recently touched records hot — thread-pool queries share the
    dataset), iterating yields every record in order, and :meth:`append`
    accepts new records into an in-memory overlay so open-universe
    inserts keep working.  Record indices — the ids every engine
    reports — are identical to a text load's by construction.
    """

    __slots__ = ("_view", "_base", "_overlay", "_cache")

    def __init__(self, view: MappedColumnarView) -> None:
        self._view = view
        self._base = view.num_records
        self._overlay: list[SetRecord] = []
        self._cache = LRUCache(_RECORD_CACHE_CAPACITY)

    def __len__(self) -> int:
        return self._base + len(self._overlay)

    def _materialize(self, index: int) -> SetRecord:
        def build() -> SetRecord:
            view = self._view
            start, stop = int(view._offsets[index]), int(view._offsets[index + 1])
            tokens = view._tokens[start:stop]
            if int(view._sizes[index]) != stop - start:  # multiset: expand counts
                tokens = np.repeat(tokens, view._counts[start:stop])
            return SetRecord(tokens.tolist())

        return self._cache.get_or_build(index, build)

    @overload
    def __getitem__(self, index: int) -> SetRecord: ...
    @overload
    def __getitem__(self, index: slice) -> list[SetRecord]: ...

    def __getitem__(self, index: int | slice) -> SetRecord | list[SetRecord]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"record index {index} out of range")
        if index >= self._base:
            return self._overlay[index - self._base]
        return self._materialize(index)

    def __iter__(self) -> Iterator[SetRecord]:
        for index in range(len(self)):
            yield self[index]

    def append(self, record: SetRecord) -> None:
        """Accept an appended record (open-universe insert overlay)."""
        self._overlay.append(record)
