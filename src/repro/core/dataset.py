"""Dataset container: a collection of set records over a token universe.

This is the ``D`` of the paper.  It owns the :class:`TokenUniverse` and the
list of :class:`SetRecord` instances, exposes the statistics reported in
Table 2, and offers persistence in the standard "one set per line,
space-separated tokens" format used by the public set-similarity benchmarks
(KOSARAK et al.).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Sequence

from repro.core.sets import SetRecord
from repro.core.tokens import TokenUniverse

if TYPE_CHECKING:
    from repro.core.columnar import ColumnarView
    from repro.storage.columnar_file import ColumnarFileReader

__all__ = ["Dataset", "DatasetStats", "is_text_token"]


def is_text_token(token: Hashable) -> bool:
    """Whether the one-set-per-line text format can carry ``token``.

    A line is its tokens' ``str`` forms joined by spaces and
    :meth:`Dataset.load` splits it on whitespace again, so a token whose
    string is empty or holds whitespace would come back as zero or
    several tokens — while ``dataset.bin`` stores it whole, making one
    saved index answer differently per load mode.  Stored tokens must
    satisfy this (inserts and the text writer enforce it); query tokens
    need not — an unknown token just matches nothing.
    """
    text = str(token)
    return text.split() == [text]


@dataclass(frozen=True)
class DatasetStats:
    """The per-dataset statistics the paper reports in Table 2."""

    num_sets: int
    max_set_size: int
    min_set_size: int
    avg_set_size: float
    universe_size: int

    def as_row(self) -> tuple[int, int, int, float, int]:
        """Return the Table 2 row ``(|D|, max, min, avg, |T|)``."""
        return (
            self.num_sets,
            self.max_set_size,
            self.min_set_size,
            round(self.avg_set_size, 1),
            self.universe_size,
        )


class Dataset:
    """A database of sets ``D`` with its token universe ``T``.

    Parameters
    ----------
    records : iterable of SetRecord, optional
        The stored sets; token ids must already be interned in
        ``universe`` (use :meth:`from_token_lists` for raw tokens).
    universe : TokenUniverse, optional
        The token universe the records are expressed in; a fresh empty
        universe when omitted.

    Attributes
    ----------
    records : list of SetRecord
        The stored sets; record *indices* into this list are the ids all
        engines report, and they stay stable across logical deletes.
    universe : TokenUniverse
        Bidirectional external-token ↔ dense-id mapping, shared by every
        index over this dataset.

    Examples
    --------
    >>> from repro import Dataset
    >>> dataset = Dataset.from_token_lists([["a", "b"], ["b", "c", "c"]])
    >>> len(dataset)
    2
    >>> len(dataset[1])                       # multiset size counts duplicates
    3
    >>> dataset.stats().universe_size
    3
    """

    def __init__(
        self,
        records: Iterable[SetRecord] = (),
        universe: TokenUniverse | None = None,
    ) -> None:
        self.universe = universe if universe is not None else TokenUniverse()
        self.records: list[SetRecord] = list(records)
        self._columnar = None
        self._columnar_lock = threading.Lock()
        self._validate()

    def _validate(self) -> None:
        universe_size = len(self.universe)
        for index, record in enumerate(self.records):
            if record.tokens and record.tokens[-1] >= universe_size:
                raise ValueError(
                    f"record {index} references token id {record.tokens[-1]} "
                    f"outside the universe of size {universe_size}"
                )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_token_lists(
        cls,
        token_lists: Iterable[Sequence[Hashable]],
        universe: TokenUniverse | None = None,
    ) -> "Dataset":
        """Build a dataset from raw token sequences, interning tokens."""
        universe = universe if universe is not None else TokenUniverse()
        records = [SetRecord(universe.intern_all(tokens)) for tokens in token_lists]
        return cls(records, universe)

    @classmethod
    def load(cls, path: str | Path) -> "Dataset":
        """Load the one-set-per-line whitespace-separated token format."""
        universe = TokenUniverse()
        records = []
        with open(path) as handle:
            for line in handle:
                tokens = line.split()
                if tokens:
                    records.append(SetRecord(universe.intern_all(tokens)))
        return cls(records, universe)

    @classmethod
    def from_columnar_file(cls, source: str | Path | ColumnarFileReader) -> "Dataset":
        """Build a dataset over a binary columnar file, without records.

        ``source`` is a path to a ``dataset.bin`` (opened with
        ``mode="mmap"``) or an already-open
        :class:`~repro.storage.columnar_file.ColumnarFileReader`.  The
        returned dataset's :meth:`columnar` view serves the stored CSR
        arrays directly (``np.memmap``-backed for mapped readers), and
        ``records`` is a lazy sequence that materializes a
        :class:`~repro.core.sets.SetRecord` only when one is indexed —
        the columnar query paths never do, which is what makes
        ``repro.load(..., mode="mmap")`` answer without pulling the
        dataset into RAM.

        Examples
        --------
        >>> import tempfile, os
        >>> from repro import Dataset
        >>> from repro.storage import ColumnarFileWriter
        >>> original = Dataset.from_token_lists([["a", "b"], ["b", "c"]])
        >>> path = os.path.join(tempfile.mkdtemp(), "dataset.bin")
        >>> _ = ColumnarFileWriter(path).write(original)
        >>> mapped = Dataset.from_columnar_file(path)
        >>> len(mapped), mapped.stats().universe_size
        (2, 3)
        >>> mapped[1].tokens                  # materialized on demand
        (1, 2)
        """
        from repro.storage.columnar_file import ColumnarFileReader, LazyRecords

        reader = source if isinstance(source, ColumnarFileReader) else ColumnarFileReader(source)
        dataset = cls.__new__(cls)  # the per-record validation walk would defeat laziness
        dataset.universe = reader.universe()
        view = reader.view()
        view.dataset = dataset
        dataset.records = LazyRecords(view)
        dataset._columnar = view
        dataset._columnar_lock = threading.Lock()
        return dataset

    def save(self, path: str | Path) -> None:
        """Write the dataset in the one-set-per-line token format.

        Raises :class:`ValueError`, before anything is written, when a
        record holds a token the format cannot carry
        (:func:`is_text_token`).
        """
        strings = [str(token) for token in self.universe]
        unwritable = {
            token_id for token_id, text in enumerate(strings) if not is_text_token(text)
        }
        if unwritable:
            for index, record in enumerate(self.records):
                bad = unwritable.intersection(record.tokens)
                if bad:
                    raise ValueError(
                        f"record {index} holds the token {strings[min(bad)]!r}, which "
                        "the one-set-per-line text format cannot carry (empty or "
                        "containing whitespace) — it would parse back as different tokens"
                    )
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(" ".join([strings[t] for t in record.tokens]) + "\n")

    # -- collection protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[SetRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> SetRecord:
        return self.records[index]

    def append(self, record: SetRecord) -> int:
        """Add a record (token ids must already be interned); return its index."""
        if record.tokens[-1] >= len(self.universe):
            raise ValueError(
                f"token id {record.tokens[-1]} outside universe of size {len(self.universe)}"
            )
        # _columnar_lock guards creating the CSR view, not the records:
        # readers racing a writer are the caller's to exclude.
        self.records.append(record)  # repro-lint: disable=RL202 -- writers are excluded by the caller
        return len(self.records) - 1

    def columnar(self) -> ColumnarView:
        """The cached CSR view of this dataset (built on first use).

        The view is shared by every index over this dataset (single
        engine, all shards) and kept fresh incrementally: records appended
        after the view was built are synced in on the next use, and
        logical deletes need no maintenance (liveness is defined by group
        membership, not by the layout).  First readers that race get the
        same view: it is created under a lock, so the records are laid
        out once.
        """
        from repro.core.columnar import ColumnarView

        if self._columnar is None:
            with self._columnar_lock:
                if self._columnar is None:
                    self._columnar = ColumnarView(self)
        return self._columnar.sync()

    # -- statistics and sampling -------------------------------------------

    def stats(self) -> DatasetStats:
        """Compute the Table 2 statistics for this dataset."""
        if not self.records:
            return DatasetStats(0, 0, 0, 0.0, len(self.universe))
        if self._columnar is not None and self._columnar.num_records == len(self.records):
            # Sizes are precomputed in the (possibly mapped) CSR view —
            # no need to materialize records to measure them.
            sizes = self._columnar._sizes[: len(self.records)].tolist()
        else:
            sizes = [len(record) for record in self.records]
        return DatasetStats(
            num_sets=len(self.records),
            max_set_size=max(sizes),
            min_set_size=min(sizes),
            avg_set_size=sum(sizes) / len(sizes),
            universe_size=len(self.universe),
        )

    def sample_indices(self, count: int, rng: random.Random) -> list[int]:
        """Sample ``count`` distinct record indices (all of them if fewer)."""
        if count >= len(self.records):
            return list(range(len(self.records)))
        return rng.sample(range(len(self.records)), count)

    def sample(self, count: int, rng: random.Random) -> "Dataset":
        """Sample a sub-dataset sharing this dataset's universe."""
        indices = self.sample_indices(count, rng)
        return Dataset([self.records[i] for i in indices], self.universe)
