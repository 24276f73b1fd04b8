"""Partition representation and the partitioner interface.

A :class:`Partition` is the output of every partitioning strategy (Section 4
algorithmic methods, Section 5 L2P): an assignment of each record index of a
dataset to one of ``n`` disjoint groups.  The TGM is built directly from a
partition; the partitioning objective functions evaluate one.

Every :class:`Partitioner` splits its token groups by set size on the way
out (:meth:`Partitioner.partition`), so each TGM row also knows a narrow
member-size range — what the size-aware group bound
(:meth:`repro.core.similarity.Similarity.sized_bounds`) feeds on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Sequence

import numpy as np

from repro.core.dataset import Dataset

__all__ = ["Partition", "Partitioner", "size_band_cuts"]

# At most this many size bands; each holds at least 1 / MAX_SIZE_BANDS of
# the records, so a band is never a sliver.  A constant, not a knob: the
# bands divide the fixed group budget, so every extra band coarsens the
# token groups.
MAX_SIZE_BANDS = 6


class Partition:
    """A disjoint grouping of record indices ``0 .. len(dataset) - 1``.

    Parameters
    ----------
    groups:
        One list of record indices per group.  Empty groups are dropped.
    """

    def __init__(self, groups: Sequence[Sequence[int]]) -> None:
        self.groups: list[list[int]] = [list(group) for group in groups if len(group)]
        self._assignments: dict[int, int] = {}
        for group_id, group in enumerate(self.groups):
            for record_index in group:
                if record_index in self._assignments:
                    raise ValueError(f"record {record_index} assigned to more than one group")
                self._assignments[record_index] = group_id

    @classmethod
    def from_assignments(cls, assignments: Sequence[int]) -> "Partition":
        """Build from a per-record group-id vector (ids need not be dense)."""
        by_group: dict[int, list[int]] = {}
        for record_index, group_id in enumerate(assignments):
            by_group.setdefault(group_id, []).append(record_index)
        return cls([by_group[g] for g in sorted(by_group)])

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self) -> Iterator[list[int]]:
        return iter(self.groups)

    def __getitem__(self, group_id: int) -> list[int]:
        return self.groups[group_id]

    def group_of(self, record_index: int) -> int:
        """Group id of a record; raises ``KeyError`` for unassigned records."""
        return self._assignments[record_index]

    def num_records(self) -> int:
        return len(self._assignments)

    def covers(self, dataset_size: int) -> bool:
        """True when every record index ``< dataset_size`` is assigned."""
        return len(self._assignments) == dataset_size and (
            not self._assignments or max(self._assignments) == dataset_size - 1
        )

    def group_sizes(self) -> list[int]:
        return [len(group) for group in self.groups]

    def assign(self, record_index: int, group_id: int) -> None:
        """Assign a *new* record to an existing group (used for updates)."""
        if record_index in self._assignments:
            raise ValueError(f"record {record_index} is already assigned")
        if not 0 <= group_id < len(self.groups):
            raise IndexError(f"group id {group_id} out of range")
        self.groups[group_id].append(record_index)
        self._assignments[record_index] = group_id


def size_band_cuts(sizes: np.ndarray, max_bands: int) -> list[int]:
    """Equal-frequency size bands: the inclusive upper size of every band but the last.

    Walks the distinct sizes in order and closes a band once it holds at
    least ``1 / max_bands`` of the records — the band edges sit at the
    ``i / max_bands`` quantiles, except that a band never splits one size
    and never ends up with less than its share (a short tail joins the
    band before it).  So there are at most ``max_bands`` bands, and a
    corpus with one set size gets one band (no cuts).  Record ``i`` is in
    band ``np.searchsorted(cuts, sizes[i])``.
    """
    values, counts = np.unique(np.asarray(sizes, dtype=np.int64), return_counts=True)
    share = len(sizes) / max_bands
    cuts: list[int] = []
    held = 0
    for value, count in zip(values.tolist(), counts.tolist()):
        held += count
        if held >= share:
            cuts.append(value)
            held = 0
    # The last band is open above: either the largest size closed it, or
    # the records after the last cut are fewer than a share and join it.
    return cuts[:-1]


class Partitioner(ABC):
    """A strategy that splits a dataset into ``n`` groups.

    Subclasses implement :meth:`_group`, the token grouping (Section 4's
    heuristics, Section 5's L2P); :meth:`partition` splits its output by
    set size.
    """

    def partition(self, dataset: Dataset, num_groups: int) -> Partition:
        """Partition ``dataset`` into at most ``num_groups`` size-banded groups.

        The corpus's set sizes are cut into ``B`` bands
        (:func:`size_band_cuts`, at most ``MAX_SIZE_BANDS`` and at most
        ``num_groups``); :meth:`_group` makes ``num_groups // B`` token
        groups and each of them is split by band, members keeping their
        order.  So the group count never exceeds ``num_groups`` — ``n``
        counts TGM rows — and a corpus with a single set size gets exactly
        the :meth:`_group` partition.
        """
        if num_groups <= 0:
            raise ValueError(f"num_groups must be positive, got {num_groups}")
        sizes = np.fromiter((len(record) for record in dataset), dtype=np.int64, count=len(dataset))
        cuts = size_band_cuts(sizes, min(MAX_SIZE_BANDS, num_groups))
        token_groups = self._group(dataset, num_groups // (len(cuts) + 1))
        if not cuts:
            return token_groups
        band_of = np.searchsorted(np.asarray(cuts, dtype=np.int64), sizes)
        banded: list[list[int]] = []
        for group in token_groups:
            members = np.asarray(group, dtype=np.int64)
            bands = band_of[members]
            banded.extend(members[bands == band].tolist() for band in range(len(cuts) + 1))
        return Partition(banded)

    @abstractmethod
    def _group(self, dataset: Dataset, num_groups: int) -> Partition:
        """Group ``dataset`` by token content into at most ``num_groups`` groups."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
