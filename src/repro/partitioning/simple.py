"""Trivial partitioners: random and the min-token initialisation.

``MinTokenPartitioner`` is the cascade initialisation of Section 7.1: sort
all sets by their minimal token id and chop the order into equal consecutive
chunks.  ``RandomPartitioner`` is the PAR-C initialisation and a baseline in
its own right (a TGM over random groups still prunes a little).
"""

from __future__ import annotations

import random

from repro.core.dataset import Dataset
from repro.partitioning.base import Partition, Partitioner

__all__ = ["RandomPartitioner", "MinTokenPartitioner", "chunk_evenly"]


def chunk_evenly(ordered: list[int], num_groups: int) -> list[list[int]]:
    """Split an ordered index list into ``num_groups`` consecutive chunks.

    Sizes differ by at most one; never produces empty chunks unless the
    input is shorter than ``num_groups``.
    """
    if num_groups <= 0:
        raise ValueError(f"num_groups must be positive, got {num_groups}")
    count = len(ordered)
    num_groups = min(num_groups, count) if count else 1
    base, remainder = divmod(count, num_groups)
    chunks = []
    start = 0
    for chunk_id in range(num_groups):
        size = base + (1 if chunk_id < remainder else 0)
        if size:
            chunks.append(ordered[start : start + size])
        start += size
    return chunks


class RandomPartitioner(Partitioner):
    """Uniformly random balanced partitioning."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def _group(self, dataset: Dataset, num_groups: int) -> Partition:
        indices = list(range(len(dataset)))
        random.Random(self.seed).shuffle(indices)
        return Partition(chunk_evenly(indices, num_groups))


class MinTokenPartitioner(Partitioner):
    """Sort sets by minimal token id; chop into consecutive equal chunks.

    Sets sharing rare low-id tokens land together, which already groups
    token-correlated sets when token ids are assigned in frequency order.
    """

    def _group(self, dataset: Dataset, num_groups: int) -> Partition:
        order = sorted(range(len(dataset)), key=lambda i: (dataset.records[i].min_token(), i))
        return Partition(chunk_evenly(order, num_groups))
