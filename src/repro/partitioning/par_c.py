"""PAR-C — centroid-style first-improvement relocation (Section 4.3.2).

Start from a random balanced partition; repeatedly visit each set and move
it to the *first* group where the move decreases the GPO, until a full pass
makes no move (or the iteration cap is hit).  Following footnote 2 of the
paper, the distance from a set to a group is estimated on a bounded random
sample of the group's members, scaled to the group size.

The GPO delta for moving ``S`` from ``G_i`` to ``G_j`` is
``Δ = d(S, G_j) − d(S, G_i \\ {S})`` where ``d(S, G) = Σ_{S'∈G} (1 − Sim)``;
the move helps when ``Δ < 0``.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.dataset import Dataset
from repro.core.similarity import Similarity, get_measure
from repro.partitioning.base import Partition, Partitioner
from repro.partitioning.simple import RandomPartitioner

__all__ = ["ParCPartitioner", "set_to_group_distance"]


def set_to_group_distance(
    dataset: Dataset,
    record_index: int,
    members: Sequence[int],
    measure: Similarity,
    rng: random.Random,
    sample_size: int,
) -> float:
    """Estimate ``Σ_{S'∈G} (1 − Sim(S, S'))``, skipping ``S`` itself."""
    others = [m for m in members if m != record_index]
    if not others:
        return 0.0
    if len(others) > sample_size:
        sample = rng.sample(others, sample_size)
        scale = len(others) / sample_size
    else:
        sample, scale = others, 1.0
    record = dataset.records[record_index]
    total = sum(1.0 - measure(record, dataset.records[m]) for m in sample)
    return total * scale


class ParCPartitioner(Partitioner):
    """First-improvement relocation heuristic for GPO."""

    def __init__(
        self,
        measure: str | Similarity = "jaccard",
        max_passes: int = 5,
        sample_size: int = 16,
        seed: int = 0,
    ) -> None:
        self.measure = get_measure(measure)
        self.max_passes = max_passes
        self.sample_size = sample_size
        self.seed = seed

    def _group(self, dataset: Dataset, num_groups: int) -> Partition:
        rng = random.Random(self.seed)
        partition = RandomPartitioner(self.seed)._group(dataset, num_groups)
        groups = [set(group) for group in partition.groups]
        assignment = {}
        for group_id, group in enumerate(groups):
            for record_index in group:
                assignment[record_index] = group_id

        for _ in range(self.max_passes):
            moved = 0
            for record_index in range(len(dataset)):
                current = assignment[record_index]
                if len(groups[current]) <= 1:
                    continue  # never empty a group
                current_cost = set_to_group_distance(
                    dataset, record_index, list(groups[current]), self.measure, rng, self.sample_size
                )
                for candidate in range(len(groups)):
                    if candidate == current:
                        continue
                    candidate_cost = set_to_group_distance(
                        dataset, record_index, list(groups[candidate]), self.measure, rng, self.sample_size
                    )
                    if candidate_cost < current_cost:
                        groups[current].discard(record_index)
                        groups[candidate].add(record_index)
                        assignment[record_index] = candidate
                        moved += 1
                        break
            if not moved:
                break
        return Partition([sorted(group) for group in groups if group])
