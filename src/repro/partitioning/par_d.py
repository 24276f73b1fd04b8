"""PAR-D — divisive clustering (Section 4.3.3).

Start with one group holding the whole database; repeatedly pick the group
with the largest (sampled) φ, seed a new group with a random member (the
paper's simplification of picking the max-``idv_d`` member), then move every
other member across when doing so reduces the GPO.  Stop at ``n`` groups.
"""

from __future__ import annotations

import random

from repro.core.dataset import Dataset
from repro.core.similarity import Similarity, get_measure
from repro.partitioning.base import Partition, Partitioner
from repro.partitioning.par_c import set_to_group_distance

__all__ = ["ParDPartitioner"]


class ParDPartitioner(Partitioner):
    """Divisive (top-down splitting) heuristic for GPO."""

    def __init__(
        self,
        measure: str | Similarity = "jaccard",
        sample_size: int = 16,
        seed: int = 0,
    ) -> None:
        self.measure = get_measure(measure)
        self.sample_size = sample_size
        self.seed = seed

    def _sampled_phi(self, dataset: Dataset, members: list[int], rng: random.Random) -> float:
        """Sampled estimate of φ(G), scaled to the full pair count."""
        size = len(members)
        if size < 2:
            return 0.0
        sample = members if size <= self.sample_size else rng.sample(members, self.sample_size)
        total = 0.0
        for i, index_a in enumerate(sample):
            record_a = dataset.records[index_a]
            for index_b in sample[i + 1 :]:
                total += 1.0 - self.measure(record_a, dataset.records[index_b])
        sample_pairs = len(sample) * (len(sample) - 1) / 2
        true_pairs = size * (size - 1) / 2
        return total * (true_pairs / sample_pairs)

    def _group(self, dataset: Dataset, num_groups: int) -> Partition:
        rng = random.Random(self.seed)
        groups: list[list[int]] = [list(range(len(dataset)))]
        while len(groups) < num_groups:
            splittable = [g for g in range(len(groups)) if len(groups[g]) >= 2]
            if not splittable:
                break
            target = max(splittable, key=lambda g: self._sampled_phi(dataset, groups[g], rng))
            members = groups[target]
            seed_member = members[rng.randrange(len(members))]
            new_group = [seed_member]
            remaining = [m for m in members if m != seed_member]
            kept: list[int] = []
            for record_index in remaining:
                stay_cost = set_to_group_distance(
                    dataset, record_index, remaining, self.measure, rng, self.sample_size
                )
                move_cost = set_to_group_distance(
                    dataset, record_index, new_group, self.measure, rng, self.sample_size
                )
                # Normalise by group size: compare average distances so early
                # (tiny) new groups do not attract everything.
                stay_avg = stay_cost / max(len(remaining) - 1, 1)
                move_avg = move_cost / len(new_group)
                if move_avg < stay_avg:
                    new_group.append(record_index)
                else:
                    kept.append(record_index)
            if not kept:  # degenerate split: keep the seed alone
                kept = new_group[1:]
                new_group = new_group[:1]
            groups[target] = kept
            groups.append(new_group)
        return Partition(groups)
