"""PAR-A — agglomerative clustering (Section 4.3.4).

Start from singletons; repeatedly merge the smallest group (the paper's
simplification, breaking ties randomly) with the partner that minimises
φ(G₁ ∪ G₂), until ``n`` groups remain.  The cross-group distance is
estimated on bounded samples; optionally only a random subset of candidate
partners is evaluated per merge to keep the quadratic cost bearable at the
dataset sizes the benchmarks use.
"""

from __future__ import annotations

import random

from repro.core.dataset import Dataset
from repro.core.similarity import Similarity, get_measure
from repro.partitioning.base import Partition, Partitioner

__all__ = ["ParAPartitioner"]


class ParAPartitioner(Partitioner):
    """Agglomerative (bottom-up merging) heuristic for GPO."""

    def __init__(
        self,
        measure: str | Similarity = "jaccard",
        sample_size: int = 8,
        candidate_sample: int | None = 64,
        seed: int = 0,
    ) -> None:
        self.measure = get_measure(measure)
        self.sample_size = sample_size
        self.candidate_sample = candidate_sample
        self.seed = seed

    def _cross_cost(
        self, dataset: Dataset, group_a: list[int], group_b: list[int], rng: random.Random
    ) -> float:
        """Sampled estimate of Σ_{a∈A, b∈B} (1 − Sim(a, b)), scaled."""
        sample_a = group_a if len(group_a) <= self.sample_size else rng.sample(group_a, self.sample_size)
        sample_b = group_b if len(group_b) <= self.sample_size else rng.sample(group_b, self.sample_size)
        total = 0.0
        for index_a in sample_a:
            record_a = dataset.records[index_a]
            for index_b in sample_b:
                total += 1.0 - self.measure(record_a, dataset.records[index_b])
        scale = (len(group_a) * len(group_b)) / (len(sample_a) * len(sample_b))
        return total * scale

    def _group(self, dataset: Dataset, num_groups: int) -> Partition:
        rng = random.Random(self.seed)
        groups: list[list[int]] = [[i] for i in range(len(dataset))]
        while len(groups) > num_groups:
            smallest_size = min(len(g) for g in groups)
            smallest_candidates = [g for g in range(len(groups)) if len(groups[g]) == smallest_size]
            source = rng.choice(smallest_candidates)

            partner_ids = [g for g in range(len(groups)) if g != source]
            if self.candidate_sample is not None and len(partner_ids) > self.candidate_sample:
                partner_ids = rng.sample(partner_ids, self.candidate_sample)
            # φ(G1 ∪ G2) = φ(G1) + φ(G2) + cross(G1, G2); φ(G1) is shared by
            # every candidate, so rank by φ(G2) + cross ≈ proxied by the
            # average merged distance to keep size bias out.
            best_partner = min(
                partner_ids,
                key=lambda g: self._cross_cost(dataset, groups[source], groups[g], rng)
                / (len(groups[source]) * len(groups[g])),
            )
            groups[best_partner] = groups[best_partner] + groups[source]
            groups.pop(source)
        return Partition([sorted(group) for group in groups])
