"""PAR-G — graph-cut based partitioning (Section 4.3.1).

Workload-specific: for a kNN workload with result size ``k`` it builds the
k-nearest-neighbour similarity graph of the database; for a range workload
with threshold ``δ`` it links every pair with ``Sim >= δ``.  The graph is
then cut into ``n`` balanced parts with the multilevel partitioner
(:mod:`repro.graphs.partition`), the stand-in for PaToH.

The kNN-graph construction is accelerated exactly as in the paper's
experiment — a bootstrap LES3 index (over a cheap min-token partition)
answers the per-set kNN queries instead of brute force.
"""

from __future__ import annotations

from repro.core.dataset import Dataset
from repro.core.search import knn_search
from repro.core.similarity import Similarity, get_measure
from repro.core.tgm import TokenGroupMatrix
from repro.graphs.graph import Graph
from repro.graphs.partition import partition_graph
from repro.partitioning.base import Partition, Partitioner
from repro.partitioning.simple import MinTokenPartitioner

__all__ = ["ParGPartitioner", "build_knn_graph", "build_range_graph"]


def build_knn_graph(
    dataset: Dataset,
    k: int,
    measure: Similarity,
    bootstrap_groups: int = 64,
) -> Graph:
    """Similarity graph linking each set to its k nearest neighbours."""
    graph = Graph(len(dataset))
    bootstrap_partition = MinTokenPartitioner().partition(dataset, min(bootstrap_groups, max(len(dataset) // 4, 1)))
    tgm = TokenGroupMatrix(dataset, bootstrap_partition.groups, measure)
    for record_index, record in enumerate(dataset.records):
        result = knn_search(dataset, tgm, record, k + 1)  # +1: the set itself
        for neighbor_index, similarity in result.matches:
            if neighbor_index != record_index:
                graph.add_edge(record_index, neighbor_index, max(similarity, 1e-9))
    return graph


def build_range_graph(dataset: Dataset, threshold: float, measure: Similarity) -> Graph:
    """Similarity graph linking every pair with ``Sim >= threshold``.

    Uses a token-inverted index so only pairs sharing a token are compared.
    """
    graph = Graph(len(dataset))
    token_to_records: dict[int, list[int]] = {}
    for record_index, record in enumerate(dataset.records):
        for token in record.distinct:
            token_to_records.setdefault(token, []).append(record_index)
    seen: set[tuple[int, int]] = set()
    for posting in token_to_records.values():
        for i, index_a in enumerate(posting):
            record_a = dataset.records[index_a]
            for index_b in posting[i + 1 :]:
                pair = (index_a, index_b)
                if pair in seen:
                    continue
                seen.add(pair)
                similarity = measure(record_a, dataset.records[index_b])
                if similarity >= threshold:
                    graph.add_edge(index_a, index_b, similarity)
    return graph


class ParGPartitioner(Partitioner):
    """Balanced cut of the workload similarity graph.

    Parameters
    ----------
    k:
        Result size the index is optimised for (kNN workloads).  Exactly one
        of ``k`` / ``threshold`` must be given.
    threshold:
        Range threshold the index is optimised for (range workloads).
    """

    def __init__(
        self,
        k: int | None = 10,
        threshold: float | None = None,
        measure: str | Similarity = "jaccard",
        tolerance: float = 0.1,
        seed: int = 0,
    ) -> None:
        if (k is None) == (threshold is None):
            raise ValueError("specify exactly one of k or threshold")
        self.k = k
        self.threshold = threshold
        self.measure = get_measure(measure)
        self.tolerance = tolerance
        self.seed = seed

    def _group(self, dataset: Dataset, num_groups: int) -> Partition:
        if self.k is not None:
            graph = build_knn_graph(dataset, self.k, self.measure)
        else:
            graph = build_range_graph(dataset, self.threshold, self.measure)
        assignment = partition_graph(graph, num_groups, self.tolerance, self.seed)
        return Partition.from_assignments(assignment)
