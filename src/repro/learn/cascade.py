"""L2P — the cascade learning framework (Section 5.2) as a Partitioner.

Each Siamese model bisects one group; training a model on a group samples
pairs from that group, computes their exact similarities (the only
supervision the problem offers), and fits the Equation 18 surrogate.  The
cascade keeps splitting level by level until the target group count is
reached, never splitting groups below the minimum size (paper: 50).

Initialisation (Section 7.1): the database is first sorted by minimum token
and chopped into ``initial_groups`` consecutive chunks (paper: 128), so the
expensive top levels of the cascade are replaced by a cheap sequential
constraint.  Set ``initial_groups=1`` to disable (used for small samples and
the initialisation ablation).

The per-level partitions are kept in ``level_partitions_`` so an HTGM can be
assembled from any pair of levels.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.similarity import Similarity, get_measure
from repro.embedding.base import Embedding
from repro.embedding.ptr import PTREmbedding
from repro.learn.siamese import SiameseNetwork
from repro.partitioning.base import Partition, Partitioner
from repro.partitioning.simple import MinTokenPartitioner

__all__ = ["L2PPartitioner", "CascadeStats"]


class CascadeStats:
    """Bookkeeping of one cascade run (model count, losses, sample count)."""

    def __init__(self) -> None:
        self.models_trained = 0
        self.pairs_sampled = 0
        self.loss_histories: list[list[float]] = []

    def record(self, history: list[float], pairs: int) -> None:
        self.models_trained += 1
        self.pairs_sampled += pairs
        self.loss_histories.append(history)


class L2PPartitioner(Partitioner):
    """Learn-to-partition via a cascade of Siamese networks.

    Parameters
    ----------
    measure:
        Similarity supervising the loss (and later the search).
    embedding:
        Set representation; default PTR (the paper's choice).
    pairs_per_model:
        Training pairs sampled per model (paper: 40 000; benchmarks scale
        this down with the dataset).
    epochs, batch_size, lr:
        Optimisation hyper-parameters (paper: 3 epochs, batch 256, Adam).
    min_group_size:
        Groups smaller than this are never split (paper: 50).
    initial_groups:
        Min-token chunk count used as the cascade's starting level
        (paper: 128); clipped to the target group count.
    rebalance_threshold:
        If a model sends less than this fraction of a group to one side,
        the split falls back to the *output median* — the cut still follows
        the learned ordering but is perfectly balanced.  This enforces the
        balance property the Equation 15 loss argues for (Section 5.1) even
        when a few epochs of training leave the raw 0.5 threshold lopsided,
        and it guarantees the cascade cannot stall on a degenerate model.
    workers:
        Thread count for training the independent models of one cascade
        level concurrently (Section 7.2's future-work direction).  The
        resulting partition is identical for any worker count; only
        ``stats_.loss_histories`` ordering may differ.
    """

    def __init__(
        self,
        measure: str | Similarity = "jaccard",
        embedding: Embedding | None = None,
        pairs_per_model: int = 40_000,
        epochs: int = 3,
        batch_size: int = 256,
        lr: float = 1e-2,
        min_group_size: int = 50,
        initial_groups: int = 128,
        rebalance_threshold: float = 0.3,
        loss: str = "surrogate",
        workers: int = 1,
        seed: int = 0,
    ) -> None:
        self.measure = get_measure(measure)
        self.embedding = embedding if embedding is not None else PTREmbedding()
        self.pairs_per_model = pairs_per_model
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.min_group_size = min_group_size
        self.initial_groups = initial_groups
        self.rebalance_threshold = rebalance_threshold
        self.loss = loss
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.seed = seed
        self.level_partitions_: list[Partition] = []
        self.stats_: CascadeStats = CascadeStats()

    # -- single-model training -------------------------------------------------

    def _sample_pairs(
        self, dataset: Dataset, members: list[int], rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample training pairs (with replacement) from one group."""
        count = min(self.pairs_per_model, max(len(members) ** 2, 1))
        left = rng.integers(0, len(members), size=count)
        right = rng.integers(0, len(members), size=count)
        keep = left != right
        left, right = left[keep], right[keep]
        indices_x = [members[i] for i in left]
        indices_y = [members[i] for i in right]
        similarities = np.array(
            [
                self.measure(dataset.records[a], dataset.records[b])
                for a, b in zip(indices_x, indices_y)
            ]
        )
        return np.array(indices_x), np.array(indices_y), similarities

    def train_group_model(
        self,
        dataset: Dataset,
        representations: np.ndarray,
        members: list[int],
        seed: int,
    ) -> tuple[SiameseNetwork, list[float]]:
        """Train one Siamese model to bisect ``members``; returns (model, loss curve)."""
        rng = np.random.default_rng(seed)
        indices_x, indices_y, similarities = self._sample_pairs(dataset, members, rng)
        model = SiameseNetwork(representations.shape[1], seed=seed, lr=self.lr)
        history = model.train(
            representations[indices_x],
            representations[indices_y],
            similarities,
            epochs=self.epochs,
            batch_size=self.batch_size,
            loss=self.loss,
        )
        self.stats_.record(history, len(similarities))
        return model, history

    def _split_group(
        self,
        dataset: Dataset,
        representations: np.ndarray,
        members: list[int],
        seed: int,
    ) -> tuple[list[int], list[int]]:
        """Bisect one group with a freshly trained model."""
        model, _ = self.train_group_model(dataset, representations, members, seed)
        outputs = model.outputs(representations[members])
        second_side = outputs >= 0.5
        fraction = second_side.mean()
        if min(fraction, 1.0 - fraction) < self.rebalance_threshold:
            # Degenerate model: fall back to the output median so the split
            # still reflects the learned ordering but stays balanced.
            median = np.median(outputs)
            second_side = outputs > median
            if not second_side.any() or second_side.all():
                half = len(members) // 2
                order = np.argsort(outputs, kind="stable")
                second_side = np.zeros(len(members), dtype=bool)
                second_side[order[half:]] = True
        left = [m for m, flag in zip(members, second_side) if not flag]
        right = [m for m, flag in zip(members, second_side) if flag]
        return left, right

    # -- the cascade --------------------------------------------------------------

    def _group(self, dataset: Dataset, num_groups: int) -> Partition:
        if num_groups <= 0:
            raise ValueError("num_groups must be positive")
        self.stats_ = CascadeStats()
        self.level_partitions_ = []
        if not len(dataset):
            return Partition([])
        representations = self.embedding.fit(dataset).transform_all(dataset)
        scale = np.abs(representations).max(axis=0)
        scale[scale == 0] = 1.0
        representations = representations / scale  # keep sigmoids unsaturated

        start = min(self.initial_groups, num_groups)
        if start > 1:
            groups = MinTokenPartitioner()._group(dataset, start).groups
        else:
            groups = [list(range(len(dataset)))]
        self.level_partitions_.append(Partition(groups))

        level_seed = self.seed
        while len(groups) < num_groups:
            splittable = sorted(
                (g for g in range(len(groups)) if len(groups[g]) >= max(self.min_group_size, 2)),
                key=lambda g: -len(groups[g]),
            )
            if not splittable:
                break
            # Each split adds one group; when a full level would overshoot
            # the target, only the largest groups are split.
            to_split = set(splittable[: num_groups - len(groups)])
            splits = self._split_level(dataset, representations, groups, to_split, level_seed)
            next_groups: list[list[int]] = []
            for group_id, members in enumerate(groups):
                if group_id in to_split:
                    next_groups.extend(splits[group_id])
                else:
                    next_groups.append(list(members))
            groups = [group for group in next_groups if group]
            level_seed += 10_007
            self.level_partitions_.append(Partition(groups))
        return Partition(groups)

    def _split_level(
        self,
        dataset: Dataset,
        representations: np.ndarray,
        groups: list[list[int]],
        to_split: set[int],
        level_seed: int,
    ) -> dict[int, tuple[list[int], list[int]]]:
        """Split every selected group of one level, optionally in parallel.

        Section 7.2 notes that models at the same cascade level are
        independent and can be trained in parallel — the paper's stated
        future work.  With ``workers > 1`` a thread pool trains them
        concurrently (numpy releases the GIL inside the matrix kernels);
        results are deterministic either way because each model's seed
        depends only on its group id.
        """
        if self.workers <= 1 or len(to_split) <= 1:
            return {
                group_id: self._split_group(
                    dataset, representations, groups[group_id], level_seed + group_id
                )
                for group_id in to_split
            }
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = {
                group_id: pool.submit(
                    self._split_group,
                    dataset,
                    representations,
                    groups[group_id],
                    level_seed + group_id,
                )
                for group_id in to_split
            }
            return {group_id: future.result() for group_id, future in futures.items()}
