"""Similarity self-join: find all near-duplicate pairs in one pass.

Set similarity *joins* dominate the related work the paper builds on
(Section 8); the join runs a prefix filter over the indexed records.  This
example joins a corpus of tag sets against itself to surface all pairs
above a Jaccard threshold — the all-pairs flavour of the data-cleaning
workload — and compares against the quadratic scan.

Run with::

    python examples/similarity_join.py
"""

import random
import time

from repro import Dataset, TokenGroupMatrix
from repro.core import similarity_self_join
from repro.learn import L2PPartitioner


def tag_corpus(num_items: int, seed: int) -> list[list[str]]:
    """Items tagged from topic vocabularies, with planted near-duplicates."""
    rng = random.Random(seed)
    topics = [[f"t{topic}-{i}" for i in range(25)] for topic in range(12)]
    corpus = []
    for _ in range(num_items):
        vocabulary = rng.choice(topics)
        tags = rng.sample(vocabulary, rng.randint(4, 8))
        corpus.append(tags)
        if rng.random() < 0.25:  # planted near-duplicate
            variant = list(tags)
            variant[rng.randrange(len(variant))] = rng.choice(vocabulary)
            corpus.append(variant)
    return corpus


def main() -> None:
    corpus = tag_corpus(1_200, seed=7)
    dataset = Dataset.from_token_lists(corpus)
    print(f"corpus: {dataset.stats()}")

    l2p = L2PPartitioner(
        pairs_per_model=1_500, epochs=3, initial_groups=8, min_group_size=10, seed=0
    )
    tgm = TokenGroupMatrix(dataset, l2p.partition(dataset, 24).groups)

    threshold = 0.6
    start = time.perf_counter()
    result = similarity_self_join(dataset, tgm, threshold)
    join_seconds = time.perf_counter() - start

    total_pairs = len(dataset) * (len(dataset) - 1) // 2
    print(
        f"\njoin δ={threshold}: {len(result)} pairs in {join_seconds:.2f}s — verified "
        f"{result.stats.candidates_verified}/{total_pairs} pairs"
    )

    print("\nsample matched pairs:")
    for x, y, similarity in result.pairs[:5]:
        print(f"  #{x} ~ #{y}  (Jaccard {similarity:.2f})")
        print(f"     {sorted(corpus[x])}")
        print(f"     {sorted(corpus[y])}")


if __name__ == "__main__":
    main()
