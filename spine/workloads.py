"""The four workloads and their seeded inputs.

Everything the program under test receives is generated here: the
database (as lists of string tokens — saved indexes round-trip tokens
as strings, so the program never sees anything else), the op list, the
write list and the exactness-gate sample.  As in the paper's own
evaluation, each workload's corpus is fixed (``CORPUS_SEED``: one
stand-in corpus per workload, like one KOSARAK) and ``--seed`` samples
what is asked of it: queries, writes, the gate sample and the
cold-start probe.  The same ``(workload, seed, seconds, smoke)`` always
yields the same inputs; a different seed yields different requests.
A seeded corpus was tried first: partition quality on the clustered
corpus moved ``ops_per_s`` by ±10 % from seed to seed, more than any
bound, which would have made every later comparison unresolved.

Op lists have a fixed length per second of ``--seconds`` (the
``ops_per_second`` of each workload, sized on the 2-core reference box
so the timed work — three passes over the list — takes about
``--seconds``): every commit executes the same work, and a slower
commit takes longer instead of doing less.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.datasets import TABLE2_SPECS, make_dataset

__all__ = ["Workload", "Inputs", "WORKLOADS", "CORPUS_SEED", "make_inputs", "K", "RANGE_THRESHOLD", "JOIN_THRESHOLD"]

K = 10
RANGE_THRESHOLD = 0.8
JOIN_THRESHOLD = 0.8
BATCH = 32
#: Timed passes over a library workload's op list.
PASSES = 3
#: ``--smoke`` divides every dataset and op list by this.
SMOKE_DIVISOR = 20
#: The corpus of every workload is generated from this, whatever ``--seed`` is.
CORPUS_SEED = 2021
#: Requests compared bit-for-bit with the oracle (at least; batches round up).
GATE_REQUESTS = 100
#: Write ops a library workload applies after its timed reads (serve-rw mixes its writes into the phase).
LIBRARY_WRITES = 4000


@dataclass(frozen=True)
class Workload:
    """One row of the workload table in ``spine/README.md`` (``BENCHMARK.json`` says why it exists)."""

    name: str
    data: str  # "KOSARAK" | "DBLP" (Table 2 stand-ins) | "clustered" (template clusters)
    num_sets: int
    engine: str  # "single" (LES3) | "sharded" (ShardedLES3.from_engine, 4 shards)
    op: str  # "knn" | "batch" | "join" | "serve"
    ops_per_second: float  # op-list length per second of --seconds


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("knn-zipf", "KOSARAK", 28_000, "single", "knn", 80.0),
        Workload("batch-clustered", "clustered", 24_000, "sharded", "batch", 105.0),
        Workload("join-dblp", "DBLP", 6_000, "single", "join", 0.7),
        Workload("serve-rw", "clustered", 24_000, "single", "serve", 215.0),
    )
}


@dataclass
class Inputs:
    """Everything one run feeds the program under test, plus the gate sample."""

    workload: Workload
    seed: int
    token_lists: list[list[str]]
    ops: list  # requests; for "batch" each op is a list of BATCH requests
    mixed: list[dict]  # serve-rw connection B / the library write phase: knn, insert, remove
    gate: list[int]  # op indices whose answers are compared with the oracle
    probe: dict = field(default_factory=dict)  # the cold-start kNN request

    @property
    def sizes(self) -> dict:
        return {
            "sets": len(self.token_lists),
            "distinct_tokens": len({t for tokens in self.token_lists for t in tokens}),
            "ops": len(self.ops),
            "mixed_ops": len(self.mixed),
            "gate_ops": len(self.gate),
        }


def _table2_lists(name: str, num_sets: int, seed: int) -> list[list[str]]:
    scale = (num_sets + 0.5) / TABLE2_SPECS[name].num_sets
    dataset = make_dataset(name, scale=scale, seed=seed)
    return [[f"t{token}" for token in record.tokens] for record in dataset.records]


def _clustered_lists(num_sets: int, seed: int) -> list[list[str]]:
    """Noisy 12-token draws from per-cluster 15-token templates, 100 sets per cluster."""
    block, template_size, set_size, noise = 40, 15, 12, 0.02
    rng = random.Random(seed)
    clusters = max(num_sets // 100, 4)
    templates = [rng.sample(range(c * block, (c + 1) * block), template_size) for c in range(clusters)]
    lists = []
    for i in range(num_sets):
        tokens = set(rng.sample(templates[i % clusters], set_size))
        if rng.random() < noise:
            tokens.discard(min(tokens))
            tokens.add(rng.randrange(clusters * block))
        lists.append([f"t{token}" for token in sorted(tokens)])
    return lists


def _perturbed(lists: list[list[str]], vocabulary: list[str], rng: random.Random) -> list[str]:
    """An out-of-database query: a stored set with a quarter of its tokens replaced."""
    tokens = list(rng.choice(lists))
    for _ in range(len(tokens) // 4):
        tokens[rng.randrange(len(tokens))] = rng.choice(vocabulary)
    return sorted(set(tokens))


def _knn(tokens: list[str]) -> dict:
    return {"kind": "knn", "tokens": tokens, "k": K}


def _mixed_ops(
    lists: list[list[str]], vocabulary: list[str], count: int,
    shares: tuple[float, float, float], rng: random.Random, tag: str,
) -> list[dict]:
    """A seeded knn / insert / remove mix; removes name earlier inserts by ordinal.

    Inserts are perturbed copies of stored sets plus one token no other
    set carries, so each acknowledged insert is its own unique nearest
    neighbour at similarity 1.0 — the fact the durability gates check.
    """
    read_share, insert_share, _ = shares
    ops: list[dict] = []
    inserted = 0
    removable: list[int] = []
    for _ in range(count):
        draw = rng.random()
        if draw < read_share:
            ops.append(_knn(_perturbed(lists, vocabulary, rng)))
        elif draw < read_share + insert_share or not removable:
            tokens = _perturbed(lists, vocabulary, rng) + [f"w{tag}-{inserted}"]
            ops.append({"kind": "insert", "tokens": tokens})
            removable.append(inserted)
            inserted += 1
        else:
            ops.append({"kind": "remove", "insert": removable.pop(rng.randrange(len(removable)))})
    return ops


def make_inputs(name: str, seed: int, seconds: float, smoke: bool = False) -> Inputs:
    """Generate one run's inputs; deterministic in its arguments."""
    workload = WORKLOADS[name]
    divisor = SMOKE_DIVISOR if smoke else 1
    num_sets = max(workload.num_sets // divisor, 300)
    # Library op lists are executed once per pass; serve-rw's phase runs once and is cut in three.
    passes = 1 if workload.op == "serve" else PASSES
    num_ops = max(round(workload.ops_per_second * seconds / divisor / passes), 3)
    if workload.data == "clustered":
        lists = _clustered_lists(num_sets, CORPUS_SEED)
    else:
        lists = _table2_lists(workload.data, num_sets, CORPUS_SEED)
    vocabulary = sorted({token for tokens in lists for token in tokens})
    rng = random.Random(f"{name}:{seed}")
    if workload.op == "knn" or workload.op == "serve":
        ops: list = [_knn(_perturbed(lists, vocabulary, rng)) for _ in range(num_ops)]
    elif workload.op == "batch":
        ops = [
            [
                _knn(tokens) if i % 2 == 0
                else {"kind": "range", "tokens": tokens, "threshold": RANGE_THRESHOLD}
                for i, tokens in enumerate(_perturbed(lists, vocabulary, rng) for _ in range(BATCH))
            ]
            for _ in range(num_ops)
        ]
    else:
        ops = [{"kind": "join", "threshold": JOIN_THRESHOLD} for _ in range(num_ops)]
    if workload.op == "serve":
        mixed = _mixed_ops(lists, vocabulary, round(num_ops * 0.9), (0.60, 0.28, 0.12), rng, str(seed))
    else:
        mixed = _mixed_ops(
            lists, vocabulary, max(LIBRARY_WRITES // divisor, 20), (0.0, 0.7, 0.3), rng, str(seed)
        )
    per_op = BATCH if workload.op == "batch" else 1
    gate_ops = min(len(ops), -(-GATE_REQUESTS // per_op))
    gate = sorted(rng.sample(range(len(ops)), gate_ops))
    return Inputs(
        workload, seed, lists, ops, mixed, gate, probe=_knn(_perturbed(lists, vocabulary, rng))
    )
