"""Index maintenance: delta compaction and on-disk re-sharding.

Two operations keep a long-lived generation directory healthy without a
Python-side rebuild (no partitioner training, no model fitting):

* :func:`compact_index` — fold a generation's write-ahead ``delta.log``
  into a fresh base generation.  The load path already replays the
  delta, so compaction is exactly *load + re-save*: the staged directory
  carries the folded dataset and groups and **no** delta log, and the
  swap rides the same crash-safe
  :func:`~repro.core.persistence.atomic_directory` two-step rename every
  save uses.  A crash at any point leaves the target either the old
  generation (base + its intact delta log — still loadable, still
  exact) or the complete new generation, never a mix.  The new
  manifest's epoch differs from the old.

* :func:`rebalance_index` — re-shard a saved index straight from its
  binary columnar file: groups are read from the shard manifests,
  re-binned across the target shard count with the same LPT policy as
  :meth:`~repro.distributed.sharded.ShardedLES3.from_engine`, shard TGMs
  are rebuilt from vectorized CSR gathers over the mapped dataset, and
  the result is saved through the same atomic swap.  Pending delta ops
  are folded in the process (a rebalance is also a compaction).

Both are exposed as CLI commands (``repro compact``, ``repro
rebalance``); see ``docs/persistence.md`` for the lifecycle reference.
"""

from __future__ import annotations

from pathlib import Path

from repro.api import load
from repro.core.persistence import (
    PersistenceError,
    has_binary_dataset,
    read_generation,
    recover_interrupted_swap,
    save_engine,
    save_sharded,
)
from repro.core.similarity import get_measure
from repro.distributed.sharded import ShardedLES3
from repro.testing.faults import fault_point

__all__ = ["compact_index", "rebalance_index"]


def _fold_mode(directory: Path) -> str:
    """mmap keeps a fold cheap (no text parse) and is bit-identical;
    pre-v3 saves have no dataset.bin and fall back to the text load."""
    return "mmap" if has_binary_dataset(directory) else "memory"


def compact_index(directory: str | Path, workers: int | None = None) -> dict:
    """Fold a generation's delta log into a fresh base generation.

    Loads the index (which replays ``delta.log`` over the base) and
    re-saves it in place through the crash-safe atomic swap; the new
    generation starts with an empty delta.  Single-engine and sharded
    saves are auto-detected.  Returns a summary dictionary:
    ``{"sharded", "ops_folded", "num_records", "num_tombstones"}`` (plus
    ``"num_shards"`` for sharded saves).

    Interrupting compaction at any injection point leaves the directory
    loadable: either the old generation with its delta log intact, or
    the complete new generation — never a mix (the swap is the same
    two-step rename every save uses).
    """
    directory = Path(directory)
    recover_interrupted_swap(directory)
    fault_point("compact.load", str(directory))
    engine = load(directory, mode=_fold_mode(directory), workers=workers)
    summary = {
        "sharded": isinstance(engine, ShardedLES3),
        "ops_folded": engine._delta.num_ops,
        "num_records": len(engine.dataset),
        "num_tombstones": len(engine.removed),
    }
    fault_point("compact.fold", str(directory))
    if isinstance(engine, ShardedLES3):
        summary["num_shards"] = engine.num_shards
        save_sharded(engine, directory)
    else:
        save_engine(engine, directory)
    return summary


def rebalance_index(
    directory: str | Path, num_shards: int, workers: int | None = None
) -> dict:
    """Re-shard a saved index in place, without re-partitioning.

    The saved groups (single-engine or sharded, pending delta ops
    folded) are spread over ``num_shards`` bins with the LPT balance
    policy, per-shard TGMs are rebuilt from the (mapped, when available)
    dataset, and the result replaces the directory through the atomic
    swap as a sharded save.  The learned partitioning — the groups
    themselves — is preserved exactly, so answers are unchanged; only
    the shard placement moves.  Tombstones carry over (attributed to
    shard 0, like :meth:`~repro.distributed.sharded.ShardedLES3.from_engine`).

    Returns ``{"num_shards", "num_groups", "num_records",
    "ops_folded", "shard_sizes"}``.
    """
    directory = Path(directory)
    recover_interrupted_swap(directory)
    fault_point("rebalance.load", str(directory))
    source = read_generation(directory, _fold_mode(directory))
    groups = [group for shard_groups, _, _ in source.shards for group in shard_groups]
    if not groups:
        raise PersistenceError(
            f"{directory} holds no groups — nothing to rebalance"
        )
    fault_point("rebalance.build", str(directory))
    removed = [index for _, _, deleted in source.shards for index in deleted]
    engine = ShardedLES3._from_groups(
        source.dataset, groups, get_measure(source.measure), source.shards[0][1],
        removed, num_shards, workers,
    )
    save_sharded(engine, directory)
    return {
        "num_shards": engine.num_shards,
        "num_groups": engine.num_groups,
        "num_records": len(engine.dataset),
        "ops_folded": source.num_ops,
        "shard_sizes": engine.shard_sizes(),
    }
