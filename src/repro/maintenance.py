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

from repro.core.persistence import (
    DATASET_BIN,
    PersistenceError,
    _load_engine,
    recover_interrupted_swap,
    save_engine,
)
from repro.distributed.persistence import (
    is_sharded_index,
    _load_sharded,
    save_sharded,
)
from repro.distributed.sharded import ShardedLES3, _build_concurrently
from repro.distributed.sharding import lpt_balance
from repro.core.tgm import TokenGroupMatrix
from repro.testing.faults import fault_point

__all__ = ["compact_index", "rebalance_index"]


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
    # mmap keeps the fold cheap (no text parse) and is bit-identical;
    # pre-v3 saves have no dataset.bin and fall back to the text load.
    mode = "mmap" if (directory / DATASET_BIN).is_file() else "memory"
    fault_point("compact.load", str(directory))
    if is_sharded_index(directory):
        engine = _load_sharded(directory, workers=workers, mode=mode)
        ops_folded = engine._delta.num_ops
        fault_point("compact.fold", str(directory))
        save_sharded(engine, directory)
        return {
            "sharded": True,
            "num_shards": engine.num_shards,
            "ops_folded": ops_folded,
            "num_records": len(engine.dataset),
            "num_tombstones": len(engine.removed),
        }
    engine = _load_engine(directory, mode=mode)
    ops_folded = engine._delta.num_ops
    fault_point("compact.fold", str(directory))
    save_engine(engine, directory)
    return {
        "sharded": False,
        "ops_folded": ops_folded,
        "num_records": len(engine.dataset),
        "num_tombstones": len(engine.removed),
    }


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
    if num_shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    directory = Path(directory)
    recover_interrupted_swap(directory)
    mode = "mmap" if (directory / DATASET_BIN).is_file() else "memory"
    fault_point("rebalance.load", str(directory))
    if is_sharded_index(directory):
        source = _load_sharded(directory, workers=workers, mode=mode)
        dataset = source.dataset
        groups = [
            list(members)
            for shard_groups in source._shard_groups
            for members in shard_groups
        ]
        measure = source.measure
        backend = source.tgms[0].backend
        verify = source.verify
        removed = set(source.removed)
        ops_folded = source._delta.num_ops
    else:
        source = _load_engine(directory, mode=mode)
        dataset = source.dataset
        groups = [list(members) for members in source.tgm.group_members]
        measure = source.measure
        backend = source.tgm.backend
        verify = source.verify
        removed = set(source.removed)
        ops_folded = source._delta.num_ops
    if not groups:
        raise PersistenceError(
            f"{directory} holds no groups — nothing to rebalance"
        )
    num_shards = min(num_shards, len(groups)) or 1
    bins = lpt_balance([len(group) for group in groups], num_shards)
    shard_groups = [[groups[group_id] for group_id in bin_] for bin_ in bins]

    def shard_builder(assigned):
        def build() -> TokenGroupMatrix:
            return TokenGroupMatrix(dataset, assigned, measure, backend)

        return build

    fault_point("rebalance.build", str(directory))
    tgms = _build_concurrently(
        [shard_builder(assigned) for assigned in shard_groups], workers
    )
    engine = ShardedLES3(dataset, tgms, measure, verify=verify)
    engine.placement = "lpt"
    engine.removed = {record_index: 0 for record_index in removed}
    save_sharded(engine, directory)
    return {
        "num_shards": engine.num_shards,
        "num_groups": engine.num_groups,
        "num_records": len(dataset),
        "ops_folded": ops_folded,
        "shard_sizes": engine.shard_sizes(),
    }
