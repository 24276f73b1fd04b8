"""Sharded query layer: scale-out beyond one monolithic engine.

Section 7.2 of the paper leaves distributed deployment as future work;
this package supplies the scatter-gather layer: deterministic shard
placement (:mod:`repro.distributed.sharding`), the exact sharded engine
(:class:`ShardedLES3`) with hierarchical shard → group → record bounds,
and :func:`save_sharded`, which persists one (the format lives in
:mod:`repro.core.persistence`; :func:`repro.load` is the inverse).
"""

from repro.core.persistence import save_sharded
from repro.distributed.sharded import LazyShardTGMs, ShardedLES3
from repro.distributed.sharding import SHARD_STRATEGIES, assign_shards, record_shard_hash

__all__ = [
    "ShardedLES3",
    "LazyShardTGMs",
    "save_sharded",
    "assign_shards",
    "record_shard_hash",
    "SHARD_STRATEGIES",
]
