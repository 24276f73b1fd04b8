"""A tiny thread-safe LRU used by every lazy/out-of-core cache.

Two places keep "build on first use, keep the last N resident" state:
lazily built shard TGMs (:class:`repro.distributed.sharded.LazyShardTGMs`)
and lazily materialized records of a mapped dataset
(:class:`repro.storage.columnar_file.LazyRecords`).  They share this one
implementation so the locking discipline lives in a single place — the
``workers=`` shard-build pool, and library callers that query one
engine from threads of their own, reach the same caches at once.

Values must be safe to build redundantly: a build runs *outside* the
lock (it may take seconds for a big shard), so two threads racing on the
same key may both build, and the first to publish wins.  Every current
use builds deterministic, immutable-after-construction values, for which
that is only duplicated work, never inconsistency.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

__all__ = ["LRUCache"]

V = TypeVar("V")


class LRUCache:
    """Get-or-build cache with bounded residency, safe under threads."""

    __slots__ = ("_lock", "_data", "capacity")

    def __init__(self, capacity: int) -> None:
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self.capacity = max(1, int(capacity))

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> V:
        """The cached value for ``key``, building (unlocked) on a miss.

        On a hit the entry is marked most recently used.  On a miss the
        ``build`` thunk runs outside the lock; if another thread
        published the key meanwhile, its value wins and this build's
        result is discarded.  Publishing evicts least-recently-used
        entries beyond :attr:`capacity`.
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
        value = build()
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
        return value

    def resident(self) -> list:
        """The currently resident values, least recently used first."""
        with self._lock:
            return list(self._data.values())
