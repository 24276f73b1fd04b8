"""Resilience primitives: per-query deadlines.

This module is dependency-free and import-cycle-neutral: it is used by
the engines (:mod:`repro.core.engine`, :mod:`repro.distributed.sharded`),
the public API (:mod:`repro.api`) and the serving layer
(:mod:`repro.serve`), none of which it imports back.
"""

from __future__ import annotations

import time
from typing import Callable


class DeadlineExceeded(TimeoutError):
    """A query ran past its deadline (HTTP 504 at the serving layer)."""


class Deadline:
    """A point in monotonic time a query must not run past.

    >>> Deadline(60.0).expired()
    False
    >>> Deadline(0.0).remaining() <= 0.0
    True
    """

    __slots__ = ("expires_at",)

    def __init__(
        self, seconds: float, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.expires_at = clock() + float(seconds)

    @classmethod
    def from_timeout_ms(cls, timeout_ms: float | None) -> "Deadline | None":
        """Build from a request-level ``timeout_ms`` (``None`` passes through)."""
        if timeout_ms is None:
            return None
        return cls(float(timeout_ms) / 1000.0)

    def remaining(self) -> float:
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, context: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed."""
        if self.expired():
            suffix = f" ({context})" if context else ""
            raise DeadlineExceeded(f"deadline exceeded{suffix}")
