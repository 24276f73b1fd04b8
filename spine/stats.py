"""Order statistics shared by the driver, the load generator and the tracer."""

from __future__ import annotations

import math
from statistics import median
from typing import Sequence

__all__ = ["median", "percentile", "slices", "summarize"]


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with ``share`` of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[min(len(ordered) - 1, max(math.ceil(share * len(ordered)) - 1, 0))]


def slices(count: int, parts: int = 3) -> list[range]:
    """Cut ``range(count)`` into ``min(parts, count)`` consecutive, near-equal passes."""
    parts = max(min(parts, count), 1)
    edges = [round(i * count / parts) for i in range(parts + 1)]
    return [range(edges[i], edges[i + 1]) for i in range(parts)]


def summarize(per_pass: Sequence[float]) -> dict:
    """A metric is the median of its passes; min and max ride along for the printout."""
    return {"value": median(per_pass), "min": min(per_pass), "max": max(per_pass)}
