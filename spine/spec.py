"""``BENCHMARK.json`` is the one place that names the workloads and the metrics.

Names, units, directions and bounds are written there and read here;
no Python file repeats them.  (``README.md`` explains them.)
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["ROOT", "BENCHMARK", "END_TO_END", "PER_LAYER", "EXACT_COUNTS"]

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK: dict = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Metric name → its entry (``unit``, ``better`` and, end to end, ``bound``), in file order.
END_TO_END: dict[str, dict] = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
PER_LAYER: dict[str, dict] = {metric["name"]: metric for metric in BENCHMARK["per_layer"]}
#: Counts the engine makes itself: they repeat exactly for a seed.  (The server's batch counts
#: depend on arrival timing and do not.)
EXACT_COUNTS = [
    name for name, metric in PER_LAYER.items() if metric["unit"] == "count" and not name.startswith("serve.")
]
