"""The shared BENCH_*.json trajectory writer.

The standalone benchmarks (``bench_sharded.py``, ``bench_updates.py``)
append one entry per run to a JSON trajectory at the repo root, so
results are tracked across commits.  One definition of the
read-append-atomic-replace dance keeps the files from drifting.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["append_trajectory"]


def append_trajectory(path: Path, entry: dict) -> None:
    """Append ``entry`` to the JSON list at ``path`` (atomic replace).

    A run killed mid-write (or a hand edit) leaves truncated or non-list
    JSON; in that case a fresh trajectory is started rather than losing
    this (possibly minutes-long) run too — with a warning, so the loss
    of history is visible.
    """
    path = Path(path)
    trajectory = []
    if path.exists():
        try:
            trajectory = json.loads(path.read_text())
        except json.JSONDecodeError:
            trajectory = None
        if not isinstance(trajectory, list):
            print(f"# warning: {path} held no JSON trajectory, starting fresh")
            trajectory = []
    trajectory.append(entry)
    scratch = path.with_suffix(".tmp")
    scratch.write_text(json.dumps(trajectory, indent=2) + "\n")
    scratch.replace(path)  # atomic: never leaves a half-written trajectory
