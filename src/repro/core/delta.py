"""Append-only delta segments: the durable write path over a saved generation.

A saved index directory is an immutable *generation*: ``dataset.bin``,
``dataset.txt``, the manifests and group files are never rewritten in
place.  Mutations of a loaded engine are instead absorbed by a
:class:`DeltaSegment` — the engine applies each ``insert``/``remove`` to
its in-memory structures (the mapped dataset grows a CSR *tail*, see
:class:`repro.storage.columnar_file.MappedColumnarView`) and appends one
checksummed JSON line to ``delta.log`` inside the generation directory:

    {"check": "…", "group": 3, "index": 120, "op": "insert",
     "shard": 1, "tokens": ["a", "b"]}
    {"check": "…", "group": 0, "index": 7, "op": "remove", "shard": 0}

The log records the *outcome* of routing (the record index, the target
shard and group), not just the request — replay is therefore a
deterministic re-application, independent of the routing heuristics, so
a reload of base + delta answers queries identically to the engine that
performed the writes.  Token strings use the same ``str(token)`` normal
form as ``dataset.txt``.

Durability follows write-ahead-log conventions:

* every append opens the log, writes one line, flushes, fsyncs, and
  closes — a crash never leaves a stale open handle across a compaction
  swap, and a committed op survives power loss;
* each line carries a truncated SHA-256 over its canonical body in the
  ``check`` field;
* on read, a torn *final* line (the classic crash-mid-append) is
  truncated and ignored; a corrupt line anywhere else — bad JSON
  mid-log, a checksum mismatch, an unknown op shape — raises
  :class:`~repro.core.persistence.PersistenceError`, because silently
  skipping committed ops would serve wrong answers.

``repro compact`` folds the delta into a fresh generation (the staged
directory simply carries no ``delta.log``) through the same
crash-safe :func:`~repro.core.persistence.atomic_directory` swap every
save uses; see :mod:`repro.maintenance`.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Sequence

from repro.core.sets import SetRecord

if TYPE_CHECKING:  # pragma: no cover — import cycle: dataset users import us
    from repro.core.dataset import Dataset
from repro.testing.faults import fault_point

__all__ = [
    "DELTA_LOG",
    "DeltaSegment",
    "read_delta_ops",
    "apply_insert_op",
    "apply_group_ops",
]

#: File name of the write-ahead delta log inside a generation directory.
DELTA_LOG = "delta.log"

_OPS = ("insert", "remove")


def _persistence_error(message: str) -> Exception:
    # Imported lazily: repro.core.persistence imports this module.
    from repro.core.persistence import PersistenceError

    return PersistenceError(message)


def _op_check(body: dict) -> str:
    """Truncated SHA-256 over the canonical JSON of an op body (sans check)."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _validate_op(op: dict, line_number: int, path: Path) -> dict:
    def fail(reason: str) -> Exception:
        return _persistence_error(
            f"delta log {path} line {line_number} {reason} — the write-ahead "
            "log is corrupt; refusing to load a wrong-answer engine"
        )

    if not isinstance(op, dict) or op.get("op") not in _OPS:
        raise fail("is not a delta operation")
    recorded = op.get("check")
    body = {key: value for key, value in op.items() if key != "check"}
    if recorded != _op_check(body):
        raise fail("fails its checksum (torn or tampered mid-log write)")
    index = op.get("index")
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise fail("has no valid record index")
    for field in ("shard", "group"):
        value = op.get(field)
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < 0
        ):
            raise fail(f"has an invalid {field!r} field")
    if op["op"] == "insert":
        tokens = op.get("tokens")
        if (
            not isinstance(tokens, list)
            or not tokens
            or not all(isinstance(token, str) for token in tokens)
        ):
            raise fail("records an insert without its token strings")
        if op.get("group") is None:
            raise fail("records an insert without its target group")
    return op


def read_delta_ops(directory: str | Path) -> list[dict]:
    """Read and validate every committed op of a generation's delta log.

    Returns ``[]`` when the directory has no ``delta.log`` (a freshly
    compacted or never-mutated generation).  A torn final line is
    ignored — WAL semantics: the op never committed.  Any earlier
    corruption raises :class:`~repro.core.persistence.PersistenceError`.
    """
    path = Path(directory) / DELTA_LOG
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return []
    lines = raw.decode("utf-8", errors="replace").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    ops: list[dict] = []
    for line_number, line in enumerate(lines, start=1):
        try:
            op = json.loads(line)
        except json.JSONDecodeError:
            if line_number == len(lines):
                break  # torn final append: the op never committed
            raise _persistence_error(
                f"delta log {path} line {line_number} is not valid JSON but is "
                "not the final line — mid-log corruption; refusing to load"
            ) from None
        ops.append(_validate_op(op, line_number, path))
    return ops


class DeltaSegment:
    """The write-ahead log of one generation directory.

    Attached to an engine by ``save``/``load`` (never by an in-memory
    build); the engine calls :meth:`log_insert` / :meth:`log_remove`
    *after* applying the mutation in memory, so the log records routing
    outcomes.  ``num_ops`` counts the ops currently committed to the log
    (replayed ops included), which is what a compaction reports folding.
    """

    __slots__ = ("directory", "num_ops")

    def __init__(self, directory: str | Path, num_ops: int = 0) -> None:
        self.directory = Path(directory)
        self.num_ops = num_ops

    @property
    def path(self) -> Path:
        return self.directory / DELTA_LOG

    def _append(self, body: dict) -> None:
        line = json.dumps(
            {**body, "check": _op_check(body)},
            sort_keys=True,
            separators=(",", ":"),
        )
        fault_point("delta.append", f"{body['op']}:{self.path}")
        # Open-per-append: no handle survives across a compaction's
        # directory swap, and the fsync makes the op durable before the
        # caller acknowledges the write.
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.num_ops += 1

    def log_insert(
        self,
        tokens: Sequence[Hashable],
        index: int,
        group: int,
        shard: int | None = None,
    ) -> None:
        """Record a committed insert: its tokens and where it was routed."""
        body: dict = {
            "op": "insert",
            "tokens": [str(token) for token in tokens],
            "index": index,
            "group": group,
        }
        if shard is not None:
            body["shard"] = shard
        self._append(body)

    def log_remove(self, index: int, group: int, shard: int | None = None) -> None:
        """Record a committed logical delete (tombstone)."""
        body: dict = {"op": "remove", "index": index, "group": group}
        if shard is not None:
            body["shard"] = shard
        self._append(body)


def apply_insert_op(dataset: "Dataset", op: dict) -> SetRecord:
    """Re-apply one insert op to a dataset; returns the appended record.

    Tokens are interned (open universe, same order as the original
    insert), the record is appended, and the resulting index must equal
    the one the log recorded — a mismatch means the log and the base
    generation drifted apart (e.g. files from different saves).
    """
    token_ids = dataset.universe.intern_all(op["tokens"])
    record = SetRecord(token_ids)
    index = dataset.append(record)
    if index != op["index"]:
        raise _persistence_error(
            f"delta log op expected record index {op['index']}, replay produced "
            f"{index} — the delta log does not align with the base generation"
        )
    return record


def apply_group_ops(groups: list[list[int]], ops: Sequence[dict], shard: int | None = None) -> None:
    """Fold delta ops into plain group-membership lists, in log order.

    ``groups`` is one engine's (or one shard's) ``group_members`` lists;
    when ``shard`` is given, only ops recorded for that shard apply.
    Inserts append the record index to its recorded group; removes drop
    it again.  Misalignment (unknown group, index not present on remove)
    raises :class:`~repro.core.persistence.PersistenceError`.
    """
    for op in ops:
        if shard is not None and op.get("shard") != shard:
            continue
        group = op.get("group")
        if group is None or group >= len(groups):
            raise _persistence_error(
                f"delta log references group {group!r} outside the saved "
                f"{len(groups)} group(s) — log and base generation mismatch"
            )
        if op["op"] == "insert":
            groups[group].append(op["index"])
        else:
            try:
                groups[group].remove(op["index"])
            except ValueError:
                raise _persistence_error(
                    f"delta log removes record {op['index']} from group {group}, "
                    "which does not hold it — log and base generation mismatch"
                ) from None
