"""Saving and loading a built LES3 engine.

Partitioning (model training) is the expensive build step; persisting the
result makes the index reusable across processes.  The on-disk layout is a
directory of small files — no pickling:

    <dir>/
      manifest.json    # measure, backend, universe size, format version,
                       # verify mode, logically deleted record indices,
                       # generation epoch (v4)
      dataset.txt      # one set per line (external tokens) — interchange form
      dataset.bin      # binary columnar dataset (CSR arrays + universe),
                       # the np.memmap target of mode="mmap" loads
      groups.json      # record-index lists per group
      delta.log        # write-ahead log of post-save mutations (absent on
                       # a freshly saved/compacted generation) — see
                       # repro.core.delta

The TGM is rebuilt from the groups at load time (cheaper than
serialising bitmaps, and immune to backend format drift).
:func:`load_engine` reads the dataset either way: ``mode="memory"``
parses the text file into records, ``mode="mmap"`` maps the binary
columnar file (:mod:`repro.storage.columnar_file`) so queries run
without materializing records at all.

Deletes are logical: a removed record keeps its line in ``dataset.txt``
(indices are stable) but belongs to no group.  Format v2 records those
indices in the manifest's ``deleted`` list so the load-time coverage
check can tell an intentional tombstone from a corrupt ``groups.json``;
v1 directories (written before deletes were persistable) are still read,
with an empty deleted set.

The building blocks — :func:`write_index_files`, :func:`read_index_json`,
:func:`parse_manifest_state`, :func:`read_groups` — are shared with the
sharded lifecycle (:mod:`repro.distributed.persistence`): each shard
subdirectory of a sharded save carries the same v2 ``manifest.json`` +
``groups.json`` pair, so the v2 invariants (``deleted``, ``verify``)
carry over unchanged.  See ``docs/persistence.md`` for the full on-disk
format reference.

Every integrity failure raises :class:`PersistenceError` (a
:class:`ValueError` subclass), never a wrong-answer engine.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.core.columnar import VERIFY_MODES
from repro.core.dataset import Dataset
from repro.core.engine import LES3
from repro.core.similarity import get_measure
from repro.core.tgm import TokenGroupMatrix
from repro.testing.faults import fault_point

__all__ = [
    "PersistenceError",
    "atomic_directory",
    "recover_interrupted_swap",
    "manifest_epoch",
    "save_engine",
    "load_engine",
    "engine_manifest",
    "write_index_files",
    "write_dataset_files",
    "open_mapped_dataset",
    "read_index_json",
    "parse_manifest_state",
    "read_groups",
    "file_digest",
    "check_dataset_digest",
    "SHARDED_MANIFEST_KEY",
    "DATASET_BIN",
    "LOAD_MODES",
]

_FORMAT_VERSION = 4
_SUPPORTED_VERSIONS = (1, 2, 3, 4)

#: File name of the binary columnar dataset written next to ``dataset.txt``
#: by every v3 save (single-engine and sharded alike).
DATASET_BIN = "dataset.bin"

#: Load modes of :func:`load_engine` (``load_sharded`` adds ``"lazy"``).
LOAD_MODES = ("memory", "mmap")

#: Manifest key that marks a directory as a *sharded* save.  The single
#: format discriminator shared by :func:`read_index_manifest`, the
#: sharded loader, and the CLI's auto-detection
#: (:func:`repro.distributed.persistence.is_sharded_index`).
SHARDED_MANIFEST_KEY = "sharded_format_version"


def file_digest(path: str | Path) -> str:
    """``sha256:<hex>`` over a file's bytes (the manifest digest format)."""
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_dataset_digest(manifest: dict, directory: Path) -> None:
    """Verify ``dataset.txt`` against the manifest's recorded digest.

    Manifests written before the digest existed (single-engine saves up
    to v2-without-digest) simply skip the check; when the field is
    present, a mismatch — tampering, or a re-save that crashed between
    the dataset write and the manifest write — refuses to load.
    """
    recorded = manifest.get("dataset_digest")
    if recorded is None:
        return
    actual = file_digest(directory / "dataset.txt")
    if recorded != actual:
        raise PersistenceError(
            f"dataset.txt digest mismatch (manifest {recorded!r}, file "
            f"{actual!r}) — index directory is corrupt or mid-rewrite"
        )


class PersistenceError(ValueError):
    """An index directory cannot be read or written safely.

    Raised for every integrity failure — unknown format versions,
    truncated or non-JSON files, record-count mismatches, coverage
    violations, digest mismatches of sharded saves.  Subclasses
    :class:`ValueError` so pre-existing ``except ValueError`` call sites
    keep working.  Loading never "repairs" a corrupt directory: for an
    exact search engine a silently wrong index is the worst failure
    mode, so any inconsistency raises instead of answering queries.
    """


# -- crash-safe directory replacement --------------------------------------


def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_tree(root: Path) -> None:
    """fsync every file, then every directory, of ``root`` (bottom-up)."""
    for dirpath, _dirnames, filenames in os.walk(root, topdown=False):
        for name in sorted(filenames):
            relative = os.path.relpath(os.path.join(dirpath, name), root)
            fault_point("save.fsync_file", relative)
            _fsync_path(Path(dirpath) / name)
        fault_point("save.fsync_dir", os.path.relpath(dirpath, root))
        _fsync_path(Path(dirpath))


def _clear_stale_siblings(target: Path) -> None:
    """Remove leftovers of crashed saves (``<name>.tmp-*`` / ``<name>.old-*``)."""
    for pattern in (f"{target.name}.tmp-*", f"{target.name}.old-*"):
        for stale in target.parent.glob(pattern):
            shutil.rmtree(stale, ignore_errors=True)


@contextmanager
def atomic_directory(target: str | Path) -> Iterator[Path]:
    """Build a directory crash-safely: stage, fsync, atomically swap.

    The block receives a fresh staging directory (``<target>.tmp-<pid>``,
    a sibling so the rename stays within one filesystem) and writes the
    full new contents into it.  On normal exit every staged file and
    directory is fsynced, then the staging directory is renamed into
    place — replacing an existing generation via a two-step swap through
    ``<target>.old-<pid>`` — and the parent directory is fsynced so the
    rename itself is durable.

    A crash (or exception) at *any* point leaves ``target`` either the
    complete old save, absent (mid-swap, with the old generation parked
    at the ``.old-<pid>`` sibling), or the complete new save — never a
    half-written directory.  Stale ``.tmp-*`` / ``.old-*`` siblings from
    crashed saves are cleared on the next save of the same target;
    loaders heal the absent-mid-swap case by restoring the parked old
    generation (:func:`recover_interrupted_swap`) before reading.

    >>> import tempfile, os
    >>> parent = tempfile.mkdtemp()
    >>> with atomic_directory(os.path.join(parent, "gen")) as staging:
    ...     _ = (staging / "data.txt").write_text("v1")
    >>> sorted(os.listdir(os.path.join(parent, "gen")))
    ['data.txt']
    """
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    _clear_stale_siblings(target)
    staging = target.parent / f"{target.name}.tmp-{os.getpid()}"
    staging.mkdir()
    try:
        yield staging
        _fsync_tree(staging)
        fault_point("save.swap", str(target))
        if target.exists():
            retired = target.parent / f"{target.name}.old-{os.getpid()}"
            os.rename(target, retired)
            fault_point("save.swap_mid", str(target))
            os.rename(staging, target)
            fault_point("save.retire", str(retired))
            shutil.rmtree(retired, ignore_errors=True)
        else:
            os.rename(staging, target)
        _fsync_path(target.parent)
        fault_point("save.committed", str(target))
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        # An exception between the two swap renames leaves the old
        # generation parked at the .old sibling: roll it back into place
        # (a hard crash there is healed by loaders never reading .old and
        # the next save clearing it — but for exceptions we can do better).
        retired = target.parent / f"{target.name}.old-{os.getpid()}"
        if retired.exists() and not target.exists():
            os.rename(retired, target)
        raise


def recover_interrupted_swap(target: str | Path) -> bool:
    """Heal a hard crash that struck between the two swap renames.

    A SIGKILL after the old generation was parked at ``.old-<pid>`` but
    before the staged one was renamed in leaves ``target`` absent — with
    the complete old generation (its ``delta.log`` included) sitting in
    the parked sibling.  Exceptions roll this back inline; a hard kill
    cannot, so every loader calls this first: when ``target`` is absent
    and exactly one parked sibling exists, it is renamed back into place
    (and the orphaned staging directory discarded — whether it was fully
    fsynced is unknowable after a kill, the old generation never is).
    Returns True when a recovery happened.
    """
    target = Path(target)
    if target.exists():
        return False
    parked = sorted(target.parent.glob(f"{target.name}.old-*"))
    if len(parked) != 1:
        return False
    os.rename(parked[0], target)
    _fsync_path(target.parent)
    for stale in target.parent.glob(f"{target.name}.tmp-*"):
        shutil.rmtree(stale, ignore_errors=True)
    return True


# -- shared low-level pieces (also used by the sharded lifecycle) ----------


def manifest_epoch(manifest: dict) -> str:
    """The deterministic generation epoch of a v4 manifest.

    A ``sha256:`` digest over the manifest's canonical JSON (the
    ``epoch`` field itself excluded, so the value is well defined).  The
    epoch names a *generation*: a compaction produces a new manifest and
    therefore a new epoch, while mutations logged to the delta segment
    leave it unchanged.
    """
    body = {key: value for key, value in manifest.items() if key != "epoch"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def engine_manifest(
    measure: str,
    backend: str,
    num_records: int,
    universe_size: int,
    verify: str,
    deleted: list[int],
) -> dict:
    """The single-engine (and per-shard) manifest dictionary (format v4)."""
    return {
        "format_version": _FORMAT_VERSION,
        "measure": measure,
        "backend": backend,
        "num_records": num_records,
        "universe_size": universe_size,
        "verify": verify,
        "deleted": deleted,
    }


def write_index_files(directory: str | Path, groups: list[list[int]], manifest: dict) -> None:
    """Write ``groups.json`` + ``manifest.json`` into ``directory``.

    Creates the directory if missing.  This is the writer shared by
    :func:`save_engine` (which adds ``dataset.txt``) and the per-shard
    subdirectories of :func:`repro.distributed.persistence.save_sharded`
    (which store the dataset once at the top level instead).  A v4
    manifest that doesn't carry its ``epoch`` key yet gets it stamped
    here, once every content field is final.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if manifest.get("format_version", 0) >= 4 and "epoch" not in manifest:
        manifest["epoch"] = manifest_epoch(manifest)
    with open(directory / "groups.json", "w") as handle:
        json.dump(groups, handle)
    with open(directory / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2)


def write_dataset_files(dataset: Dataset, directory: Path) -> dict:
    """Write ``dataset.txt`` + ``dataset.bin``; return their digest fields.

    The text file remains the interchange format; the binary columnar
    file (:class:`~repro.storage.columnar_file.ColumnarFileWriter`) is
    what the ``mode="mmap"`` / ``mode="lazy"`` load paths map.  Returns
    ``{"dataset_digest": ..., "dataset_bin_digest": ...}`` for the
    manifest.
    """
    from repro.storage.columnar_file import ColumnarFileWriter

    dataset.save(directory / "dataset.txt")
    ColumnarFileWriter(directory / DATASET_BIN).write(dataset)
    return {
        "dataset_digest": file_digest(directory / "dataset.txt"),
        "dataset_bin_digest": file_digest(directory / DATASET_BIN),
    }


def open_mapped_dataset(directory: Path, manifest: dict) -> Dataset:
    """Open ``dataset.bin`` as a mapped dataset, cross-checked with the manifest.

    The binary header's record and universe totals must agree with the
    manifest (a mismatch means the directory holds files from different
    saves); the mapped dataset is otherwise served lazily — see
    :meth:`~repro.core.dataset.Dataset.from_columnar_file`.
    """
    from repro.storage.columnar_file import ColumnarFileReader

    path = directory / DATASET_BIN
    if not path.is_file():
        raise PersistenceError(
            f"{directory} has no {DATASET_BIN} — it was saved before format v3; "
            "load it with mode='memory' (or re-save it to add the binary dataset)"
        )
    reader = ColumnarFileReader(path, mode="mmap")
    for field, actual in (
        ("num_records", reader.num_records),
        ("universe_size", reader.universe_size),
    ):
        if manifest.get(field) is not None and manifest[field] != actual:
            raise PersistenceError(
                f"{DATASET_BIN} header says {field}={actual}, manifest says "
                f"{manifest[field]} — index directory mixes files from different saves"
            )
    return Dataset.from_columnar_file(reader)


def read_index_json(path: str | Path, description: str) -> Any:
    """Parse one JSON file of an index directory.

    A missing file propagates :class:`FileNotFoundError` (the caller
    decides whether that means "no index here" or "corrupt index"); a
    truncated or otherwise non-JSON file raises :class:`PersistenceError`
    naming the file.
    """
    path = Path(path)
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as error:
        raise PersistenceError(
            f"{description} at {path} is not valid JSON "
            f"(truncated write or corruption): {error}"
        ) from error


def parse_manifest_state(manifest: dict, num_records: int) -> tuple[set[int], str]:
    """Validate and extract the v2 state fields: ``(deleted, verify)``.

    Applies the v1 defaults (nothing deleted, columnar verification) when
    the fields are absent; raises :class:`PersistenceError` when they are
    present but malformed.
    """
    deleted_raw = manifest.get("deleted", [])
    if not isinstance(deleted_raw, list) or not all(
        isinstance(index, int) and not isinstance(index, bool)
        and 0 <= index < num_records
        for index in deleted_raw
    ):
        raise PersistenceError(
            "manifest 'deleted' must list record indices inside the dataset"
        )
    verify = manifest.get("verify", "columnar")
    if verify not in VERIFY_MODES:
        raise PersistenceError(
            f"manifest 'verify' must be one of {VERIFY_MODES}, got {verify!r}"
        )
    return set(deleted_raw), verify


def read_groups(directory: str | Path) -> list[list[int]]:
    """Read and shape-check ``groups.json`` (content checks are separate)."""
    groups = read_index_json(Path(directory) / "groups.json", "groups file")
    if not isinstance(groups, list) or not all(
        isinstance(group, list)
        and all(isinstance(index, int) and not isinstance(index, bool) for index in group)
        for group in groups
    ):
        raise PersistenceError(
            f"groups.json in {directory} must hold lists of record indices"
        )
    return groups


def check_exact_cover(
    groups: list[list[int]], deleted: set[int], num_records: int, context: str
) -> None:
    """Groups plus tombstones must cover ``range(num_records)`` exactly once."""
    assigned = sorted(index for group in groups for index in group)
    expected = sorted(set(range(num_records)) - deleted)
    if assigned != expected:
        raise PersistenceError(
            f"{context} does not cover the dataset exactly once "
            "(manifest-deleted records excepted)"
        )


def read_index_manifest(directory: str | Path) -> dict:
    """Read a *single-engine* manifest, rejecting foreign formats clearly."""
    manifest = read_index_json(Path(directory) / "manifest.json", "index manifest")
    if not isinstance(manifest, dict):
        raise PersistenceError(f"index manifest in {directory} must be a JSON object")
    if SHARDED_MANIFEST_KEY in manifest:
        raise PersistenceError(
            f"{directory} holds a sharded index; load it with "
            "repro.distributed.load_sharded (or `repro` commands, which "
            "auto-detect it)"
        )
    if manifest.get("format_version") not in _SUPPORTED_VERSIONS:
        raise PersistenceError(
            f"unsupported index format version {manifest.get('format_version')!r}"
        )
    return manifest


# -- the public single-engine API ------------------------------------------


def save_engine(engine: LES3, directory: str | Path) -> None:
    """Persist a built engine to ``directory`` (created if missing).

    Parameters
    ----------
    engine : LES3
        A built engine; its dataset, group structure, verify mode, and
        delete log are all captured.
    directory : str or Path
        Target directory; created if missing, atomically replaced if
        present.

    Returns
    -------
    None
        The directory holds ``manifest.json``, ``dataset.txt``,
        ``dataset.bin`` (the binary columnar dataset the mmap load path
        maps), and ``groups.json`` afterwards (format v3).

    Notes
    -----
    The save is **crash-safe**: all files are written into a
    ``<directory>.tmp-<pid>`` sibling, fsynced, and renamed into place
    (:func:`atomic_directory`).  A crash at any point leaves the target
    either the previous save, absent, or the new save — never a
    half-written directory that :func:`repro.load` would reject.

    See Also
    --------
    load_engine : the inverse operation.
    repro.distributed.persistence.save_sharded : the sharded variant.

    Examples
    --------
    >>> import tempfile, os, repro
    >>> from repro import Dataset, LES3
    >>> from repro.core import save_engine
    >>> dataset = Dataset.from_token_lists([["a", "b"], ["b", "c"], ["x", "y"]])
    >>> engine = LES3.build(dataset, num_groups=2)
    >>> path = os.path.join(tempfile.mkdtemp(), "index")
    >>> save_engine(engine, path)
    >>> repro.load(path).knn(["a", "b"], k=1).matches
    [(0, 1.0)]
    >>> repro.load(path, mode="mmap").knn(["a", "b"], k=1).matches
    [(0, 1.0)]
    """
    # The engine's own delete log, NOT the records missing from the groups:
    # a record that is unassigned without having been removed is an orphan
    # (partitioner bug, hand-built TGM), and writing it as a tombstone
    # would silently legitimize it — the load-time coverage check must
    # keep catching that mismatch.
    from repro.core.delta import DeltaSegment

    manifest = engine_manifest(
        measure=engine.measure.name,
        backend=engine.tgm.backend,
        num_records=len(engine.dataset),
        universe_size=len(engine.dataset.universe),
        verify=engine.verify,
        deleted=sorted(engine.removed),
    )
    with atomic_directory(directory) as staging:
        manifest.update(write_dataset_files(engine.dataset, staging))
        # The staged generation carries no delta.log: a save folds every
        # pending delta op into the new base, which is what compaction is.
        write_index_files(staging, engine.tgm.group_members, manifest)
    engine._delta = DeltaSegment(directory)


def load_engine(directory: str | Path, mode: str = "memory") -> LES3:
    """Deprecated alias of :func:`repro.load` for single-engine saves.

    Kept as a documented thin wrapper: it behaves exactly like
    :func:`_load_engine` always has, but new code should call
    :func:`repro.load`, which auto-detects single-engine vs sharded
    directories and accepts one uniform set of options for both.  See
    the migration note in ``docs/persistence.md``.
    """
    warnings.warn(
        "load_engine is deprecated; use repro.load(directory, mode=...) — "
        "it auto-detects single-engine and sharded saves",
        DeprecationWarning,
        stacklevel=2,
    )
    return _load_engine(directory, mode)


def _load_engine(directory: str | Path, mode: str = "memory") -> LES3:
    """Load an engine persisted by :func:`save_engine`.

    Reads the current format (v3) as well as v2 and v1 directories (v1:
    no ``deleted`` / ``verify`` fields — nothing was removed,
    verification defaults to columnar).  The groups plus the deleted
    list must cover the dataset exactly once; the loaded engine
    re-applies the deletions, so queries answer identically to the
    engine that was saved.

    Parameters
    ----------
    directory : str or Path
        An index directory written by :func:`save_engine`.
    mode : {"memory", "mmap"}, default ``"memory"``
        ``"memory"`` parses ``dataset.txt`` into Python records (any
        format version).  ``"mmap"`` maps the binary columnar
        ``dataset.bin`` (v3 saves) with ``np.memmap`` instead: queries
        read only the pages they touch and no record objects are
        materialized — answers are bit-identical either way.

    Returns
    -------
    LES3
        A rebuilt engine answering knn/range/join queries identically to
        the one that was saved, delete log and verify mode included.

    Raises
    ------
    PersistenceError
        If any file is corrupt, the format version is unknown, the
        groups don't cover the dataset exactly once, ``mode="mmap"`` is
        asked of a pre-v3 directory (no ``dataset.bin``), or the
        directory holds a *sharded* index (use
        :func:`repro.distributed.load_sharded` for those).
    FileNotFoundError
        If the directory or one of its files does not exist.
    """
    from repro.core.delta import (
        DeltaSegment,
        apply_group_ops,
        apply_insert_op,
        read_delta_ops,
    )

    if mode not in LOAD_MODES:
        raise ValueError(f"unknown load mode {mode!r}; expected one of {LOAD_MODES}")
    directory = Path(directory)
    recover_interrupted_swap(directory)
    manifest = read_index_manifest(directory)
    if mode == "mmap":
        dataset = open_mapped_dataset(directory, manifest)
    else:
        check_dataset_digest(manifest, directory)
        dataset = Dataset.load(directory / "dataset.txt")
    if len(dataset) != manifest["num_records"]:
        raise PersistenceError(
            f"dataset.txt holds {len(dataset)} records, manifest says "
            f"{manifest['num_records']} — index directory is corrupt"
        )
    deleted, verify = parse_manifest_state(manifest, len(dataset))
    groups = read_groups(directory)
    check_exact_cover(groups, deleted, len(dataset), "groups.json")
    # Replay the write-ahead delta log over the immutable base: inserts
    # re-append their records (index-checked against the log), removes
    # become tombstones, and the group lists absorb both before the TGM
    # is built — so base + delta answers bit-identically to an engine
    # rebuilt from the folded state.
    ops = read_delta_ops(directory)
    removed = set(deleted)
    for op in ops:
        if op["op"] == "insert":
            apply_insert_op(dataset, op)
        else:
            removed.add(op["index"])
    if ops:
        apply_group_ops(groups, ops)
    tgm = TokenGroupMatrix(
        dataset, groups, get_measure(manifest["measure"]), manifest["backend"]
    )
    engine = LES3(dataset, tgm, verify=verify)
    engine.removed = removed
    engine._delta = DeltaSegment(directory, num_ops=len(ops))
    return engine
