"""Sharded engine lifecycle: durable saves and concurrent-build loads.

A :class:`~repro.distributed.sharded.ShardedLES3` persists as one
directory holding the dataset *once* plus one subdirectory per shard:

    <dir>/
      manifest.json      # sharded manifest v1: placement policy, shard
                         # count, measure, verify, per-shard digests
      dataset.txt        # the global dataset, one set per line
      dataset.bin        # the global binary columnar dataset (the
                         # np.memmap target of mode="mmap"/"lazy" loads)
      shard-0000/
        manifest.json    # the single-engine manifest (deleted, verify)
        groups.json      # the shard's groups, *global* record indices
      shard-0001/
        ...

Each shard subdirectory reuses the single-engine v2 writer
(:func:`repro.core.persistence.write_index_files`), so the v2 invariants
— the ``deleted`` tombstone log and the ``verify`` mode — carry over
unchanged; only the dataset and the coverage check move up a level
(shard groups cover the dataset *jointly*, checked globally at load).
The top-level manifest records a SHA-256 digest of every shard's files,
so a truncated or tampered shard fails loudly instead of loading a
wrong-answer engine.  All integrity failures raise
:class:`~repro.core.persistence.PersistenceError`.

See ``docs/persistence.md`` for the full on-disk format reference.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path
from typing import Callable

from repro.core.columnar import VERIFY_MODES
from repro.core.dataset import Dataset
from repro.core.delta import (
    DeltaSegment,
    apply_group_ops,
    apply_insert_op,
    read_delta_ops,
)
from repro.core.persistence import (
    SHARDED_MANIFEST_KEY,
    PersistenceError,
    atomic_directory,
    check_dataset_digest,
    check_exact_cover,
    engine_manifest,
    manifest_epoch,
    open_mapped_dataset,
    parse_manifest_state,
    read_groups,
    read_index_json,
    recover_interrupted_swap,
    write_dataset_files,
    write_index_files,
)
from repro.core.similarity import get_measure
from repro.core.tgm import TokenGroupMatrix
from repro.distributed.sharded import LazyShardTGMs, ShardedLES3, _build_concurrently

__all__ = [
    "save_sharded",
    "load_sharded",
    "is_sharded_index",
    "SHARDED_FORMAT_VERSION",
    "SHARDED_LOAD_MODES",
]

SHARDED_FORMAT_VERSION = 1

#: Load modes of :func:`load_sharded` — the single-engine modes plus
#: ``"lazy"`` (mmap-backed dataset *and* on-demand shard TGMs).
SHARDED_LOAD_MODES = ("memory", "mmap", "lazy")

#: LRU capacity for lazily built shard TGMs (``mode="lazy"``) when the
#: caller doesn't pick one.
DEFAULT_RESIDENT_SHARDS = 4

_SHARD_FILES = ("manifest.json", "groups.json")


def is_sharded_index(directory: str | Path) -> bool:
    """True when ``directory`` holds a *sharded* save (vs single-engine).

    The discriminator is the presence of
    :data:`~repro.core.persistence.SHARDED_MANIFEST_KEY` in the top-level
    ``manifest.json``.  Unreadable or non-JSON manifests answer False —
    this is a cheap router (the CLI's auto-detection); the actual loaders
    do the integrity checking.
    """
    manifest = Path(directory) / "manifest.json"
    if not manifest.is_file():
        return False
    try:
        data = json.loads(manifest.read_text())
    except (OSError, json.JSONDecodeError):
        return False
    return isinstance(data, dict) and SHARDED_MANIFEST_KEY in data


def shard_dir_name(shard_id: int) -> str:
    """Canonical subdirectory name of shard ``shard_id`` (``shard-0042``)."""
    return f"shard-{shard_id:04d}"


def _shard_digest(shard_dir: Path) -> str:
    """SHA-256 over the shard's files, in fixed order."""
    digest = hashlib.sha256()
    for name in _SHARD_FILES:
        try:
            digest.update((shard_dir / name).read_bytes())
        except FileNotFoundError as error:
            raise PersistenceError(
                f"shard directory {shard_dir} is missing {name}"
            ) from error
    return "sha256:" + digest.hexdigest()


# -- save ------------------------------------------------------------------


def save_sharded(engine: ShardedLES3, directory: str | Path) -> None:
    """Persist a built sharded engine to ``directory`` (created if missing).

    The global dataset is written once; every shard gets a subdirectory
    with the standard single-engine v2 ``manifest.json`` (carrying that
    shard's ``deleted`` tombstones and the engine's ``verify`` mode) and
    ``groups.json`` (global record indices).  The top-level manifest
    records the placement policy, the shard count, and a digest of every
    shard's files.

    The save is **crash-safe**: the whole directory is staged as a
    ``<directory>.tmp-<pid>`` sibling, fsynced, and atomically renamed
    into place (:func:`repro.core.persistence.atomic_directory`) — a
    crash leaves the target either the previous save, absent, or the new
    save, never a half-written generation.  Because each save is a fresh
    staged directory, stale ``shard-NNNN`` subdirectories from a
    previous save with more shards can never survive a re-save.

    On success the engine is attached to ``directory``'s write-ahead
    ``delta.log``: later inserts/removes are durable there.

    Parameters
    ----------
    engine : ShardedLES3
        The engine to persist; dataset, shard groups, placement policy,
        verify mode, and delete log are all captured.
    directory : str or Path
        Target directory; created if missing, atomically replaced if
        present.

    See Also
    --------
    load_sharded : the inverse operation.
    repro.core.persistence.save_engine : the single-engine variant.
    """
    directory = Path(directory)
    deleted_of_shard: dict[int, list[int]] = {}
    for record_index, shard_id in engine.removed.items():
        deleted_of_shard.setdefault(shard_id, []).append(record_index)
    with atomic_directory(directory) as staging:
        dataset_digests = write_dataset_files(engine.dataset, staging)
        entries = []
        for shard_id, tgm in enumerate(engine.tgms):
            shard_dir = staging / shard_dir_name(shard_id)
            manifest = engine_manifest(
                measure=engine.measure.name,
                backend=tgm.backend,
                num_records=len(engine.dataset),
                universe_size=len(engine.dataset.universe),
                verify=engine.verify,
                deleted=sorted(deleted_of_shard.get(shard_id, [])),
            )
            write_index_files(shard_dir, tgm.group_members, manifest)
            entries.append(
                {"directory": shard_dir_name(shard_id), "digest": _shard_digest(shard_dir)}
            )
        top = {
            "sharded_format_version": SHARDED_FORMAT_VERSION,
            "num_shards": engine.num_shards,
            "placement": engine.placement,
            "measure": engine.measure.name,
            "verify": engine.verify,
            "num_records": len(engine.dataset),
            "universe_size": len(engine.dataset.universe),
            **dataset_digests,
            "shards": entries,
        }
        top["epoch"] = manifest_epoch(top)
        payload = json.dumps(top, indent=2) + "\n"
        (staging / "manifest.json").write_text(payload)
        # The staged generation carries no delta.log: saving folds every
        # pending delta op into the new base (this is what `repro
        # compact` relies on).
    engine._delta = DeltaSegment(directory)


# -- load ------------------------------------------------------------------


def _read_sharded_manifest(directory: Path) -> dict:
    manifest = read_index_json(directory / "manifest.json", "sharded manifest")
    if not isinstance(manifest, dict):
        raise PersistenceError(f"sharded manifest in {directory} must be a JSON object")
    if SHARDED_MANIFEST_KEY not in manifest:
        raise PersistenceError(
            f"{directory} holds a single-engine index (no {SHARDED_MANIFEST_KEY!r}); "
            "load it with repro.core.load_engine"
        )
    if manifest[SHARDED_MANIFEST_KEY] != SHARDED_FORMAT_VERSION:
        raise PersistenceError(
            "unsupported sharded index format version "
            f"{manifest[SHARDED_MANIFEST_KEY]!r}"
        )
    return manifest


def _shard_entries(manifest: dict, directory: Path) -> list[Path]:
    num_shards = manifest.get("num_shards")
    entries = manifest.get("shards")
    if not isinstance(num_shards, int) or num_shards < 1:
        raise PersistenceError(
            f"sharded manifest 'num_shards' must be a positive integer, got {num_shards!r}"
        )
    if not isinstance(entries, list):
        raise PersistenceError("sharded manifest 'shards' must be a list")
    if len(entries) != num_shards:
        raise PersistenceError(
            f"shard count mismatch: manifest declares {num_shards} shard(s) "
            f"but lists {len(entries)} shard entr{'y' if len(entries) == 1 else 'ies'}"
        )
    shard_dirs = []
    for shard_id, entry in enumerate(entries):
        expected_name = shard_dir_name(shard_id)
        if not isinstance(entry, dict) or entry.get("directory") != expected_name:
            raise PersistenceError(
                f"shard entry {shard_id} must reference subdirectory "
                f"{expected_name!r}, got {entry!r}"
            )
        shard_dir = directory / expected_name
        if not shard_dir.is_dir():
            raise PersistenceError(
                f"missing shard subdirectory {expected_name!r} in {directory}"
            )
        digest = entry.get("digest")
        actual = _shard_digest(shard_dir)
        if digest != actual:
            raise PersistenceError(
                f"shard {expected_name!r} digest mismatch (manifest {digest!r}, "
                f"files {actual!r}) — truncated write or tampering; refusing to load"
            )
        shard_dirs.append(shard_dir)
    return shard_dirs


def _read_shard(
    shard_dir: Path, num_records: int, measure_name: str
) -> tuple[list[list[int]], str, set[int], str]:
    """Read one shard subdirectory: ``(groups, backend, deleted, verify)``."""
    manifest = read_index_json(shard_dir / "manifest.json", "shard manifest")
    if not isinstance(manifest, dict):
        raise PersistenceError(f"shard manifest in {shard_dir} must be a JSON object")
    if manifest.get("format_version") not in (2, 3, 4):
        raise PersistenceError(
            f"shard manifest in {shard_dir} has unsupported format version "
            f"{manifest.get('format_version')!r} (sharded saves write v2/v3/v4)"
        )
    if manifest.get("measure") != measure_name:
        raise PersistenceError(
            f"shard manifest in {shard_dir} is for measure "
            f"{manifest.get('measure')!r}, top-level manifest says {measure_name!r}"
        )
    if manifest.get("num_records") != num_records:
        raise PersistenceError(
            f"shard manifest in {shard_dir} says {manifest.get('num_records')!r} "
            f"records, dataset holds {num_records}"
        )
    deleted, verify = parse_manifest_state(manifest, num_records)
    return read_groups(shard_dir), manifest["backend"], deleted, verify


def load_sharded(
    directory: str | Path,
    workers: int | None = None,
    mode: str = "memory",
    max_resident_shards: int | None = None,
) -> ShardedLES3:
    """Deprecated alias of :func:`repro.load` for sharded saves.

    Kept as a documented thin wrapper: it behaves exactly like
    :func:`_load_sharded` always has, but new code should call
    :func:`repro.load`, which auto-detects single-engine vs sharded
    directories and accepts one uniform set of options for both.  See
    the migration note in ``docs/persistence.md``.
    """
    warnings.warn(
        "load_sharded is deprecated; use repro.load(directory, mode=...) — "
        "it auto-detects single-engine and sharded saves",
        DeprecationWarning,
        stacklevel=2,
    )
    return _load_sharded(directory, workers, mode, max_resident_shards)


def _load_sharded(
    directory: str | Path,
    workers: int | None = None,
    mode: str = "memory",
    max_resident_shards: int | None = None,
) -> ShardedLES3:
    """Load a sharded engine persisted by :func:`save_sharded`.

    Every shard's digest is verified and the shard groups plus
    tombstones must cover the dataset exactly once *globally*.  The
    loaded engine answers knn/range/join queries bit-identically to the
    engine that was saved — deletes included, in every ``mode``.

    Parameters
    ----------
    directory : str or Path
        A directory written by :func:`save_sharded`.
    workers : int, optional
        Threads for the concurrent TGM rebuilds (eager modes only).
    mode : {"memory", "mmap", "lazy"}, default ``"memory"``
        How the dataset and the shard indexes come up:

        * ``"memory"`` — parse ``dataset.txt`` into Python records and
          rebuild every shard TGM concurrently (the original behavior).
        * ``"mmap"`` — map the binary columnar ``dataset.bin`` with
          ``np.memmap`` (no record objects); TGMs are still built
          eagerly, from vectorized CSR gathers.
        * ``"lazy"`` — mapped dataset *and* on-demand shard TGMs: a
          shard's index is built on its first visit and at most
          ``max_resident_shards`` stay resident (LRU).  Lazy engines are
          read-only (``insert``/``remove`` raise).
    max_resident_shards : int, optional
        LRU capacity for ``mode="lazy"`` (default 4).

    Returns
    -------
    ShardedLES3

    Raises
    ------
    PersistenceError
        On any integrity failure: unknown format version, shard-count
        mismatch, missing shard subdirectory, digest mismatch, truncated
        JSON, measure/record-count inconsistencies, a coverage
        violation, or an mmap-backed mode asked of a pre-v3 save (no
        ``dataset.bin``).
    FileNotFoundError
        If ``directory`` (or its top-level manifest/dataset) is absent.

    Examples
    --------
    >>> import tempfile, os, repro
    >>> from repro import Dataset, ShardedLES3
    >>> from repro.distributed import save_sharded
    >>> dataset = Dataset.from_token_lists([["a", "b"], ["b", "c"], ["x", "y"]])
    >>> engine = ShardedLES3.build(dataset, num_shards=2, num_groups=2)
    >>> path = os.path.join(tempfile.mkdtemp(), "sharded-index")
    >>> save_sharded(engine, path)
    >>> repro.load(path).knn(["a", "b"], k=1).matches
    [(0, 1.0)]
    >>> repro.load(path, mode="lazy").knn(["a", "b"], k=1).matches
    [(0, 1.0)]
    """
    if mode not in SHARDED_LOAD_MODES:
        raise ValueError(
            f"unknown load mode {mode!r}; expected one of {SHARDED_LOAD_MODES}"
        )
    directory = Path(directory)
    recover_interrupted_swap(directory)
    top = _read_sharded_manifest(directory)
    shard_dirs = _shard_entries(top, directory)
    if mode == "memory":
        check_dataset_digest(top, directory)
        dataset = Dataset.load(directory / "dataset.txt")
    else:
        dataset = open_mapped_dataset(directory, top)
    if len(dataset) != top.get("num_records"):
        raise PersistenceError(
            f"dataset.txt holds {len(dataset)} records, sharded manifest says "
            f"{top.get('num_records')!r} — index directory is corrupt"
        )
    measure_name = top.get("measure")
    measure = get_measure(measure_name)
    verify = top.get("verify", "columnar")
    if verify not in VERIFY_MODES:
        raise PersistenceError(
            f"sharded manifest 'verify' must be one of {VERIFY_MODES}, got {verify!r}"
        )
    all_groups: list[list[list[int]]] = []
    backends: list[str] = []
    removed: dict[int, int] = {}
    for shard_id, shard_dir in enumerate(shard_dirs):
        groups, backend, deleted, shard_verify = _read_shard(
            shard_dir, len(dataset), measure_name
        )
        if shard_verify != verify:
            raise PersistenceError(
                f"shard manifest in {shard_dir} has verify {shard_verify!r}, "
                f"top-level manifest says {verify!r}"
            )
        all_groups.append(groups)
        backends.append(backend)
        for record_index in deleted:
            if record_index in removed:
                raise PersistenceError(
                    f"record {record_index} is tombstoned by more than one shard"
                )
            removed[record_index] = shard_id
    check_exact_cover(
        [group for groups in all_groups for group in groups],
        set(removed),
        len(dataset),
        "the union of the shard groups",
    )
    # Replay the generation's write-ahead delta log over the immutable
    # base: inserts re-append their records (index-checked), removes
    # become tombstones, and every shard's group lists absorb its ops
    # before any TGM is built — eager and lazy builds alike, so an
    # evicted lazy shard rebuilds to the same folded state.
    ops = read_delta_ops(directory)
    for op in ops:
        shard_id = op.get("shard")
        if shard_id is None or shard_id >= len(all_groups):
            raise PersistenceError(
                f"delta log op references shard {shard_id!r} outside the saved "
                f"{len(all_groups)} shard(s) — log and base generation mismatch"
            )
        if op["op"] == "insert":
            apply_insert_op(dataset, op)
        else:
            removed[op["index"]] = shard_id
    for shard_id, groups in enumerate(all_groups):
        apply_group_ops(groups, ops, shard=shard_id)
    def shard_builder(
        groups: list[list[int]], backend: str
    ) -> Callable[[], TokenGroupMatrix]:
        def build() -> TokenGroupMatrix:
            return TokenGroupMatrix(dataset, groups, measure, backend)

        return build

    builders = [
        shard_builder(groups, backend) for groups, backend in zip(all_groups, backends)
    ]
    if mode == "lazy":
        capacity = (
            max_resident_shards if max_resident_shards is not None
            else DEFAULT_RESIDENT_SHARDS
        )
        tgms: object = LazyShardTGMs(builders, capacity)
        shard_groups = all_groups
    else:
        tgms = _build_concurrently(builders, workers)
        shard_groups = None
    engine = ShardedLES3(
        dataset,
        tgms,
        measure,
        verify=verify,
        shard_groups=shard_groups,
    )
    engine.removed = removed
    engine.placement = top.get("placement", "custom")
    engine._delta = DeltaSegment(directory, num_ops=len(ops))
    return engine
