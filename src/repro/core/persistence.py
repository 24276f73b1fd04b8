"""Saving and loading a built index — the one module that knows the format.

Partitioning (model training) is the expensive build step; persisting the
result makes the index reusable across processes.  A saved index is a
*generation directory* of small files — no pickling — in one of two
layouts that share every file format:

    <dir>/                       # flat layout: one LES3
      manifest.json    # measure, backend, universe size, format version,
                       # verify mode, logically deleted record indices,
                       # dataset digests, generation epoch (v4)
      dataset.txt      # one set per line (external tokens) — interchange form
      dataset.bin      # binary columnar dataset (CSR arrays + universe),
                       # the np.memmap target of mode="mmap" loads
      groups.json      # record-index lists per group
      delta.log        # write-ahead log of post-save mutations (absent on
                       # a freshly saved/compacted generation) — see
                       # repro.core.delta

    <dir>/                       # sharded layout: one ShardedLES3
      manifest.json    # sharded manifest v1: placement policy, shard
                       # count, measure, verify, dataset digests,
                       # per-shard digests, epoch
      dataset.txt, dataset.bin, delta.log    # as above, stored once
      shard-NNNN/      # one per shard
        manifest.json  # the flat layout's manifest (that shard's deleted
                       # tombstones, the engine's verify) minus the digests
        groups.json    # the shard's groups, *global* record indices

The TGM is rebuilt from the groups at load time (cheaper than
serialising bitmaps, and immune to backend format drift), so this module
deals in plain data: :func:`read_generation` is the only reader of a
generation directory — :func:`repro.load` builds the engine from what it
returns — and :func:`save_engine` / :func:`save_sharded` gather their
engine's state for the only writer.  ``mode="memory"`` parses the text
file into records; ``mode="mmap"``/``"lazy"`` map the binary columnar
file (:mod:`repro.storage.columnar_file`) so queries run without
materializing records at all.

Deletes are logical: a removed record keeps its line in ``dataset.txt``
(indices are stable) but belongs to no group.  The manifest's ``deleted``
list lets the load-time coverage check tell an intentional tombstone
from a corrupt ``groups.json``: groups plus tombstones must cover the
dataset exactly once (jointly over all shards).  The sharded manifest
also records a SHA-256 digest of every shard's files, so a truncated or
tampered shard fails loudly.  Directories written by format v1–v3 stay
readable; :func:`read_manifest` is the one place that knows what they
lack.  See ``docs/persistence.md`` for the full on-disk format
reference.

Every integrity failure raises :class:`PersistenceError` (a
:class:`ValueError` subclass), never a wrong-answer engine.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple, Sequence

from repro.core.columnar import VERIFY_MODES
from repro.core.dataset import Dataset
from repro.core.delta import DeltaSegment, apply_group_ops, apply_insert_op, read_delta_ops
from repro.core.engine import LES3
from repro.testing.faults import fault_point

if TYPE_CHECKING:
    from repro.distributed.sharded import ShardedLES3

__all__ = [
    "PersistenceError",
    "atomic_directory",
    "recover_interrupted_swap",
    "save_engine",
    "save_sharded",
    "read_generation",
    "Generation",
    "is_sharded_index",
    "has_binary_dataset",
    "verify_dataset_files",
    "manifest_epoch",
    "file_digest",
    "shard_dir_name",
    "DATASET_BIN",
    "LOAD_MODES",
]

_FORMAT_VERSION = 4
_SUPPORTED_VERSIONS = (1, 2, 3, 4)
SHARDED_FORMAT_VERSION = 1

#: File name of the binary columnar dataset written next to ``dataset.txt``
#: by every save since format v3 (both layouts).
DATASET_BIN = "dataset.bin"

#: Load modes of :func:`repro.load`; ``"lazy"`` (mapped dataset *and*
#: on-demand shard TGMs) needs the sharded layout.
LOAD_MODES = ("memory", "mmap", "lazy")

#: Manifest key that marks a directory as a *sharded* save — the single
#: layout discriminator.
SHARDED_MANIFEST_KEY = "sharded_format_version"


def file_digest(path: str | Path) -> str:
    """``sha256:<hex>`` over a file's bytes (the manifest digest format)."""
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


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


# -- format primitives, shared by both layouts ------------------------------


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


def write_index_files(directory: Path, groups: list[list[int]], manifest: dict) -> None:
    """Write ``groups.json`` + ``manifest.json`` into ``directory``.

    Creates the directory if missing: the generation directory itself
    in the flat layout, one ``shard-NNNN`` subdirectory per shard in the
    sharded one.  The manifest's ``epoch`` is stamped here, once every
    content field is final.
    """
    directory.mkdir(parents=True, exist_ok=True)
    manifest["epoch"] = manifest_epoch(manifest)
    with open(directory / "groups.json", "w") as handle:
        json.dump(groups, handle)
    with open(directory / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2)


def has_binary_dataset(directory: str | Path) -> bool:
    """False for generations written before format v3 (text dataset only)."""
    return (Path(directory) / DATASET_BIN).is_file()


def open_mapped_dataset(directory: Path, manifest: dict) -> Dataset:
    """Open ``dataset.bin`` as a mapped dataset, cross-checked with the manifest.

    The binary header's record and universe totals must agree with the
    manifest (a mismatch means the directory holds files from different
    saves); the mapped dataset is otherwise served lazily — see
    :meth:`~repro.core.dataset.Dataset.from_columnar_file`.
    """
    from repro.storage.columnar_file import ColumnarFileReader

    if not has_binary_dataset(directory):
        raise PersistenceError(
            f"{directory} has no {DATASET_BIN} — it was saved before format v3; "
            "load it with mode='memory' (or re-save it to add the binary dataset)"
        )
    reader = ColumnarFileReader(directory / DATASET_BIN, mode="mmap")
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


def read_index_json(path: Path, description: str) -> Any:
    """Parse one JSON file of an index directory.

    A missing file propagates :class:`FileNotFoundError` (the caller
    decides whether that means "no index here" or "corrupt index"); a
    truncated or otherwise non-JSON file raises :class:`PersistenceError`
    naming the file.
    """
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as error:
        raise PersistenceError(
            f"{description} at {path} is not valid JSON "
            f"(truncated write or corruption): {error}"
        ) from error


def read_manifest(directory: Path, description: str) -> dict:
    """Read ``manifest.json``, normalised to the current (v4) field set.

    The one place that knows what older saves lack: v1 had no delete log
    and no verify mode (nothing deleted, columnar verification), and
    saves from before the digests existed carry neither — ``None`` there
    means "nothing recorded to compare" (for ``dataset_bin_digest``: no
    binary dataset was written, see :func:`has_binary_dataset`).
    """
    manifest = read_index_json(directory / "manifest.json", description)
    if not isinstance(manifest, dict):
        raise PersistenceError(f"{description} in {directory} must be a JSON object")
    return {
        "deleted": [],
        "verify": "columnar",
        "dataset_digest": None,
        "dataset_bin_digest": None,
        **manifest,
    }


def parse_manifest_state(manifest: dict, num_records: int) -> tuple[set[int], str]:
    """Validate and extract a normalised manifest's ``(deleted, verify)``."""
    deleted_raw = manifest["deleted"]
    if not isinstance(deleted_raw, list) or not all(
        isinstance(index, int) and not isinstance(index, bool)
        and 0 <= index < num_records
        for index in deleted_raw
    ):
        raise PersistenceError(
            "manifest 'deleted' must list record indices inside the dataset"
        )
    verify = manifest["verify"]
    if verify not in VERIFY_MODES:
        raise PersistenceError(
            f"manifest 'verify' must be one of {VERIFY_MODES}, got {verify!r}"
        )
    return set(deleted_raw), verify


def read_groups(directory: Path) -> list[list[int]]:
    """Read and shape-check ``groups.json`` (content checks are separate)."""
    groups = read_index_json(directory / "groups.json", "groups file")
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


def is_sharded_index(directory: str | Path) -> bool:
    """True when ``directory`` holds the *sharded* layout (vs the flat one).

    Missing, unreadable or non-JSON manifests answer False — this is a
    cheap router for callers that must decide *before* paying a load;
    :func:`read_generation` does the integrity checking.
    """
    try:
        return SHARDED_MANIFEST_KEY in read_manifest(Path(directory), "index manifest")
    except (OSError, PersistenceError):
        return False


def shard_dir_name(shard_id: int) -> str:
    """Canonical subdirectory name of shard ``shard_id`` (``shard-0042``)."""
    return f"shard-{shard_id:04d}"


def _shard_digest(shard_dir: Path) -> str:
    """SHA-256 over the shard's files, in fixed order."""
    digest = hashlib.sha256()
    for name in ("manifest.json", "groups.json"):
        try:
            digest.update((shard_dir / name).read_bytes())
        except FileNotFoundError as error:
            raise PersistenceError(
                f"shard directory {shard_dir} is missing {name}"
            ) from error
    return "sha256:" + digest.hexdigest()


# -- the one reader --------------------------------------------------------


def _shard_entries(manifest: dict, directory: Path) -> list[Path]:
    """The digest-verified shard subdirectories a sharded manifest lists."""
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


def _read_shard_manifest(shard_dir: Path, top: dict, num_records: int) -> dict:
    """One shard's manifest, cross-checked against the top-level one."""
    manifest = read_manifest(shard_dir, "shard manifest")
    if manifest.get("format_version") not in (2, 3, 4):
        raise PersistenceError(
            f"shard manifest in {shard_dir} has unsupported format version "
            f"{manifest.get('format_version')!r} (sharded saves write v2/v3/v4)"
        )
    if manifest.get("measure") != top.get("measure"):
        raise PersistenceError(
            f"shard manifest in {shard_dir} is for measure "
            f"{manifest.get('measure')!r}, top-level manifest says {top.get('measure')!r}"
        )
    if manifest.get("num_records") != num_records:
        raise PersistenceError(
            f"shard manifest in {shard_dir} says {manifest.get('num_records')!r} "
            f"records, dataset holds {num_records}"
        )
    return manifest


class Generation(NamedTuple):
    """What a generation directory holds, as plain data (delta log replayed)."""

    dataset: Dataset
    measure: str
    verify: str
    #: The sharded layout's placement policy; ``None`` marks the flat
    #: layout (whose single engine is the one entry of ``shards``).
    placement: str | None
    #: Per shard: ``(groups, TGM backend, deleted record indices)``.
    shards: list[tuple[list[list[int]], str, set[int]]]
    #: Committed ``delta.log`` ops, already folded into the fields above.
    num_ops: int


def read_generation(directory: str | Path, mode: str = "memory") -> Generation:
    """Read a generation directory of either layout — the only reader.

    Heals an interrupted swap, verifies every digest and invariant the
    format records, opens the dataset the way ``mode`` asks (``"memory"``
    parses ``dataset.txt``; ``"mmap"``/``"lazy"`` map ``dataset.bin`` and
    never read the text file), and replays the write-ahead ``delta.log``
    over the immutable base: inserts re-append their records
    (index-checked against the log), removes become tombstones, and the
    group lists absorb both — so whatever is built from the result,
    eagerly or lazily, answers bit-identically to an engine rebuilt from
    the folded state.

    Raises :class:`PersistenceError` on any integrity failure (also: a
    mapped mode asked of a pre-v3 save, ``mode="lazy"`` asked of the flat
    layout) and :class:`FileNotFoundError` when the directory or its
    top-level manifest/dataset is absent.
    """
    if mode not in LOAD_MODES:
        raise ValueError(f"unknown load mode {mode!r}; expected one of {LOAD_MODES}")
    directory = Path(directory)
    recover_interrupted_swap(directory)
    top = read_manifest(directory, "index manifest")
    sharded = SHARDED_MANIFEST_KEY in top
    if sharded:
        if top[SHARDED_MANIFEST_KEY] != SHARDED_FORMAT_VERSION:
            raise PersistenceError(
                "unsupported sharded index format version "
                f"{top[SHARDED_MANIFEST_KEY]!r}"
            )
        shard_dirs = _shard_entries(top, directory)
    else:
        if mode == "lazy":
            raise PersistenceError(
                f"{directory} holds a single-engine save, and mode='lazy' builds "
                "*shard* indexes on demand, which needs a sharded index directory; "
                "load with mode='mmap' here, or create a sharded save with "
                "ShardedLES3.from_engine + save_sharded (CLI: `repro save <index> "
                "<out> --shards S`)"
            )
        if top.get("format_version") not in _SUPPORTED_VERSIONS:
            raise PersistenceError(
                f"unsupported index format version {top.get('format_version')!r}"
            )
        shard_dirs = [directory]
    if mode != "memory":
        dataset = open_mapped_dataset(directory, top)
    else:
        # A mismatch means tampering, or a re-save that crashed between the
        # dataset write and the manifest write.
        recorded = top["dataset_digest"]
        if recorded is not None and recorded != (actual := file_digest(directory / "dataset.txt")):
            raise PersistenceError(
                f"dataset.txt digest mismatch (manifest {recorded!r}, file "
                f"{actual!r}) — index directory is corrupt or mid-rewrite"
            )
        dataset = Dataset.load(directory / "dataset.txt")
    if len(dataset) != top.get("num_records"):
        raise PersistenceError(
            f"dataset.txt holds {len(dataset)} records, "
            f"{'sharded manifest' if sharded else 'manifest'} says "
            f"{top.get('num_records')!r} — index directory is corrupt"
        )
    if sharded and top["verify"] not in VERIFY_MODES:
        raise PersistenceError(
            f"sharded manifest 'verify' must be one of {VERIFY_MODES}, "
            f"got {top['verify']!r}"
        )
    shards: list[tuple[list[list[int]], str, set[int]]] = []
    tombstoned: set[int] = set()
    for shard_dir in shard_dirs:
        manifest = _read_shard_manifest(shard_dir, top, len(dataset)) if sharded else top
        deleted, verify = parse_manifest_state(manifest, len(dataset))
        groups = read_groups(shard_dir)
        if verify != top["verify"]:
            raise PersistenceError(
                f"shard manifest in {shard_dir} has verify {verify!r}, "
                f"top-level manifest says {top['verify']!r}"
            )
        if deleted & tombstoned:
            raise PersistenceError(
                f"record {min(deleted & tombstoned)} is tombstoned by more than one shard"
            )
        tombstoned |= deleted
        shards.append((groups, manifest["backend"], deleted))
    check_exact_cover(
        [group for groups, _, _ in shards for group in groups],
        tombstoned,
        len(dataset),
        "the union of the shard groups" if sharded else "groups.json",
    )
    ops = read_delta_ops(directory)
    for op in ops:
        # Flat-layout ops carry no shard field; sharded ones must name a
        # shard of this generation.
        shard_id = op.get("shard") if sharded else 0
        if shard_id is None or shard_id >= len(shards):
            raise PersistenceError(
                f"delta log op references shard {shard_id!r} outside the saved "
                f"{len(shards)} shard(s) — log and base generation mismatch"
            )
        if op["op"] == "insert":
            apply_insert_op(dataset, op)
        else:
            shards[shard_id][2].add(op["index"])
    for shard_id, (groups, _, _) in enumerate(shards):
        apply_group_ops(groups, ops, shard=shard_id if sharded else None)
    return Generation(
        dataset,
        top.get("measure"),
        top["verify"],
        top.get("placement", "custom") if sharded else None,
        shards,
        len(ops),
    )


def verify_dataset_files(directory: str | Path) -> None:
    """Full-integrity pass over the two dataset encodings (``repro validate``).

    Loading deliberately skips the binary payload digests (an mmap load
    must not read every page) and reads only one of ``dataset.txt`` /
    ``dataset.bin``; this is where they are all checked — the manifest's
    whole-file digest of ``dataset.bin``, every per-segment digest inside
    its header, and that both files hold the same records (a disagreement
    would make one directory answer differently per load mode).
    """
    from repro.storage.columnar_file import ColumnarFileReader

    directory = Path(directory)
    recorded = read_manifest(directory, "index manifest")["dataset_bin_digest"]
    path = directory / DATASET_BIN
    if not has_binary_dataset(directory):
        if recorded is not None:
            raise PersistenceError(
                f"manifest records a {DATASET_BIN} digest but the file is missing"
            )
        return
    if recorded is not None and file_digest(path) != recorded:
        raise PersistenceError(
            f"{DATASET_BIN} digest mismatch against the manifest — corrupt or "
            "mixed-save index directory"
        )
    reader = ColumnarFileReader(path, mode="mmap")
    reader.verify()
    binary = Dataset.from_columnar_file(reader)
    text = Dataset.load(directory / "dataset.txt")
    if len(text) != len(binary):
        raise PersistenceError(
            f"dataset.txt holds {len(text)} records, {DATASET_BIN} holds "
            f"{len(binary)} — the two dataset encodings disagree"
        )

    def words(dataset: Dataset, index: int) -> list[str]:
        tokens = dataset.universe
        return sorted(str(tokens.token_of(token_id)) for token_id in dataset[index].tokens)

    for index in range(len(text)):
        if words(text, index) != words(binary, index):
            raise PersistenceError(
                f"record {index} differs between dataset.txt and {DATASET_BIN} "
                "— the two dataset encodings disagree"
            )


# -- the one writer --------------------------------------------------------


def _write_generation(
    directory: str | Path,
    dataset: Dataset,
    measure: str,
    verify: str,
    placement: str | None,
    shards: Sequence[tuple[list[list[int]], str, list[int]]],
) -> None:
    """Write a fresh generation crash-safely — the only writer.

    ``shards`` holds ``(groups, TGM backend, sorted deleted indices)``
    per shard; ``placement=None`` asks for the flat layout (exactly one
    entry).  The text file remains the interchange format; the binary
    columnar file is what the mapped load modes map.  The staged
    generation carries no ``delta.log``: a save folds every pending
    delta op into the new base, which is what compaction is.
    """
    from repro.storage.columnar_file import ColumnarFileWriter

    with atomic_directory(directory) as staging:
        dataset.save(staging / "dataset.txt")
        ColumnarFileWriter(staging / DATASET_BIN).write(dataset)
        digests = {
            "dataset_digest": file_digest(staging / "dataset.txt"),
            "dataset_bin_digest": file_digest(staging / DATASET_BIN),
        }
        manifests = [
            {
                "format_version": _FORMAT_VERSION,
                "measure": measure,
                "backend": backend,
                "num_records": len(dataset),
                "universe_size": len(dataset.universe),
                "verify": verify,
                "deleted": deleted,
            }
            for _, backend, deleted in shards
        ]
        if placement is None:
            write_index_files(staging, shards[0][0], {**manifests[0], **digests})
            return
        entries = []
        for shard_id, ((groups, _, _), manifest) in enumerate(zip(shards, manifests)):
            shard_dir = staging / shard_dir_name(shard_id)
            write_index_files(shard_dir, groups, manifest)
            entries.append(
                {"directory": shard_dir_name(shard_id), "digest": _shard_digest(shard_dir)}
            )
        top = {
            SHARDED_MANIFEST_KEY: SHARDED_FORMAT_VERSION,
            "num_shards": len(shards),
            "placement": placement,
            "measure": measure,
            "verify": verify,
            "num_records": len(dataset),
            "universe_size": len(dataset.universe),
            **digests,
            "shards": entries,
        }
        top["epoch"] = manifest_epoch(top)
        (staging / "manifest.json").write_text(json.dumps(top, indent=2) + "\n")


def save_engine(engine: LES3, directory: str | Path) -> None:
    """Persist a built engine to ``directory`` (created if missing).

    The engine's dataset, group structure, verify mode, and delete log
    are all captured; afterwards the directory holds ``manifest.json``,
    ``dataset.txt``, ``dataset.bin`` and ``groups.json`` (format v4), and
    the engine is attached to the generation's write-ahead ``delta.log``
    — later inserts/removes are durable there.

    The save is **crash-safe** (:func:`atomic_directory`): a crash at any
    point leaves the target either the previous save, absent, or the new
    save — never a half-written directory :func:`repro.load` would
    reject.  A dataset holding a token the text format cannot carry
    (:func:`~repro.core.dataset.is_text_token`) raises ``ValueError``
    and writes nothing.

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
    _write_generation(
        directory, engine.dataset, engine.measure.name, engine.verify, None,
        [(engine.tgm.group_members, engine.tgm.backend, sorted(engine.removed))],
    )
    engine._delta = DeltaSegment(directory)


def save_sharded(engine: ShardedLES3, directory: str | Path) -> None:
    """Persist a built sharded engine to ``directory`` (created if missing).

    The sharded counterpart of :func:`save_engine`, with the same crash
    safety and the same ``delta.log`` attachment.  The global dataset is
    written once; every shard gets a subdirectory with the flat layout's
    ``manifest.json`` (that shard's ``deleted`` tombstones, the engine's
    ``verify`` mode) and ``groups.json`` (global record indices); the
    top-level manifest records the placement policy, the shard count,
    and a digest of every shard's files.  Because each save is a fresh
    staged directory, stale ``shard-NNNN`` subdirectories of a previous
    save with more shards can never survive a re-save.
    """
    deleted_of_shard: dict[int, list[int]] = {}
    for record_index, shard_id in engine.removed.items():
        deleted_of_shard.setdefault(shard_id, []).append(record_index)
    _write_generation(
        directory, engine.dataset, engine.measure.name, engine.verify,
        engine.placement,
        [
            (tgm.group_members, tgm.backend, sorted(deleted_of_shard.get(shard_id, [])))
            for shard_id, tgm in enumerate(engine.tgms)
        ],
    )
    engine._delta = DeltaSegment(directory)
