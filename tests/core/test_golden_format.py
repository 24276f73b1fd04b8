"""The on-disk format, pinned byte for byte.

A five-record dataset with hand-fixed groups and one delete is saved in
both layouts (flat = one ``LES3``, sharded = two shards); every JSON file
must equal the literal below and ``dataset.txt`` / ``dataset.bin`` must
hash to the recorded digests.  One insert and one remove then pin the
``delta.log`` lines.  The literals were produced by the code *before*
the persistence modules were folded into one, and re-pinned once when
manifests stopped carrying the ``verify`` field — a refactor of the
reader or writer that changes a single byte of a save fails here.

Saves written before that carry ``"verify"`` in every manifest.  Their
exact bytes are pinned too (``PARENT_FLAT`` / ``PARENT_SHARDED``), and
such saves — with whatever value the field holds — must still load and
answer like a fresh build: the reader ignores the field.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro
from repro import LES3, Dataset, ShardedLES3, TokenGroupMatrix, save_engine, save_sharded
from repro.core.persistence import _shard_digest, manifest_epoch

RECORDS = [["a", "b"], ["b", "c"], ["c", "d", "d"], ["x", "y"], ["y", "z"]]

DATASET_TXT = "sha256:a336647949357e0391cf748c8ebbc1592c9e85419f4ac8f6f0858417be68986f"
DATASET_BIN = "sha256:053e9c510c2e474177a44ffe179dc3790d65540299a709aa187514bc507ed57e"


def _engine_manifest(deleted: str, tail: str, verify: bool = False) -> str:
    return (
        '{\n  "format_version": 4,\n  "measure": "jaccard",\n  "backend": "dense",\n'
        '  "num_records": 5,\n  "universe_size": 7,\n'
        + ('  "verify": "columnar",\n' if verify else "")
        + f'  "deleted": {deleted},\n{tail}'
    )


FLAT = {
    "dataset.bin": DATASET_BIN,
    "dataset.txt": DATASET_TXT,
    "groups.json": "[[0, 2], [3, 4]]",
    # No trailing newline: the flat manifest is a bare json.dump.
    "manifest.json": _engine_manifest(
        "[\n    1\n  ]",
        f'  "dataset_digest": "{DATASET_TXT}",\n'
        f'  "dataset_bin_digest": "{DATASET_BIN}",\n'
        '  "epoch": "sha256:7c6ca25498d8f56424fba8018bf06a3776f4663db6b38b474c75a6e1b7fb32c1"\n}',
    ),
}
FLAT_DELTA = (
    '{"check":"fc676cc9c98f8f03","group":0,"index":5,"op":"insert","tokens":["c","q"]}\n'
    '{"check":"37c5490869000367","group":1,"index":3,"op":"remove"}\n'
)

SHARDED = {
    "dataset.bin": DATASET_BIN,
    "dataset.txt": DATASET_TXT,
    # Trailing newline: the sharded top-level manifest is dumps() + "\n".
    "manifest.json": (
        '{\n  "sharded_format_version": 1,\n  "num_shards": 2,\n  "placement": "custom",\n'
        '  "measure": "jaccard",\n  "num_records": 5,\n'
        '  "universe_size": 7,\n'
        f'  "dataset_digest": "{DATASET_TXT}",\n'
        f'  "dataset_bin_digest": "{DATASET_BIN}",\n'
        '  "shards": [\n    {\n      "directory": "shard-0000",\n'
        '      "digest": "sha256:49b301b30e891b45e3cc66b432799940bdd63a793251406e64f1add54f59c8e6"\n'
        '    },\n    {\n      "directory": "shard-0001",\n'
        '      "digest": "sha256:9ce9e2663ce77ae39a080a7c75d85dccf57516d29c5a47ac7fc8e2a5a158a1b1"\n'
        '    }\n  ],\n'
        '  "epoch": "sha256:055a82a1c666f215714209cb3507c0f0c117fbca3b89e8b668cb4b3ad9526cb9"\n}\n'
    ),
    "shard-0000/groups.json": "[[0, 2]]",
    "shard-0000/manifest.json": _engine_manifest(
        "[\n    1\n  ]",
        '  "epoch": "sha256:576002c4265dd53d9e06e36885e15465c70b84d282d4dcee95870e52e6907d8a"\n}',
    ),
    "shard-0001/groups.json": "[[3], [4]]",
    "shard-0001/manifest.json": _engine_manifest(
        "[]",
        '  "epoch": "sha256:776a160e501352e262e8bd398a5faab5452007759128ba021cd7dc40734ee30d"\n}',
    ),
}
SHARDED_DELTA = (
    '{"check":"0b1d5d52c0743008","group":0,"index":5,"op":"insert","shard":0,"tokens":["c","q"]}\n'
    '{"check":"cfe146c792b989a0","group":0,"index":3,"op":"remove","shard":1}\n'
)

# The same two saves as written while manifests still carried "verify".
PARENT_FLAT = {
    "dataset.bin": DATASET_BIN,
    "dataset.txt": DATASET_TXT,
    "groups.json": "[[0, 2], [3, 4]]",
    "manifest.json": _engine_manifest(
        "[\n    1\n  ]",
        f'  "dataset_digest": "{DATASET_TXT}",\n'
        f'  "dataset_bin_digest": "{DATASET_BIN}",\n'
        '  "epoch": "sha256:29e35a5486ea58d1697ad3ccf159bd112fb98adfb3089ccf5681eda34d28817f"\n}',
        verify=True,
    ),
}
PARENT_SHARDED = {
    "dataset.bin": DATASET_BIN,
    "dataset.txt": DATASET_TXT,
    "manifest.json": (
        '{\n  "sharded_format_version": 1,\n  "num_shards": 2,\n  "placement": "custom",\n'
        '  "measure": "jaccard",\n  "verify": "columnar",\n  "num_records": 5,\n'
        '  "universe_size": 7,\n'
        f'  "dataset_digest": "{DATASET_TXT}",\n'
        f'  "dataset_bin_digest": "{DATASET_BIN}",\n'
        '  "shards": [\n    {\n      "directory": "shard-0000",\n'
        '      "digest": "sha256:d736591571c288b0177c6c14617b9a2cff69a261891ba43131c606d61a0d1653"\n'
        '    },\n    {\n      "directory": "shard-0001",\n'
        '      "digest": "sha256:171f5d43c69fcc411352e604e6ea797c7b626c1aa63c0ccc316e10a20283e1a1"\n'
        '    }\n  ],\n'
        '  "epoch": "sha256:4b89d87c36136e5f323bcc3bd2ca5b061079634219ab7b85422986e0d1d81950"\n}\n'
    ),
    "shard-0000/groups.json": "[[0, 2]]",
    "shard-0000/manifest.json": _engine_manifest(
        "[\n    1\n  ]",
        '  "epoch": "sha256:80b2e0886eca1474941d21b399a95604b30b3ff54ec9921230b17fbf2f24a9d9"\n}',
        verify=True,
    ),
    "shard-0001/groups.json": "[[3], [4]]",
    "shard-0001/manifest.json": _engine_manifest(
        "[]",
        '  "epoch": "sha256:2b12096f167f74158af447dff7f3c726b2daba6b27ebaa99dfb611d98b33be5b"\n}',
        verify=True,
    ),
}


def _build(sharded: bool):
    dataset = Dataset.from_token_lists(RECORDS)
    if sharded:
        engine = ShardedLES3(
            dataset,
            [TokenGroupMatrix(dataset, [[0, 1, 2]]), TokenGroupMatrix(dataset, [[3], [4]])],
        )
    else:
        engine = LES3(dataset, TokenGroupMatrix(dataset, [[0, 1, 2], [3, 4]]))
    engine.remove(1)
    return engine


def _tree(root: Path) -> dict[str, str]:
    """JSON/log files as text, dataset files as their sha256."""
    tree = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            tree[path.relative_to(root).as_posix()] = (
                data.decode() if path.suffix in (".json", ".log")
                else "sha256:" + hashlib.sha256(data).hexdigest()
            )
    return tree


@pytest.mark.parametrize(
    "sharded, expected, expected_delta",
    [(False, FLAT, FLAT_DELTA), (True, SHARDED, SHARDED_DELTA)],
    ids=["flat", "sharded"],
)
def test_saved_bytes_are_pinned(tmp_path, sharded, expected, expected_delta):
    engine = _build(sharded)
    (save_sharded if sharded else save_engine)(engine, tmp_path / "idx")
    assert _tree(tmp_path / "idx") == expected
    engine.insert(["c", "q"])
    engine.remove(3)
    assert _tree(tmp_path / "idx") == {**expected, "delta.log": expected_delta}
    # The loader folds exactly those two lines, in every mode.
    for mode in ("memory", "mmap") + (("lazy",) if sharded else ()):
        loaded = repro.load(tmp_path / "idx", mode=mode)
        assert loaded._delta.num_ops == 2
        assert sorted(loaded.removed) == [1, 3]
        assert loaded.knn(["c", "q"], k=1).matches == [(5, 1.0)]


def _with_verify(manifest: dict, value: str, after: str) -> dict:
    """``manifest`` with ``"verify"`` where older writers put it, re-stamped."""
    body: dict = {}
    for key, field in manifest.items():
        if key != "epoch":
            body[key] = field
        if key == after:
            body["verify"] = value
    body["epoch"] = manifest_epoch(body)
    return body


def _save_with_verify(directory: Path, sharded: bool, value: str) -> None:
    """A save as older writers wrote it, carrying ``"verify": value``.

    Shard digests and epochs are recomputed over the rewritten files, so
    the save is as consistent as one those writers produced.
    """
    (save_sharded if sharded else save_engine)(_build(sharded), directory)
    top_path = directory / "manifest.json"
    top = json.loads(top_path.read_text())
    if not sharded:
        top_path.write_text(json.dumps(_with_verify(top, value, "universe_size"), indent=2))
        return
    for entry in top["shards"]:
        shard_dir = directory / entry["directory"]
        shard = json.loads((shard_dir / "manifest.json").read_text())
        (shard_dir / "manifest.json").write_text(
            json.dumps(_with_verify(shard, value, "universe_size"), indent=2)
        )
        entry["digest"] = _shard_digest(shard_dir)
    top_path.write_text(json.dumps(_with_verify(top, value, "measure"), indent=2) + "\n")


@pytest.mark.parametrize("value", ["columnar", "scalar", "Columnar"])
@pytest.mark.parametrize("sharded", [False, True], ids=["flat", "sharded"])
def test_saves_carrying_verify_still_load(tmp_path, sharded, value):
    _save_with_verify(tmp_path / "idx", sharded, value)
    if value == "columnar":
        # The fixture writer reproduces the older writer byte for byte.
        assert _tree(tmp_path / "idx") == (PARENT_SHARDED if sharded else PARENT_FLAT)
    fresh = _build(sharded)
    for mode in ("memory", "mmap"):
        loaded = repro.load(tmp_path / "idx", mode=mode)
        assert not hasattr(loaded, "verify")
        for tokens in (["a", "b"], ["c", "d", "d"], ["y"], ["never-seen"]):
            for k in (1, 3, 10):
                expected = fresh.knn(tokens, k=k)
                answer = loaded.knn(tokens, k=k)
                assert (answer.matches, answer.stats) == (expected.matches, expected.stats)
            expected = fresh.range(tokens, threshold=0.3)
            answer = loaded.range(tokens, threshold=0.3)
            assert (answer.matches, answer.stats) == (expected.matches, expected.stats)
        assert loaded.join(0.3).pairs == fresh.join(0.3).pairs
