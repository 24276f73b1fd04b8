"""Tests for the command-line interface."""

import pytest

import repro
from repro.cli import main
from repro.datasets import zipf_dataset


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.txt"
    zipf_dataset(120, 150, (2, 6), seed=50).save(path)
    return path


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory, data_file):
    index = tmp_path_factory.mktemp("cli") / "index"
    code = main(
        [
            "build",
            str(data_file),
            str(index),
            "--groups",
            "6",
            "--pairs",
            "300",
            "--epochs",
            "1",
        ]
    )
    assert code == 0
    return index


class TestBuild:
    def test_build_creates_index(self, index_dir):
        assert (index_dir / "manifest.json").exists()
        assert (index_dir / "dataset.txt").exists()
        assert (index_dir / "groups.json").exists()

    def test_build_empty_dataset_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code = main(["build", str(empty), str(tmp_path / "idx")])
        assert code == 1
        assert "empty" in capsys.readouterr().err

    def test_default_group_count(self, tmp_path, data_file):
        index = tmp_path / "defaults"
        assert main(["build", str(data_file), str(index), "--pairs", "200", "--epochs", "1"]) == 0


class TestQueries:
    def test_knn_outputs_matches(self, index_dir, data_file, capsys):
        query = data_file.read_text().splitlines()[0]
        code = main(["knn", str(index_dir), "--query", query, "-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 3
        assert lines[0].startswith("1.0000")  # the set itself

    def test_range_outputs_matches(self, index_dir, data_file, capsys):
        query = data_file.read_text().splitlines()[0]
        code = main(["range", str(index_dir), "--query", query, "--threshold", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1.0000" in out

    def test_unknown_tokens_query(self, index_dir, capsys):
        code = main(["knn", str(index_dir), "--query", "zzz yyy", "-k", "1"])
        assert code == 0
        assert "0.0000" in capsys.readouterr().out


class TestJoin:
    def test_join_outputs_pairs(self, index_dir, capsys):
        code = main(["join", str(index_dir), "--threshold", "0.9"])
        assert code == 0
        captured = capsys.readouterr()
        assert "pairs" in captured.err
        assert "candidate pairs" in captured.err

    def test_join_sharded_identical_output(self, index_dir, capsys):
        args = ["join", str(index_dir), "--threshold", "0.5", "--limit", "1000000"]
        assert main(args) == 0
        single = capsys.readouterr()
        assert main(args + ["--shards", "3"]) == 0
        sharded = capsys.readouterr()
        assert single.out and sharded.out == single.out
        # One global join either way: the same pairs from the same candidates.
        assert sharded.err == single.err

    def test_join_limit_truncates(self, index_dir, capsys):
        assert main(["join", str(index_dir), "--threshold", "0.1", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert len([line for line in out.splitlines() if line.startswith("0") or line.startswith("1")]) <= 3

    def test_join_rejects_bad_arguments(self, index_dir, capsys):
        assert main(["join", str(index_dir), "--threshold", "0.0"]) == 1
        assert "threshold" in capsys.readouterr().err
        assert main(["join", str(index_dir), "--threshold", "0.5", "--shards", "0"]) == 1
        assert "--shards" in capsys.readouterr().err
        assert main(["join", str(index_dir), "--threshold", "0.5", "--limit", "-1"]) == 1
        assert "--limit" in capsys.readouterr().err


class TestStatsAndValidate:
    def test_stats(self, data_file, capsys):
        assert main(["stats", str(data_file)]) == 0
        out = capsys.readouterr().out
        assert "sets:      120" in out
        assert "universe:" in out

    def test_validate_healthy(self, index_dir, capsys):
        assert main(["validate", str(index_dir)]) == 0
        assert "index OK" in capsys.readouterr().out

    def test_validate_accepts_index_with_deletes(self, index_dir, tmp_path, capsys):
        import shutil

        from repro.core import save_engine

        # Mutate a copy: removes on a loaded engine are durable now (they
        # append to the generation's delta.log), and index_dir is shared.
        source = tmp_path / "source"
        shutil.copytree(index_dir, source)
        engine = repro.load(source)
        engine.remove(0)
        engine.remove(7)
        target = tmp_path / "with-deletes"
        save_engine(engine, target)
        assert main(["validate", str(target)]) == 0
        assert "index OK" in capsys.readouterr().out

    def test_validate_corrupt(self, index_dir, tmp_path, capsys):
        import json
        import shutil

        corrupt = tmp_path / "corrupt"
        shutil.copytree(index_dir, corrupt)
        groups = json.loads((corrupt / "groups.json").read_text())
        groups[0] = groups[0][1:]  # record no longer covered
        (corrupt / "groups.json").write_text(json.dumps(groups))
        code = main(["validate", str(corrupt)])
        assert code == 2
        assert "CORRUPT" in capsys.readouterr().out

    def test_validate_missing_directory(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path / "missing")])
        assert code == 2
        assert "CORRUPT" in capsys.readouterr().out


class TestQueryValidation:
    def test_empty_query_rejected(self, index_dir, capsys):
        assert main(["knn", str(index_dir), "--query", "  ", "-k", "3"]) == 1
        assert "at least one token" in capsys.readouterr().err

    def test_nonpositive_k_rejected(self, index_dir, capsys):
        assert main(["knn", str(index_dir), "--query", "a", "-k", "0"]) == 1
        assert "positive" in capsys.readouterr().err

    def test_out_of_range_threshold_rejected(self, index_dir, capsys):
        assert main(["range", str(index_dir), "--query", "a", "--threshold", "1.5"]) == 1
        assert "threshold" in capsys.readouterr().err


class TestSharded:
    def test_knn_shards_identical_output(self, index_dir, data_file, capsys):
        query = data_file.read_text().splitlines()[0]
        assert main(["knn", str(index_dir), "--query", query, "-k", "5"]) == 0
        single = capsys.readouterr().out
        assert main(["knn", str(index_dir), "--query", query, "-k", "5", "--shards", "3"]) == 0
        assert capsys.readouterr().out == single

    def test_range_shards_identical_output(self, index_dir, data_file, capsys):
        query = data_file.read_text().splitlines()[1]
        args = ["range", str(index_dir), "--query", query, "--threshold", "0.5"]
        assert main(args) == 0
        single = capsys.readouterr().out
        assert main(args + ["--shards", "4"]) == 0
        assert capsys.readouterr().out == single

    def test_bench_reports_throughput(self, index_dir, capsys):
        code = main(
            ["bench", str(index_dir), "--queries", "20", "-k", "3",
             "--threshold", "0.6", "--shards", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "queries/s" in out
        assert "knn:" in out and "range:" in out
        assert "2 shard(s)" in out

    def test_query_commands_reject_nonpositive_shards(self, index_dir, capsys):
        assert main(["knn", str(index_dir), "--query", "a", "-k", "1", "--shards", "0"]) == 1
        assert "--shards" in capsys.readouterr().err
        args = ["range", str(index_dir), "--query", "a", "--threshold", "0.5", "--shards", "-2"]
        assert main(args) == 1
        assert "--shards" in capsys.readouterr().err

    def test_bench_rejects_bad_arguments(self, index_dir, capsys):
        assert main(["bench", str(index_dir), "--queries", "0"]) == 1
        assert "positive" in capsys.readouterr().err
        assert main(["bench", str(index_dir), "--shards", "0"]) == 1
        assert "positive" in capsys.readouterr().err
        assert main(["bench", str(index_dir), "--threshold", "1.5"]) == 1
        assert "threshold" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sharded_dir(tmp_path_factory, index_dir):
    sharded = tmp_path_factory.mktemp("cli") / "sharded"
    assert main(["save", str(index_dir), str(sharded), "--shards", "3"]) == 0
    return sharded


class TestShardedLifecycle:
    def test_save_writes_sharded_layout(self, sharded_dir):
        assert (sharded_dir / "manifest.json").exists()
        assert (sharded_dir / "dataset.txt").exists()
        assert (sharded_dir / "shard-0000" / "groups.json").exists()
        assert (sharded_dir / "shard-0002" / "manifest.json").exists()

    def test_load_summarizes_both_kinds(self, index_dir, sharded_dir, capsys):
        assert main(["load", str(sharded_dir)]) == 0
        out = capsys.readouterr().out
        assert "sharded index" in out and "3 shard(s)" in out
        assert main(["load", str(index_dir)]) == 0
        assert "single-engine index" in capsys.readouterr().out

    def test_load_ignores_a_saved_verify_field(self, tmp_path, index_dir, capsys):
        """Older saves carry 'verify' (any value); the summary neither needs nor shows it."""
        import json
        import shutil

        legacy = tmp_path / "legacy"
        shutil.copytree(index_dir, legacy)
        manifest = json.loads((legacy / "manifest.json").read_text())
        manifest["verify"] = "Columnar"
        (legacy / "manifest.json").write_text(json.dumps(manifest, indent=2))
        assert main(["load", str(legacy)]) == 0
        out = capsys.readouterr().out
        assert "single-engine index" in out and "verify" not in out

    def test_sharded_queries_identical_to_single(self, index_dir, sharded_dir,
                                                 data_file, capsys):
        query = data_file.read_text().splitlines()[0]
        assert main(["knn", str(index_dir), "--query", query, "-k", "4"]) == 0
        single = capsys.readouterr().out
        assert main(["knn", str(sharded_dir), "--query", query, "-k", "4"]) == 0
        assert capsys.readouterr().out == single

    def test_join_on_sharded_dir(self, index_dir, sharded_dir, capsys):
        assert main(["join", str(index_dir), "--threshold", "0.8"]) == 0
        single = capsys.readouterr().out
        assert main(["join", str(sharded_dir), "--threshold", "0.8"]) == 0
        assert capsys.readouterr().out == single

    def test_bench_on_sharded_dir(self, sharded_dir, capsys):
        assert main(["bench", str(sharded_dir), "--queries", "10", "-k", "3",
                     "--threshold", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "queries/s" in out and "3 shard(s)" in out

    def test_validate_sharded(self, sharded_dir, capsys):
        assert main(["validate", str(sharded_dir)]) == 0
        out = capsys.readouterr().out
        assert "shard 0000" in out and out.strip().endswith("index OK")

    def test_validate_sharded_corrupt(self, tmp_path, index_dir, capsys):
        sharded = tmp_path / "corrupt"
        assert main(["save", str(index_dir), str(sharded), "--shards", "2"]) == 0
        capsys.readouterr()
        manifest = sharded / "shard-0001" / "manifest.json"
        manifest.write_text(manifest.read_text()[:30])
        assert main(["validate", str(sharded)]) == 2
        assert "CORRUPT" in capsys.readouterr().out

    def test_save_rejects_sharded_input(self, sharded_dir, tmp_path, capsys):
        assert main(["save", str(sharded_dir), str(tmp_path / "again"),
                     "--shards", "2"]) == 1
        assert "already a sharded index" in capsys.readouterr().err

    def test_save_rejects_nonpositive_shards(self, index_dir, tmp_path, capsys):
        assert main(["save", str(index_dir), str(tmp_path / "out"),
                     "--shards", "0"]) == 1
        assert "--shards" in capsys.readouterr().err

    def test_reshard_of_sharded_dir_rejected(self, sharded_dir, capsys):
        assert main(["knn", str(sharded_dir), "--query", "a", "-k", "1",
                     "--shards", "4"]) == 1
        assert "already" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--parallel", "process"), ("--verify", "scalar"), ("--concurrency", "2")],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["knn", "--query", "a", "-k", "1"],
            ["range", "--query", "a", "--threshold", "0.5"],
            ["join", "--threshold", "0.5"],
            ["bench"],
            ["serve"],
        ],
        ids=lambda command: command[0],
    )
    def test_removed_flags_are_usage_errors(self, index_dir, command, flag, value, capsys):
        with pytest.raises(SystemExit) as usage:
            main([command[0], str(index_dir), *command[1:], flag, value])
        assert usage.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestLoadModes:
    """--mode memory|mmap|lazy on load/knn/range/join/bench."""

    def test_knn_identical_across_modes(self, index_dir, data_file, capsys):
        query = data_file.read_text().splitlines()[0]
        assert main(["knn", str(index_dir), "--query", query, "-k", "4"]) == 0
        reference = capsys.readouterr().out
        assert main(["knn", str(index_dir), "--query", query, "-k", "4",
                     "--mode", "mmap"]) == 0
        assert capsys.readouterr().out == reference

    def test_sharded_queries_identical_across_modes(self, sharded_dir, data_file,
                                                    capsys):
        query = data_file.read_text().splitlines()[2]
        assert main(["range", str(sharded_dir), "--query", query,
                     "--threshold", "0.5"]) == 0
        reference = capsys.readouterr().out
        for mode in ("mmap", "lazy"):
            assert main(["range", str(sharded_dir), "--query", query,
                         "--threshold", "0.5", "--mode", mode]) == 0
            assert capsys.readouterr().out == reference, mode

    def test_join_and_bench_accept_mode(self, sharded_dir, capsys):
        assert main(["join", str(sharded_dir), "--threshold", "0.8",
                     "--mode", "lazy"]) == 0
        capsys.readouterr()
        assert main(["bench", str(sharded_dir), "--queries", "5", "-k", "2",
                     "--threshold", "0.6", "--mode", "mmap"]) == 0
        assert "queries/s" in capsys.readouterr().out

    def test_load_summary_in_lazy_mode(self, sharded_dir, capsys):
        assert main(["load", str(sharded_dir), "--mode", "lazy"]) == 0
        out = capsys.readouterr().out
        assert "sharded index" in out and "3 shard(s)" in out

    def test_lazy_needs_a_sharded_dir(self, index_dir, capsys):
        assert main(["knn", str(index_dir), "--query", "a", "-k", "1",
                     "--mode", "lazy"]) == 1
        assert "sharded index directory" in capsys.readouterr().err
        assert main(["bench", str(index_dir), "--queries", "5",
                     "--mode", "lazy"]) == 1
        assert "sharded index directory" in capsys.readouterr().err

    def test_mmap_of_pre_v3_dir_reports_cleanly(self, tmp_path, index_dir, capsys):
        """A clear error, not a traceback, for text-only (pre-v3) saves."""
        import shutil

        legacy = tmp_path / "legacy"
        shutil.copytree(index_dir, legacy)
        (legacy / "dataset.bin").unlink()
        assert main(["knn", str(legacy), "--query", "a", "-k", "1",
                     "--mode", "mmap"]) == 1
        assert "saved before format v3" in capsys.readouterr().err

    def test_validate_checks_binary_dataset(self, tmp_path, index_dir, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(index_dir, broken)
        path = broken / "dataset.bin"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(data))
        assert main(["validate", str(broken)]) == 2
        assert "CORRUPT" in capsys.readouterr().out

    def test_validate_compares_the_two_dataset_encodings(
        self, tmp_path, index_dir, capsys
    ):
        """Both files intact by their own digests, but holding different records."""
        import hashlib
        import json
        import shutil

        skewed = tmp_path / "skewed"
        shutil.copytree(index_dir, skewed)
        text = skewed / "dataset.txt"
        lines = text.read_text().splitlines()
        lines[0] += " one-more-token"
        text.write_text("\n".join(lines) + "\n")
        manifest = json.loads((skewed / "manifest.json").read_text())
        manifest["dataset_digest"] = "sha256:" + hashlib.sha256(text.read_bytes()).hexdigest()
        (skewed / "manifest.json").write_text(json.dumps(manifest))
        for mode in ("memory", "mmap"):  # each load sees one consistent encoding
            assert main(["load", str(skewed), "--mode", mode]) == 0
        capsys.readouterr()
        assert main(["validate", str(skewed)]) == 2
        out = capsys.readouterr().out
        assert "index CORRUPT" in out and "record 0 differs" in out


class TestV1Compatibility:
    @pytest.fixture()
    def v1_dir(self, tmp_path, index_dir):
        """A directory exactly as the original v1 writer left it."""
        import json
        import shutil

        legacy = tmp_path / "v1"
        shutil.copytree(index_dir, legacy)
        (legacy / "dataset.bin").unlink()
        manifest = json.loads((legacy / "manifest.json").read_text())
        manifest = {
            key: manifest[key]
            for key in ("measure", "backend", "num_records", "universe_size")
        }
        manifest["format_version"] = 1
        (legacy / "manifest.json").write_text(json.dumps(manifest, indent=2))
        return legacy

    def test_load_summarizes_a_v1_dir(self, v1_dir, capsys):
        """Regression: `repro load` on a v1 dir summarizes it, no crash."""
        assert main(["load", str(v1_dir)]) == 0
        out = capsys.readouterr().out
        assert "single-engine index" in out and "0 tombstone(s)" in out

    def test_v1_queries_and_validate_still_work(self, v1_dir, data_file, capsys):
        query = data_file.read_text().splitlines()[0]
        assert main(["knn", str(v1_dir), "--query", query, "-k", "2"]) == 0
        capsys.readouterr()
        assert main(["validate", str(v1_dir)]) == 0
