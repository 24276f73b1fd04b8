"""One directory, one answer: ``dataset.txt`` and ``dataset.bin`` never disagree.

``dataset.bin`` stores ``str(token)`` whole while ``dataset.txt`` joins
tokens with spaces and re-splits them on load, so a token that is empty
or holds whitespace used to make one saved index answer differently in
``memory`` and ``mmap``/``lazy`` mode (after a compaction folded it into
the base).  Such a token is now refused where it would enter the stored
data — an insert raises before any mutation or log append, the text
writer refuses a build-path dataset that already holds one — and every
accepted token round-trips identically in every load mode.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import LES3, Dataset, ShardedLES3, TokenGroupMatrix, save_engine, save_sharded
from repro.api import WriteRequest, apply_write
from repro.core.dataset import is_text_token
from repro.core.delta import DELTA_LOG
from repro.maintenance import compact_index, rebalance_index

BASE = [["a", "b"], ["b", "c"], ["c", "d"], ["x", "y"]]
UNWRITABLE = ["a b", "", " ", "a\nb", "tab\there", "nb\xa0sp"]


def _saved_engine(directory, sharded: bool):
    dataset = Dataset.from_token_lists(BASE)
    engine = LES3(dataset, TokenGroupMatrix(dataset, [[0, 1], [2, 3]]))
    if sharded:
        engine = ShardedLES3.from_engine(engine, 2)
        save_sharded(engine, directory)
    else:
        save_engine(engine, directory)
    return engine


def _answers(directory, queries, sharded: bool) -> dict:
    """kNN matches of every query under every load mode of the directory."""
    modes = ("memory", "mmap", "lazy") if sharded else ("memory", "mmap")
    return {
        mode: [repro.load(directory, mode=mode).knn(query, k=3).matches for query in queries]
        for mode in modes
    }


def _assert_modes_agree(directory, queries, sharded: bool) -> None:
    answers = _answers(directory, queries, sharded)
    for mode, matches in answers.items():
        assert matches == answers["memory"], f"mode={mode} disagrees with memory"


@pytest.mark.parametrize("sharded", [False, True], ids=["flat", "sharded"])
@pytest.mark.parametrize("token", UNWRITABLE, ids=repr)
def test_insert_of_an_unwritable_token_is_refused_before_any_mutation(
    tmp_path, sharded, token
):
    engine = _saved_engine(tmp_path / "idx", sharded)
    records, universe = len(engine.dataset), len(engine.dataset.universe)
    with pytest.raises(ValueError, match="whitespace"):
        apply_write(engine, WriteRequest.from_payload("insert", {"tokens": [token, "zz"]}))
    assert (len(engine.dataset), len(engine.dataset.universe)) == (records, universe)
    assert engine.dataset.universe.get_id("zz") is None
    assert not (tmp_path / "idx" / DELTA_LOG).exists()
    assert engine._delta.num_ops == 0
    # Query tokens stay unrestricted: an unknown token is a phantom.
    assert engine.knn([token, "a", "b"], k=1).matches == [(0, 2 / 3)]


@pytest.mark.parametrize("sharded", [False, True], ids=["flat", "sharded"])
def test_the_write_compact_rebalance_lifecycle_agrees_in_every_mode(tmp_path, sharded):
    """The original repro, minus the token that caused it."""
    directory = tmp_path / "idx"
    engine = _saved_engine(directory, sharded)
    with pytest.raises(ValueError):
        engine.insert(["a b", "zz"])
    apply_write(engine, WriteRequest.insert(["a", "zz"]))
    queries = [["a b", "zz"], ["a", "zz"], ["a", "b"]]
    _assert_modes_agree(directory, queries, sharded)
    compact_index(directory, workers=1)
    _assert_modes_agree(directory, queries, sharded)
    assert repro.load(directory).knn(["a", "zz"], k=1).matches == [(4, 1.0)]
    rebalance_index(directory, 2, workers=1)
    _assert_modes_agree(directory, queries, True)


@pytest.mark.parametrize("sharded", [False, True], ids=["flat", "sharded"])
@pytest.mark.parametrize("token", ["a b", "", "a\nb"], ids=repr)
def test_a_build_path_dataset_holding_one_fails_at_save_naming_the_record(
    tmp_path, sharded, token
):
    dataset = Dataset.from_token_lists([["p", "q"], [token, "c"], ["d"]])
    engine = LES3(dataset, TokenGroupMatrix(dataset, [[0], [1, 2]]))
    save = save_engine
    if sharded:
        engine, save = ShardedLES3.from_engine(engine, 2), save_sharded
    with pytest.raises(ValueError, match="record 1 holds the token"):
        save(engine, tmp_path / "idx")
    assert not (tmp_path / "idx").exists()
    assert engine._delta is None


# Text that is rich in the troublemakers: plain letters, every kind of
# whitespace the text format splits on, and the empty string.
_tokens = st.text(alphabet=st.sampled_from("ab \t\n\r\x0b\x1c\xa0\u3000xyz"), max_size=3)
_token_lists = st.lists(st.lists(_tokens, min_size=1, max_size=3), min_size=1, max_size=4)


@settings(max_examples=25, deadline=None)
@given(inserts=_token_lists, sharded=st.booleans())
def test_every_draw_is_rejected_before_mutation_or_round_trips_in_all_modes(
    tmp_path_factory, inserts, sharded
):
    directory = tmp_path_factory.mktemp("draw") / "idx"
    engine = _saved_engine(directory, sharded)
    accepted = 0
    for tokens in inserts:
        before = (len(engine.dataset), len(engine.dataset.universe), engine._delta.num_ops)
        if all(is_text_token(token) for token in tokens):
            engine.insert(tokens)
            accepted += 1
        else:
            with pytest.raises(ValueError):
                engine.insert(tokens)
            after = (len(engine.dataset), len(engine.dataset.universe), engine._delta.num_ops)
            assert after == before
    queries = inserts + [["a", "b"]]
    live = [engine.knn(query, k=3).matches for query in queries]
    for stage in ("delta", "compacted"):
        answers = _answers(directory, queries, sharded)
        for mode, matches in answers.items():
            assert matches == live, f"{stage}: mode={mode} differs from the live engine"
        assert compact_index(directory, workers=1)["ops_folded"] == (
            accepted if stage == "delta" else 0
        )


@settings(max_examples=25, deadline=None)
@given(token_lists=_token_lists)
def test_a_build_path_draw_fails_at_save_or_round_trips_in_all_modes(
    tmp_path_factory, token_lists
):
    directory = tmp_path_factory.mktemp("build") / "idx"
    dataset = Dataset.from_token_lists(token_lists)
    engine = LES3(dataset, TokenGroupMatrix(dataset, [list(range(len(dataset)))]))
    if all(is_text_token(token) for tokens in token_lists for token in tokens):
        save_engine(engine, directory)
        built = [engine.knn(query, k=3).matches for query in token_lists]
        for matches in _answers(directory, token_lists, False).values():
            assert matches == built
    else:
        with pytest.raises(ValueError, match="text format cannot carry"):
            save_engine(engine, directory)
        assert not directory.exists()
