"""The one-call public query surface: load any index, describe any query.

One surface the query service (:mod:`repro.serve`), the CLI, and
applications all share:

* :func:`load` — open *any* index directory; the save's layout decides
  which engine comes back.  It is the only loader.
* :class:`QueryRequest` / :class:`QueryResult` — engine-independent
  descriptions of one query and its answer, with one canonical kwargs set
  across both engine classes.
* :func:`execute` / :func:`execute_batch` — run requests against either
  engine kind; the batch form coalesces compatible requests into the
  batched BLAS kernels (the micro-batching primitive ``repro serve``
  is built on).

Both kinds of save come back through the same call::

    >>> import repro
    >>> from repro.datasets import zipf_dataset
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "index")
    >>> from repro import Dataset, LES3, save_engine
    >>> dataset = Dataset.from_token_lists([["a", "b"], ["b", "c"], ["x", "y"]])
    >>> save_engine(LES3.build(dataset, num_groups=2), path)
    >>> engine = repro.load(path)          # a flat save: an LES3
    >>> engine.knn(["a", "b"], k=1).matches
    [(0, 1.0)]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Sequence, Union

from repro.core.delta import DeltaSegment
from repro.core.engine import LES3, as_query_record
from repro.core.metrics import QueryStats
from repro.core.persistence import read_generation
from repro.core.resilience import Deadline
from repro.core.similarity import get_measure
from repro.core.tgm import TokenGroupMatrix
from repro.distributed.sharded import LazyShardTGMs, ShardedLES3, _build_concurrently

__all__ = [
    "load",
    "Engine",
    "QueryRequest",
    "QueryResult",
    "WriteRequest",
    "WriteResult",
    "execute",
    "execute_batch",
    "apply_write",
    "QUERY_KINDS",
    "WRITE_KINDS",
]

Engine = Union[LES3, ShardedLES3]

#: The query kinds a :class:`QueryRequest` can describe — exactly the
#: three exact query operations both engine classes implement.
QUERY_KINDS = ("knn", "range", "join")

#: The write kinds a :class:`WriteRequest` can describe — the two
#: mutations both engine classes implement (and their delta logs absorb).
WRITE_KINDS = ("insert", "remove")


def load(
    directory: str | Path,
    mode: str = "memory",
    workers: int | None = None,
    max_resident_shards: int = 4,
) -> Engine:
    """Load *any* saved index — the only loader.

    :func:`repro.core.persistence.read_generation` reads the directory
    (flat layout from ``repro build`` / ``save_engine``, sharded layout
    from ``repro save`` / ``save_sharded``), verifies it and replays its
    ``delta.log``; the layout decides which engine is built from that,
    and every option below means the same thing for both kinds.  The
    engine comes back attached to the generation's write-ahead log, so
    later inserts/removes are durable there.

    Parameters
    ----------
    directory : str or Path
        An index directory written by ``save_engine`` or ``save_sharded``.
    mode : {"memory", "mmap", "lazy"}, default ``"memory"``
        How the dataset and the indexes come up:

        * ``"memory"`` — parse ``dataset.txt`` into Python records.
        * ``"mmap"`` — map the binary columnar ``dataset.bin`` with
          ``np.memmap``: queries read only the pages they touch and no
          record objects are materialized; TGMs are still built eagerly,
          from vectorized CSR gathers.
        * ``"lazy"`` (sharded saves only) — mapped dataset *and*
          on-demand shard TGMs: a shard's index is built on its first
          visit and at most ``max_resident_shards`` stay resident (LRU).
          Lazy engines are read-only (``insert``/``remove`` raise).

        Results are bit-identical in every mode.
    workers : int, optional
        Threads for the concurrent shard-TGM rebuilds (sharded saves,
        eager modes only).
    max_resident_shards : int, default 4
        LRU capacity for ``mode="lazy"``.

    Returns
    -------
    LES3 or ShardedLES3
        A rebuilt engine answering queries bit-identically to the one
        that was saved — deletes and logged writes included.

    Raises
    ------
    PersistenceError
        On any integrity failure (see
        :func:`~repro.core.persistence.read_generation`), or when
        ``mode="lazy"`` is asked of a single-engine save.
    FileNotFoundError
        If the directory (or its manifest) does not exist.

    Examples
    --------
    >>> import tempfile, os, repro
    >>> from repro import Dataset, ShardedLES3
    >>> from repro.distributed import save_sharded
    >>> dataset = Dataset.from_token_lists([["a", "b"], ["b", "c"], ["x", "y"]])
    >>> path = os.path.join(tempfile.mkdtemp(), "sharded-index")
    >>> save_sharded(ShardedLES3.build(dataset, num_shards=2, num_groups=2), path)
    >>> repro.load(path).knn(["a", "b"], k=1).matches
    [(0, 1.0)]
    >>> engine = repro.load(path, mode="lazy")
    >>> type(engine).__name__, engine.knn(["a", "b"], k=1).matches
    ('ShardedLES3', [(0, 1.0)])
    """
    generation = read_generation(directory, mode)
    dataset = generation.dataset
    measure = get_measure(generation.measure)

    def shard_builder(
        groups: list[list[int]], backend: str
    ) -> Callable[[], TokenGroupMatrix]:
        # Closes over the *replayed* groups, so an evicted lazy shard
        # rebuilds to the same folded state.
        return lambda: TokenGroupMatrix(dataset, groups, measure, backend)

    builders = [shard_builder(groups, backend) for groups, backend, _ in generation.shards]
    engine: Engine
    if generation.placement is None:
        engine = LES3(dataset, builders[0]())
        engine.removed = generation.shards[0][2]
    else:
        if mode == "lazy":
            engine = ShardedLES3(
                dataset, LazyShardTGMs(builders, max_resident_shards), measure,
                shard_groups=[groups for groups, _, _ in generation.shards],
            )
        else:
            engine = ShardedLES3(dataset, _build_concurrently(builders, workers), measure)
        engine.removed = {
            record_index: shard_id
            for shard_id, (_, _, deleted) in enumerate(generation.shards)
            for record_index in deleted
        }
        engine.placement = generation.placement
    engine._delta = DeltaSegment(directory, num_ops=generation.num_ops)
    return engine


@dataclass(frozen=True)
class QueryRequest:
    """An engine-independent description of one exact query.

    The one canonical kwargs set shared by the CLI, the query service,
    and :func:`execute`: a kind (``"knn"``, ``"range"``, or ``"join"``),
    the query tokens (except for joins, which run over the indexed data),
    and the kind's own parameter (``k`` / ``threshold``).  One
    robustness knob rides along: ``timeout_ms`` (a per-request deadline;
    the service maps an expired one to HTTP 504).  The answer is the
    exact one or an exception — there is no partial result.

    Use the constructors — they validate eagerly, so a malformed request
    fails where it is built (e.g. at the server's admission edge), not
    deep inside an engine::

        >>> QueryRequest.knn(["a", "b"], k=3).k
        3
        >>> QueryRequest.range(["a"], threshold=0.5).threshold
        0.5
        >>> QueryRequest.join(threshold=0.8).tokens is None
        True
        >>> QueryRequest.knn(["a"], k=1, timeout_ms=250).timeout_ms
        250
        >>> QueryRequest.knn([], k=3)
        Traceback (most recent call last):
            ...
        ValueError: a knn query needs at least one token
    """

    kind: str
    tokens: tuple | None = None
    k: int | None = None
    threshold: float | None = None
    timeout_ms: int | None = None

    @classmethod
    def knn(
        cls,
        tokens: Sequence[Hashable],
        k: int,
        timeout_ms: int | None = None,
    ) -> "QueryRequest":
        """A k-nearest-neighbours request over external query tokens."""
        if not tokens:
            raise ValueError("a knn query needs at least one token")
        if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        request = cls(kind="knn", tokens=tuple(tokens), k=k, timeout_ms=timeout_ms)
        request._check_timeout()
        return request

    @classmethod
    def range(
        cls,
        tokens: Sequence[Hashable],
        threshold: float,
        timeout_ms: int | None = None,
    ) -> "QueryRequest":
        """A range request: all sets within ``threshold`` of the tokens."""
        if not tokens:
            raise ValueError("a range query needs at least one token")
        threshold = _checked_threshold(threshold, low=0.0)
        request = cls(
            kind="range", tokens=tuple(tokens), threshold=threshold, timeout_ms=timeout_ms
        )
        request._check_timeout()
        return request

    @classmethod
    def join(
        cls,
        threshold: float,
        timeout_ms: int | None = None,
    ) -> "QueryRequest":
        """A similarity self-join of the indexed data (no query tokens)."""
        threshold = _checked_threshold(threshold, low=0.0, low_open=True)
        request = cls(kind="join", threshold=threshold, timeout_ms=timeout_ms)
        request._check_timeout()
        return request

    def _check_timeout(self) -> None:
        if self.timeout_ms is not None:
            if (
                isinstance(self.timeout_ms, bool)
                or not isinstance(self.timeout_ms, int)
                or self.timeout_ms <= 0
            ):
                raise ValueError(
                    f"timeout_ms must be a positive integer, got {self.timeout_ms!r}"
                )

    @classmethod
    def from_payload(cls, kind: str, payload: dict) -> "QueryRequest":
        """Build a validated request from a JSON-shaped dict (the HTTP body).

        ``payload`` carries ``tokens`` (list of strings), ``k`` or
        ``threshold``, and optionally ``timeout_ms``.
        Unknown keys are rejected so client typos fail loudly instead of
        being silently ignored.
        """
        if kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {kind!r}; expected one of {QUERY_KINDS}")
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        allowed = {
            "knn": {"tokens", "k", "timeout_ms"},
            "range": {"tokens", "threshold", "timeout_ms"},
            "join": {"threshold", "timeout_ms"},
        }[kind]
        unknown = set(payload) - allowed
        if unknown:
            raise ValueError(
                f"unknown field(s) {sorted(unknown)} for a {kind} request; "
                f"allowed: {sorted(allowed)}"
            )
        timeout_ms = payload.get("timeout_ms")
        if kind == "join":
            return cls.join(_payload_threshold(payload), timeout_ms=timeout_ms)
        tokens = payload.get("tokens")
        if not isinstance(tokens, list) or not all(
            isinstance(token, str) for token in tokens
        ):
            raise ValueError(f"a {kind} request needs 'tokens': a list of strings")
        if kind == "knn":
            return cls.knn(tokens, payload.get("k"), timeout_ms=timeout_ms)
        return cls.range(tokens, _payload_threshold(payload), timeout_ms=timeout_ms)


def _checked_threshold(threshold: object, low: float, low_open: bool = False) -> float:
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise ValueError(f"threshold must be a number, got {threshold!r}")
    threshold = float(threshold)
    if not (low < threshold if low_open else low <= threshold) or threshold > 1.0:
        bracket = "(" if low_open else "["
        raise ValueError(f"threshold must be in {bracket}{low:g}, 1], got {threshold}")
    return threshold


def _payload_threshold(payload: dict) -> object:
    if "threshold" not in payload:
        raise ValueError("request needs a 'threshold'")
    return payload["threshold"]


@dataclass(frozen=True)
class QueryResult:
    """One request's answer in engine-independent form.

    ``matches`` holds ``(record_index, similarity)`` pairs for kNN/range
    requests and ``(x, y, similarity)`` triples for joins, in the
    engines' canonical order; ``stats`` the cost counters of the query
    that produced them.  :meth:`to_payload` is the JSON projection the
    HTTP service returns.
    """

    kind: str
    matches: list = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)

    def to_payload(self) -> dict:
        """A JSON-safe dict: the service's response body."""
        return {
            "kind": self.kind,
            "matches": [list(match) for match in self.matches],
            "count": len(self.matches),
            "stats": {
                "candidates_verified": self.stats.candidates_verified,
                "groups_scored": self.stats.groups_scored,
                "groups_pruned": self.stats.groups_pruned,
            },
        }


@dataclass(frozen=True)
class WriteRequest:
    """An engine-independent description of one mutation.

    The write-path counterpart of :class:`QueryRequest`: a kind
    (``"insert"`` or ``"remove"``), the new set's tokens for inserts,
    the record index for removes.  On an engine attached to a saved
    generation the mutation lands in the generation's write-ahead
    ``delta.log``, so it survives a reload (see ``docs/persistence.md``).

    Use the constructors — like query requests they validate eagerly::

        >>> WriteRequest.insert(["a", "b"]).tokens
        ('a', 'b')
        >>> WriteRequest.remove(3).index
        3
        >>> WriteRequest.insert([])
        Traceback (most recent call last):
            ...
        ValueError: an insert needs at least one token
    """

    kind: str
    tokens: tuple | None = None
    index: int | None = None

    @classmethod
    def insert(cls, tokens: Sequence[Hashable]) -> "WriteRequest":
        """Insert a new set (open universe — unseen tokens are fine)."""
        if not tokens:
            raise ValueError("an insert needs at least one token")
        return cls(kind="insert", tokens=tuple(tokens))

    @classmethod
    def remove(cls, index: int) -> "WriteRequest":
        """Logically delete the record at ``index`` (a tombstone)."""
        if isinstance(index, bool) or not isinstance(index, int) or index < 0:
            raise ValueError(
                f"index must be a non-negative integer, got {index!r}"
            )
        return cls(kind="remove", index=index)

    @classmethod
    def from_payload(cls, kind: str, payload: dict) -> "WriteRequest":
        """Build a validated write from a JSON-shaped dict (the HTTP body).

        Unknown keys are rejected, exactly like
        :meth:`QueryRequest.from_payload`.
        """
        if kind not in WRITE_KINDS:
            raise ValueError(
                f"unknown write kind {kind!r}; expected one of {WRITE_KINDS}"
            )
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        allowed = {"insert": {"tokens"}, "remove": {"index"}}[kind]
        unknown = set(payload) - allowed
        if unknown:
            raise ValueError(
                f"unknown field(s) {sorted(unknown)} for a {kind} request; "
                f"allowed: {sorted(allowed)}"
            )
        if kind == "insert":
            tokens = payload.get("tokens")
            if not isinstance(tokens, list) or not all(
                isinstance(token, str) for token in tokens
            ):
                raise ValueError(
                    "an insert request needs 'tokens': a list of strings"
                )
            return cls.insert(tokens)
        if "index" not in payload:
            raise ValueError("a remove request needs an 'index'")
        return cls.remove(payload["index"])


@dataclass(frozen=True)
class WriteResult:
    """One mutation's outcome in engine-independent form.

    ``index`` is the record the write touched (the new record for
    inserts, the tombstoned one for removes), ``group`` the group it
    joined or left, ``shard`` the shard involved (``None`` on a
    single-engine index).
    """

    kind: str
    index: int
    group: int
    shard: int | None = None

    def to_payload(self) -> dict:
        """A JSON-safe dict: the service's response body."""
        payload = {"kind": self.kind, "index": self.index, "group": self.group}
        if self.shard is not None:
            payload["shard"] = self.shard
        return payload


def apply_write(engine: Engine, request: WriteRequest) -> WriteResult:
    """Apply one mutation to either engine kind.

    Inserts route exactly as the engine's own ``insert`` (the sharded
    engine picks the lightest shard); removes tombstone the record.  A
    remove of an unknown or already-removed record raises
    :class:`ValueError`; so does any write against a lazily loaded
    (read-only) engine.

    Examples
    --------
    >>> from repro import Dataset, LES3
    >>> from repro.api import WriteRequest, apply_write
    >>> dataset = Dataset.from_token_lists([["a", "b"], ["x", "y"]])
    >>> engine = LES3.build(dataset, num_groups=2)
    >>> apply_write(engine, WriteRequest.insert(["p", "q"])).index
    2
    >>> apply_write(engine, WriteRequest.remove(0)).kind
    'remove'
    >>> engine.removed
    {0}
    """
    if request.kind == "insert":
        placed = engine.insert(request.tokens)
        if len(placed) == 3:
            record_index, shard_id, group_id = placed
            return WriteResult("insert", record_index, group_id, shard_id)
        record_index, group_id = placed
        return WriteResult("insert", record_index, group_id)
    if request.kind == "remove":
        try:
            left = engine.remove(request.index)
        except KeyError as error:
            # Both engines signal an unknown/already-removed record with
            # KeyError; the service maps ValueError to HTTP 400.
            raise ValueError(
                f"cannot remove record {request.index}: "
                f"{error.args[0] if error.args else error}"
            ) from error
        if isinstance(left, tuple):
            shard_id, group_id = left
            return WriteResult("remove", request.index, group_id, shard_id)
        return WriteResult("remove", request.index, left)
    raise ValueError(
        f"unknown write kind {request.kind!r}; expected one of {WRITE_KINDS}"
    )


def _request_deadline(
    request: QueryRequest, deadline: Deadline | None
) -> Deadline | None:
    """The effective deadline: an explicit one wins over ``timeout_ms``."""
    if deadline is not None:
        return deadline
    return Deadline.from_timeout_ms(request.timeout_ms)


def execute(
    engine: Engine, request: QueryRequest, deadline: Deadline | None = None
) -> QueryResult:
    """Run one request against either engine kind.

    Thanks to the aligned query signatures this is a straight dispatch.
    The request's ``timeout_ms`` becomes a
    :class:`~repro.core.resilience.Deadline` starting *now*, unless the
    caller passes an explicit ``deadline`` (the query service does: its
    deadline starts at admission, so queue time counts against the
    budget).  An expired deadline raises
    :class:`~repro.core.resilience.DeadlineExceeded`.

    Examples
    --------
    >>> from repro import Dataset, LES3
    >>> from repro.api import QueryRequest, execute
    >>> dataset = Dataset.from_token_lists([["a", "b"], ["b", "c"], ["x", "y"]])
    >>> engine = LES3.build(dataset, num_groups=2)
    >>> execute(engine, QueryRequest.knn(["a", "b"], k=1)).matches
    [(0, 1.0)]
    >>> execute(engine, QueryRequest.join(threshold=0.3)).matches
    [(0, 1, 0.3333333333333333)]
    """
    deadline = _request_deadline(request, deadline)
    if request.kind == "knn":
        result = engine.knn(request.tokens, k=request.k, deadline=deadline)
        return QueryResult("knn", result.matches, result.stats)
    if request.kind == "range":
        result = engine.range(request.tokens, threshold=request.threshold, deadline=deadline)
        return QueryResult("range", result.matches, result.stats)
    if request.kind == "join":
        joined = engine.join(request.threshold, deadline=deadline)
        return QueryResult("join", joined.pairs, joined.stats)
    raise ValueError(f"unknown query kind {request.kind!r}; expected one of {QUERY_KINDS}")


def _coalesce_key(request: QueryRequest) -> tuple[object, ...]:
    """Requests sharing this key can ride one batched kernel call."""
    if request.kind == "knn":
        return ("knn", request.k, request.timeout_ms)
    if request.kind == "range":
        return ("range", request.threshold, request.timeout_ms)
    return None  # joins are whole-database operations; never coalesced


def execute_batch(
    engine: Engine,
    requests: Sequence[QueryRequest | WriteRequest],
    deadline: Deadline | None = None,
) -> list[QueryResult | WriteResult]:
    """Run many requests, coalescing compatible ones into the batch kernels.

    kNN requests sharing ``(k, timeout_ms)`` and range requests
    sharing the analogous key are interned together and answered by one
    ``batch_knn_record`` / ``batch_range_record`` call — group scoring
    becomes one BLAS product for the whole sub-batch instead of one scan
    per request.  Results come back in request order and are
    bit-identical to running :func:`execute` per request (asserted by the
    service's integration tests).  This is the primitive ``repro
    serve``'s micro-batcher dispatches to.  An explicit ``deadline`` (the
    service's, anchored at admission) bounds every sub-batch; otherwise
    each sub-batch gets a deadline from its shared ``timeout_ms``.

    The batch may also carry :class:`WriteRequest` entries.  All writes
    are applied first, in request order, so every query in the batch
    observes every write in the batch; a write that raises aborts the
    remaining requests (the query service isolates write failures per
    request instead — see :mod:`repro.serve.service`).
    """
    results: list[QueryResult | WriteResult | None] = [None] * len(requests)
    # Writes first: queries in a batch must see the batch's mutations.
    for position, request in enumerate(requests):
        if isinstance(request, WriteRequest):
            results[position] = apply_write(engine, request)
    coalesced: dict[tuple, list[int]] = {}
    for position, request in enumerate(requests):
        if isinstance(request, WriteRequest):
            continue
        key = _coalesce_key(request)
        if key is None:
            results[position] = execute(engine, request, deadline)
        else:
            coalesced.setdefault(key, []).append(position)
    for key, positions in coalesced.items():
        kind = key[0]
        records = [
            as_query_record(engine.dataset, requests[position].tokens)
            for position in positions
        ]
        batch_deadline = _request_deadline(requests[positions[0]], deadline)
        if kind == "knn":
            answers = engine.batch_knn_record(records, key[1], deadline=batch_deadline)
        else:
            answers = engine.batch_range_record(records, key[1], deadline=batch_deadline)
        for position, answer in zip(positions, answers):
            results[position] = QueryResult(kind, answer.matches, answer.stats)
    return results  # type: ignore[return-value]
