"""The reference answers: an inverted-index scan that shares no code with ``repro``.

Jaccard similarity of plain sets, ``|Q ∩ S| / (|Q| + |S| - |Q ∩ S|)``
as one float64 division of two exact integers — the same IEEE operation
the engine's scalar and columnar paths perform, so answers are compared
bit for bit.  Results come in the engines' canonical order:
``(-similarity, index)`` for kNN and range (kNN padded with the
smallest zero-similarity indices), ``(x, y)`` with ``x < y`` for joins.
The oracle follows the write phase through :meth:`insert` /
:meth:`remove`, so post-write states are gated against it too.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["Oracle", "answer"]


class Oracle:
    def __init__(self, token_lists: Sequence[Sequence[str]]) -> None:
        self._lists: list[list[str]] = [list(tokens) for tokens in token_lists]
        self._dead: set[int] = set()
        self._built = False

    def __len__(self) -> int:
        return len(self._lists)

    @property
    def live_count(self) -> int:
        return len(self._lists) - len(self._dead)

    def insert(self, tokens: Sequence[str]) -> int:
        self._lists.append(list(tokens))
        self._built = False
        return len(self._lists) - 1

    def remove(self, index: int) -> None:
        if index in self._dead or not 0 <= index < len(self._lists):
            raise KeyError(index)
        self._dead.add(index)
        self._built = False

    def _build(self) -> None:
        if self._built:
            return
        ids: dict[str, int] = {}
        flat: list[int] = []
        for tokens in self._lists:
            if len(set(tokens)) != len(tokens):
                raise ValueError("the oracle scores plain sets; a generated list repeats a token")
            flat.extend(ids.setdefault(token, len(ids)) for token in tokens)
        self._ids = ids
        self._sizes = np.array([len(tokens) for tokens in self._lists], dtype=np.int64)
        tokens_flat = np.array(flat, dtype=np.int64)
        records = np.repeat(np.arange(len(self._lists), dtype=np.int64), self._sizes)
        order = np.argsort(tokens_flat, kind="stable")
        self._postings = records[order]
        self._offsets = np.searchsorted(tokens_flat[order], np.arange(len(ids) + 1))
        live = np.ones(len(self._lists), dtype=bool)
        live[sorted(self._dead)] = False
        self._live = np.flatnonzero(live)
        self._built = True

    def similarities(self, tokens: Sequence[str]) -> np.ndarray:
        """Jaccard of ``tokens`` against every stored set (live or not), float64."""
        self._build()
        if len(set(tokens)) != len(tokens) or not tokens:
            raise ValueError("the oracle scores non-empty plain sets")
        known = [self._ids[token] for token in tokens if token in self._ids]
        if known:
            hits = np.concatenate([self._postings[self._offsets[t]:self._offsets[t + 1]] for t in known])
            shared = np.bincount(hits, minlength=len(self._lists))
        else:
            shared = np.zeros(len(self._lists), dtype=np.int64)
        return shared / (len(tokens) + self._sizes - shared)

    def knn(self, tokens: Sequence[str], k: int) -> list[tuple[int, float]]:
        sims = self.similarities(tokens)
        live_sims = sims[self._live]
        positive = self._live[live_sims > 0.0]
        best = positive[np.lexsort((positive, -sims[positive]))][:k]
        padding = self._live[live_sims == 0.0][: k - len(best)]
        return [(int(i), float(sims[i])) for i in (*best, *padding)]

    def range(self, tokens: Sequence[str], threshold: float) -> list[tuple[int, float]]:
        sims = self.similarities(tokens)
        hits = self._live[sims[self._live] >= threshold]
        hits = hits[np.lexsort((hits, -sims[hits]))]
        return [(int(i), float(sims[i])) for i in hits]

    def join(self, threshold: float) -> list[tuple[int, int, float]]:
        """Every live pair ``x < y`` at or above ``threshold``: a full scan per record."""
        self._build()
        pairs = []
        for x in self._live.tolist():
            sims = self.similarities(self._lists[x])
            later = self._live[self._live > x]
            for y in later[sims[later] >= threshold].tolist():
                pairs.append((x, y, float(sims[y])))
        return pairs


def answer(oracle: Oracle, request: dict) -> list[list]:
    """The oracle's answer to one generated request, in JSON shape (lists, not tuples)."""
    if request["kind"] == "knn":
        matches: list = oracle.knn(request["tokens"], request["k"])
    elif request["kind"] == "range":
        matches = oracle.range(request["tokens"], request["threshold"])
    else:
        matches = oracle.join(request["threshold"])
    return [list(match) for match in matches]
