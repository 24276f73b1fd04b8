"""Set similarity measures and their TGM group upper bounds.

Theorem 3.1 (the *TGM Applicability Property*) says the TGM can serve a
measure ``Sim`` whenever, for ``R = Q ∩ S``:

1. ``Sim(Q, R) >= Sim(Q, S)``, and
2. ``Sim(Q, R) >= Sim(Q, R')`` for every ``R' ⊂ R``.

For such measures the group bound is ``Sim(Q, R*)`` where
``R* = Q ∩ GS_g`` is the portion of the query covered by the group's
vocabulary.  Because ``R* ⊆ Q``, the bound only depends on ``|R*|`` and
``|Q|``; each measure implements it as :meth:`Similarity.group_upper_bound`.

The TGM also knows each group's member-size range ``[smin, smax]``, and
:meth:`Similarity.sized_bounds` uses it: a member's overlap with ``Q`` is
at most ``min(|R*|, |S|)``, and every built-in measure, at that overlap,
peaks at ``|S| = |R*|`` and falls off on both sides — so the best member
size within the range is ``|R*|`` clipped to ``[smin, smax]``.

All measures work on multisets too: ``overlap`` is the multiset overlap
``Σ_t min(count_Q(t), count_S(t))`` and sizes count duplicates.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.core.sets import SetRecord, overlap

__all__ = [
    "Similarity",
    "JaccardSimilarity",
    "DiceSimilarity",
    "CosineSimilarity",
    "OverlapCoefficient",
    "ContainmentSimilarity",
    "get_measure",
    "MEASURES",
]


class Similarity(ABC):
    """A set similarity measure usable with the TGM.

    Subclasses implement :meth:`from_overlap` (similarity given the overlap
    and the two set sizes) and :meth:`group_upper_bound` (the Theorem 3.1
    bound).  ``__call__`` computes the exact similarity of two records.
    For hot-path speed, concrete measures additionally override the
    vectorized variants (:meth:`from_overlaps`, :meth:`bounds_from_counts`)
    with closed-form array expressions that apply the *same* float64
    operations as their scalar counterparts — results stay bit-identical.

    Attributes
    ----------
    name : str
        Registry key (``get_measure(name)``) and manifest identifier.
    symmetric : bool
        Whether ``Sim(A, B) == Sim(B, A)``; asymmetric measures (e.g.
        containment) set this False so order-sensitive consumers orient
        arguments canonically.

    Examples
    --------
    >>> from repro.core import SetRecord, get_measure
    >>> measure = get_measure("jaccard")
    >>> measure(SetRecord([1, 2, 3]), SetRecord([2, 3, 4]))
    0.5
    >>> measure.from_overlap(2, 3, 3)           # same pair, from counts
    0.5
    >>> measure.group_upper_bound(covered=2, query_size=3)
    0.6666666666666666
    >>> measure.bounds_from_counts([0, 1, 3], query_size=3)
    array([0.        , 0.33333333, 1.        ])
    """

    name: str = "abstract"
    #: Whether ``Sim(A, B) == Sim(B, A)``.  Asymmetric measures (e.g.
    #: containment) must set this False so order-sensitive consumers — the
    #: self-join reports ``Sim(S_x, S_y)`` with ``x < y`` — orient the
    #: arguments canonically instead of by iteration order.
    symmetric: bool = True

    def __call__(self, a: SetRecord, b: SetRecord) -> float:
        return self.from_overlap(overlap(a, b), len(a), len(b))

    @abstractmethod
    def from_overlap(self, shared: int, size_a: int, size_b: int) -> float:
        """Similarity of two sets given their overlap and sizes."""

    def from_overlaps(
        self, shared: ArrayLike, sizes_a: ArrayLike, sizes_b: ArrayLike
    ) -> NDArray[np.float64]:
        """Vectorized :meth:`from_overlap`; arguments broadcast like numpy.

        The verification kernel (:mod:`repro.core.columnar`) calls this
        with one scalar query size and a vector of record sizes to score a
        whole group at once.  Every built-in measure overrides it with a
        closed-form array expression applying the *same* float64
        operations as its scalar ``from_overlap``, so the results are
        bit-identical; this base fallback loops the scalar method (slow
        but always correct for third-party measures).
        """
        shared, sizes_a, sizes_b = _broadcast_int64(shared, sizes_a, sizes_b)
        return np.array(
            [
                self.from_overlap(int(o), int(a), int(b))
                for o, a, b in zip(shared.ravel(), sizes_a.ravel(), sizes_b.ravel())
            ],
            dtype=np.float64,
        ).reshape(shared.shape)

    def from_overlap_matrix(
        self, shared: ArrayLike, sizes_a: ArrayLike, sizes_b: ArrayLike
    ) -> NDArray[np.float64]:
        """Pairwise similarity matrix from an overlap matrix and two size vectors.

        ``shared`` is the ``(len(sizes_a), len(sizes_b))`` integer overlap
        matrix of two record blocks (row record × column record);
        ``sizes_a`` / ``sizes_b`` are the blocks' multiset sizes.  The
        result applies :meth:`from_overlaps` under outer broadcasting, so
        every cell goes through the measure's own vectorized formula — the
        *same* float64 operations as the scalar ``from_overlap``, making
        the matrix bit-identical to the per-pair walk.
        """
        sizes_a = np.asarray(sizes_a, dtype=np.int64)
        sizes_b = np.asarray(sizes_b, dtype=np.int64)
        return self.from_overlaps(shared, sizes_a[:, None], sizes_b[None, :])

    @abstractmethod
    def group_upper_bound(self, covered: int, query_size: int) -> float:
        """Upper bound on ``Sim(Q, S)`` for any ``S`` in a group.

        Parameters
        ----------
        covered:
            ``|Q ∩ GS_g|`` — how many query tokens the group's vocabulary
            covers.
        query_size:
            ``|Q|``.
        """

    def bounds_from_counts(
        self, counts: ArrayLike, query_size: int
    ) -> NDArray[np.float64]:
        """Vector of size-blind group upper bounds from covered counts.

        ``counts[g] = |Q ∩ GS_g|`` (multiplicity-weighted); the result is
        ``group_upper_bound`` applied elementwise, as a float64 array — the
        paper's Theorem 3.1 bound, which looks at nothing but the covered
        count.  It is monotone in the covered count for every measure,
        which is what makes coarser vocabularies (a shard's union of group
        vocabularies) sound upper bounds too; shard-level bounds use it
        as is.  Group bounds go through :meth:`sized_bounds`, which also
        sees the groups' member-size ranges.

        Group scoring is on the hot path, so **every concrete measure must
        override this** with a closed-form array expression that matches
        its scalar :meth:`group_upper_bound` exactly (a test enforces the
        match for every registered measure).  This base fallback loops the
        scalar method — correct for third-party measures, but slow.
        """
        return np.array(
            [self.group_upper_bound(int(c), query_size) for c in counts],
            dtype=np.float64,
        )

    def sized_bounds(
        self,
        counts: ArrayLike,
        query_size: int,
        size_lo: ArrayLike,
        size_hi: ArrayLike,
    ) -> NDArray[np.float64]:
        """Group upper bounds from covered counts *and* member-size ranges.

        Group ``g`` holds only sets with ``size_lo[g] <= |S| <= size_hi[g]``
        (an empty group has the range ``[0, 0]``).  This base version
        ignores the ranges and returns :meth:`bounds_from_counts` — sound
        for any measure satisfying Theorem 3.1, so third-party measures
        keep today's size-blind bound.  The built-in measures override it
        with the size-aware bound (see :class:`_SizePeakedMeasure`).
        """
        return self.bounds_from_counts(counts, query_size)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _broadcast_int64(
    shared: ArrayLike, sizes_a: ArrayLike, sizes_b: ArrayLike
) -> tuple[NDArray[np.int64], NDArray[np.int64], NDArray[np.int64]]:
    """Broadcast the three ``from_overlaps`` arguments to common-shape int64."""
    arrays = np.broadcast_arrays(
        np.asarray(shared, dtype=np.int64),
        np.asarray(sizes_a, dtype=np.int64),
        np.asarray(sizes_b, dtype=np.int64),
    )
    return arrays[0], arrays[1], arrays[2]


class _SizePeakedMeasure(Similarity):
    """A measure that, at a fixed overlap cap ``c``, peaks at ``|S| = c``.

    For every built-in measure ``Sim`` depends on ``(overlap, |Q|, |S|)``
    only, grows with the overlap, and — with the overlap capped at
    ``min(c, |S|)`` — grows with ``|S|`` up to ``c`` and does not grow
    beyond it.  So over a group whose members have
    ``smin <= |S| <= smax`` and share at most ``c = |Q ∩ GS_g|`` with the
    query, no member beats ``s* = clip(c, smin, smax)`` with overlap
    ``min(c, s*)``; :meth:`sized_bounds` evaluates exactly that through
    :meth:`~Similarity.from_overlaps` — the verification kernel's own
    float64 formula, so a member that attains the bound scores it bit
    for bit.  With ``[smin, smax]`` covering every size the bound is the
    size-blind one.
    """

    def sized_bounds(
        self,
        counts: ArrayLike,
        query_size: int,
        size_lo: ArrayLike,
        size_hi: ArrayLike,
    ) -> NDArray[np.float64]:
        # min(c, s*) = min(c, smax), and s* = max(that, smin) when smin <= smax;
        # an empty group's range [0, 0] scores 0.
        overlap = np.minimum(np.asarray(counts, dtype=np.int64), size_hi)
        return self.from_overlaps(overlap, query_size, np.maximum(overlap, size_lo))


class JaccardSimilarity(_SizePeakedMeasure):
    """Jaccard similarity ``|A ∩ B| / |A ∪ B|`` (Equation 2 bound)."""

    name = "jaccard"

    def from_overlap(self, shared: int, size_a: int, size_b: int) -> float:
        union = size_a + size_b - shared
        if union <= 0:
            return 0.0
        return shared / union

    def from_overlaps(
        self, shared: ArrayLike, sizes_a: ArrayLike, sizes_b: ArrayLike
    ) -> NDArray[np.float64]:
        shared, sizes_a, sizes_b = _broadcast_int64(shared, sizes_a, sizes_b)
        union = sizes_a + sizes_b - shared
        result = np.zeros(shared.shape, dtype=np.float64)
        np.divide(shared, union, out=result, where=union > 0)
        return result

    def group_upper_bound(self, covered: int, query_size: int) -> float:
        if query_size <= 0:
            return 0.0
        # Best possible S is R itself: Jaccard(Q, R) = |R| / |Q| for R ⊆ Q.
        return covered / query_size

    def bounds_from_counts(
        self, counts: ArrayLike, query_size: int
    ) -> NDArray[np.float64]:
        if query_size <= 0:
            return np.zeros(len(counts), dtype=np.float64)
        return np.asarray(counts, dtype=np.float64) / query_size

    def sized_bounds(
        self,
        counts: ArrayLike,
        query_size: int,
        size_lo: ArrayLike,
        size_hi: ArrayLike,
    ) -> NDArray[np.float64]:
        # The inherited bound in closed form — it runs for every query and
        # every insert.  With |Q| > 0 the union |Q| + s* - overlap is at
        # least |Q|, so the division needs no guard; the int64 union and the
        # float64 division are from_overlaps' own, so the values are too.
        if query_size <= 0:
            return np.zeros(len(size_hi), dtype=np.float64)
        overlap = np.minimum(np.asarray(counts, dtype=np.int64), size_hi)
        return overlap / (query_size - overlap + np.maximum(overlap, size_lo))


class DiceSimilarity(_SizePeakedMeasure):
    """Dice coefficient ``2|A ∩ B| / (|A| + |B|)``."""

    name = "dice"

    def from_overlap(self, shared: int, size_a: int, size_b: int) -> float:
        total = size_a + size_b
        if total <= 0:
            return 0.0
        return 2.0 * shared / total

    def from_overlaps(
        self, shared: ArrayLike, sizes_a: ArrayLike, sizes_b: ArrayLike
    ) -> NDArray[np.float64]:
        shared, sizes_a, sizes_b = _broadcast_int64(shared, sizes_a, sizes_b)
        total = sizes_a + sizes_b
        result = np.zeros(shared.shape, dtype=np.float64)
        np.divide(2.0 * shared, total, out=result, where=total > 0)
        return result

    def group_upper_bound(self, covered: int, query_size: int) -> float:
        if query_size <= 0 or covered <= 0:
            return 0.0
        # Dice(Q, R) = 2|R| / (|Q| + |R|) for R ⊆ Q, increasing in |R|.
        return 2.0 * covered / (query_size + covered)

    def bounds_from_counts(
        self, counts: ArrayLike, query_size: int
    ) -> NDArray[np.float64]:
        counts = np.asarray(counts, dtype=np.float64)
        if query_size <= 0:
            return np.zeros(len(counts), dtype=np.float64)
        return np.where(counts > 0, 2.0 * counts / (query_size + counts), 0.0)


class CosineSimilarity(_SizePeakedMeasure):
    """Cosine similarity ``|A ∩ B| / sqrt(|A| * |B|)``.

    Does not satisfy the triangle inequality, but satisfies the TGM
    Applicability Property (the example in Section 3.2: bound is
    ``sqrt(|R| / |Q|)``).
    """

    name = "cosine"

    def from_overlap(self, shared: int, size_a: int, size_b: int) -> float:
        if size_a <= 0 or size_b <= 0:
            return 0.0
        return shared / math.sqrt(size_a * size_b)

    def from_overlaps(
        self, shared: ArrayLike, sizes_a: ArrayLike, sizes_b: ArrayLike
    ) -> NDArray[np.float64]:
        shared, sizes_a, sizes_b = _broadcast_int64(shared, sizes_a, sizes_b)
        result = np.zeros(shared.shape, dtype=np.float64)
        np.divide(
            shared,
            np.sqrt(sizes_a * sizes_b),
            out=result,
            where=(sizes_a > 0) & (sizes_b > 0),
        )
        return result

    def group_upper_bound(self, covered: int, query_size: int) -> float:
        if query_size <= 0 or covered <= 0:
            return 0.0
        # Cosine(Q, R) = |R| / sqrt(|Q||R|) = sqrt(|R| / |Q|) for R ⊆ Q.
        return math.sqrt(covered / query_size)

    def bounds_from_counts(
        self, counts: ArrayLike, query_size: int
    ) -> NDArray[np.float64]:
        counts = np.asarray(counts, dtype=np.float64)
        if query_size <= 0:
            return np.zeros(len(counts), dtype=np.float64)
        return np.sqrt(np.maximum(counts, 0.0) / query_size)


class OverlapCoefficient(_SizePeakedMeasure):
    """Overlap coefficient ``|A ∩ B| / min(|A|, |B|)``.

    Satisfies the applicability property, but its group bound is the
    trivial 1.0 whenever a single query token is covered
    (``Sim(Q, R) = |R| / min(|Q|, |R|) = 1``), so TGM pruning is weak.
    Included deliberately: it demonstrates that applicability does not
    imply *effective* pruning.
    """

    name = "overlap"

    def from_overlap(self, shared: int, size_a: int, size_b: int) -> float:
        smallest = min(size_a, size_b)
        if smallest <= 0:
            return 0.0
        return shared / smallest

    def from_overlaps(
        self, shared: ArrayLike, sizes_a: ArrayLike, sizes_b: ArrayLike
    ) -> NDArray[np.float64]:
        shared, sizes_a, sizes_b = _broadcast_int64(shared, sizes_a, sizes_b)
        smallest = np.minimum(sizes_a, sizes_b)
        result = np.zeros(shared.shape, dtype=np.float64)
        np.divide(shared, smallest, out=result, where=smallest > 0)
        return result

    def group_upper_bound(self, covered: int, query_size: int) -> float:
        if query_size <= 0 or covered <= 0:
            return 0.0
        return 1.0

    def bounds_from_counts(
        self, counts: ArrayLike, query_size: int
    ) -> NDArray[np.float64]:
        counts = np.asarray(counts, dtype=np.float64)
        if query_size <= 0:
            return np.zeros(len(counts), dtype=np.float64)
        return (counts > 0).astype(np.float64)


class ContainmentSimilarity(_SizePeakedMeasure):
    """Query containment ``|Q ∩ S| / |Q|`` (asymmetric).

    The measure behind containment search ("find sets covering most of my
    query").  Satisfies the applicability property with the same bound as
    Jaccard: for ``R ⊆ Q``, ``C(Q, R) = |R| / |Q|``.
    """

    name = "containment"
    symmetric = False

    def from_overlap(self, shared: int, size_a: int, size_b: int) -> float:
        if size_a <= 0:
            return 0.0
        return shared / size_a

    def from_overlaps(
        self, shared: ArrayLike, sizes_a: ArrayLike, sizes_b: ArrayLike
    ) -> NDArray[np.float64]:
        shared, sizes_a, sizes_b = _broadcast_int64(shared, sizes_a, sizes_b)
        result = np.zeros(shared.shape, dtype=np.float64)
        np.divide(shared, sizes_a, out=result, where=sizes_a > 0)
        return result

    def group_upper_bound(self, covered: int, query_size: int) -> float:
        if query_size <= 0:
            return 0.0
        return covered / query_size

    def bounds_from_counts(
        self, counts: ArrayLike, query_size: int
    ) -> NDArray[np.float64]:
        if query_size <= 0:
            return np.zeros(len(counts), dtype=np.float64)
        return np.asarray(counts, dtype=np.float64) / query_size


MEASURES: dict[str, Similarity] = {
    measure.name: measure
    for measure in (
        JaccardSimilarity(),
        DiceSimilarity(),
        CosineSimilarity(),
        OverlapCoefficient(),
        ContainmentSimilarity(),
    )
}


def get_measure(name: str | Similarity) -> Similarity:
    """Resolve a measure by name (or pass a measure through unchanged)."""
    if isinstance(name, Similarity):
        return name
    try:
        return MEASURES[name]
    except KeyError:
        known = ", ".join(sorted(MEASURES))
        raise ValueError(f"unknown similarity measure {name!r}; known: {known}") from None
