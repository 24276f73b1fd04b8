"""The scalar verification oracle (:mod:`repro.testing.oracle`).

Every query path verifies candidates with the columnar kernel
(:mod:`repro.core.columnar`).  The kernel's contract is that it returns
exactly what the sequential ``measure(query, record)`` walk returns, bit
for bit — and that walk is kept, inside the real query plans, as the
reference the tests compare against.  It is not a user option: the only
way to reach it is to arm it in-process around the code under test::

    from repro.testing import oracle

    expected = engine.knn(query, k=5)
    with oracle.armed():
        assert engine.knn(query, k=5) == expected

While armed, :func:`repro.core.columnar.make_verifier` returns ``None``
(the visit helpers then verify record by record) and the join verifies
each candidate pair with the scalar formula.  Answers must not change;
``QueryStats`` must not change either, except the join's verification
counters (the scalar walk size-filters Jaccard pairs before scoring them,
the kernel scores every cell of a surviving group pair).  Disarmed,
the check is one global read per query.  Arming is process-wide, like
:mod:`repro.testing.faults`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

_ARMED = False


def active() -> bool:
    """True while an :func:`armed` block is running."""
    return _ARMED


@contextmanager
def armed() -> Iterator[None]:
    """``with armed(): ...`` — verify with the scalar walk for the block."""
    global _ARMED
    previous = _ARMED
    _ARMED = True
    try:
        yield
    finally:
        _ARMED = previous
