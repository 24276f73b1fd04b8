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
(the visit helpers then verify record by record), and the join is the
plain all-pairs scalar walk over the live records — no prefix, no length
filter, no group bound — so it is an independent reference for the
prefix-filter join, which cannot hide a missed candidate behind a filter
it shares.  Answers must not change; ``QueryStats`` must not change
either, except the join's counters (the walk scores every pair of live
records, the prefix-filter join only its candidates).  Disarmed, the
check is one global read per query.  Arming is process-wide, like
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
