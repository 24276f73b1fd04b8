"""Helpers for the serve tests: hold the engine busy instead of waiting on a clock.

The service batches only what queues while the engine is busy, so every
batching, admission and deadline test needs a busy engine.  Occupying the
service's one engine thread with a blocking call provides one
deterministically: a batch dispatched meanwhile waits behind that call,
and everything admitted after it waits in the queue for the next batch.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from typing import Callable, Iterator

import pytest

from repro.serve import QueryService


@contextlib.contextmanager
def _held(service: QueryService) -> Iterator[None]:
    """Occupy ``service``'s engine thread until the block exits."""
    holding, release = threading.Event(), threading.Event()

    def hold() -> None:
        holding.set()
        release.wait()

    held = service._executor.submit(hold)
    holding.wait()
    try:
        yield
    finally:
        release.set()
        held.result()


async def _until(condition: Callable[[], bool], timeout: float = 10.0) -> None:
    """Yield to the event loop until ``condition()`` holds."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise AssertionError("condition did not hold in time")
        await asyncio.sleep(0.001)


@pytest.fixture
def engine_held() -> Callable[[QueryService], contextlib.AbstractContextManager]:
    return _held


@pytest.fixture
def until() -> Callable:
    return _until
