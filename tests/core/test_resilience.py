"""Resilience primitives: deadlines."""

from __future__ import annotations

import pytest

from repro.core.resilience import Deadline, DeadlineExceeded


class TestDeadline:
    def test_remaining_and_expired(self):
        assert not Deadline(60.0).expired()
        assert Deadline(0.0).expired()
        assert Deadline(-1.0).remaining() < 0.0

    def test_check_raises_with_context(self):
        deadline = Deadline(0.0)
        with pytest.raises(DeadlineExceeded, match="awaiting shard 3"):
            deadline.check("awaiting shard 3")
        Deadline(60.0).check("plenty of budget")  # no raise

    def test_from_timeout_ms(self):
        assert Deadline.from_timeout_ms(None) is None
        deadline = Deadline.from_timeout_ms(50)
        assert 0.0 < deadline.remaining() <= 0.05

    def test_deadline_exceeded_is_timeout(self):
        assert issubclass(DeadlineExceeded, TimeoutError)
