"""Serving-side surface of the resilience primitives.

The primitives themselves live in :mod:`repro.core.resilience` —
``repro.distributed`` uses them too and must not import the serving
layer — but operators configuring ``repro serve`` reach for them from
here: :class:`Deadline` / :class:`DeadlineExceeded` are per-request
budgets; the service anchors one at admission from ``timeout_ms`` and
the HTTP layer maps an expired one to ``504 Gateway Timeout``.

See ``docs/operations.md`` for how the pieces compose under failure.
"""

from repro.core.resilience import Deadline, DeadlineExceeded

__all__ = ["Deadline", "DeadlineExceeded"]
