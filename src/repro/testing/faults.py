"""Fault injection for chaos tests (:mod:`repro.testing.faults`).

Production code calls :func:`fault_point` at named injection points —
storage reads, shard task execution, and each step of a crash-safe save.
With no plan armed the call is a single global read and an immediate
return, so the hooks are safe to leave in hot paths.

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s.  Each rule
names a ``point`` (and optionally a ``match`` substring of the point's
detail string) and an ``action``:

``fail``
    raise :class:`InjectedFault` (a ``RuntimeError``) at the point;
``delay``
    sleep ``delay_seconds`` before continuing — a slow disk or a slow
    shard, used by the deadline tests;
``kill``
    ``SIGKILL`` the *current process* — armed in a subprocess this is
    the canonical "died mid-save" fault of the crash-safety matrices.

Rules fire deterministically: ``skip`` hits are ignored first, then the
rule fires ``times`` times (``times < 0`` means forever).  A rule with a
``token`` path fires **exactly once across processes**: the first
process to atomically create the token file wins, every other process
armed with the same plan skips the rule.  Plans are
JSON round-trippable so subprocesses can be armed through the
``REPRO_FAULTS`` environment variable::

    REPRO_FAULTS='{"rules": [{"point": "save.swap", "action": "kill",
                              "skip": 3, "token": "/tmp/kill.tok"}]}'
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

ENV_VAR = "REPRO_FAULTS"

_ACTIONS = ("fail", "delay", "kill")


class InjectedFault(RuntimeError):
    """Raised by a ``fail`` rule at an armed injection point."""


@dataclass
class FaultRule:
    """One trigger: fire ``action`` at hits of ``point`` matching ``match``."""

    point: str
    action: str = "fail"
    skip: int = 0
    times: int = 1
    delay_seconds: float = 0.0
    match: str = ""
    token: str | None = None
    # Runtime counters (not part of the serialized form).
    hits: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; use one of {_ACTIONS}")
        if self.skip < 0:
            raise ValueError("skip must be >= 0")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")

    def to_payload(self) -> dict:
        payload = {"point": self.point, "action": self.action}
        if self.skip:
            payload["skip"] = self.skip
        if self.times != 1:
            payload["times"] = self.times
        if self.delay_seconds:
            payload["delay_seconds"] = self.delay_seconds
        if self.match:
            payload["match"] = self.match
        if self.token is not None:
            payload["token"] = self.token
        return payload


class FaultPlan:
    """An armable set of :class:`FaultRule`\\ s."""

    def __init__(self, rules: list[FaultRule] | None = None) -> None:
        self.rules = list(rules or [])

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        return cls([FaultRule(**rule) for rule in payload.get("rules", [])])

    def to_json(self) -> str:
        return json.dumps({"rules": [rule.to_payload() for rule in self.rules]})


_LOCK = threading.Lock()
_PLAN: FaultPlan | None = None
_TRACE: list[tuple[str, str]] | None = None


def arm(plan: FaultPlan) -> None:
    """Arm ``plan`` process-wide (children forked afterwards inherit it)."""
    global _PLAN
    _PLAN = plan


def disarm() -> None:
    """Drop the armed plan; every fault point becomes a no-op again."""
    global _PLAN
    _PLAN = None


def active_plan() -> FaultPlan | None:
    return _PLAN


@contextmanager
def armed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """``with armed(plan): ...`` — arm for the block, disarm after."""
    global _PLAN
    previous = _PLAN
    arm(plan)
    try:
        yield plan
    finally:
        _PLAN = previous


@contextmanager
def recording() -> Iterator[list[tuple[str, str]]]:
    """Capture every ``(point, detail)`` hit in the block without firing.

    Used by the save-interruption matrix test to enumerate the injection
    points of a clean run before replaying a failure at each one.
    """
    global _TRACE
    previous = _TRACE
    trace: list[tuple[str, str]] = []
    _TRACE = trace
    try:
        yield trace
    finally:
        _TRACE = previous


def _claim_token(path: str) -> bool:
    """Atomically claim a cross-process once-token; True if we won."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.write(fd, str(os.getpid()).encode("ascii"))
    os.close(fd)
    return True


def fault_point(point: str, detail: str = "") -> None:
    """Declare an injection point.  Near-free unless a plan is armed."""
    trace = _TRACE
    if trace is not None:
        trace.append((point, detail))
    plan = _PLAN
    if plan is None:
        return
    for rule in plan.rules:
        if rule.point != point or rule.match not in detail:
            continue
        with _LOCK:
            rule.hits += 1
            if rule.hits <= rule.skip:
                continue
            if rule.times >= 0 and rule.fired >= rule.times:
                continue
            if rule.token is not None and not _claim_token(rule.token):
                continue
            rule.fired += 1
        if rule.action == "delay":
            time.sleep(rule.delay_seconds)
        elif rule.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        else:
            raise InjectedFault(f"injected fault at {point}" + (f" ({detail})" if detail else ""))


# Arm from the environment at import time so `repro serve` subprocesses
# (and anything else launched with REPRO_FAULTS set) run chaos plans
# without code changes.  Import happens before any engine work.
if ENV_VAR in os.environ:  # pragma: no cover - exercised via subprocess tests
    arm(FaultPlan.from_json(os.environ[ENV_VAR]))
