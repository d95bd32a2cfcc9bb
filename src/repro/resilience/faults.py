"""Deterministic fault injection: the :class:`FaultPlan` and its hooks.

A fault plan is pure data naming *which* faults to inject *where*: kill the
worker executing task *k*, hang the worker executing task *k*, raise an
``OSError`` from the store's *j*-th flush, corrupt the store file before
the next open.  Everything is keyed by deterministic counters (the task's
dispatch number, the flush attempt number), never by wall clock or pid, so
the same plan injects exactly the same faults on every run — chaos
campaigns are replayable, and the chaos tests can assert byte-identity
against a fault-free run.

Plans travel two ways:

* constructor hooks — ``Runner(fault_plan=...)`` and
  ``RunStore(fault_plan=...)`` for in-process tests;
* the :data:`REPRO_FAULT_PLAN_ENV` environment variable (the plan's
  canonical JSON), read at ``Runner``/``RunStore`` construction, for
  subprocess and CLI tests (``tests/test_chaos.py`` injects this way).

The plan itself is frozen; per-process bookkeeping (which task number is
being dispatched next, how many flush attempts have happened) lives in
:class:`FaultState`, one per ``Runner``/``RunStore`` instance.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

REPRO_FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"
"""Environment variable carrying a :meth:`FaultPlan.to_json` payload.
``Runner`` and ``RunStore`` read it at construction when no explicit plan
is passed, which is how subprocess tests inject faults without touching the
CLI surface."""

FAULT_CRASH = "crash"
"""Worker-side instruction: die like ``kill -9`` (``os._exit``)."""

FAULT_HANG = "hang"
"""Worker-side instruction: block well past any reasonable deadline."""


class FaultInjectionError(ValueError):
    """The fault plan payload itself is malformed."""


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, replayable set of faults to inject.

    Task-indexed faults count *dispatch numbers*: the n-th task handed to a
    runner's supervised dispatch (0-based, counted across every
    ``iter_tasks``/``iter_runs`` call on that runner, retries excluded) —
    a deterministic sequence because dispatch order is item order.

    Args:
        seed: Seeds the retry policy's jittered backoff for chaos runs.
        worker_crash: Dispatch numbers whose **first** attempt kills the
            executing worker (``os._exit``); the retry then succeeds.
        worker_hang: Dispatch numbers whose first attempt blocks for
            ``hang_seconds`` — long enough that only the parent-side
            deadline can reclaim the worker.
        poison: Dispatch numbers that kill their worker on **every**
            attempt — the quarantine path.
        flush_errors: 1-based store flush attempt numbers (counting only
            flushes with pending rows) that raise an injected ``OSError``.
        corrupt_on_reopen: Scribble over the store file's header before the
            next open, forcing the integrity check down the
            quarantine-and-rebuild path.
        hang_seconds: How long a hung worker blocks.
    """

    seed: int = 0
    worker_crash: Tuple[int, ...] = ()
    worker_hang: Tuple[int, ...] = ()
    poison: Tuple[int, ...] = ()
    flush_errors: Tuple[int, ...] = ()
    corrupt_on_reopen: bool = False
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        for name in ("worker_crash", "worker_hang", "poison", "flush_errors"):
            values = getattr(self, name)
            try:
                object.__setattr__(self, name, tuple(sorted(int(value) for value in values)))
            except (TypeError, ValueError) as exc:
                raise FaultInjectionError(f"fault plan field {name!r} must hold integers: {exc}") from None

    @property
    def injects_worker_faults(self) -> bool:
        return bool(self.worker_crash or self.worker_hang or self.poison)

    def worker_fault(self, task_number: int, attempt: int) -> Optional[str]:
        """The fault (if any) for dispatching ``task_number`` on ``attempt`` (1-based)."""
        if task_number in self.poison:
            return FAULT_CRASH
        if attempt == 1 and task_number in self.worker_crash:
            return FAULT_CRASH
        if attempt == 1 and task_number in self.worker_hang:
            return FAULT_HANG
        return None

    def flush_fault(self, flush_attempt: int) -> bool:
        """Whether store flush attempt ``flush_attempt`` (1-based) should fail."""
        return flush_attempt in self.flush_errors

    # ------------------------------------------------------------------
    # Wire form (the REPRO_FAULT_PLAN payload)
    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "worker_crash": list(self.worker_crash),
            "worker_hang": list(self.worker_hang),
            "poison": list(self.poison),
            "flush_errors": list(self.flush_errors),
            "corrupt_on_reopen": self.corrupt_on_reopen,
            "hang_seconds": self.hang_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(payload, Mapping):
            raise FaultInjectionError(
                f"a fault plan payload must be a mapping, got {type(payload).__name__}"
            )
        known = {
            "seed", "worker_crash", "worker_hang", "poison",
            "flush_errors", "corrupt_on_reopen", "hang_seconds",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise FaultInjectionError(f"unknown fault plan fields {unknown}; known: {sorted(known)}")
        return cls(
            seed=int(payload.get("seed", 0)),
            worker_crash=tuple(payload.get("worker_crash", ())),
            worker_hang=tuple(payload.get("worker_hang", ())),
            poison=tuple(payload.get("poison", ())),
            flush_errors=tuple(payload.get("flush_errors", ())),
            corrupt_on_reopen=bool(payload.get("corrupt_on_reopen", False)),
            hang_seconds=float(payload.get("hang_seconds", 3600.0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultInjectionError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_payload(payload)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> Optional["FaultPlan"]:
        """The plan named by :data:`REPRO_FAULT_PLAN_ENV`, or ``None``."""
        text = (environ if environ is not None else os.environ).get(REPRO_FAULT_PLAN_ENV)
        if not text:
            return None
        return cls.from_json(text)


@dataclass
class FaultState:
    """Per-instance bookkeeping over a frozen :class:`FaultPlan`.

    One per ``Runner`` (task numbering) and one per ``RunStore`` (flush
    attempt numbering).  Task numbers are handed out in dispatch order and
    remembered per slot, so a retried task keeps the number of its first
    dispatch — a poison entry keeps firing on the same task, and a one-shot
    crash entry fires exactly once.
    """

    plan: Optional[FaultPlan] = None
    next_task_number: int = 0
    flush_attempts: int = 0
    calls: int = 0
    _assigned: Dict[Any, int] = field(default_factory=dict)

    def begin_call(self) -> int:
        """Start a new dispatch call; its id disambiguates task tokens.

        Item indices restart at zero for every ``iter_tasks`` call (each
        fuzz batch, each analysis stage), so a token must pair the call id
        with the index to stay unique — that is what keeps the global
        dispatch numbering monotonic across an entire campaign.
        """
        self.calls += 1
        return self.calls

    def task_number(self, token: Any) -> int:
        """The stable dispatch number for ``token`` (assigned on first use)."""
        number = self._assigned.get(token)
        if number is None:
            number = self._assigned[token] = self.next_task_number
            self.next_task_number += 1
        return number

    def worker_fault(self, token: Any, attempt: int) -> Optional[str]:
        number = self.task_number(token)
        if self.plan is None:
            return None
        return self.plan.worker_fault(number, attempt)

    def next_flush_fails(self) -> bool:
        """Count one flush attempt; report whether the plan fails it."""
        self.flush_attempts += 1
        if self.plan is None:
            return False
        return self.plan.flush_fault(self.flush_attempts)


def apply_worker_fault(fault: Optional[str], hang_seconds: float = 3600.0) -> None:
    """Execute a worker-side fault instruction (runs *inside* the worker).

    ``crash`` exits the process without any Python-level cleanup — the
    closest in-process stand-in for ``kill -9``: the pool sees a dead
    worker, the dispatched task's result never arrives, and only the
    parent-side supervisor can recover.  ``hang`` blocks far past any
    deadline.  Top-level and import-light so it is picklable into workers.
    """
    if fault == FAULT_CRASH:
        os._exit(137)
    if fault == FAULT_HANG:
        time.sleep(hang_seconds)
