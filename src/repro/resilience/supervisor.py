"""Parent-side supervised dispatch: detect dead workers, retry, quarantine.

``multiprocessing.Pool`` has a well-known pathology: when a worker is
killed (``kill -9``, OOM, a segfaulting extension) the pool quietly
replaces the *process*, but the task the worker was executing is lost —
its result never arrives, and a bare ``imap_unordered`` loop blocks on it
forever.  :class:`Supervisor` replaces that loop with a windowed
``apply_async`` dispatch the parent can observe:

* **detection** — each poll compares the pool's worker pid set against a
  snapshot (a vanished or replaced pid means a worker died) and checks
  every running batch against a per-batch deadline, counted from when the
  pool started running it (a hung worker never churns a pid, only the
  deadline catches it);
* **recovery** — on a detected fault the pool is respawned and every
  unharvested in-flight task is re-dispatched under the
  :class:`~repro.resilience.retry.RetryPolicy`, with seeded backoff;
* **attribution** — retried tasks run in *isolation* (one in flight at a
  time), so when a crash recurs it is attributed to exactly one task; a
  task that keeps killing its worker is yielded as a typed
  :class:`PoisonRecord` after its attempt budget instead of aborting the
  sweep.  Only a crash that loses a lone single-item task is attributed:
  every other lost task is requeued whatever its budget.

Fresh batches fill a window of ``2 × workers`` in-flight dispatches, so
every worker has its next batch queued while it runs the current one; a
crash therefore loses up to ``2 × workers`` batches, and every task in them
is re-run on its own.  A retry is an in-flight batch on its second or later
attempt: while one runs, nothing else dispatches.  A batch queued behind a
running one has not started, so its deadline clock has not either.

Because tasks are pure functions of their items, a re-dispatched task
reproduces the same bytes, and completion-order jitter is absorbed by the
caller's reorder buffer — supervision is invisible to result content.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from ..obs.registry import METRICS
from .faults import FaultState, apply_worker_fault
from .retry import RetryPolicy

# Telemetry instruments (descriptive only — see repro.obs).  They mirror
# SupervisionStats into the process-local registry: the dataclass stays the
# per-runner, test-visible record, the registry the process-wide aggregate.
# "runner.tasks.dispatched" is shared with the runner's serial path so the
# counter means "task executions paid for" regardless of dispatch mode.
_OBS_DISPATCHED = METRICS.counter("runner.tasks.dispatched")
_OBS_TASK_WALL = METRICS.timer("runner.task.wall")
_OBS_CRASHES = METRICS.counter("supervisor.crashes_detected")
_OBS_RESPAWNS = METRICS.counter("supervisor.respawns")
_OBS_RETRIES = METRICS.counter("supervisor.retries")
_OBS_QUARANTINED = METRICS.counter("supervisor.quarantined")

_POLL_INTERVAL = 0.02
"""Default seconds between supervision polls while tasks are in flight."""

SUPERVISION_GRACE = 5.0
"""Seconds added to a runner's per-run timeout to form the parent-side
deadline: the worker's own ``SIGALRM`` should fire first and return a
timeout record; only a worker too wedged to do even that (or killed
outright) trips the supervisor."""


@dataclass(frozen=True)
class PoisonRecord:
    """A task quarantined for repeatedly killing its worker.

    Yielded by :meth:`Supervisor.map_unordered` in place of the task's
    result.  ``index`` is the task's slot in the dispatched sequence,
    ``attempts`` how many dispatches it consumed, ``reason`` the last
    detected fault.
    """

    index: int
    attempts: int
    reason: str


@dataclass
class SupervisionStats:
    """Counters a supervised dispatch accumulates (exposed for tests/reports)."""

    dispatched: int = 0
    crashes_detected: int = 0
    respawns: int = 0
    retries: int = 0
    quarantined: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "dispatched": self.dispatched,
            "crashes_detected": self.crashes_detected,
            "respawns": self.respawns,
            "retries": self.retries,
            "quarantined": self.quarantined,
        }


def _supervised_invoke_batch(
    func: Any,
    faults: Tuple[Optional[str], ...],
    hang_seconds: float,
    indexed_items: Tuple[Tuple[int, Any], ...],
) -> List[Tuple[int, Any]]:
    """Worker entry for a microbatch: ``(index, func(item))`` per item.

    This is the one worker-entry contract: any picklable top-level ``func``
    rides the pool, and the slot tag that lets the parent reorder is added
    here.  Items execute in item order with their *own* fault tags, so a
    crash entry keyed to the third task of a batch kills the worker exactly
    when that task is reached — the already-computed results die with the
    process, the parent loses the whole batch, and recovery splits it back
    into per-task dispatches (see :meth:`Supervisor._recover`).  Faults
    therefore stay attributable per task even though pickle/dispatch
    overhead is paid once per batch.
    """
    results: List[Tuple[int, Any]] = []
    for fault, (index, item) in zip(faults, indexed_items):
        apply_worker_fault(fault, hang_seconds)
        results.append((index, func(item)))
    return results


@dataclass
class _Task:
    """Parent-side state for one dispatched batch of slots.

    ``items`` is the ordered ``(index, item)`` list travelling in one
    worker dispatch — a plain task is just a batch of one.  A batch shares
    one attempt counter; after a crash, multi-item batches are split into
    singletons that *inherit* the counter, so the per-task attempt
    accounting the retry policy and quarantine thresholds reason about is
    preserved (the batch dispatch was attempt one for every member).
    ``running_since`` starts the deadline clock once the pool is running
    the batch, not while it waits in the pool's queue.
    """

    items: List[Tuple[int, Any]]
    attempts: int = 0
    eligible_at: float = 0.0
    running_since: Optional[float] = None

    @property
    def index(self) -> int:
        """The batch's first slot — its identity in logs and bookkeeping."""
        return self.items[0][0]


class Supervisor:
    """Supervises one runner's parallel dispatch (see module docstring).

    Args:
        runner: The owning :class:`~repro.experiments.runner.Runner`; the
            supervisor uses its pool lifecycle (``_ensure_pool``/``close``)
            to respawn workers after a detected fault.
        policy: Retry budget and backoff schedule for re-dispatched tasks.
        fault_state: Deterministic fault bookkeeping (may wrap ``plan=None``,
            in which case no faults are ever injected — detection and
            recovery still run, they just never trigger).
        deadline: Optional per-batch wall-clock ceiling (seconds from
            when the pool starts running the batch) after which it is
            presumed lost to a hung worker.  ``None`` disables deadline
            detection (pid churn still catches outright deaths).
        stats: Counters to accumulate into (the runner shares one across
            all its dispatches).
        on_log: Optional sink for supervision log lines.
        poll_interval: Seconds between health polls.
    """

    def __init__(
        self,
        runner: Any,
        policy: RetryPolicy,
        fault_state: FaultState,
        *,
        deadline: Optional[float] = None,
        stats: Optional[SupervisionStats] = None,
        on_log: Optional[Callable[[str], None]] = None,
        poll_interval: float = _POLL_INTERVAL,
    ) -> None:
        self._runner = runner
        self._policy = policy
        self._faults = fault_state
        self._deadline = deadline
        self.stats = stats if stats is not None else SupervisionStats()
        self._on_log = on_log
        self._poll_interval = poll_interval
        self._call = fault_state.begin_call()
        self._pids: Optional[frozenset] = None
        # index -> (async_result, dispatched_at); insertion order is dispatch order
        self._outstanding: Dict[int, Tuple[Any, float, _Task]] = {}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        if self._on_log is not None:
            self._on_log(message)

    @staticmethod
    def _worker_pids(pool: Any) -> Optional[frozenset]:
        workers = getattr(pool, "_pool", None)
        if workers is None:  # private API drifted; fall back to deadline-only
            return None
        try:
            return frozenset(worker.pid for worker in workers)
        except Exception:
            return None

    @staticmethod
    def _worker_died(pool: Any) -> bool:
        workers = getattr(pool, "_pool", None)
        if workers is None:
            return False
        try:
            return any(worker.exitcode is not None for worker in workers)
        except Exception:
            return False

    def _window(self) -> int:
        workers = self._runner.parallel or 1
        return max(1, workers * 2)

    def _can_dispatch(self, task: _Task, now: float) -> bool:
        if task.eligible_at > now:
            return False
        if task.attempts > 0:
            # Isolation: a requeued task (attempts counts its past dispatches)
            # runs alone so a recurring crash is attributed to it and only it.
            return not self._outstanding
        # In flight, attempts already counts the current dispatch: a retry is
        # attempt two or later, and nothing joins it while it runs.
        if any(entry[2].attempts > 1 for entry in self._outstanding.values()):
            return False
        return len(self._outstanding) < self._window()

    def _start_clocks(self, now: float) -> None:
        """Start the deadline clock of every batch the pool is now running.

        The pool hands batches to workers in dispatch order, so the running
        ones are the oldest ``parallel`` in flight; a batch queued behind
        them has not started, and its wait must not count against it.
        """
        running = islice(self._outstanding.values(), self._runner.parallel or 1)
        for _result, _dispatched, task in running:
            if task.running_since is None:
                task.running_since = now

    def _detect_fault(self, pool: Any, now: float) -> Optional[str]:
        if self._worker_died(pool):
            return "a pool worker died mid-task"
        pids = self._worker_pids(pool)
        if self._pids is not None and pids is not None and pids != self._pids:
            return "pool worker pids churned (a worker died and was replaced)"
        if self._deadline is not None:
            for index, (_result, _dispatched, task) in self._outstanding.items():
                if task.running_since is not None and now - task.running_since > self._deadline:
                    return (
                        f"task {index} exceeded the {self._deadline:.1f}s "
                        "supervision deadline (worker presumed hung)"
                    )
        return None

    def _recover(self, reason: str, queue: Deque[_Task]) -> List[Tuple[int, PoisonRecord]]:
        """Respawn the pool; requeue, split or quarantine every unharvested task.

        A lost multi-item batch is never retried (or quarantined) wholesale:
        it splits into singleton tasks inheriting the batch's attempt count,
        so the culprit is re-executed in isolation and quarantine decisions
        stay per-task — an injected poison fault takes down exactly its own
        task, and the innocent batch-mates simply re-run.
        """
        self.stats.crashes_detected += 1
        _OBS_CRASHES.inc()
        lost = [entry[2] for entry in self._outstanding.values()]
        self._outstanding.clear()
        self._log(
            f"supervisor: {reason}; respawning the pool and "
            f"re-dispatching {len(lost)} in-flight task(s)"
        )
        self._runner.close()
        self._pids = None
        self.stats.respawns += 1
        _OBS_RESPAWNS.inc()
        poisoned: List[Tuple[int, PoisonRecord]] = []
        now = time.monotonic()
        # The crash is attributable only when it lost one single-item task.
        # Any other lost task may be an innocent batch-mate or a bystander
        # queued behind the culprit, so it is requeued even with its attempt
        # budget spent; it re-runs alone, where a recurrence *is*
        # attributable and quarantines it.
        attributable = len(lost) == 1 and len(lost[0].items) == 1
        singles: List[_Task] = []
        for task in lost:
            if len(task.items) > 1:
                singles.extend(_Task(items=[pair], attempts=task.attempts) for pair in task.items)
            else:
                singles.append(task)
        for task in reversed(singles):  # appendleft keeps original dispatch order
            if attributable and task.attempts >= self._policy.max_attempts:
                self.stats.quarantined += 1
                _OBS_QUARANTINED.inc()
                self._log(
                    f"supervisor: quarantining task {task.index} as poison "
                    f"after {task.attempts} attempt(s)"
                )
                poisoned.append(
                    (task.index, PoisonRecord(index=task.index, attempts=task.attempts, reason=reason))
                )
            else:
                self.stats.retries += 1
                _OBS_RETRIES.inc()
                task.eligible_at = now + self._policy.backoff(task.attempts, token=task.index)
                queue.appendleft(task)
        return poisoned

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------
    def map_unordered(
        self, func: Any, batches: Iterable[List[Tuple[int, Any]]]
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, func(item))`` for every ``(index, item)`` pair of
        every batch, in completion order.

        A quarantined task yields ``(index, PoisonRecord)`` instead; the
        caller decides whether that aborts the sweep or becomes a typed
        poison result.

        Each batch travels to a worker in one dispatch, amortizing pickle
        and pool plumbing over the batch while results are still yielded
        (and faults still injected, retried and quarantined) per item; how
        items are grouped is the caller's plan (see
        :meth:`~repro.experiments.runner.Runner._plan_batches`).  Results
        within a harvested batch arrive in item order; across batches,
        completion order — the caller's reorder buffer makes both invisible.
        """
        queue: Deque[_Task] = deque(_Task(items=batch) for batch in batches)
        hang_seconds = self._faults.plan.hang_seconds if self._faults.plan else 0.0
        while queue or self._outstanding:
            now = time.monotonic()
            # Dispatch from the front while the window (or isolation) allows.
            while queue and self._can_dispatch(queue[0], now):
                task = queue.popleft()
                pool = self._runner._ensure_pool()
                if self._pids is None:
                    self._pids = self._worker_pids(pool)
                task.attempts += 1
                task.running_since = None
                self.stats.dispatched += len(task.items)
                _OBS_DISPATCHED.inc(len(task.items))
                # One fault tag per item, computed in item order so the
                # plan's dispatch numbering is identical at every batch size.
                faults = tuple(
                    self._faults.worker_fault((self._call, index), task.attempts)
                    for index, _item in task.items
                )
                async_result = pool.apply_async(
                    _supervised_invoke_batch,
                    (func, faults, hang_seconds, tuple(task.items)),
                )
                self._outstanding[task.index] = (async_result, time.monotonic(), task)
            self._start_clocks(now)
            # Harvest everything that completed.
            completed = [
                index for index, (result, _s, _t) in self._outstanding.items() if result.ready()
            ]
            if completed:
                for index in completed:
                    async_result, started, _task = self._outstanding.pop(index)
                    _OBS_TASK_WALL.observe(time.monotonic() - started)
                    # .get() re-raises an exception the task itself raised —
                    # that is a task failure, not a worker fault, and it
                    # propagates exactly as it did under imap_unordered.
                    yield from async_result.get()
                continue
            if not self._outstanding:
                # Nothing in flight: the front task is backing off.
                if queue:
                    time.sleep(max(0.0, min(self._poll_interval, queue[0].eligible_at - now)))
                continue
            pool = self._runner._ensure_pool()
            fault_reason = self._detect_fault(pool, now)
            if fault_reason is not None:
                for poisoned in self._recover(fault_reason, queue):
                    yield poisoned
                continue
            # Block briefly on one in-flight result (wakes early on completion).
            next(iter(self._outstanding.values()))[0].wait(self._poll_interval)
