"""The sweep engine: serial or ``multiprocessing`` fan-out of pure runs.

What a run *computes* lives in :mod:`repro.experiments.execute`
(:func:`~repro.experiments.execute.execute_run`, fingerprinted); this module
decides where and when runs execute and is **not** part of
:func:`repro.store.fingerprint.code_fingerprint` — nothing here can change a
:class:`~repro.experiments.execute.RunResult` a store would persist.

:class:`Runner` fans a sweep out over a **persistent** ``multiprocessing``
pool (or runs it in-process): the pool is created once, lazily, and reused
by every subsequent :meth:`Runner.run` / :meth:`Runner.iter_runs` call, so
repeated sweeps pay worker startup once instead of per batch.  Work is
dispatched through the supervised dispatcher in **microbatches** (see
``batch_size``): each worker round-trip carries a chunk of consecutive
tasks, amortizing pickle/pool overhead, while faults, retries, quarantine
and store caching stay per-task and a small reorder buffer still yields
results in deterministic ``scenarios × seeds`` order.  An
optional per-run wall-clock timeout is enforced with ``SIGALRM`` inside the
executing process, so a hung run is reported as an ``error`` record instead
of stalling the sweep.  Close the pool with :meth:`Runner.close`, use the
runner as a context manager, or let it fall out of scope (garbage collection
closes it).
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import os
import signal
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..obs.registry import METRICS
from ..resilience.faults import FaultPlan, FaultState
from ..resilience.retry import RetryPolicy, TaskQuarantinedError
from ..resilience.supervisor import (
    SUPERVISION_GRACE,
    PoisonRecord,
    SupervisionStats,
    Supervisor,
)
from .execute import POISON_ERROR_PREFIX, TIMEOUT_ERROR_PREFIX, RunResult, execute_run
from .scenario import ScenarioSpec

_LOG = logging.getLogger("repro.experiments.runner")

_DYING_POOL_ERRORS = (OSError, ValueError, AssertionError, RuntimeError)
"""What a dying pool or its processes legitimately raise during teardown."""

DEFAULT_SEED = 2023
"""The shared seed used by benchmarks and smoke sweeps (one seeding path)."""

# Telemetry instruments (descriptive only — see repro.obs).  Cached at import
# so the steady-state cost of an increment never includes a registry lookup.
# All sites run in the parent process: dispatched counts every task execution
# the parent paid for (serial executions and parallel dispatches, retries
# included), cached counts store hits served without execution, and the wall
# timer buckets per-task wall-clock as observed from the dispatch loop.
_OBS_TASKS_DISPATCHED = METRICS.counter("runner.tasks.dispatched")
_OBS_TASKS_CACHED = METRICS.counter("runner.tasks.cached")
_OBS_TASK_WALL = METRICS.timer("runner.task.wall")


def sweep_seeds(count: int, base: int = DEFAULT_SEED) -> Tuple[int, ...]:
    """The canonical seed sequence for a sweep of ``count`` runs per scenario."""
    if count < 1:
        raise ValueError("a sweep needs at least one seed")
    return tuple(base + offset for offset in range(count))


# ----------------------------------------------------------------------
# Per-run wall-clock timeout (SIGALRM inside the executing process)
# ----------------------------------------------------------------------
class _RunTimeout(BaseException):
    """Raised by the alarm handler.  A ``BaseException`` so that no ``except
    Exception`` between the handler and :func:`execute_with_timeout` — in
    :func:`~repro.experiments.execute.execute_run`, a protocol or a checker —
    can mistake the deadline for a result of the run."""


_ALARM_ARMED = False
# Guards against a late SIGALRM delivered after the run already finished: the
# handler only raises while a run is armed, so a stray alarm during cleanup
# can never escape execute_with_timeout and abort the sweep.


def _raise_timeout(signum, frame):  # pragma: no cover - signal handler
    if _ALARM_ARMED:
        raise _RunTimeout()


def execute_with_timeout(item: Tuple[ScenarioSpec, int, Optional[float]]) -> RunResult:
    """Execute one run under the per-run timeout (the one worker entry point).

    Sweeps and fuzz campaigns, pooled or in-process, all run through here.
    ``execute_run`` is looked up in this module's globals on every call, so
    patching ``runner.execute_run`` reaches every path.
    """
    global _ALARM_ARMED
    spec, seed, timeout = item
    if timeout is None or not hasattr(signal, "SIGALRM"):
        return execute_run(spec, seed)
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    _ALARM_ARMED = True
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        result = execute_run(spec, seed)
        _ALARM_ARMED = False
        if signal.getitimer(signal.ITIMER_REAL)[0] == 0.0:
            # The interval timer has expired, so the deadline passed while
            # execute_run was still working — if it returned anyway, a broad
            # ``except BaseException`` somewhere inside protocol or checker
            # code swallowed _RunTimeout and fabricated an ordinary record.
            # The deadline is authoritative: report the timeout, never the
            # fabricated result (which would otherwise be persisted).
            raise _RunTimeout()
        return result
    except _RunTimeout:
        return RunResult.no_verdict(
            spec.name, seed, f"{TIMEOUT_ERROR_PREFIX} run exceeded {timeout}s wall clock"
        )
    finally:
        _ALARM_ARMED = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def quarantine_run(
    item: Tuple[ScenarioSpec, int, Optional[float]], record: PoisonRecord, store: Optional[Any]
) -> RunResult:
    """Turn a run that kept killing its worker into a typed poison record.

    The record takes the run's slot in the result stream (and, with a
    ``store``, a row in its quarantine table) instead of aborting the sweep.
    """
    spec, seed, _timeout = item
    if store is not None:
        store.put_poison(spec, seed, attempts=record.attempts, reason=record.reason)
    return RunResult.no_verdict(
        spec.name,
        seed,
        f"{POISON_ERROR_PREFIX} task quarantined after {record.attempts} "
        f"attempt(s): {record.reason}",
    )


def _effective_hash_seed() -> str:
    """The ``PYTHONHASHSEED`` value to pin for spawned workers.

    Spawned workers boot a fresh interpreter, which randomises its string
    hash seed unless ``PYTHONHASHSEED`` is set — two workers could then
    disagree on any hash-order-dependent iteration.  Pinning every worker to
    one value keeps the whole pool (and reruns of it) consistent; the
    parent's explicit setting wins when present.  (RunResult fields are
    canonically ordered, so results never depend on the parent's own hash
    seed — the pin only has to make the workers agree with each other.)
    """
    value = os.environ.get("PYTHONHASHSEED", "")
    if value and value != "random":
        return value
    return "0"


@contextlib.contextmanager
def _pinned_hash_seed() -> Iterator[None]:
    """Temporarily pin ``PYTHONHASHSEED`` in the environment for child processes."""
    previous = os.environ.get("PYTHONHASHSEED")
    os.environ["PYTHONHASHSEED"] = _effective_hash_seed()
    try:
        yield
    finally:
        if previous is None:
            del os.environ["PYTHONHASHSEED"]
        else:
            os.environ["PYTHONHASHSEED"] = previous


def _map_in_process(
    func: Any, indexed_items: Sequence[Tuple[int, Any]]
) -> Iterator[Tuple[int, Any]]:
    """The serial counterpart of :meth:`Supervisor.map_unordered`: run each
    item here, lazily, yielding ``(index, func(item))`` in item order."""
    for index, item in indexed_items:
        started = time.perf_counter()
        result = func(item)
        _OBS_TASK_WALL.observe(time.perf_counter() - started)
        _OBS_TASKS_DISPATCHED.inc()
        yield index, result


class Runner:
    """Executes scenario sweeps, serially or across worker processes.

    The worker pool is **persistent**: it is created lazily on the first
    parallel sweep and reused by every later one, so callers that sweep in
    phases (the CLI, benchmarks, parameter scans) pay pool startup exactly
    once.  Use the runner as a context manager (or call :meth:`close`) to
    release the workers deterministically; an unreferenced runner closes its
    pool when garbage-collected.  Because workers snapshot the interpreter
    at pool creation, anything registered in the scenario registries *after*
    the first parallel sweep is invisible to them — register protocols /
    adversaries / delay models before sweeping, or :meth:`close` the runner
    to pick the additions up in a fresh pool.

    Args:
        parallel: Number of worker processes; ``None`` or ``0``/``1`` runs
            serially in-process.  Results are identical either way.
        timeout: Optional per-run wall-clock timeout in seconds; a run that
            exceeds it yields an ``error`` record instead of hanging the
            sweep.  Enforced via ``SIGALRM``, so on platforms without it
            (Windows) the timeout is ignored with a warning.
        start_method: Optional ``multiprocessing`` start method override
            (``"fork"``/``"spawn"``/``"forkserver"``).  Defaults to fork when
            available, else spawn.  Spawned workers get ``PYTHONHASHSEED``
            pinned so the serial == parallel byte-identical guarantee holds
            on spawn-only platforms too.  (Caveat: a ``forkserver`` master
            started *before* this call captured its environment then, so the
            pin cannot reach its workers; only fork and spawn carry the
            guarantee.)
        retry_policy: Retry budget and backoff for supervised dispatch:
            an in-flight task whose worker dies is re-dispatched up to
            ``max_attempts`` times before being quarantined as poison.
            Defaults to :class:`~repro.resilience.retry.RetryPolicy`'s
            defaults (seeded from the fault plan when one is active).
        fault_plan: Deterministic fault injection for chaos tests; defaults
            to the plan in the ``REPRO_FAULT_PLAN`` environment variable,
            else none.  The serial path never injects faults.
        supervision_deadline: Per-batch wall-clock ceiling (seconds from
            when a worker starts the batch) after which supervision presumes
            the worker hung and reclaims it.  Defaults to ``timeout`` plus a grace period when
            a per-run timeout is set (the worker's own ``SIGALRM`` should
            fire first), else no deadline (worker *death* is still caught
            via pool pid churn).
        batch_size: Tasks per parallel worker dispatch.  ``None`` sizes the
            microbatches automatically, shrinking them towards the end of
            the sweep (see :meth:`_plan_batches`); ``1`` restores one
            dispatch per task.  Batching amortizes pickle/pool overhead
            only — result order, store caching and crash/retry/poison
            supervision are per-task at every size, and serial execution
            ignores it.
        on_log: Optional sink for supervision/teardown log lines; defaults
            to the module logger.
    """

    MAX_AUTO_BATCH = 16
    """Ceiling for automatically sized microbatches: large enough to make
    dispatch overhead invisible, small enough that one straggler cannot
    serialise a meaningful fraction of a sweep behind it."""

    TEARDOWN_GRACE = 2.0
    """Seconds :meth:`close` waits for the pool to terminate before killing
    its workers outright: ``Pool.terminate`` blocks forever when a worker
    died holding the pool's result-queue lock."""

    def __init__(
        self,
        parallel: Optional[int] = None,
        timeout: Optional[float] = None,
        start_method: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        supervision_deadline: Optional[float] = None,
        batch_size: Optional[int] = None,
        on_log: Optional[Callable[[str], None]] = None,
    ):
        if parallel is not None and parallel < 0:
            raise ValueError("parallel must be a non-negative worker count")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be a positive task count (or None for auto)")
        if start_method is not None and start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start method {start_method!r} not available; "
                f"this platform offers {multiprocessing.get_all_start_methods()}"
            )
        if timeout is not None and not hasattr(signal, "SIGALRM"):
            import warnings

            warnings.warn(
                "per-run timeouts need signal.SIGALRM, which this platform lacks; "
                "runs will not be time-limited",
                RuntimeWarning,
                stacklevel=2,
            )
        self.parallel = parallel
        self.timeout = timeout
        self.start_method = start_method
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        if retry_policy is None:
            retry_policy = RetryPolicy(seed=fault_plan.seed if fault_plan is not None else 0)
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        if supervision_deadline is None and timeout is not None:
            supervision_deadline = timeout + SUPERVISION_GRACE
        self.supervision_deadline = supervision_deadline
        self.batch_size = batch_size
        self.supervision = SupervisionStats()
        self.on_log = on_log
        self._fault_state = FaultState(plan=fault_plan)
        self._pool = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        """Create the persistent worker pool on first use, then reuse it.

        ``self._pool`` is only assigned once the pool constructor returned,
        so a failure mid-setup leaves the runner poolless (and a subsequent
        :meth:`close` a clean no-op) instead of holding a half-built pool.
        """
        if self._pool is None:
            method = self.start_method or (
                "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            )
            context = multiprocessing.get_context(method)
            if method == "fork":
                # Fork keeps the parent's interpreter state (including the
                # hash seed), which makes parallel results byte-identical to
                # serial ones.
                pool = context.Pool(processes=self.parallel)
            else:
                # Spawn/forkserver boot fresh interpreters: pin their hash
                # seed so every worker hashes identically and the guarantee
                # still holds.
                with _pinned_hash_seed():
                    pool = context.Pool(processes=self.parallel)
            self._pool = pool
        return self._pool

    def _log(self, message: str) -> None:
        """Route a supervision/teardown log line to the configured sink."""
        if self.on_log is not None:
            self.on_log(message)
        else:
            _LOG.warning(message)

    def close(self) -> None:
        """Shut the persistent pool down (a later sweep recreates it).

        Idempotent and exception-safe: the pool reference is dropped before
        teardown, so a second ``close`` (or a ``close`` after ``_ensure_pool``
        failed and left no pool) is a no-op, and a worker that refuses to
        terminate cleanly cannot leave the runner pointing at a dead pool.
        Teardown suppresses only the errors a dying pool legitimately
        raises (``OSError`` from dead pipes, pool-state ``ValueError``/
        ``AssertionError``/``RuntimeError``); anything else is logged so a
        real bug in teardown stops being silently swallowed.

        Teardown is bounded: a worker killed while it held the pool's
        result-queue lock wedges ``Pool.terminate`` for good, so terminate
        runs on a daemon thread joined for :attr:`TEARDOWN_GRACE` seconds;
        past that the workers are killed, the wedge is logged and the pool
        is abandoned to its thread.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        stopper = threading.Thread(
            target=self._terminate_pool, args=(pool,), name="repro-pool-teardown", daemon=True
        )
        try:
            stopper.start()
        except RuntimeError:  # no new threads at interpreter shutdown
            self._terminate_pool(pool)
            return
        stopper.join(self.TEARDOWN_GRACE)
        if not stopper.is_alive():
            return
        workers = list(getattr(pool, "_pool", ()))
        for worker in workers:
            with contextlib.suppress(*_DYING_POOL_ERRORS):
                worker.kill()
        for worker in workers:
            with contextlib.suppress(*_DYING_POOL_ERRORS):
                worker.join(self.TEARDOWN_GRACE)
        self._log(
            f"runner: pool teardown still blocked after {self.TEARDOWN_GRACE:.1f}s; "
            f"killed {len(workers)} worker(s) and abandoned the pool"
        )

    def _terminate_pool(self, pool: Any) -> None:
        for teardown in (pool.terminate, pool.join):
            try:
                teardown()
            except _DYING_POOL_ERRORS:
                pass
            except Exception as exc:  # noqa: BLE001 - logged, never raised from teardown
                self._log(
                    f"runner: unexpected {type(exc).__name__} during pool "
                    f"{teardown.__name__}: {exc}"
                )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter shutdown is untestable
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Generic task execution (shared by sweeps and the analysis pipeline)
    # ------------------------------------------------------------------
    def _plan_batches(self, misses: List[Tuple[int, Any]]) -> List[List[Tuple[int, Any]]]:
        """Split ``misses`` into consecutive worker dispatches, in item order.

        An explicit :attr:`batch_size` gives fixed chunks (the last one may
        be short).  Auto sizing is guided self-scheduling (Polychronopoulos
        and Kuck, 1987): each batch takes ``remaining // (2 × workers)``
        items, at least one and at most :data:`MAX_AUTO_BATCH`, so batches
        shrink as the sweep drains and the last worker to finish has only a
        small batch left to run.  The large early batches amortize the
        per-dispatch overhead (pickling the payload, pool plumbing,
        supervision polls); the cap keeps huge sweeps streaming results.
        """
        slots = 2 * (self.parallel or 1)
        batches: List[List[Tuple[int, Any]]] = []
        start = 0
        while start < len(misses):
            size = self.batch_size or max(
                1, min(self.MAX_AUTO_BATCH, (len(misses) - start) // slots)
            )
            batches.append(misses[start : start + size])
            start += size
        return batches

    def iter_tasks(
        self,
        func: Any,
        items: Sequence[Any],
        *,
        cached: Optional[Dict[int, Any]] = None,
        on_result: Optional[Any] = None,
        on_poison: Optional[Any] = None,
    ) -> Iterator[Any]:
        """Yield ``func(item)`` for every item, in item order, through the pool.

        This is the engine under :meth:`iter_runs`, exposed so other
        deterministic workloads (the :mod:`repro.analysis.pipeline` property
        classifier, the fuzz engine) can ride the same persistent worker
        pool.  Parallel dispatch is *supervised* (see
        :class:`repro.resilience.Supervisor`): a worker that dies or hangs
        mid-task is detected parent-side, the pool is respawned, and the
        lost tasks are re-dispatched under :attr:`retry_policy` — while a
        small reorder buffer still restores deterministic item order, so
        serial and parallel invocations yield byte-identical sequences for
        pure ``func`` even across worker crashes.  A serial runner, or a
        sweep with at most one miss, executes in this process instead.

        Args:
            func: Picklable top-level callable applied to each item.
            items: The work items (picklable when running in parallel).
            cached: Optional ``{index: result}`` of pre-computed results;
                those indices are served from the mapping without executing
                ``func`` (the cache-hit path of an incremental sweep).
            on_result: Optional ``on_result(index, result)`` callback invoked
                in the parent for every *executed* (non-cached) result before
                it is yielded — the persistence hook.
            on_poison: Optional ``on_poison(index, PoisonRecord) -> result``
                substitution for a task quarantined after exhausting its
                retry budget; the returned value is yielded (and passed to
                ``on_result``) in the task's slot.  Without it, quarantine
                raises :class:`~repro.resilience.retry.TaskQuarantinedError`.

        Abandoning the iterator early terminates the worker pool, exactly
        like :meth:`iter_runs` (dispatched work cannot be un-sent).
        """
        pending: Dict[int, Any] = dict(cached) if cached else {}
        misses = [(index, item) for index, item in enumerate(items) if index not in pending]
        _OBS_TASKS_CACHED.inc(len(pending))
        if not self.parallel or self.parallel <= 1 or len(misses) <= 1:
            source = _map_in_process(func, misses)
        else:
            source = Supervisor(  # counts its own dispatches
                self,
                self.retry_policy,
                self._fault_state,
                deadline=self.supervision_deadline,
                stats=self.supervision,
                on_log=self._log,
            ).map_unordered(func, self._plan_batches(misses))
        next_index = 0
        try:
            while next_index in pending:  # cached results before the first miss: serve now
                yield pending.pop(next_index)
                next_index += 1
            for index, result in source:
                if isinstance(result, PoisonRecord):
                    if on_poison is None:
                        raise TaskQuarantinedError(result.index, result.attempts, result.reason)
                    result = on_poison(index, result)
                if on_result is not None:
                    on_result(index, result)
                pending[index] = result
                while next_index in pending:
                    yield pending.pop(next_index)
                    next_index += 1
        except GeneratorExit:
            # The consumer walked away mid-sweep; release the workers so
            # the undispatched remainder cannot stall a later sweep.
            self.close()
            raise

    # ------------------------------------------------------------------
    # Sweep execution
    # ------------------------------------------------------------------
    def iter_runs(
        self,
        scenarios: Sequence[ScenarioSpec],
        seeds: Iterable[int] = (DEFAULT_SEED,),
        *,
        store: Optional[Any] = None,
        rerun: bool = False,
    ) -> Iterator[RunResult]:
        """Yield results in ``scenarios × seeds`` order as they become available.

        Parallel sweeps dispatch through the supervisor's windowed
        ``apply_async`` (each worker has its next batch queued while it runs
        the current one, and the batches shrink towards the end of the sweep
        so the last straggler is short) and reorder through a small buffer,
        so the yielded sequence is deterministic while early results can be
        aggregated before the sweep finishes.

        With a ``store`` (a :class:`repro.store.RunStore`), the sweep is
        **incremental**: requested runs are partitioned into cache hits —
        served straight from the store, no execution — and misses, which are
        executed and then persisted, so an interrupted sweep resumes for
        free and an identical re-sweep executes zero runs.  ``rerun=True``
        skips the lookup and recomputes (and re-stores) everything.  Only
        this parent process touches the store; workers just compute.

        Abandoning the iterator early (``generator.close()``, a ``break``
        that drops the last reference) terminates the worker pool: work
        already dispatched cannot be un-sent, so letting it run would block
        the next sweep behind results nobody will read.  The pending store
        writes are flushed either way; a later call recreates the pool.
        """
        seed_list = list(seeds)
        items = [(spec, seed, self.timeout) for spec in scenarios for seed in seed_list]
        if not items:
            return
        cached: Dict[int, RunResult] = {}
        if store is not None and not rerun:
            for index, (spec, seed, _timeout) in enumerate(items):
                hit = store.get(spec, seed)
                if hit is not None:
                    cached[index] = hit

        def persist(index: int, result: RunResult) -> None:
            store.put(items[index][0], result)

        try:
            yield from self.iter_tasks(
                execute_with_timeout,
                items,
                cached=cached,
                on_result=persist if store is not None else None,
                on_poison=lambda index, record: quarantine_run(items[index], record, store),
            )
        finally:
            if store is not None:
                # Best-effort with retry: a failing flush here must not
                # discard an otherwise-complete sweep — close() is the
                # deadline that raises (or spills to the journal).
                store.flush_retrying(raise_on_failure=False)

    def run(
        self,
        scenarios: Sequence[ScenarioSpec],
        seeds: Iterable[int] = (DEFAULT_SEED,),
        *,
        store: Optional[Any] = None,
        rerun: bool = False,
    ) -> List[RunResult]:
        """Run every scenario with every seed, in ``scenarios × seeds`` order."""
        return list(self.iter_runs(scenarios, seeds, store=store, rerun=rerun))
