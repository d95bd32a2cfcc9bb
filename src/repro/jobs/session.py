"""The execution session: single owner of the pool and the store connection.

Everything stateful about running jobs lives here.  An
:class:`ExecutionSession` owns at most one persistent
:class:`~repro.experiments.runner.Runner` (and therefore one worker pool)
and at most one :class:`~repro.store.store.RunStore` connection, both
created lazily on first use and torn down exactly once — the session is the
only place in the library that builds a pool (a kernel called without a
runner falls back to a serial ``Runner()``, which owns no pool and needs no
teardown).  Jobs are pure data
(:mod:`repro.jobs.spec`); kernels are pure functions; the session is the
process-ownership boundary between them, which is what lets many jobs share
one warm pool and one store connection::

    with ExecutionSession(parallel=4, store_path="runs.db") as session:
        sweep = session.submit(SweepJob(...))      # cold: executes + persists
        sweep = session.submit(SweepJob(...))      # warm: 0 runs executed
        verdicts = session.submit(AnalyzeJob(...)) # same pool, same store

Teardown guarantees (the fair-termination discipline): :meth:`close` always
terminates the worker pool first — even when the store flush is about to
fail — then closes the store, whose final flush is **retried** under the
store's :class:`~repro.resilience.retry.RetryPolicy` (bounded attempts,
seeded backoff) and degrades to the JSONL side-journal on disk-full.  Only
when every avenue fails does close raise
:class:`~repro.store.store.StoreFlushError` (naming the attempts spent)
*while keeping the connection* so the caller can retry (``close()`` again)
or inspect what was lost.  A closed session refuses new work instead of
silently reopening resources.
"""

from __future__ import annotations

import pathlib
from typing import Any, Callable, Optional, Union

from ..experiments.runner import Runner
from ..obs.trace import TraceSink
from ..resilience.faults import FaultPlan
from ..resilience.retry import RetryPolicy
from ..store.store import RunStore


class SessionClosedError(RuntimeError):
    """The session was closed; it no longer accepts jobs or owns resources."""


class ExecutionSession:
    """Context-managed owner of one runner pool and one store connection.

    Args:
        parallel: Worker processes for the runner (``None`` = serial).
        timeout: Per-run wall-clock timeout in seconds.
        store_path: Optional persistent run store backing every job; jobs
            see cache hits from (and persist misses into) this one
            connection.  ``None`` runs storeless.
        store_options: Extra :class:`RunStore` keyword arguments
            (``batch_size``, ``code_fp``, ... — the testing escape hatches).
        max_retries: Retries granted to a task whose worker dies (so the
            retry budget is ``max_retries + 1`` total attempts) and to
            failing store flushes.  ``None`` uses the
            :class:`~repro.resilience.retry.RetryPolicy` default.
        batch_size: Tasks per parallel worker dispatch (the runner's
            microbatching knob); ``None`` sizes batches automatically.
            Purely a throughput knob — results are byte-identical at every
            size.
        fail_fast: Stop a job at its first failed unit of work (first
            failed run, first divergent verdict, first fuzz violation)
            instead of completing the whole matrix.
        fault_plan: Deterministic fault injection for chaos tests, threaded
            into both the runner and the store; defaults to the plan in
            the ``REPRO_FAULT_PLAN`` environment variable, else none.
        trace_path: Optional JSONL trace file (the ``--trace FILE`` flag):
            every job the session runs writes span/event records into one
            :class:`~repro.obs.trace.TraceSink` there.  Tracing is
            descriptive only — traced and untraced sessions produce
            byte-identical records and outcomes.

    Both resources are lazy: a serial session never spawns a pool, and a
    storeless sweep never touches SQLite.  A
    failed store open (:class:`~repro.store.store.StoreFormatError`)
    propagates to the caller with the runner still in a clean state.
    """

    def __init__(
        self,
        parallel: Optional[int] = None,
        timeout: Optional[float] = None,
        store_path: Optional[Union[str, pathlib.Path]] = None,
        store_options: Optional[dict] = None,
        max_retries: Optional[int] = None,
        batch_size: Optional[int] = None,
        fail_fast: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        trace_path: Optional[Union[str, pathlib.Path]] = None,
    ):
        if max_retries is not None and max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be a positive task count (or None for auto)")
        self.parallel = parallel
        self.timeout = timeout
        self.store_path = pathlib.Path(store_path) if store_path is not None else None
        self.max_retries = max_retries
        self.batch_size = batch_size
        self.fail_fast = fail_fast
        self.fault_plan = fault_plan
        self.trace_path = pathlib.Path(trace_path) if trace_path is not None else None
        self._store_options = dict(store_options) if store_options else {}
        self._runner: Optional[Runner] = None
        self._store: Optional[RunStore] = None
        self._trace: Optional[TraceSink] = None
        self._closed = False

    def _retry_policy(self) -> Optional[RetryPolicy]:
        """The explicit policy ``max_retries`` implies, or None for defaults."""
        if self.max_retries is None:
            return None
        seed = self.fault_plan.seed if self.fault_plan is not None else 0
        return RetryPolicy(max_attempts=self.max_retries + 1, seed=seed)

    # ------------------------------------------------------------------
    # Resource ownership (lazy, single-instance)
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def has_store(self) -> bool:
        """Whether this session is backed by a persistent store."""
        return self.store_path is not None

    @property
    def runner(self) -> Runner:
        """The session's runner (created on first access, then reused)."""
        self._check_open()
        if self._runner is None:
            self._runner = Runner(
                parallel=self.parallel,
                timeout=self.timeout,
                retry_policy=self._retry_policy(),
                fault_plan=self.fault_plan,
                batch_size=self.batch_size,
            )
        return self._runner

    @property
    def store(self) -> Optional[RunStore]:
        """The session's store connection, or ``None`` when storeless.

        Opened on first access; a :class:`StoreFormatError` from a corrupt
        or incompatible file propagates and leaves the session usable (a
        later access retries the open).
        """
        self._check_open()
        if self._store is None and self.store_path is not None:
            options = dict(self._store_options)
            options.setdefault("retry_policy", self._retry_policy())
            options.setdefault("fault_plan", self.fault_plan)
            self._store = RunStore(self.store_path, **options)
        return self._store

    @property
    def trace(self) -> Optional[TraceSink]:
        """The session's trace sink, or ``None`` when untraced.

        Opened lazily (an untraced session never touches the file); owned
        and closed by the session like the pool and the store.
        """
        self._check_open()
        if self._trace is None and self.trace_path is not None:
            self._trace = TraceSink(self.trace_path)
        return self._trace

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError(
                "execution session is closed; create a new session to run more jobs"
            )

    # ------------------------------------------------------------------
    # Job submission
    # ------------------------------------------------------------------
    def submit(self, job: Any, on_event: Optional[Callable[[Any], None]] = None) -> Any:
        """Run one job spec through this session's resources.

        Dispatches on the job's type (see :mod:`repro.jobs.spec`), streams
        :class:`~repro.jobs.events.JobEvent` records to ``on_event`` while
        running, and returns the job type's outcome record with a terminal
        status from :mod:`repro.jobs.status`.  Kernel exceptions propagate
        after an ``Error`` status event; the session itself stays usable.
        """
        self._check_open()
        from .executor import execute_job

        return execute_job(job, self, on_event=on_event)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release both resources; guaranteed pool termination first.

        The runner's pool is always terminated, even when the store flush is
        about to fail — a worker pool must never outlive its session.  Then
        the store is closed, which retries the final flush under the store's
        retry policy (bounded attempts with seeded backoff) and spills to
        the JSONL side-journal on disk-full; only when all of that fails
        does it raise :class:`~repro.store.store.StoreFlushError` naming the
        attempts spent.  On such a failure the store reference is *kept*
        (and the session stays marked closed), so calling :meth:`close`
        again retries the flush rather than dropping the pending records on
        the floor.
        """
        self._closed = True
        runner, self._runner = self._runner, None
        if runner is not None:
            runner.close()
        trace, self._trace = self._trace, None
        if trace is not None:
            trace.close()  # never raises; a failed trace is just a lost trace
        if self._store is not None:
            self._store.close()  # may raise StoreFlushError; reference kept
            self._store = None

    def __enter__(self) -> "ExecutionSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter shutdown is untestable
        try:
            self.close()
        except Exception:
            pass
