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

:meth:`ExecutionSession.submit` maps each spec onto the kernels it names
and returns a typed outcome whose ``ok`` says whether the job's own result
is a failure:

=============  =====================================================  ==================
job            kernel(s)                                              outcome
=============  =====================================================  ==================
``sweep``      ``Runner.iter_runs`` + ``StreamingAggregator``         :class:`SweepOutcome`
``analyze``    ``analysis.pipeline.run_analysis`` / cross-check       :class:`AnalyzeOutcome`
``fuzz``       ``fuzz.engine.run_fuzz`` campaign loop                 :class:`FuzzOutcome`
=============  =====================================================  ==================

Store counters in each outcome are **deltas** over that job only
(snapshotted around the kernel call), so a session reused across many jobs
still reports per-job cache behaviour — "this sweep hit N, executed M" — no
matter what ran before it.

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

import contextlib
import pathlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from ..experiments.aggregate import ScenarioSummary, StreamingAggregator
from ..experiments.execute import POISON_ERROR_PREFIX, RunResult
from ..experiments.runner import Runner
from ..obs.registry import METRICS
from ..obs.trace import TraceSink
from ..resilience.faults import FaultPlan
from ..resilience.retry import RetryPolicy
from ..store.store import RunStore
from .spec import AnalyzeJob, FuzzJob, JobSpecError, SweepJob, payloads_to_specs

_Log = Callable[[str], None]


# ----------------------------------------------------------------------
# Typed outcomes (pure result data; rendering stays with callers)
# ----------------------------------------------------------------------
@dataclass
class SweepOutcome:
    """Result of a :class:`SweepJob`: aggregated summaries plus failures.

    ``quarantined`` lists poison records — tasks supervision gave up on
    after they repeatedly killed their worker (see
    :mod:`repro.resilience`); they are reported separately from ordinary
    ``failures`` because they carry no verdict, only a host-side
    diagnosis.  ``supervision`` is the runner's crash/retry counter delta
    for this job.
    """

    run_count: int
    scenario_count: int
    seed_count: int
    summaries: Dict[str, ScenarioSummary]
    failures: List[RunResult]
    records: Optional[List[RunResult]] = None
    store_stats: Optional[Dict[str, int]] = None
    quarantined: List[RunResult] = field(default_factory=list)
    supervision: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        """No run failed and none was quarantined."""
        return not self.failures and not self.quarantined


@dataclass
class AnalyzeOutcome:
    """Result of an :class:`AnalyzeJob`: verdicts plus the cross-check."""

    verdicts: List[Any]
    cached: int
    classified: int
    counts: Dict[str, int]
    cross_check: Optional[Any] = None
    cross_check_error: Optional[str] = None
    store_stats: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        """The cross-check (if any) read its reference and found no divergence."""
        return self.cross_check_error is None and not (
            self.cross_check is not None and self.cross_check.divergences
        )


@dataclass
class FuzzOutcome:
    """Result of a :class:`FuzzJob`: the campaign report."""

    report: Any
    store_stats: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        """Always true: a campaign that *found* violations did what was asked."""
        return True


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
            self._store = RunStore(
                self.store_path, retry_policy=self._retry_policy(), fault_plan=self.fault_plan
            )
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
    def submit(self, job: Any, log: Optional[_Log] = None) -> Any:
        """Run one job spec through this session's resources.

        Dispatches on the job's type (see :mod:`repro.jobs.spec`) and
        returns that type's outcome.  ``log`` receives the human-readable
        lines the job produces while it runs: the runner's supervision
        lines and the fuzz engine's per-round summary.  An unknown job type
        raises :class:`~repro.jobs.spec.JobSpecError`.

        A kernel exception propagates unchanged after a best-effort flush
        of the records already buffered in the store; the session itself
        stays usable.  Telemetry (descriptive only): with a trace sink the
        job runs inside a ``job.<kind>`` span, its phases inside
        ``phase.*`` spans, and every log line and unit of work done is a
        ``<kind>.log`` / ``<kind>.progress`` event; with an open store, a
        registry snapshot is persisted into its ``telemetry`` table after
        the job completes.
        """
        self._check_open()
        if isinstance(job, SweepJob):
            run = self._sweep
        elif isinstance(job, AnalyzeJob):
            run = self._analyze
        elif isinstance(job, FuzzJob):
            run = self._fuzz
        else:
            raise JobSpecError(
                f"cannot execute {type(job).__name__!r}: not a known job type "
                "(kinds: ['analyze', 'fuzz', 'sweep'])"
            )
        kind = job.kind
        trace = self.trace
        counters_before = METRICS.counter_values()
        METRICS.counter(f"job.{kind}.submitted").inc()

        def emit_log(message: str) -> None:
            if trace is not None:
                trace.event(f"{kind}.log", message=message)
            if log is not None:
                log(message)

        job_span = trace.span(f"job.{kind}") if trace is not None else contextlib.nullcontext()
        try:
            with job_span, METRICS.timer(f"job.{kind}.wall").time():
                outcome = run(job, emit_log)
        except BaseException:
            # Salvage what completed: best-effort retried flush of the
            # store's buffered records (KeyboardInterrupt included — the user
            # killed the job, not the results it already computed).  Never
            # masks the original error.
            store = self._store
            if store is not None and store.pending_count:
                try:
                    store.flush_retrying(raise_on_failure=False)
                except Exception:
                    pass
            raise
        self._persist_telemetry(kind, outcome.ok, counters_before)
        return outcome

    def _sweep(self, job: SweepJob, log: _Log) -> SweepOutcome:
        with self._phase(job.kind, "plan"):
            scenarios = payloads_to_specs(job.scenario_payloads)
        store = self.store
        before = _stats_snapshot(store)
        runner = self.runner
        runner.on_log = log
        supervision_before = runner.supervision.as_dict()
        aggregator = StreamingAggregator()
        failures: List[RunResult] = []
        quarantined: List[RunResult] = []
        records: Optional[List[RunResult]] = [] if job.collect_records else None
        total = len(scenarios) * len(job.seeds)
        run_count = 0
        with self._phase(job.kind, "execute"):
            for result in runner.iter_runs(
                scenarios, list(job.seeds), store=store, rerun=job.rerun
            ):
                run_count += 1
                aggregator.add(result)
                if not result.ok:
                    if result.error is not None and result.error.startswith(POISON_ERROR_PREFIX):
                        quarantined.append(result)
                    else:
                        failures.append(result)
                if records is not None:
                    records.append(result)
                self._progress(job.kind, run_count, total, f"{result.scenario} seed={result.seed}")
                if self.fail_fast and not result.ok:
                    # Abandoning the iterator terminates the pool and flushes the
                    # store (iter_runs' own guarantees) — completed records survive.
                    break
        supervision_after = runner.supervision.as_dict()
        with self._phase(job.kind, "summarize"):
            summaries = aggregator.summaries()
        return SweepOutcome(
            run_count=run_count,
            scenario_count=len(scenarios),
            seed_count=len(job.seeds),
            summaries=summaries,
            failures=failures,
            records=records,
            store_stats=_stats_delta(store, before),
            quarantined=quarantined,
            supervision={
                key: supervision_after[key] - supervision_before[key] for key in supervision_after
            },
        )

    def _analyze(self, job: AnalyzeJob, log: _Log) -> AnalyzeOutcome:
        from ..analysis.pipeline import (
            cross_check_matrix,
            cross_check_tasks,
            dedupe_tasks,
            enumerated_tasks,
            named_tasks,
            run_analysis,
            sampled_tasks,
        )

        tasks: List[Any] = []
        if "named" in job.families:
            tasks.extend(named_tasks())
        if "enumerated" in job.families:
            tasks.extend(enumerated_tasks())
        if "sampled" in job.families:
            tasks.extend(sampled_tasks())
        if job.cross_check_reference is not None:
            if not pathlib.Path(job.cross_check_reference).exists():
                raise JobSpecError(
                    f"cross-check reference {job.cross_check_reference} does not exist "
                    "(pass --no-cross-check or point --cross-check-against at a store/baseline)"
                )
            tasks.extend(cross_check_tasks())
        tasks = dedupe_tasks(tasks)
        if not tasks:
            raise JobSpecError("no property tasks selected")

        store = self.store
        before = _stats_snapshot(store)
        runner = self.runner
        runner.on_log = log
        total = len(tasks)

        def on_verdict(index: int, verdict: Any) -> None:
            self._progress(job.kind, index + 1, total, verdict.label)

        with self._phase(job.kind, "classify"):
            analysis = run_analysis(
                tasks, runner=runner, store=store, rerun=job.rerun, on_verdict=on_verdict
            )

        cross_check = None
        cross_check_error = None
        if job.cross_check_reference is not None:
            from ..store.query import load_reference_summaries

            try:
                reference = load_reference_summaries(job.cross_check_reference)
            except (ValueError, FileNotFoundError) as exc:
                cross_check_error = str(exc)
            else:
                cross_check = cross_check_matrix(analysis.by_label(), reference)
                if self.fail_fast and cross_check.divergences:
                    # Fail-fast analyze reports the first divergence only: the
                    # caller asked to stop at the first contradiction, not to
                    # enumerate the whole matrix of them.
                    cross_check = replace(cross_check, divergences=cross_check.divergences[:1])

        return AnalyzeOutcome(
            verdicts=analysis.verdicts,
            cached=analysis.cached,
            classified=analysis.classified,
            counts=analysis.counts(),
            cross_check=cross_check,
            cross_check_error=cross_check_error,
            store_stats=_stats_delta(store, before),
        )

    def _fuzz(self, job: FuzzJob, log: _Log) -> FuzzOutcome:
        from ..fuzz.engine import run_fuzz

        bases = payloads_to_specs(job.base_payloads)
        store = self.store
        before = _stats_snapshot(store)
        runner = self.runner
        runner.on_log = log
        with self._phase(job.kind, "campaign"):
            report = run_fuzz(
                bases,
                job.budget,
                job.fuzz_seed,
                store=store,
                runner=runner,
                base_seed=job.base_seed,
                log=log,
                fail_fast=self.fail_fast,
            )
        return FuzzOutcome(report=report, store_stats=_stats_delta(store, before))

    # ------------------------------------------------------------------
    # Telemetry (descriptive only — see repro.obs)
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _phase(self, kind: str, name: str) -> Iterator[None]:
        """Bracket one phase of a job: a registry timer plus a trace span.

        The timer (``job.<kind>.phase.<name>``) always records; the span is
        written only when the session carries a trace sink.
        """
        timer = METRICS.timer(f"job.{kind}.phase.{name}")
        if self._trace is not None:
            with self._trace.span(f"phase.{name}"), timer.time():
                yield
        else:
            with timer.time():
                yield

    def _progress(self, kind: str, completed: int, total: int, message: str) -> None:
        """Trace one unit of work done (a run executed, a verdict produced)."""
        if self._trace is not None:
            self._trace.event(f"{kind}.progress", message=message, completed=completed, total=total)

    def _persist_telemetry(self, kind: str, ok: bool, counters_before: Dict[str, int]) -> None:
        """Best-effort: snapshot the registry into the store's telemetry table.

        Only runs against a store the session already opened (it never opens
        one), and swallows every failure — losing an observation must not fail
        the job it observed.
        """
        store = self._store
        if store is None:
            return
        try:
            runner = self._runner
            snapshot = {
                "version": 1,
                "job": kind,
                "status": "Complete" if ok else "Error",
                "registry": METRICS.snapshot(),
                "job_counters": METRICS.counter_delta(counters_before),
                "store": store.stats.as_dict(),
                "supervision": runner.supervision.as_dict() if runner is not None else None,
            }
            store.put_telemetry(kind, snapshot)
        except Exception:
            pass

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


def _stats_snapshot(store: Optional[RunStore]) -> Optional[Dict[str, int]]:
    return store.stats.as_dict() if store is not None else None


def _stats_delta(
    store: Optional[RunStore], before: Optional[Dict[str, int]]
) -> Optional[Dict[str, int]]:
    if store is None or before is None:
        return None
    after = store.stats.as_dict()
    return {key: after[key] - before[key] for key in after}
