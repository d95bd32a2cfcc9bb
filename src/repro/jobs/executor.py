"""The job executor: map each job spec onto the pure kernels it names.

:func:`execute_job` is the single dispatch point between the declarative
world (:mod:`repro.jobs.spec`) and the existing kernels — it walks a
:class:`~repro.jobs.status.JobLifecycle` per submission, streams
:class:`~repro.jobs.events.JobEvent` records to the caller, and returns a
typed outcome whose ``status`` is a terminal state from
:mod:`repro.jobs.status`:

=============  =====================================================  ==================
job            kernel(s)                                              outcome
=============  =====================================================  ==================
``sweep``      ``Runner.iter_runs`` + ``StreamingAggregator``         :class:`SweepOutcome`
``analyze``    ``analysis.pipeline.run_analysis`` / cross-check       :class:`AnalyzeOutcome`
``fuzz``       ``fuzz.engine.run_fuzz`` campaign loop                 :class:`FuzzOutcome`
=============  =====================================================  ==================

The executor owns *policy*, not resources: pools and store connections come
from the :class:`~repro.jobs.session.ExecutionSession` it is handed.  Store
counters in each outcome are **deltas** over this job only (snapshotted
around the kernel call), so a session reused across many jobs still reports
per-job cache behaviour — "this sweep hit N, executed M" — no matter what
ran before it.

Semantics of the terminal status: ``Complete`` means the job did what was
asked (a fuzz campaign that *found* violations still completed); ``Error``
means the job's own outcome is a failure — failing runs in a sweep,
theory/simulation divergences or an unreadable cross-check reference in an
analyze.  Exceptions from kernels propagate to the caller after an
``Error`` status event.
"""

from __future__ import annotations

import contextlib
import pathlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..experiments.aggregate import ScenarioSummary, StreamingAggregator
from ..experiments.execute import RunResult
from ..obs.registry import METRICS
from .events import EVENT_LOG, EVENT_PROGRESS, EVENT_STATUS, JobEvent
from .spec import AnalyzeJob, FuzzJob, JobSpecError, SweepJob, payloads_to_specs
from .status import STATUS_COMPLETE, STATUS_ERROR, STATUS_RUNNING, JobLifecycle

_EventSink = Optional[Callable[[JobEvent], None]]


# ----------------------------------------------------------------------
# Typed outcomes (status + pure result data; rendering stays with callers)
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

    status: str
    run_count: int
    scenario_count: int
    seed_count: int
    summaries: Dict[str, ScenarioSummary]
    failures: List[RunResult]
    records: Optional[List[RunResult]] = None
    store_stats: Optional[Dict[str, int]] = None
    quarantined: List[RunResult] = field(default_factory=list)
    supervision: Optional[Dict[str, int]] = None


@dataclass
class AnalyzeOutcome:
    """Result of an :class:`AnalyzeJob`: verdicts plus the cross-check."""

    status: str
    verdicts: List[Any]
    cached: int
    classified: int
    counts: Dict[str, int]
    cross_check: Optional[Any] = None
    cross_check_error: Optional[str] = None
    store_stats: Optional[Dict[str, int]] = None


@dataclass
class FuzzOutcome:
    """Result of a :class:`FuzzJob`: the campaign report."""

    status: str
    report: Any
    store_stats: Optional[Dict[str, int]] = None


# ----------------------------------------------------------------------
# Store-stat deltas: per-job counters on a shared session store
# ----------------------------------------------------------------------
def _stats_snapshot(store: Any) -> Optional[Dict[str, int]]:
    return store.stats.as_dict() if store is not None else None


def _stats_delta(store: Any, before: Optional[Dict[str, int]]) -> Optional[Dict[str, int]]:
    if store is None or before is None:
        return None
    after = store.stats.as_dict()
    return {key: after[key] - before[key] for key in after}


# ----------------------------------------------------------------------
# Telemetry (descriptive only — see repro.obs)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _phase(session: Any, kind: str, name: str) -> Iterator[None]:
    """Bracket one phase of a job: a registry timer plus a trace span.

    The timer (``job.<kind>.phase.<name>``) always records; the span is
    written only when the session carries a trace sink.
    """
    timer = METRICS.timer(f"job.{kind}.phase.{name}")
    trace = getattr(session, "trace", None)
    if trace is not None:
        with trace.span(f"phase.{name}"), timer.time():
            yield
    else:
        with timer.time():
            yield


def _persist_telemetry(
    session: Any, kind: str, status: str, counters_before: Dict[str, int]
) -> None:
    """Best-effort: snapshot the registry into the session store's telemetry table.

    Only runs against a store the session already opened (it never opens
    one), and swallows every failure — losing an observation must not fail
    the job it observed.
    """
    try:
        store = getattr(session, "_store", None)
        if store is None:
            return
        runner = getattr(session, "_runner", None)
        snapshot = {
            "version": 1,
            "job": kind,
            "status": status,
            "registry": METRICS.snapshot(),
            "job_counters": METRICS.counter_delta(counters_before),
            "store": store.stats.as_dict(),
            "supervision": runner.supervision.as_dict() if runner is not None else None,
        }
        store.put_telemetry(kind, snapshot)
    except Exception:
        pass


# ----------------------------------------------------------------------
# Per-job handlers (resolve inputs first, then touch session resources)
# ----------------------------------------------------------------------
def _wire_runner_log(job: Any, session: Any, emit: Callable[[JobEvent], None]) -> Any:
    """Route the runner's supervision log lines into the job's event stream."""
    runner = session.runner
    runner.on_log = lambda message: emit(JobEvent(job=job.kind, kind=EVENT_LOG, message=message))
    return runner


def _run_sweep(job: SweepJob, session: Any, emit: Callable[[JobEvent], None]) -> SweepOutcome:
    from ..experiments.execute import POISON_ERROR_PREFIX

    with _phase(session, job.kind, "plan"):
        scenarios = payloads_to_specs(job.scenario_payloads)
    store = session.store
    before = _stats_snapshot(store)
    runner = _wire_runner_log(job, session, emit)
    supervision_before = runner.supervision.as_dict()
    aggregator = StreamingAggregator()
    failures: List[RunResult] = []
    quarantined: List[RunResult] = []
    records: Optional[List[RunResult]] = [] if job.collect_records else None
    total = len(scenarios) * len(job.seeds)
    run_count = 0
    fail_fast = bool(getattr(session, "fail_fast", False))
    with _phase(session, job.kind, "execute"):
        for result in session.runner.iter_runs(
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
            emit(
                JobEvent(
                    job=job.kind, kind=EVENT_PROGRESS, completed=run_count, total=total,
                    message=f"{result.scenario} seed={result.seed}",
                )
            )
            if fail_fast and not result.ok:
                # Abandoning the iterator terminates the pool and flushes the
                # store (iter_runs' own guarantees) — completed records survive.
                break
    supervision_after = runner.supervision.as_dict()
    with _phase(session, job.kind, "summarize"):
        summaries = aggregator.summaries()
    return SweepOutcome(
        status=STATUS_ERROR if failures or quarantined else STATUS_COMPLETE,
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


def _run_analyze(job: AnalyzeJob, session: Any, emit: Callable[[JobEvent], None]) -> AnalyzeOutcome:
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

    store = session.store
    before = _stats_snapshot(store)
    _wire_runner_log(job, session, emit)
    total = len(tasks)

    def on_verdict(index: int, verdict: Any) -> None:
        emit(
            JobEvent(
                job=job.kind, kind=EVENT_PROGRESS, completed=index + 1, total=total,
                message=verdict.label,
            )
        )

    with _phase(session, job.kind, "classify"):
        analysis = run_analysis(
            tasks, runner=session.runner, store=store, rerun=job.rerun, on_verdict=on_verdict
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
            if getattr(session, "fail_fast", False) and cross_check.divergences:
                # Fail-fast analyze reports the first divergence only: the
                # caller asked to stop at the first contradiction, not to
                # enumerate the whole matrix of them.
                cross_check = replace(cross_check, divergences=cross_check.divergences[:1])

    failed = cross_check_error is not None or bool(cross_check and cross_check.divergences)
    return AnalyzeOutcome(
        status=STATUS_ERROR if failed else STATUS_COMPLETE,
        verdicts=analysis.verdicts,
        cached=analysis.cached,
        classified=analysis.classified,
        counts=analysis.counts(),
        cross_check=cross_check,
        cross_check_error=cross_check_error,
        store_stats=_stats_delta(store, before),
    )


def _run_fuzz(job: FuzzJob, session: Any, emit: Callable[[JobEvent], None]) -> FuzzOutcome:
    from ..fuzz.engine import run_fuzz

    bases = payloads_to_specs(job.base_payloads)
    store = session.store
    before = _stats_snapshot(store)

    def log(message: str) -> None:
        emit(JobEvent(job=job.kind, kind=EVENT_LOG, message=message))

    session.runner.on_log = log
    with _phase(session, job.kind, "campaign"):
        report = run_fuzz(
            bases,
            job.budget,
            job.fuzz_seed,
            store=store,
            runner=session.runner,
            base_seed=job.base_seed,
            shrink=job.shrink,
            log=log,
            fail_fast=bool(getattr(session, "fail_fast", False)),
        )
    return FuzzOutcome(
        status=STATUS_COMPLETE,
        report=report,
        store_stats=_stats_delta(store, before),
    )


_HANDLERS: Dict[str, Callable[..., Any]] = {
    SweepJob.kind: _run_sweep,
    AnalyzeJob.kind: _run_analyze,
    FuzzJob.kind: _run_fuzz,
}


def execute_job(job: Any, session: Any, on_event: _EventSink = None) -> Any:
    """Run one job through a session; returns its typed outcome.

    Walks the status lifecycle (``Initialized`` → ``Running`` → terminal),
    emitting a ``status`` event at every transition plus the handler's own
    ``progress``/``log`` events.  An unknown job type dies in
    ``Initialized → Error``; a kernel exception transitions to ``Error``
    and then propagates unchanged, so callers keep the original error while
    the event stream still records how the job ended.

    Telemetry (all descriptive, none of it load-bearing): every emitted
    event carries a monotonic per-job ``sequence``; the terminal status
    event carries this job's counter deltas in ``metrics``; when the
    session has a trace sink the handler runs inside a ``job.<kind>`` span
    and every event is mirrored as a trace record; and when the session's
    store is open, a snapshot of the registry is persisted into its
    ``telemetry`` table after the job completes.
    """
    kind = getattr(type(job), "kind", type(job).__name__)
    lifecycle = JobLifecycle()
    trace = getattr(session, "trace", None)
    counters_before = METRICS.counter_values()
    METRICS.counter(f"job.{kind}.submitted").inc()
    next_sequence = 0

    def emit(event: JobEvent) -> None:
        nonlocal next_sequence
        event = replace(event, sequence=next_sequence)
        next_sequence += 1
        if trace is not None:
            trace.event(
                f"{kind}.{event.kind}",
                status=event.status,
                message=event.message,
                completed=event.completed,
                total=event.total,
                event_sequence=event.sequence,
            )
        if on_event is not None:
            on_event(event)

    def emit_status(metrics: Optional[Dict[str, Any]] = None) -> None:
        emit(JobEvent(job=kind, kind=EVENT_STATUS, status=lifecycle.status, metrics=metrics))

    emit_status()
    handler = _HANDLERS.get(kind)
    if handler is None:
        lifecycle.transition(STATUS_ERROR)
        emit_status()
        raise JobSpecError(
            f"cannot execute {type(job).__name__!r}: not a known job type "
            f"(kinds: {sorted(_HANDLERS)})"
        )
    lifecycle.transition(STATUS_RUNNING)
    emit_status()
    job_span = trace.span(f"job.{kind}") if trace is not None else contextlib.nullcontext()
    try:
        with job_span, METRICS.timer(f"job.{kind}.wall").time():
            outcome = handler(job, session, emit)
    except BaseException:
        lifecycle.transition(STATUS_ERROR)
        emit_status(metrics=METRICS.counter_delta(counters_before))
        # Salvage what completed: best-effort retried flush of the session
        # store's buffered records (KeyboardInterrupt included — the user
        # killed the job, not the results it already computed).  Never
        # masks the original error.
        store = getattr(session, "_store", None)
        if store is not None and getattr(store, "pending_count", 0):
            try:
                store.flush_retrying(raise_on_failure=False)
            except Exception:
                pass
        raise
    lifecycle.transition(outcome.status)
    emit_status(metrics=METRICS.counter_delta(counters_before))
    _persist_telemetry(session, kind, outcome.status, counters_before)
    return outcome
