"""Job/session layer: declarative work specs over owned execution resources.

This package separates the three concerns of a sweep, an analysis or a
fuzz campaign:

* **what to run** — :mod:`repro.jobs.spec`: ``SweepJob`` / ``AnalyzeJob`` /
  ``FuzzJob``, pure picklable dataclasses;
* **who owns the resources** — :mod:`repro.jobs.session`:
  :class:`ExecutionSession`, the *single* place the persistent
  :class:`~repro.experiments.runner.Runner` pool and the session's
  :class:`~repro.store.store.RunStore` connection are constructed, with
  guaranteed teardown (pool terminated first, store flushed or
  :class:`~repro.store.store.StoreFlushError`);
* **how a job maps to kernels** — :mod:`repro.jobs.executor`:
  :func:`execute_job` dispatches each spec onto the existing pure kernels
  (``Runner.iter_runs``, ``analysis.pipeline.run_analysis``,
  ``fuzz.engine.run_fuzz``), walking the explicit :mod:`repro.jobs.status`
  lifecycle (``Initialized → Running → Complete/Error/No Solution``) and
  streaming :mod:`repro.jobs.events` records to the caller.

The ``run``, ``analyze`` and ``fuzz`` commands of the CLI
(:mod:`repro.experiments.cli`) are thin rendering shells over this layer:
each parses arguments, builds a job spec, submits it through a session,
and prints the outcome.  ``report`` and ``compare`` are read-only store
queries and open a :class:`~repro.store.store.RunStore` themselves.
"""

from .events import EVENT_LOG, EVENT_PROGRESS, EVENT_STATUS, JobEvent
from .executor import (
    AnalyzeOutcome,
    FuzzOutcome,
    SweepOutcome,
    execute_job,
)
from .session import ExecutionSession, SessionClosedError
from .spec import (
    DEFAULT_FUZZ_BASES,
    AnalyzeJob,
    FuzzJob,
    JobSpecError,
    SweepJob,
    payloads_to_specs,
    resolve_fuzz_bases,
    select_scenarios,
    specs_to_payloads,
)
from .status import (
    EXIT_CONFIG,
    EXIT_EMPTY_SLICE,
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    STATUS_COMPLETE,
    STATUS_ERROR,
    STATUS_INITIALIZED,
    STATUS_NO_SOLUTION,
    STATUS_RUNNING,
    SUMMARY_FAIL,
    SUMMARY_OK,
    TERMINAL_STATUSES,
    JobLifecycle,
    JobStatusError,
    exit_code_for,
    summary_status,
)

__all__ = [
    "AnalyzeJob",
    "AnalyzeOutcome",
    "DEFAULT_FUZZ_BASES",
    "EVENT_LOG",
    "EVENT_PROGRESS",
    "EVENT_STATUS",
    "EXIT_CONFIG",
    "EXIT_EMPTY_SLICE",
    "EXIT_FAILURE",
    "EXIT_INTERRUPTED",
    "EXIT_OK",
    "ExecutionSession",
    "FuzzJob",
    "FuzzOutcome",
    "JobEvent",
    "JobLifecycle",
    "JobSpecError",
    "JobStatusError",
    "STATUS_COMPLETE",
    "STATUS_ERROR",
    "STATUS_INITIALIZED",
    "STATUS_NO_SOLUTION",
    "STATUS_RUNNING",
    "SUMMARY_FAIL",
    "SUMMARY_OK",
    "SessionClosedError",
    "SweepJob",
    "SweepOutcome",
    "TERMINAL_STATUSES",
    "execute_job",
    "exit_code_for",
    "payloads_to_specs",
    "resolve_fuzz_bases",
    "select_scenarios",
    "specs_to_payloads",
    "summary_status",
]
