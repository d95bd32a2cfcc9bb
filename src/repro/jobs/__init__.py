"""Job/session layer: declarative work specs over owned execution resources.

This package separates the two concerns of a sweep, an analysis or a fuzz
campaign:

* **what to run** — :mod:`repro.jobs.spec`: ``SweepJob`` / ``AnalyzeJob`` /
  ``FuzzJob``, pure picklable dataclasses;
* **who owns the resources and runs the job** — :mod:`repro.jobs.session`:
  :class:`ExecutionSession`, the *single* place the persistent
  :class:`~repro.experiments.runner.Runner` pool and the session's
  :class:`~repro.store.store.RunStore` connection are constructed, with
  guaranteed teardown (pool terminated first, store flushed or
  :class:`~repro.store.store.StoreFlushError`).  Its
  :meth:`~ExecutionSession.submit` dispatches each spec onto the existing
  pure kernels (``Runner.iter_runs``, ``analysis.pipeline.run_analysis``,
  ``fuzz.engine.run_fuzz``) and returns a typed outcome with an ``ok``
  property; an optional ``log`` callable receives the job's progress lines.

The ``run``, ``analyze`` and ``fuzz`` commands of the CLI
(:mod:`repro.experiments.cli`) are thin rendering shells over this layer:
each parses arguments, builds a job spec, submits it through a session,
and prints the outcome.  ``report`` and ``compare`` are read-only store
queries and open a :class:`~repro.store.store.RunStore` themselves.
"""

from .session import (
    AnalyzeOutcome,
    ExecutionSession,
    FuzzOutcome,
    SessionClosedError,
    SweepOutcome,
)
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

__all__ = [
    "AnalyzeJob",
    "AnalyzeOutcome",
    "DEFAULT_FUZZ_BASES",
    "ExecutionSession",
    "FuzzJob",
    "FuzzOutcome",
    "JobSpecError",
    "SessionClosedError",
    "SweepJob",
    "SweepOutcome",
    "payloads_to_specs",
    "resolve_fuzz_bases",
    "select_scenarios",
    "specs_to_payloads",
]
