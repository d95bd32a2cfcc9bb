"""Fault-tolerant execution: supervision, retries, and deterministic chaos.

The repo reproduces Byzantine-fault-tolerant consensus results; this
package makes the *harness that runs those experiments* tolerate faults of
its own.  Three pieces, threaded through the runner, session and store:

* :mod:`repro.resilience.retry` — :class:`RetryPolicy`: bounded attempts
  and seeded jittered backoff, the policy shape both retry loops (the
  supervisor's re-dispatch and the store's flush) share;
* :mod:`repro.resilience.faults` — :class:`FaultPlan`: a *deterministic*
  fault-injection plan (worker crash at task *k*, worker hang, flush
  ``OSError`` on attempt *j*, corrupt-on-reopen) injectable through
  ``Runner``/``RunStore`` hooks or the ``REPRO_FAULT_PLAN`` environment
  variable, so chaos runs are replayable: the same plan always injects the
  same faults;
* :mod:`repro.resilience.supervisor` — :class:`Supervisor`: the parent-side
  dispatch loop that replaces the bare ``imap_unordered`` fan-out.  It
  detects dead workers (pool pid churn) and hung batches (per-batch deadline),
  respawns the pool, re-dispatches in-flight work under the retry policy,
  and quarantines a task that repeatedly kills its worker as a typed
  :class:`PoisonRecord` instead of aborting the sweep.

Retries are invisible to result content: a task is a pure function of its
input, so a re-executed task reproduces the same bytes and a chaos sweep
stays byte-identical to the fault-free sweep — the contract
``tests/test_chaos.py`` pins down.
"""

from .faults import FaultInjectionError, FaultPlan, FaultState, REPRO_FAULT_PLAN_ENV
from .retry import RetryPolicy, TaskQuarantinedError
from .supervisor import PoisonRecord, SupervisionStats, Supervisor

__all__ = [
    "FaultInjectionError",
    "FaultPlan",
    "FaultState",
    "PoisonRecord",
    "REPRO_FAULT_PLAN_ENV",
    "RetryPolicy",
    "SupervisionStats",
    "Supervisor",
    "TaskQuarantinedError",
]
