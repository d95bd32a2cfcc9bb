"""Job status and exit-code constants: one vocabulary for every layer.

Every job submitted to an :class:`~repro.jobs.session.ExecutionSession`
walks one explicit lifecycle::

    Initialized ──> Running ──> Complete
         │             ├──────> Error
         └──> Error    └──────> No Solution

``Initialized`` is the state of a freshly built job spec; ``Running`` means
the executor has started driving kernels; the three terminal states mean,
respectively: the job finished cleanly (``Complete``), the job finished but
its outcome is a failure — failing runs, regressions, theory/simulation
divergences, or an exception (``Error``) — and the job had nothing to work
on (``No Solution``).  Any other transition is a programming error and
:class:`JobStatusError` refuses it.

The same module owns the process exit codes the CLI maps those terminal
states onto, and the two summary-row status strings (``ok``/``FAIL``)
shared by the live-sweep printer and the store report tables — previously
magic ints and ad-hoc literals scattered across ``cli.py``, ``query.py``
and the fuzz command.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

# ----------------------------------------------------------------------
# Lifecycle states (the status-constant idiom: explicit named stages)
# ----------------------------------------------------------------------
STATUS_INITIALIZED = "Initialized"
"""The job spec exists but nothing has been executed yet."""

STATUS_RUNNING = "Running"
"""The executor is driving kernels on the session's pool/store."""

STATUS_COMPLETE = "Complete"
"""Terminal: the job finished and its outcome is clean."""

STATUS_ERROR = "Error"
"""Terminal: the job finished with failures (or died on an exception)."""

STATUS_NO_SOLUTION = "No Solution"
"""Terminal: the job had nothing to operate on."""

TERMINAL_STATUSES: FrozenSet[str] = frozenset(
    {STATUS_COMPLETE, STATUS_ERROR, STATUS_NO_SOLUTION}
)
"""The states a finished job may rest in."""

_TRANSITIONS: Dict[str, FrozenSet[str]] = {
    STATUS_INITIALIZED: frozenset({STATUS_RUNNING, STATUS_ERROR}),
    STATUS_RUNNING: TERMINAL_STATUSES,
    STATUS_COMPLETE: frozenset(),
    STATUS_ERROR: frozenset(),
    STATUS_NO_SOLUTION: frozenset(),
}
"""The legal edges of the lifecycle graph.  ``Initialized -> Error`` covers
jobs that die before any kernel starts (an unknown job type, a spec the
executor refuses); terminal states have no outgoing edges — a finished job
can never be revived in place, only resubmitted as a fresh lifecycle."""


# ----------------------------------------------------------------------
# Process exit codes (the CLI contract, usable directly as a CI gate)
# ----------------------------------------------------------------------
EXIT_OK = 0
"""Success: the job completed cleanly."""

EXIT_FAILURE = 1
"""Failures: failing runs, regressions, divergences, require-cached misses."""

EXIT_CONFIG = 2
"""Configuration error: the request itself was invalid."""

EXIT_EMPTY_SLICE = 3
"""``report``/``compare`` matched no (current-code) records — distinct from
:data:`EXIT_CONFIG` so CI can tell "you asked for nothing" from "you asked
wrongly"."""

EXIT_INTERRUPTED = 130
"""The job was interrupted (Ctrl-C / SIGINT): the session tore down its pool
and flushed the records completed so far, then the CLI exited with the
conventional ``128 + SIGINT`` code so shells and CI see a signal death."""

_EXIT_CODES: Dict[str, int] = {
    STATUS_COMPLETE: EXIT_OK,
    STATUS_ERROR: EXIT_FAILURE,
    STATUS_NO_SOLUTION: EXIT_EMPTY_SLICE,
}


# ----------------------------------------------------------------------
# Summary-row status strings (live sweep printer + store report tables)
# ----------------------------------------------------------------------
SUMMARY_OK = "ok"
"""Rendered status of a scenario summary whose every run passed."""

SUMMARY_FAIL = "FAIL"
"""Rendered status of a scenario summary with errors or violations."""


def summary_status(ok: bool) -> str:
    """The rendered status cell for a scenario summary."""
    return SUMMARY_OK if ok else SUMMARY_FAIL


class JobStatusError(RuntimeError):
    """An illegal lifecycle transition (or a status query on a bad state)."""


def exit_code_for(status: str) -> int:
    """Map a *terminal* job status to its process exit code."""
    try:
        return _EXIT_CODES[status]
    except KeyError:
        raise JobStatusError(
            f"status {status!r} is not terminal; terminal states are "
            f"{sorted(TERMINAL_STATUSES)}"
        ) from None


class JobLifecycle:
    """The per-execution state machine; illegal transitions raise.

    One instance is created per :meth:`ExecutionSession.submit` call and
    drives the status events streamed to the caller.  It is deliberately
    tiny: a current state plus the transition table above — the point is
    that *every* status a job ever reports came through :meth:`transition`,
    so an executor bug (finishing twice, regressing from a terminal state)
    surfaces as a :class:`JobStatusError` instead of a misleading event
    stream.
    """

    def __init__(self) -> None:
        self._status = STATUS_INITIALIZED

    @property
    def status(self) -> str:
        return self._status

    @property
    def terminal(self) -> bool:
        return self._status in TERMINAL_STATUSES

    def transition(self, new_status: str) -> str:
        """Move to ``new_status``; returns it.  Illegal edges raise."""
        allowed = _TRANSITIONS.get(new_status, None)
        if allowed is None:
            raise JobStatusError(
                f"unknown job status {new_status!r}; known: {sorted(_TRANSITIONS)}"
            )
        if new_status not in _TRANSITIONS[self._status]:
            raise JobStatusError(
                f"illegal job transition {self._status!r} -> {new_status!r}"
            )
        self._status = new_status
        return new_status
