"""Run semantics: what one ``(scenario, seed)`` pair computes.

:func:`execute_run` turns one ``(scenario, seed)`` pair into a
:class:`RunResult`.  The result is **pure data derived only from the pair**:
no wall-clock timestamps, no host-dependent fields, and canonically ordered
containers, so a serial sweep and a parallel sweep over the same pairs
produce byte-identical :meth:`RunResult.canonical_json` — the guarantee the
determinism test suite pins down and every regression baseline relies on.

This module and :mod:`repro.experiments.scenario` are the only files of
``repro.experiments`` inside :func:`repro.store.fingerprint.code_fingerprint`,
so everything here can change a decision or a message count and nothing
else belongs here: it imports only ``repro.sim``, the scenario registries
and the stdlib.  How runs are scheduled, bounded in wall-clock time,
supervised and cached is the engine's business
(:mod:`repro.experiments.runner`), which is *not* fingerprinted.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple

from ..sim.simulation import Simulation, SimulationError
from .scenario import ADVERSARIES, DELAY_MODELS, PROTOCOLS, ScenarioSpec

TIMEOUT_ERROR_PREFIX = "timeout:"
"""Marks a wall-clock timeout record.  A timeout is a *host* condition, not a
function of the ``(scenario, seed, code)`` content key, so the run store uses
this prefix to refuse to persist such records — keep the two in sync through
this constant, never a literal."""

POISON_ERROR_PREFIX = "poison:"
"""Marks a quarantined-task record: the task repeatedly killed its worker
and supervision gave up on it.  Like a timeout, that is a host condition —
a healthier host might complete the run — so the run store refuses to
persist such records in the ``runs`` table (they go to the ``poison``
quarantine table instead, via :meth:`repro.store.RunStore.put_poison`)."""


@dataclass(frozen=True)
class RunResult:
    """Outcome of one ``(scenario, seed)`` execution.

    Every field is a deterministic function of the pair; containers are
    canonically ordered, which makes the record safe to hash, diff and store
    as a regression baseline.

    ``agreement``, ``validity_ok`` and ``decision_latency`` are ``None`` when
    the run never finished (e.g. a wall-clock timeout): an unfinished run has
    no verdict on those properties, and reporting ``True``/``0.0`` would let
    it masquerade as a clean fast run in the aggregates.
    """

    scenario: str
    seed: int
    completed: bool
    agreement: Optional[bool]
    validity_ok: Optional[bool]
    violations: Tuple[str, ...]
    decisions: Tuple[Tuple[int, str], ...]
    message_complexity: int
    communication_complexity: int
    total_messages: int
    total_words: int
    byzantine_messages: int
    decision_latency: Optional[float]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the run terminated correctly with no violations."""
        return self.error is None and self.completed and not self.violations

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["violations"] = list(self.violations)
        data["decisions"] = [list(pair) for pair in self.decisions]
        return data

    def canonical_json(self) -> str:
        """A canonical serialisation: byte-identical for identical runs."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Rebuild a record from its :meth:`to_dict` / JSON form.

        The inverse the persistent run store relies on:
        ``RunResult.from_dict(json.loads(r.canonical_json())) == r`` exactly,
        so a cached record is byte-for-byte the run it stands in for.
        """
        return cls(
            scenario=data["scenario"],
            seed=data["seed"],
            completed=data["completed"],
            agreement=data["agreement"],
            validity_ok=data["validity_ok"],
            violations=tuple(data["violations"]),
            decisions=tuple((pid, value) for pid, value in data["decisions"]),
            message_complexity=data["message_complexity"],
            communication_complexity=data["communication_complexity"],
            total_messages=data["total_messages"],
            total_words=data["total_words"],
            byzantine_messages=data["byzantine_messages"],
            decision_latency=data["decision_latency"],
            error=data.get("error"),
        )

    @classmethod
    def no_verdict(cls, scenario: str, seed: int, error: str) -> "RunResult":
        """The record of a run the host gave up on (timed out, quarantined).

        Such a run never produced a result: agreement/validity/latency are
        unknown, not clean, so they are ``None`` and the aggregates skip
        them; ``error`` says why (see the ``*_ERROR_PREFIX`` constants).
        """
        return cls(
            scenario=scenario,
            seed=seed,
            completed=False,
            agreement=None,
            validity_ok=None,
            violations=(),
            decisions=(),
            message_complexity=0,
            communication_complexity=0,
            total_messages=0,
            total_words=0,
            byzantine_messages=0,
            decision_latency=None,
            error=error,
        )


def canonical_value(value: Any) -> str:
    """Render a decision value as a stable string (repr for exotic types)."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(canonical_value(item) for item in value) + ")"
    stable_fields = getattr(value, "stable_fields", None)
    if callable(stable_fields):
        return canonical_value(stable_fields())
    pairs = getattr(value, "pairs", None)
    if pairs is not None:
        return canonical_value([(pair.process, pair.proposal) for pair in pairs])
    return repr(value)


def execute_run(spec: ScenarioSpec, seed: int) -> RunResult:
    """Execute one scenario with one seed and return its deterministic record."""
    system = spec.system()
    setup = PROTOCOLS[spec.protocol](spec, system, seed)
    faulty, faulty_factory = ADVERSARIES[spec.adversary](spec, system, setup.factory, seed)
    delay_model = DELAY_MODELS[spec.delay](spec, seed)
    simulation = Simulation(system, delay_model=delay_model, seed=seed)
    simulation.populate(setup.factory, faulty=faulty, faulty_factory=faulty_factory)

    error: Optional[str] = None
    try:
        simulation.run_until_all_correct_decide(until=spec.time_limit, max_events=spec.max_events)
    except SimulationError as exc:
        error = f"SimulationError: {exc}"
    except Exception as exc:  # a protocol bug is a result, not a sweep abort
        error = f"{type(exc).__name__}: {exc}"

    violations: Tuple[str, ...] = ()
    if error is None:
        try:
            violations = tuple(setup.check(simulation, setup.proposals))
        except Exception as exc:  # a checker crash on a malformed decision is a result too
            error = f"checker {type(exc).__name__}: {exc}"
    try:
        decisions = tuple(
            (pid, canonical_value(value)) for pid, value in sorted(simulation.decisions().items())
        )
    except Exception as exc:
        decisions = ()
        error = error or f"decision canonicalisation {type(exc).__name__}: {exc}"
    metrics = simulation.metrics
    return RunResult(
        scenario=spec.name,
        seed=seed,
        completed=simulation.all_correct_decided(),
        agreement=simulation.agreement_holds(),
        validity_ok=not any("validity" in violation for violation in violations),
        violations=violations,
        decisions=decisions,
        message_complexity=metrics.message_complexity,
        communication_complexity=metrics.communication_complexity,
        total_messages=metrics.total_messages,
        total_words=metrics.total_words,
        byzantine_messages=metrics.byzantine_messages,
        decision_latency=metrics.decision_latency(),
        error=error,
    )
