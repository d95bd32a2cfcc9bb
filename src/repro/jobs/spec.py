"""Job specifications: pure, picklable descriptions of work to execute.

A *job* is everything a caller needs to say about one unit of orchestrated
work — which scenarios, which seeds, which knobs — and nothing about *how*
it runs (no pools, no store connections, no file handles).  Each job type
is a frozen dataclass whose fields are plain scalars and tuples, so a spec
can be pickled to a worker and compared by value:

* :class:`SweepJob` — execute ``scenarios × seeds`` (the ``run`` command);
* :class:`AnalyzeJob` — classify validity-property families and optionally
  cross-check them against recorded summaries (``analyze``);
* :class:`FuzzJob` — one coverage-guided mutation campaign (``fuzz``).

Scenario-bearing jobs carry their scenarios as *canonical payload strings*
(:func:`specs_to_payloads`), not live :class:`ScenarioSpec` objects, and
:func:`payloads_to_specs` rebuilds the exact specs on the executing side.
Invalid field combinations raise :class:`JobSpecError` at construction
time, so a malformed request dies before it ever reaches a session.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, ClassVar, List, Optional, Sequence, Tuple

from ..experiments.runner import DEFAULT_SEED
from ..experiments.scenario import ScenarioSpec, default_matrix, find_scenarios, make_scenario
from ..store.fingerprint import spec_from_payload, spec_payload

DEFAULT_FUZZ_BASES = ("binary+none+partition", "quad+none+synchronous")
"""Default fuzz bases: one leaderless and one leader-based protocol, with
room for the mutation walk to move both toward their resilience bounds."""


class JobSpecError(ValueError):
    """The job specification itself is invalid (a configuration error).

    Raised at spec construction or resolution time — before any kernel has
    run — so the CLI maps it to :data:`~repro.experiments.cli.common.EXIT_CONFIG`.
    """


def specs_to_payloads(specs: Sequence[ScenarioSpec]) -> Tuple[str, ...]:
    """Encode scenarios as canonical, hashable payload strings."""
    return tuple(
        json.dumps(spec_payload(spec), sort_keys=True, separators=(",", ":"))
        for spec in specs
    )


def payloads_to_specs(payloads: Sequence[str]) -> List[ScenarioSpec]:
    """Rebuild the exact :class:`ScenarioSpec` objects a job was built from."""
    try:
        return [spec_from_payload(json.loads(text)) for text in payloads]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise JobSpecError(f"job carries an invalid scenario payload: {exc}") from None


def select_scenarios(
    scenario_names: Optional[Sequence[str]] = None,
    protocols: Optional[Sequence[str]] = None,
    adversaries: Optional[Sequence[str]] = None,
    delays: Optional[Sequence[str]] = None,
) -> List[ScenarioSpec]:
    """Resolve a matrix slice: explicit names win, else filter the default matrix."""
    if scenario_names:
        return list(find_scenarios(scenario_names))
    return [
        spec
        for spec in default_matrix()
        if (not protocols or spec.protocol in protocols)
        and (not adversaries or spec.adversary in adversaries)
        and (not delays or spec.delay in delays)
    ]


def resolve_fuzz_bases(names: Sequence[str]) -> List[ScenarioSpec]:
    """Resolve fuzz-base names: default-matrix names, else registry keys.

    Extension-registered adversaries and delay models (``splitbrain``,
    ``stalled``) are not in the default matrix, so a
    ``protocol+adversary+delay`` combination that names registered keys is
    built directly.
    """
    by_name = {spec.name: spec for spec in default_matrix()}
    specs = []
    for name in names:
        if name in by_name:
            specs.append(by_name[name])
            continue
        parts = name.split("+")
        if len(parts) != 3:
            raise JobSpecError(
                f"unknown fuzz base {name!r}: not a default-matrix scenario and not a "
                "protocol+adversary+delay combination"
            )
        specs.append(make_scenario(parts[0], parts[1], parts[2]))
    return specs


def _as_tuple(job: Any, name: str, values: Any) -> None:
    object.__setattr__(job, name, tuple(values))


@dataclass(frozen=True)
class SweepJob:
    """Execute every scenario with every seed (the ``run`` command's core)."""

    kind: ClassVar[str] = "sweep"

    scenario_payloads: Tuple[str, ...]
    seeds: Tuple[int, ...] = (DEFAULT_SEED,)
    rerun: bool = False
    collect_records: bool = False

    def __post_init__(self) -> None:
        _as_tuple(self, "scenario_payloads", self.scenario_payloads)
        _as_tuple(self, "seeds", tuple(int(seed) for seed in self.seeds))
        if not self.scenario_payloads:
            raise JobSpecError("no scenarios selected")
        if not self.seeds:
            raise JobSpecError("a sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise JobSpecError(
                "a sweep's seed list repeats seeds: every (scenario, seed) pair is "
                "deterministic, so a repeated seed would just sweep the same runs twice"
            )


_ANALYZE_FAMILIES = ("named", "enumerated", "sampled")


@dataclass(frozen=True)
class AnalyzeJob:
    """Classify validity-property families, optionally cross-checking runs."""

    kind: ClassVar[str] = "analyze"

    families: Tuple[str, ...] = _ANALYZE_FAMILIES
    cross_check_reference: Optional[str] = None
    rerun: bool = False

    def __post_init__(self) -> None:
        _as_tuple(self, "families", self.families)
        if not self.families:
            raise JobSpecError("an analyze job needs at least one property family")
        unknown = sorted(set(self.families) - set(_ANALYZE_FAMILIES))
        if unknown:
            raise JobSpecError(
                f"unknown property families {unknown}; known: {list(_ANALYZE_FAMILIES)}"
            )
        if self.cross_check_reference is not None:
            object.__setattr__(self, "cross_check_reference", str(self.cross_check_reference))


@dataclass(frozen=True)
class FuzzJob:
    """One coverage-guided mutation campaign over scenario space."""

    kind: ClassVar[str] = "fuzz"

    base_payloads: Tuple[str, ...]
    budget: int = 200
    fuzz_seed: int = DEFAULT_SEED
    base_seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        _as_tuple(self, "base_payloads", self.base_payloads)
        if not self.base_payloads:
            raise JobSpecError("fuzzing needs at least one base scenario")
        if self.budget < 1:
            raise JobSpecError("fuzz budget must be at least 1")
