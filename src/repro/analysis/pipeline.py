"""Batch classification of validity-property families — the theory↔simulation bridge.

The paper's headline results are *verdicts about validity properties*: the
triviality dichotomy for ``n <= 3t`` (Theorems 1-2), the similarity
condition ``C_S`` characterising solvability for ``n > 3t`` (Theorems 3
and 5), and the ``Omega(t^2)`` message lower bound for anything non-trivial
(Theorem 4).  The decision procedures for all of these live in
:mod:`repro.core`; this module turns them into a *sweepable workload*:

* a :class:`PropertyTask` names one ``(property, system, domain)`` point as
  pure picklable data, exactly like a
  :class:`~repro.experiments.scenario.ScenarioSpec` names one execution;
* :func:`classify_task` maps a task to a deterministic
  :class:`AnalysisVerdict` record (solvable / trivial / ``C_S`` witness /
  message-complexity bound) — a pure function, so verdicts are
  content-addressable and serial == parallel byte-identically;
* parameterized families (:func:`named_tasks`, :func:`enumerated_tasks`,
  :func:`sampled_tasks`) generate property populations over growing ``n``
  and ``t``, dispatched through the persistent-pool
  :meth:`~repro.experiments.runner.Runner.iter_tasks` and cached in the
  :class:`~repro.store.store.RunStore` (:func:`run_analysis`);
* :func:`cross_check_matrix` closes the loop with the *empirical* side:
  every scenario in the sweep matrix whose protocol targets a validity
  property is checked against the classifier's verdict — a solvable, swept
  property must show agreement + validity in the recorded summaries, and an
  unsolvable property must have no passing protocol.

Two classification methods, one verdict
---------------------------------------

Over small finite domains the exact decision procedures
(:func:`~repro.core.triviality.check_triviality`,
:func:`~repro.core.similarity_condition.check_similarity_condition`) settle
every question by enumeration.  Their cost grows with
``|I_{n-t}| * |I|`` (see :func:`enumeration_cost`), so for the larger
systems the sweep matrix uses (``n=7, t=2`` and ``n=10, t=3`` presets) the
pipeline switches to the *closed-form oracle* for the named standard
properties — the same per-property arguments that justify the closed-form
``Lambda`` functions of :mod:`repro.core.lambda_functions` (e.g. Strong
Validity satisfies ``C_S`` iff ``n > 3t``; Correct-Proposal Validity iff
``n > (|V_I| + 1) t``, the Fitzi-Garay bound).  Wherever both methods are
affordable the test-suite pins them to identical verdicts, so the closed
form is an *extrapolation of a cross-validated rule*, not a separate
theory.

Examples
--------

Classify one named property on one system (a pure function of the task):

>>> task = PropertyTask(family="named", key="strong", n=4, t=1, domain=(0, 1))
>>> verdict = classify_task(task)
>>> (verdict.solvable, verdict.trivial, verdict.satisfies_similarity_condition)
(True, False, True)

With ``n <= 3t`` the same non-trivial property becomes unsolvable
(Theorem 1), while a trivial property stays solvable (Theorem 2):

>>> classify_task(PropertyTask(family="named", key="strong", n=3, t=1, domain=(0, 1))).solvable
False
>>> trivial = classify_task(PropertyTask(family="named", key="constant", n=3, t=1, domain=(0, 1)))
>>> (trivial.solvable, trivial.witness)
(True, '0')

Tasks carry stable labels and content fingerprints (what the run store
keys verdicts on):

>>> task.label
'named:strong:n4:t1:d0-1'
>>> len(task.fingerprint())
64

The default family spans well over fifty properties:

>>> len(default_tasks()) >= 50
True
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.input_config import Value, count_input_configurations
from ..core.ordering import canonical_sorted
from ..core.properties import standard_properties
from ..core.solvability import classify, enumerated_property
from ..core.space import configuration_space
from ..core.system import SystemConfig
from ..core.validity import TableValidity, ValidityProperty, non_empty_subsets
from .lower_bound import dolev_reischuk_threshold

ANALYSIS_FORMAT_VERSION = 1
"""Version of the verdict record / verdict baseline JSON shape."""

DEFAULT_ENUMERATION_BUDGET = 2_000_000
"""Upper bound on ``enumeration_cost`` for the exact decision procedures.

Tasks above the budget fall back to the closed-form oracle (named standard
properties with ``n > 3t`` only).  The constant is part of the analysis
source, so changing it changes
:func:`~repro.store.fingerprint.analysis_code_fingerprint` and invalidates
every cached verdict — the budget can never silently relabel a stored
record's method.
"""

_NAMED_KEYS: Tuple[str, ...] = (
    "strong",
    "weak",
    "correct-proposal",
    "median",
    "interval",
    "convex-hull",
    "constant",
    "free",
)

DEFAULT_NAMED_SYSTEMS: Tuple[Tuple[int, int, Tuple[int, ...]], ...] = (
    # (n, t, shared input/output domain) — spans both resilience regimes:
    # n <= 3t (Theorem 1 territory) and n > 3t (C_S territory), and two
    # domain sizes so the Fitzi-Garay bound n > (|V_I| + 1) t flips within
    # the family.
    (3, 1, (0, 1)),
    (4, 1, (0, 1)),
    (4, 1, (0, 1, 2)),
    (5, 1, (0, 1)),
    (6, 2, (0, 1)),
)


class AnalysisError(RuntimeError):
    """A property task that no available classification method can decide."""


# ----------------------------------------------------------------------
# Tasks: one (property, system, domain) point as pure data
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PropertyTask:
    """One point of the validity-property space, as plain picklable data.

    Attributes:
        family: Which generator produced the task — ``"named"`` (standard
            properties from the literature), ``"enumerated"`` (exhaustive
            prefix of *all* table properties over a tiny system) or
            ``"sampled"`` (uniformly random table properties).
        key: The property key within the family: a
            :func:`~repro.core.properties.standard_properties` key for
            ``named``, the literal family name otherwise.
        n: System size.
        t: Fault threshold.
        domain: The shared finite input/output domain the property is
            classified over.
        index: Disambiguator within the family — the enumeration rank for
            ``enumerated``, the sampling seed for ``sampled``, ``0`` for
            ``named``.
    """

    family: str
    key: str
    n: int
    t: int
    domain: Tuple[Value, ...]
    index: int = 0

    def system(self) -> SystemConfig:
        return SystemConfig(self.n, self.t)

    @property
    def label(self) -> str:
        """Stable human-readable identity (the verdict-baseline key)."""
        return _task_label(self.family, self.key, self.n, self.t, self.domain, self.index)

    def payload(self) -> Dict[str, Any]:
        """The canonical content of the task (what gets fingerprinted)."""
        return {
            "family": self.family,
            "key": self.key,
            "n": self.n,
            "t": self.t,
            "domain": list(self.domain),
            "index": self.index,
        }

    def fingerprint(self) -> str:
        """SHA-256 content hash of the task (the run-store key component)."""
        from ..store.fingerprint import payload_fingerprint

        return payload_fingerprint(self.payload())

    def build_property(self) -> ValidityProperty:
        """Materialise the validity property the task names."""
        system = self.system()
        domain = self.domain
        if self.family == "named":
            properties = standard_properties(system, output_domain=domain)
            try:
                return properties[self.key]
            except KeyError:
                raise AnalysisError(
                    f"unknown named property {self.key!r}; known: {sorted(properties)}"
                ) from None
        if self.family == "enumerated":
            try:
                return enumerated_property(system, domain, domain, self.index)
            except IndexError:
                raise AnalysisError(
                    f"enumeration index {self.index} out of range for n={self.n}, t={self.t}, "
                    f"domain {self.domain}"
                ) from None
        if self.family == "sampled":
            return _sampled_property(system, domain, seed=self.index)
        raise AnalysisError(f"unknown property family {self.family!r}")


def _sampled_property(
    system: SystemConfig, domain: Sequence[Value], seed: int
) -> TableValidity:
    """One uniformly sampled table property (same construction as Figure 1 sampling)."""
    rng = random.Random(seed)
    subsets = non_empty_subsets(domain)
    table = {
        config: rng.choice(subsets)
        for config in configuration_space(system, domain).configurations
    }
    return TableValidity(table, domain, name=f"sampled-{seed}")


# ----------------------------------------------------------------------
# Verdicts: the deterministic classification record
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AnalysisVerdict:
    """The classifier's verdict for one :class:`PropertyTask`.

    Every field is a deterministic pure function of the task and the
    analysis code; containers are canonically ordered, so
    :meth:`canonical_json` is byte-identical across serial/parallel
    invocations and across hosts — the property the verdict baseline and
    the run-store cache rely on.

    Attributes:
        family, key, n, t, domain, index: The task identity (see
            :class:`PropertyTask`).
        property_name: Display name of the materialised property.
        method: ``"enumeration"`` (exact decision procedures) or
            ``"closed-form"`` (per-property oracle for large systems).
        trivial: Whether an always-admissible value exists (Theorem 2).
        witness: Canonical always-admissible value when trivial.
        always_admissible: Every always-admissible value (canonical order).
        satisfies_similarity_condition: Whether ``C_S`` holds (Definition 2).
        similarity_counterexample: A minimal configuration whose similarity
            neighbourhood admits no common value, when ``C_S`` fails.
        solvable: The paper's characterization applied to the facts above.
        reason: Human-readable explanation citing the relevant theorem.
        quadratic_threshold: The Theorem 4 bound ``(ceil(t/2))^2`` — any
            algorithm for a non-trivial property has executions exceeding
            this many messages.
        message_bound: Human-readable message-complexity consequence.
        configurations_checked: ``|I|`` enumerated (0 under closed form).
        minimal_configurations_checked: ``|I_{n-t}|`` enumerated (0 under
            closed form).
    """

    family: str
    key: str
    property_name: str
    n: int
    t: int
    domain: Tuple[Value, ...]
    index: int
    method: str
    trivial: bool
    witness: Optional[str]
    always_admissible: Tuple[str, ...]
    satisfies_similarity_condition: bool
    similarity_counterexample: Optional[str]
    solvable: bool
    reason: str
    quadratic_threshold: int
    message_bound: str
    configurations_checked: int
    minimal_configurations_checked: int

    @property
    def label(self) -> str:
        return _task_label(self.family, self.key, self.n, self.t, self.domain, self.index)

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["domain"] = list(self.domain)
        data["always_admissible"] = list(self.always_admissible)
        return data

    def canonical_json(self) -> str:
        """Canonical serialisation: byte-identical for identical verdicts."""
        import json

        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalysisVerdict":
        """Exact inverse of :meth:`to_dict` (the store round-trip contract)."""
        return cls(
            family=data["family"],
            key=data["key"],
            property_name=data["property_name"],
            n=data["n"],
            t=data["t"],
            domain=tuple(data["domain"]),
            index=data["index"],
            method=data["method"],
            trivial=data["trivial"],
            witness=data["witness"],
            always_admissible=tuple(data["always_admissible"]),
            satisfies_similarity_condition=data["satisfies_similarity_condition"],
            similarity_counterexample=data["similarity_counterexample"],
            solvable=data["solvable"],
            reason=data["reason"],
            quadratic_threshold=data["quadratic_threshold"],
            message_bound=data["message_bound"],
            configurations_checked=data["configurations_checked"],
            minimal_configurations_checked=data["minimal_configurations_checked"],
        )


# ----------------------------------------------------------------------
# Classification: enumeration where affordable, closed form beyond
# ----------------------------------------------------------------------
def enumeration_cost(system: SystemConfig, domain_size: int) -> int:
    """Upper bound on similarity-enumeration work: ``|I_{n-t}| * |I|``.

    The triviality check is linear in ``|I|``; the similarity-condition
    check intersects the admissible sets over the similarity neighbourhood
    of every minimal configuration, which scans ``|I|`` candidates for each
    of the ``|I_{n-t}|`` minimal configurations — the dominant term.
    """
    minimal = math.comb(system.n, system.quorum) * domain_size**system.quorum
    return minimal * count_input_configurations(system, domain_size)


def classification_method(task: PropertyTask, budget: int = DEFAULT_ENUMERATION_BUDGET) -> str:
    """Pick the cheapest sound method for a task: enumeration within budget, else closed form."""
    if enumeration_cost(task.system(), len(task.domain)) <= budget:
        return "enumeration"
    return "closed-form"


def _task_label(family: str, key: str, n: int, t: int, domain: Tuple[Value, ...], index: int) -> str:
    """The one label format shared by tasks and verdicts (their join key).

    Baselines, :meth:`AnalysisRun.by_label` and the cross-check all join a
    task's label to its verdict's label, so the format lives in exactly one
    place.
    """
    base = f"{family}:{key}:n{n}:t{t}:d" + "-".join(str(value) for value in domain)
    if family == "named":
        return base
    return f"{base}:i{index}"


def _canonical_value(value: Any) -> str:
    """Render a verdict value as a stable string.

    Deliberately owned by this module (not borrowed from
    ``repro.experiments.execute.canonical_value``) so that everything shaping
    verdict bytes is covered by
    :func:`~repro.store.fingerprint.analysis_code_fingerprint` — an edit to
    the runner's decision rendering must never silently stale-serve cached
    verdicts.  Same convention: ``repr`` for scalars, recursive tuples,
    ``pairs`` expansion for configuration-like values.
    """
    if isinstance(value, (bool, int, float, str)) or value is None:
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_canonical_value(item) for item in value) + ")"
    pairs = getattr(value, "pairs", None)
    if pairs is not None:
        return _canonical_value([(pair.process, pair.proposal) for pair in pairs])
    return repr(value)


def _closed_form_facts(task: PropertyTask) -> Tuple[bool, Tuple[Value, ...], bool, str]:
    """The closed-form oracle: ``(trivial, always_admissible, cs_holds, cs_note)``.

    Only defined for the named standard properties with ``n > 3t`` — the
    regime where the closed-form ``Lambda`` constructions of
    :mod:`repro.core.lambda_functions` are proved correct.  Each rule is the
    per-property argument from that module, cross-validated against the
    exact enumeration wherever both are affordable
    (``tests/test_analysis_pipeline.py``).
    """
    system = task.system()
    if task.family != "named":
        raise AnalysisError(
            f"task {task.label} exceeds the enumeration budget and only named standard "
            "properties have a closed-form oracle"
        )
    if not system.tolerates_byzantine_faults():
        raise AnalysisError(
            f"task {task.label} exceeds the enumeration budget and the closed-form oracle "
            "requires n > 3t (shrink the system or raise the budget)"
        )
    ordered = canonical_sorted(set(task.domain))
    d = len(ordered)
    key = task.key
    if key == "constant":
        # ConstantValidity admits exactly its constant (the first domain value).
        constant = task.domain[0]
        return True, (constant,), True, "trivial properties satisfy C_S vacuously"
    if key == "free" or d == 1:
        # Free Validity admits everything; any property over a singleton
        # domain admits the single value everywhere (val(c) is non-empty).
        return True, tuple(ordered), True, "trivial properties satisfy C_S vacuously"
    # Every other named property is non-trivial once |domain| >= 2: the
    # unanimous configurations for two distinct values already admit
    # disjoint singletons, emptying the always-admissible intersection.
    if key in ("strong", "weak", "median", "interval", "convex-hull"):
        # The closed-form Lambda for these exists for every n > 3t (see the
        # respective constructions and proofs in repro.core.lambda_functions;
        # "median" is MedianValidity(radius=2t) and "interval" is
        # IntervalValidity(k=t+1, radius=t), for which k <= n - 2t follows
        # from n > 3t).
        return False, (), True, f"closed-form Lambda exists for {key!r} when n > 3t"
    if key == "correct-proposal":
        # Fitzi-Garay: some value is guaranteed to appear >= t + 1 times in
        # every decided vector of n - t proposals iff n - t > |V_I| * t.
        holds = system.n > (d + 1) * system.t
        note = (
            f"n > (|V_I| + 1)t = {(d + 1) * system.t} guarantees a (t+1)-frequent value in "
            "every vector"
            if holds
            else f"n <= (|V_I| + 1)t = {(d + 1) * system.t}: a vector can spread proposals so "
            "that no value appears t + 1 times (Fitzi-Garay bound)"
        )
        return False, (), holds, note
    raise AnalysisError(
        f"named property {key!r} has no closed-form oracle; known: {sorted(_NAMED_KEYS)}"
    )


def classify_task(
    task: PropertyTask, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> AnalysisVerdict:
    """Classify one property task into an :class:`AnalysisVerdict` (pure function).

    Applies the paper's characterization: trivial properties are solvable
    outright (Theorem 2); non-trivial properties are unsolvable when
    ``n <= 3t`` (Theorem 1) and solvable iff ``C_S`` holds when ``n > 3t``
    (Theorems 3 and 5).  Non-trivial properties additionally carry the
    Theorem 4 quadratic message bound.
    """
    system = task.system()
    method = classification_method(task, budget)
    domain = task.domain

    if method == "enumeration":
        prop = task.build_property()
        classification = classify(prop, system, domain, domain)
        triviality = classification.triviality
        similarity = classification.similarity
        always = tuple(
            _canonical_value(value) for value in canonical_sorted(triviality.always_admissible)
        )
        verdict_fields = dict(
            property_name=prop.name,
            trivial=classification.trivial,
            witness=_canonical_value(triviality.witness) if classification.trivial else None,
            always_admissible=always,
            satisfies_similarity_condition=classification.satisfies_similarity_condition,
            similarity_counterexample=(
                repr(similarity.counterexample) if similarity.counterexample is not None else None
            ),
            solvable=classification.solvable,
            reason=classification.reason,
            configurations_checked=triviality.configurations_checked,
            minimal_configurations_checked=similarity.minimal_configurations_checked,
        )
    else:
        trivial, always_values, cs_holds, cs_note = _closed_form_facts(task)
        always = tuple(_canonical_value(value) for value in canonical_sorted(always_values))
        if trivial:
            solvable = True
            reason = (
                f"trivial: value {always[0]} is admissible for every input configuration, "
                "so every process can decide it immediately (Theorem 2; closed form)"
            )
        elif cs_holds:
            solvable = True
            reason = (
                "non-trivial, n > 3t, and the similarity condition holds — "
                f"{cs_note} — hence solvable by the Universal algorithm (Theorem 5; closed form)"
            )
        else:
            solvable = False
            reason = (
                f"the similarity condition fails: {cs_note}; hence unsolvable "
                "(Theorem 3; closed form)"
            )
        verdict_fields = dict(
            property_name=_named_property_name(task),
            trivial=trivial,
            witness=always[0] if trivial else None,
            always_admissible=always,
            satisfies_similarity_condition=cs_holds,
            similarity_counterexample=None,
            solvable=solvable,
            reason=reason,
            configurations_checked=0,
            minimal_configurations_checked=0,
        )

    threshold = dolev_reischuk_threshold(system)
    if verdict_fields["trivial"]:
        message_bound = "O(1): decide the always-admissible value without communication"
    elif verdict_fields["solvable"]:
        message_bound = (
            f"Omega(t^2) messages (Theorem 4: > {threshold}); O(n^2) via Universal (Theorem 5)"
        )
    else:
        message_bound = "unsolvable: no algorithm exists at any message complexity"
    return AnalysisVerdict(
        family=task.family,
        key=task.key,
        n=task.n,
        t=task.t,
        domain=task.domain,
        index=task.index,
        method=method,
        quadratic_threshold=threshold,
        message_bound=message_bound,
        **verdict_fields,
    )


def _named_property_name(task: PropertyTask) -> str:
    """Display name of a named property without materialising its table."""
    return standard_properties(task.system(), output_domain=list(task.domain))[task.key].name


# ----------------------------------------------------------------------
# Families: parameterized populations of property tasks
# ----------------------------------------------------------------------
def named_tasks(
    systems: Sequence[Tuple[int, int, Tuple[int, ...]]] = DEFAULT_NAMED_SYSTEMS,
) -> List[PropertyTask]:
    """Every named standard property over every ``(n, t, domain)`` in ``systems``."""
    return [
        PropertyTask(family="named", key=key, n=n, t=t, domain=tuple(domain))
        for n, t, domain in systems
        for key in _NAMED_KEYS
    ]


def enumerated_tasks(
    count: int = 24, n: int = 2, t: int = 1, domain: Tuple[int, ...] = (0, 1)
) -> List[PropertyTask]:
    """The first ``count`` properties of the exhaustive enumeration over a tiny system.

    With ``n = 2, t = 1`` the system sits in Theorem 1 territory
    (``n <= 3t``): the prefix exercises the trivial/unsolvable dichotomy
    exhaustively rather than by sampling.
    """
    if count < 1:
        raise ValueError("need at least one enumerated property")
    return [
        PropertyTask(family="enumerated", key="enumerated", n=n, t=t, domain=domain, index=i)
        for i in range(count)
    ]


def sampled_tasks(
    count: int = 16, n: int = 4, t: int = 1, domain: Tuple[int, ...] = (0, 1), base_seed: int = 0
) -> List[PropertyTask]:
    """``count`` uniformly sampled table properties (seeds ``base_seed ..``)."""
    if count < 1:
        raise ValueError("need at least one sampled property")
    return [
        PropertyTask(family="sampled", key="sampled", n=n, t=t, domain=domain, index=base_seed + i)
        for i in range(count)
    ]


def default_tasks() -> List[PropertyTask]:
    """The default analysis family: named × systems, enumerated prefix, samples.

    Deliberately larger than fifty properties so the ``analyze`` CLI's
    determinism/caching guarantees are demonstrated at sweep scale, yet
    cheap enough to classify in seconds.
    """
    return named_tasks() + enumerated_tasks() + sampled_tasks()


def dedupe_tasks(tasks: Iterable[PropertyTask]) -> List[PropertyTask]:
    """Drop duplicate tasks (same label), keeping first occurrence order."""
    seen: Dict[str, PropertyTask] = {}
    ordered: List[PropertyTask] = []
    for task in tasks:
        label = task.label
        existing = seen.get(label)
        if existing is None:
            seen[label] = task
            ordered.append(task)
        elif existing != task:
            raise AnalysisError(f"two distinct tasks share the label {label!r}")
    return ordered


# ----------------------------------------------------------------------
# Batch execution: persistent pool + run-store verdict cache
# ----------------------------------------------------------------------
@dataclass
class AnalysisRun:
    """Outcome of one :func:`run_analysis` batch."""

    verdicts: List[AnalysisVerdict]
    cached: int
    classified: int

    def by_label(self) -> Dict[str, AnalysisVerdict]:
        return {verdict.label: verdict for verdict in self.verdicts}

    def counts(self) -> Dict[str, int]:
        """Population counts in the shape of Figure 1."""
        return {
            "total": len(self.verdicts),
            "trivial": sum(1 for v in self.verdicts if v.trivial),
            "solvable": sum(1 for v in self.verdicts if v.solvable),
            "solvable_non_trivial": sum(
                1 for v in self.verdicts if v.solvable and not v.trivial
            ),
            "unsolvable": sum(1 for v in self.verdicts if not v.solvable),
            "satisfying_C_S": sum(
                1 for v in self.verdicts if v.satisfies_similarity_condition
            ),
        }


def run_analysis(
    tasks: Sequence[PropertyTask],
    runner: Optional[Any] = None,
    store: Optional[Any] = None,
    rerun: bool = False,
    on_verdict: Optional[Any] = None,
) -> AnalysisRun:
    """Classify every task, through the runner's pool and the verdict cache.

    With a ``store`` (a :class:`~repro.store.store.RunStore`), tasks are
    partitioned into cache hits — served from the ``verdicts`` table without
    classifying — and misses, which are classified then persisted, mirroring
    ``Runner.iter_runs``'s incremental sweeps: an identical re-analysis
    classifies zero properties.  ``rerun=True`` recomputes everything.

    Without a ``runner`` the tasks are classified in this process by a
    serial :class:`~repro.experiments.runner.Runner` (which owns no pool, so
    there is nothing to tear down); callers with a pool pass their own
    runner, as :meth:`~repro.jobs.session.ExecutionSession.submit` does for
    an analysis job.  ``on_verdict(index, verdict)`` is
    called in task order as each verdict becomes available — the
    progress-event hook.

    The verdict sequence is deterministic in task order and byte-identical
    between serial and parallel runners (:func:`classify_task` is pure).
    """
    if runner is None:
        from ..experiments.runner import Runner

        runner = Runner()

    task_list = dedupe_tasks(tasks)
    cached: Dict[int, AnalysisVerdict] = {}
    if store is not None and not rerun:
        for index, task in enumerate(task_list):
            hit = store.get_verdict(task)
            if hit is not None:
                cached[index] = hit

    def persist(index: int, verdict: AnalysisVerdict) -> None:
        store.put_verdict(task_list[index], verdict)

    verdicts: List[AnalysisVerdict] = []
    try:
        for verdict in runner.iter_tasks(
            classify_task,
            task_list,
            cached=cached,
            on_result=persist if store is not None else None,
        ):
            verdicts.append(verdict)
            if on_verdict is not None:
                on_verdict(len(verdicts) - 1, verdict)
    finally:
        if store is not None:
            store.flush_retrying(raise_on_failure=False)
    return AnalysisRun(
        verdicts=verdicts, cached=len(cached), classified=len(task_list) - len(cached)
    )


# ----------------------------------------------------------------------
# Verdict baselines (exact regression gate, like the scenario baselines)
# ----------------------------------------------------------------------
def verdicts_to_payload(verdicts: Sequence[AnalysisVerdict]) -> Dict[str, Any]:
    """The verdict-baseline JSON shape (single source of the format)."""
    return {
        "format_version": ANALYSIS_FORMAT_VERSION,
        "verdicts": {verdict.label: verdict.to_dict() for verdict in verdicts},
    }


def verdicts_to_json(verdicts: Sequence[AnalysisVerdict]) -> str:
    import json

    return json.dumps(verdicts_to_payload(verdicts), sort_keys=True, separators=(",", ":"))


def load_verdict_baseline(path: Any) -> Dict[str, Dict[str, Any]]:
    import json
    import pathlib

    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("format_version") != ANALYSIS_FORMAT_VERSION:
        raise ValueError(
            f"verdict baseline {path} has format_version {payload.get('format_version')!r}, "
            f"expected {ANALYSIS_FORMAT_VERSION}"
        )
    return payload["verdicts"]


def diff_verdicts(
    verdicts: Sequence[AnalysisVerdict], baseline: Mapping[str, Mapping[str, Any]]
) -> List[str]:
    """Exact diff of classified verdicts against a stored baseline.

    Theory verdicts are discrete facts — there is no tolerance: any changed
    field, missing label or novel label is a divergence.  Returns
    human-readable divergence lines (empty when byte-equivalent).
    """
    divergences: List[str] = []
    measured = {verdict.label: verdict.to_dict() for verdict in verdicts}
    for label in sorted(baseline):
        if label not in measured:
            divergences.append(f"{label}: verdict missing from this analysis")
    for label in sorted(measured):
        if label not in baseline:
            divergences.append(f"{label}: verdict not present in the baseline")
            continue
        stored = baseline[label]
        fresh = measured[label]
        for field_name in sorted(set(stored) | set(fresh)):
            if stored.get(field_name) != fresh.get(field_name):
                divergences.append(
                    f"{label}: {field_name} changed from {stored.get(field_name)!r} "
                    f"to {fresh.get(field_name)!r}"
                )
    return divergences


# ----------------------------------------------------------------------
# Cross-check: classifier verdicts vs the simulated scenario matrix
# ----------------------------------------------------------------------
SCENARIO_PROPOSAL_DOMAIN: Tuple[int, ...] = (0, 1, 2)
"""The proposal domain of the Universal sweep scenarios: the runner assigns
``(pid + seed) % 3`` (see ``repro.experiments.scenario._proposals``), so the
classifier must judge the property over exactly ``{0, 1, 2}``."""


def property_task_for_scenario(spec: Any) -> Optional[PropertyTask]:
    """The classifier task a sweep scenario puts to the test, if any.

    Only the Universal-based protocols target a configurable validity
    property (``spec.property_key``); ``binary``/``quad`` solve fixed
    notions whose validity the scenario checkers assert directly.
    """
    if not spec.protocol.startswith("universal"):
        return None
    return PropertyTask(
        family="named",
        key=spec.property_key,
        n=spec.n,
        t=spec.t,
        domain=SCENARIO_PROPOSAL_DOMAIN,
    )


def cross_check_tasks(scenarios: Optional[Sequence[Any]] = None) -> List[PropertyTask]:
    """Every distinct property task the scenario matrix exercises."""
    if scenarios is None:
        from ..experiments.scenario import default_matrix

        scenarios = default_matrix()
    tasks = [
        task for task in (property_task_for_scenario(spec) for spec in scenarios) if task is not None
    ]
    return dedupe_tasks(tasks)


@dataclass
class CrossCheckResult:
    """Outcome of checking classifier verdicts against simulated summaries."""

    checked: int
    skipped: List[str]
    divergences: List[str]

    @property
    def ok(self) -> bool:
        return not self.divergences


def cross_check_matrix(
    verdicts_by_label: Mapping[str, AnalysisVerdict],
    summaries: Mapping[str, Mapping[str, Any]],
    scenarios: Optional[Sequence[Any]] = None,
) -> CrossCheckResult:
    """Assert theory and simulation agree, scenario by scenario.

    For every scenario whose protocol targets a validity property:

    * **solvable** verdicts demand a clean empirical record — the recorded
      summary must show zero agreement violations and zero validity
      violations (Theorems 2 and 5 promise an algorithm exists; Universal
      *is* that algorithm, so it must not be caught violating the property);
    * **unsolvable** verdicts demand the opposite — no recorded summary may
      show the protocol passing cleanly (errors, violations or incomplete
      runs are all consistent with impossibility; a fully passing sweep
      would contradict Theorems 1 and 3).

    Scenarios without a property target, or without a recorded summary, are
    reported as skipped, never silently dropped.
    """
    if scenarios is None:
        from ..experiments.scenario import default_matrix

        scenarios = default_matrix()
    checked = 0
    skipped: List[str] = []
    divergences: List[str] = []
    for spec in scenarios:
        task = property_task_for_scenario(spec)
        if task is None:
            skipped.append(f"{spec.name}: protocol {spec.protocol!r} has no property target")
            continue
        verdict = verdicts_by_label.get(task.label)
        if verdict is None:
            divergences.append(f"{spec.name}: no verdict classified for {task.label}")
            continue
        summary = summaries.get(spec.name)
        if summary is None:
            skipped.append(f"{spec.name}: not present in the recorded summaries")
            continue
        checked += 1
        agreement_violations = summary.get("agreement_violations", 0)
        validity_violations = summary.get("validity_violations", 0)
        passing = (
            summary.get("errors", 0) == 0
            and summary.get("incomplete", 0) == 0
            and agreement_violations == 0
            and validity_violations == 0
        )
        if verdict.solvable and (agreement_violations or validity_violations):
            divergences.append(
                f"{spec.name}: {task.label} is solvable ({verdict.reason}) but the recorded "
                f"sweep shows {agreement_violations} agreement and {validity_violations} "
                "validity violations"
            )
        elif not verdict.solvable and passing:
            divergences.append(
                f"{spec.name}: {task.label} is unsolvable ({verdict.reason}) yet the recorded "
                "sweep passes cleanly — an algorithm cannot exist (Theorems 1 and 3)"
            )
    return CrossCheckResult(checked=checked, skipped=skipped, divergences=divergences)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
_VERDICT_COLUMNS = (
    ("property", lambda v: v.label),
    ("method", lambda v: v.method),
    ("trivial", lambda v: "yes" if v.trivial else "no"),
    ("C_S", lambda v: "yes" if v.satisfies_similarity_condition else "no"),
    ("solvable", lambda v: "yes" if v.solvable else "no"),
    ("msg-bound", lambda v: v.message_bound.split(":")[0]),
)


def render_verdict_table(verdicts: Sequence[AnalysisVerdict]) -> str:
    """A plain-text verdict table (column-aligned, task order preserved)."""
    header = [name for name, _ in _VERDICT_COLUMNS]
    rows = [header] + [[render(v) for _, render in _VERDICT_COLUMNS] for v in verdicts]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_verdict_markdown(verdicts: Sequence[AnalysisVerdict]) -> str:
    """The same table as GitHub-flavoured markdown."""
    header = [name for name, _ in _VERDICT_COLUMNS]
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for verdict in verdicts:
        lines.append("| " + " | ".join(render(verdict) for _, render in _VERDICT_COLUMNS) + " |")
    return "\n".join(lines)
