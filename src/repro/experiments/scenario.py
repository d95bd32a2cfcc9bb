"""Scenario specifications and the protocol × adversary × delay registry.

The paper's claims are quantified over *executions*: a protocol (one of the
consensus stacks in :mod:`repro.consensus`), an adversary behaviour (one of
the fault injectors in :mod:`repro.sim.adversary`) and a network delay model
(:mod:`repro.sim.network`).  A :class:`ScenarioSpec` names one point of that
space as plain, picklable data; the three registries below map the spec's
string keys to builder functions, and :func:`default_matrix` composes every
registered combination into the named cartesian scenario matrix that the
runner sweeps.

Design rules that make sweeps reproducible:

* a spec carries **no live objects** — only strings, numbers and tuples — so
  it crosses process boundaries unchanged and two equal specs always build
  the same execution;
* every source of randomness (delay jitter, key generation, message
  dropping, proposal assignment) is derived from the single per-run ``seed``,
  so ``(scenario, seed)`` fully determines the execution.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..consensus.binary import BinaryConsensus
from ..consensus.quad import Quad
from ..consensus.universal_protocol import universal_process_factory
from ..consensus.vector_authenticated import SignedProposal
from ..core.input_config import InputConfiguration
from ..core.system import SystemConfig
from ..core.universal import UniversalSpec
from ..sim.adversary import (
    QuadSplitBrainLeader,
    crash_factory,
    dropping_factory,
    equivocating_factory,
    silent_factory,
)
from ..sim.network import (
    DelayModel,
    HeldLinksDelayModel,
    JitteredDelayModel,
    SynchronousDelayModel,
)
from ..sim.process import Process
from ..sim.simulation import Simulation


@dataclass(frozen=True)
class ScenarioSpec:
    """One named point of the protocol × adversary × delay scenario space.

    Attributes:
        name: Unique scenario identifier (``protocol+adversary+delay`` by
            convention, see :func:`scenario_name`).
        protocol: Key into :data:`PROTOCOLS`.
        adversary: Key into :data:`ADVERSARIES`.
        delay: Key into :data:`DELAY_MODELS`.
        n: System size.
        t: Fault threshold (the adversary corrupts the last ``t`` indices).
        property_key: Validity property for the Universal-based protocols.
        params: Extra knobs as a sorted ``(key, value)`` tuple so the spec
            stays hashable and picklable (see :meth:`param`).
        time_limit: Simulated-time horizon for one run.
        max_events: Safety bound on processed events for one run.
    """

    name: str
    protocol: str
    adversary: str = "none"
    delay: str = "synchronous"
    n: int = 4
    t: int = 1
    property_key: str = "strong"
    params: Tuple[Tuple[str, Any], ...] = ()
    time_limit: float = 10_000.0
    max_events: int = 500_000

    def param(self, key: str, default: Any = None) -> Any:
        """Look up an extra parameter by name."""
        for item_key, value in self.params:
            if item_key == key:
                return value
        return default

    def with_(self, **changes: Any) -> "ScenarioSpec":
        """A copy of the spec with some fields replaced."""
        return dataclasses.replace(self, **changes)

    def system(self) -> SystemConfig:
        return SystemConfig(self.n, self.t)

    def describe(self) -> str:
        return (
            f"{self.name}: protocol={self.protocol} adversary={self.adversary} "
            f"delay={self.delay} n={self.n} t={self.t} property={self.property_key}"
        )


def make_params(mapping: Optional[Dict[str, Any]] = None) -> Tuple[Tuple[str, Any], ...]:
    """Normalise a parameter mapping into the canonical sorted tuple form."""
    if not mapping:
        return ()
    return tuple(sorted(mapping.items()))


class ProtocolSetup(NamedTuple):
    """What a protocol builder hands to the runner for one execution."""

    factory: Callable[[int, Simulation], Process]
    proposals: Dict[int, Any]
    check: Callable[[Simulation, Dict[int, Any]], List[str]]


ProtocolBuilder = Callable[[ScenarioSpec, SystemConfig, int], ProtocolSetup]
AdversaryBuilder = Callable[
    [ScenarioSpec, SystemConfig, Callable[[int, Simulation], Process], int],
    Tuple[Tuple[int, ...], Optional[Callable[[int, Simulation], Process]]],
]
DelayBuilder = Callable[[ScenarioSpec, int], DelayModel]

PROTOCOLS: Dict[str, ProtocolBuilder] = {}
ADVERSARIES: Dict[str, AdversaryBuilder] = {}
DELAY_MODELS: Dict[str, DelayBuilder] = {}

# Keys registered with ``extension=True`` are resolvable by name everywhere
# (make_scenario, the fuzzer, explicit CLI selections) but are *excluded* from
# the cartesian defaults of :func:`scenario_matrix`, so adding an attack
# surface never silently grows the default sweep or invalidates committed
# baselines.
EXTENSION_ADVERSARIES: set = set()
EXTENSION_DELAY_MODELS: set = set()


def register_protocol(key: str) -> Callable[[ProtocolBuilder], ProtocolBuilder]:
    def decorate(builder: ProtocolBuilder) -> ProtocolBuilder:
        if key in PROTOCOLS:
            raise ValueError(f"protocol {key!r} already registered")
        PROTOCOLS[key] = builder
        return builder

    return decorate


def register_adversary(key: str, extension: bool = False) -> Callable[[AdversaryBuilder], AdversaryBuilder]:
    def decorate(builder: AdversaryBuilder) -> AdversaryBuilder:
        if key in ADVERSARIES:
            raise ValueError(f"adversary {key!r} already registered")
        ADVERSARIES[key] = builder
        if extension:
            EXTENSION_ADVERSARIES.add(key)
        return builder

    return decorate


def register_delay_model(key: str, extension: bool = False) -> Callable[[DelayBuilder], DelayBuilder]:
    def decorate(builder: DelayBuilder) -> DelayBuilder:
        if key in DELAY_MODELS:
            raise ValueError(f"delay model {key!r} already registered")
        DELAY_MODELS[key] = builder
        if extension:
            EXTENSION_DELAY_MODELS.add(key)
        return builder

    return decorate


# ----------------------------------------------------------------------
# Proposal assignments (deterministic functions of scenario and seed)
# ----------------------------------------------------------------------
def _proposals(spec: ScenarioSpec, seed: int, spread: int) -> Dict[int, Any]:
    override = spec.param("proposals")
    if override is not None:
        return dict(override)
    return {pid: (pid + seed) % spread for pid in range(spec.n)}


# ----------------------------------------------------------------------
# Protocols
# ----------------------------------------------------------------------
class _BinaryProcess(Process):
    def __init__(self, pid: int, simulation: Simulation, proposal: int):
        super().__init__(pid, simulation)
        self.proposal = proposal

    def on_start(self) -> None:
        self.consensus = BinaryConsensus(self, on_decide=self.decide)
        self.consensus.propose(self.proposal)


@register_protocol("binary")
def _build_binary(spec: ScenarioSpec, system: SystemConfig, seed: int) -> ProtocolSetup:
    proposals = {pid: value % 2 for pid, value in _proposals(spec, seed, 2).items()}

    def check(simulation: Simulation, props: Dict[int, Any]) -> List[str]:
        violations = _common_violations(simulation)
        correct_proposals = {props[pid] for pid in simulation.correct_processes}
        for pid, value in simulation.decisions().items():
            if value not in (0, 1):
                violations.append(f"validity violated: process {pid} decided non-binary value {value!r}")
            elif len(correct_proposals) == 1 and value not in correct_proposals:
                violations.append(
                    f"validity violated: unanimous proposal {correct_proposals} "
                    f"but process {pid} decided {value!r}"
                )
        return violations

    return ProtocolSetup(
        factory=lambda pid, simulation: _BinaryProcess(pid, simulation, proposals[pid]),
        proposals=proposals,
        check=check,
    )


class _QuadProcess(Process):
    """Runs Quad directly with a trivially verifiable proof scheme."""

    def __init__(self, pid: int, simulation: Simulation, value: Any):
        super().__init__(pid, simulation)
        self.value = value

    def on_start(self) -> None:
        self.quad = Quad(self, verify=_quad_verify, on_decide=self.decide)
        self.quad.propose((self.value, ("ok", self.value)))


def _quad_verify(value: Any, proof: Any) -> bool:
    return proof == ("ok", value)


@register_protocol("quad")
def _build_quad(spec: ScenarioSpec, system: SystemConfig, seed: int) -> ProtocolSetup:
    proposals = {pid: f"v{value}" for pid, value in _proposals(spec, seed, 3).items()}

    def check(simulation: Simulation, props: Dict[int, Any]) -> List[str]:
        violations = _common_violations(simulation)
        for pid, decided in simulation.decisions().items():
            value, proof = decided
            if not _quad_verify(value, proof):
                violations.append(f"validity violated: process {pid} decided unverifiable pair {decided!r}")
        return violations

    return ProtocolSetup(
        factory=lambda pid, simulation: _QuadProcess(pid, simulation, proposals[pid]),
        proposals=proposals,
        check=check,
    )


def _build_universal(spec: ScenarioSpec, system: SystemConfig, seed: int, backend: str) -> ProtocolSetup:
    proposals = _proposals(spec, seed, 3)
    universal_spec = UniversalSpec.for_standard_property(system, spec.property_key)

    def check(simulation: Simulation, props: Dict[int, Any]) -> List[str]:
        violations = _common_violations(simulation)
        configuration = InputConfiguration.from_mapping(
            {pid: props[pid] for pid in simulation.correct_processes}
        )
        for pid, value in simulation.decisions().items():
            if not universal_spec.validity.is_admissible(configuration, value):
                violations.append(
                    f"validity violated: process {pid} decided {value!r}, inadmissible for "
                    f"{spec.property_key!r} given the correct proposals"
                )
        return violations

    return ProtocolSetup(
        factory=universal_process_factory(universal_spec, proposals, backend=backend),
        proposals=proposals,
        check=check,
    )


@register_protocol("universal-authenticated")
def _build_universal_authenticated(spec: ScenarioSpec, system: SystemConfig, seed: int) -> ProtocolSetup:
    return _build_universal(spec, system, seed, "authenticated")


@register_protocol("universal-non-authenticated")
def _build_universal_non_authenticated(spec: ScenarioSpec, system: SystemConfig, seed: int) -> ProtocolSetup:
    return _build_universal(spec, system, seed, "non-authenticated")


@register_protocol("universal-compact")
def _build_universal_compact(spec: ScenarioSpec, system: SystemConfig, seed: int) -> ProtocolSetup:
    return _build_universal(spec, system, seed, "compact")


def _common_violations(simulation: Simulation) -> List[str]:
    violations: List[str] = []
    if not simulation.all_correct_decided():
        undecided = sorted(
            pid for pid in simulation.correct_processes if not simulation.processes[pid].has_decided()
        )
        violations.append(f"termination violated: correct processes {undecided} never decided")
    if not simulation.agreement_holds():
        violations.append(f"agreement violated: decisions {simulation.decisions()!r}")
    return violations


# ----------------------------------------------------------------------
# Adversaries (all corrupt the last ``t`` process indices)
# ----------------------------------------------------------------------
def _faulty_indices(system: SystemConfig) -> Tuple[int, ...]:
    return tuple(range(system.n - system.t, system.n))


@register_adversary("none")
def _build_no_adversary(spec, system, correct_factory, seed):
    return (), None


@register_adversary("silent")
def _build_silent(spec, system, correct_factory, seed):
    return _faulty_indices(system), silent_factory


@register_adversary("crash")
def _build_crash(spec, system, correct_factory, seed):
    crash_time = spec.param("crash_time", 2.0)
    return _faulty_indices(system), crash_factory(correct_factory, crash_time=crash_time)


@register_adversary("dropping")
def _build_dropping(spec, system, correct_factory, seed):
    drop_probability = spec.param("drop_probability", 0.3)
    return _faulty_indices(system), dropping_factory(correct_factory, drop_probability, seed=seed)


# ----------------------------------------------------------------------
# Equivocation: Byzantine proposers sending a different, well-formed
# proposal-phase message to every receiver.  The target module path and the
# wire format depend on the protocol, so each protocol key registers its
# attack surface here.
# ----------------------------------------------------------------------
def _signed_equivocation(process, receiver, value):
    """A properly self-signed proposal (the PKI is never violated)."""
    signature = process.authority.sign(process.pid, ("proposal", value))
    return SignedProposal(sender=process.pid, value=value, signature=signature)


def _equivocation_value(seed: int) -> Callable[[int, int], int]:
    return lambda pid, receiver: 100 + receiver + 10 * pid + seed % 10


EQUIVOCATION_ATTACKS: Dict[str, Callable[[ScenarioSpec, int], Callable[[int, Simulation], Process]]] = {
    # Split bval votes in round 1 of binary consensus.
    "binary": lambda spec, seed: equivocating_factory(
        ("binary",), lambda pid, receiver: ("bval", 1, (pid + receiver + seed) % 2)
    ),
    # Conflicting leader proposals for the view this proposer would lead.
    "quad": lambda spec, seed: equivocating_factory(
        ("quad",),
        lambda pid, receiver: f"eq{pid}.{receiver}.{seed % 10}",
        lambda process, receiver, value: ("propose", process.pid + 1, value, ("ok", value), None),
    ),
    # A different self-signed proposal per receiver (the textbook attack on
    # the dissemination layer of Algorithm 1).
    "universal-authenticated": lambda spec, seed: equivocating_factory(
        ("universal", "vec_cons"), _equivocation_value(seed), _signed_equivocation
    ),
    # Same attack against Algorithm 6's best-effort proposal broadcast.
    "universal-compact": lambda spec, seed: equivocating_factory(
        ("universal", "vec_cons", "beb"), _equivocation_value(seed), _signed_equivocation
    ),
    # Equivocate inside Bracha broadcast (Algorithm 3's proposal phase).
    "universal-non-authenticated": lambda spec, seed: equivocating_factory(
        ("universal", "vec_cons", "brb"),
        _equivocation_value(seed),
        lambda process, receiver, value: ("send", ("proposal", value)),
    ),
}


@register_adversary("equivocation")
def _build_equivocation(spec, system, correct_factory, seed):
    attack = EQUIVOCATION_ATTACKS.get(spec.protocol)
    if attack is None:
        raise KeyError(
            f"protocol {spec.protocol!r} has no registered equivocation attack; "
            f"add it to EQUIVOCATION_ATTACKS (known: {sorted(EQUIVOCATION_ATTACKS)})"
        )
    return _faulty_indices(system), attack(spec, seed)


@register_adversary("splitbrain", extension=True)
def _build_splitbrain(spec, system, correct_factory, seed):
    """Colluding split-brain leader for Quad (succeeds exactly when n <= 3t).

    An *extension* adversary: it targets Quad's leader/certificate structure
    specifically, so it is reachable by name (and by the fuzzer) without
    joining the cartesian default matrix.
    """
    if spec.protocol != "quad":
        raise KeyError(
            f"adversary 'splitbrain' targets the 'quad' protocol, not {spec.protocol!r}"
        )

    def build(pid: int, simulation: Simulation) -> Process:
        return QuadSplitBrainLeader(pid, simulation, proof_for=lambda value: ("ok", value))

    return _faulty_indices(system), build


# ----------------------------------------------------------------------
# Delay models
# ----------------------------------------------------------------------
@register_delay_model("synchronous")
def _build_synchronous(spec: ScenarioSpec, seed: int) -> DelayModel:
    return SynchronousDelayModel(delta=spec.param("delta", 1.0), seed=seed)


@register_delay_model("eventual")
def _build_eventual(spec: ScenarioSpec, seed: int) -> DelayModel:
    return DelayModel(gst=spec.param("gst", 5.0), delta=spec.param("delta", 1.0), seed=seed)


@register_delay_model("partition")
def _build_partition(spec: ScenarioSpec, seed: int) -> DelayModel:
    """Split all process indices into two halves, partitioned until release.

    The release time doubles as the GST (the base-class clamp would cut the
    partition short for correct senders otherwise), so the scenario exercises
    the regime where the network heals exactly when partial synchrony kicks in.
    """
    half = spec.n // 2
    return HeldLinksDelayModel(
        held=[link for a in range(half) for c in range(half, spec.n) for link in ((a, c), (c, a))],
        release=spec.param("release_time", 5.0),
        delta=spec.param("delta", 1.0),
        seed=seed,
        gst=spec.param("gst"),
    )


@register_delay_model("jittered")
def _build_jittered(spec: ScenarioSpec, seed: int) -> DelayModel:
    return JitteredDelayModel(
        gst=spec.param("gst", 5.0),
        delta=spec.param("delta", 1.0),
        alpha=spec.param("alpha", 1.5),
        seed=seed,
    )


@register_delay_model("stalled", extension=True)
def _build_stalled(spec: ScenarioSpec, seed: int) -> DelayModel:
    """Favour the corrupted (last ``t``) indices until ``stall_until`` (= GST).

    The scheduling companion of the split-brain adversary: correct-to-correct
    traffic stalls while the Byzantine leader talks to everyone promptly.
    """
    correct = range(spec.n - spec.t)
    return HeldLinksDelayModel(
        held=[(x, y) for x in correct for y in correct],
        release=spec.param("stall_until", 120.0),
        delta=spec.param("delta", 1.0),
        seed=seed,
    )


# ----------------------------------------------------------------------
# Matrix composition
# ----------------------------------------------------------------------
def scenario_name(protocol: str, adversary: str, delay: str) -> str:
    return f"{protocol}+{adversary}+{delay}"


def make_scenario(
    protocol: str,
    adversary: str = "none",
    delay: str = "synchronous",
    n: int = 4,
    t: int = 1,
    property_key: str = "strong",
    name: Optional[str] = None,
    params: Optional[Dict[str, Any]] = None,
    time_limit: float = 10_000.0,
    max_events: int = 500_000,
) -> ScenarioSpec:
    """Build a validated :class:`ScenarioSpec` from registry keys."""
    for key, registry, label in (
        (protocol, PROTOCOLS, "protocol"),
        (adversary, ADVERSARIES, "adversary"),
        (delay, DELAY_MODELS, "delay model"),
    ):
        if key not in registry:
            raise KeyError(f"unknown {label} {key!r}; registered: {sorted(registry)}")
    return ScenarioSpec(
        name=name or scenario_name(protocol, adversary, delay),
        protocol=protocol,
        adversary=adversary,
        delay=delay,
        n=n,
        t=t,
        property_key=property_key,
        params=make_params(params),
        time_limit=time_limit,
        max_events=max_events,
    )


def scenario_matrix(
    protocols: Optional[Sequence[str]] = None,
    adversaries: Optional[Sequence[str]] = None,
    delays: Optional[Sequence[str]] = None,
    n: int = 4,
    t: int = 1,
    property_key: str = "strong",
) -> List[ScenarioSpec]:
    """The named cartesian matrix over the given keys.

    Defaults cover every registered non-extension key; extension adversaries
    and delay models (see :func:`register_adversary`) participate only when
    named explicitly, so the default matrix is stable across attack-surface
    additions.
    """
    specs = [
        make_scenario(protocol, adversary, delay, n=n, t=t, property_key=property_key)
        for protocol in (protocols if protocols is not None else sorted(PROTOCOLS))
        for adversary in (
            adversaries
            if adversaries is not None
            else sorted(set(ADVERSARIES) - EXTENSION_ADVERSARIES)
        )
        for delay in (
            delays if delays is not None else sorted(set(DELAY_MODELS) - EXTENSION_DELAY_MODELS)
        )
    ]
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError("scenario matrix contains duplicate names")
    return specs


LARGE_N_PRESETS: Tuple[Tuple[str, str, str, int, int], ...] = (
    # (protocol, adversary, delay, n, t) — larger-system presets appended to
    # the cartesian matrix, biased toward the newly opened adversarial region.
    ("binary", "silent", "synchronous", 7, 2),
    ("binary", "equivocation", "partition", 7, 2),
    ("binary", "dropping", "jittered", 10, 3),
    ("quad", "silent", "jittered", 7, 2),
    ("quad", "equivocation", "eventual", 7, 2),
    ("universal-authenticated", "silent", "eventual", 7, 2),
    ("universal-authenticated", "equivocation", "partition", 7, 2),
    ("universal-authenticated", "silent", "synchronous", 10, 3),
    ("universal-compact", "crash", "synchronous", 7, 2),
    ("universal-compact", "equivocation", "jittered", 7, 2),
    ("universal-non-authenticated", "silent", "synchronous", 7, 2),
    ("universal-non-authenticated", "equivocation", "eventual", 7, 2),
)


def large_n_presets() -> List[ScenarioSpec]:
    """Named larger-system scenarios (``<protocol>+<adversary>+<delay>@n<n>``)."""
    return [
        make_scenario(
            protocol,
            adversary,
            delay,
            n=n,
            t=t,
            name=f"{scenario_name(protocol, adversary, delay)}@n{n}",
        )
        for protocol, adversary, delay, n, t in LARGE_N_PRESETS
    ]


def default_matrix() -> List[ScenarioSpec]:
    """Every registered protocol × adversary × delay-model combination (n=4, t=1),
    plus the larger-system presets."""
    return scenario_matrix() + large_n_presets()


def find_scenarios(names: Sequence[str]) -> List[ScenarioSpec]:
    """Resolve scenario names against the default matrix."""
    by_name = {spec.name: spec for spec in default_matrix()}
    missing = [name for name in names if name not in by_name]
    if missing:
        raise KeyError(f"unknown scenarios {missing}; use --list to enumerate")
    return [by_name[name] for name in names]
