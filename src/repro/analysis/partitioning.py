"""The Theorem 1 experiment: with ``n <= 3t`` non-trivial consensus is impossible.

Lemma 2 of the paper constructs a split-brain execution: the processes are
split into a group ``A``, a group ``C`` and a Byzantine group ``B`` with
``|B| <= t``; the members of ``B`` behave towards ``A`` exactly as in an
execution where everyone proposes ``v_A``, and towards ``C`` as in an
execution where everyone proposes ``v_C``, while the scheduler delays all
``A``–``C`` communication until both sides have decided.  Since ``A`` (resp.
``C``) together with the double-dealing ``B`` reaches the ``n - t`` quorum,
both sides decide — on different values — violating Agreement.

This module implements that adversary against the library's own Universal
algorithm (run, deliberately, outside its resilience envelope at ``n = 3t``)
and reports whether the attack produced the predicted disagreement.  The same
driver run with ``n > 3t`` shows the attack failing, which is the boundary
Theorem 1 establishes.

Examples
--------

The attack targets the resilience boundary: ``n = 3t`` systems do not
tolerate Byzantine faults, which is why Lemma 2's split quorums overlap only
in the double-dealing group:

>>> from repro.core.system import SystemConfig
>>> system = SystemConfig.without_byzantine_resilience(2)
>>> (system.n, system.t, system.tolerates_byzantine_faults())
(6, 2, False)

An attack report summarises both sides' decisions and whether Agreement
broke (here, a hand-built record of the predicted outcome):

>>> report = PartitionAttackReport(
...     system=system, group_a=(0, 1), group_c=(2, 3), byzantine_group=(4, 5),
...     decisions_a={0: 0, 1: 0}, decisions_c={2: 1, 3: 1},
...     agreement_violated=True, all_correct_decided=True)
>>> report.summary()["agreement_violated"]
True
>>> report.summary()["group_a_decisions"], report.summary()["group_c_decisions"]
(['0'], ['1'])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Set, Tuple

from ..consensus.universal_protocol import UniversalProcess
from ..core.system import SystemConfig
from ..core.universal import UniversalSpec
from ..sim.events import Envelope, TimerExpiry
from ..sim.network import HeldLinksDelayModel
from ..sim.process import Process
from ..sim.simulation import Simulation

_WORLD_A = "world-A"
_WORLD_C = "world-C"


class _SplitBrainShim:
    """Simulation facade given to one personality of a split-brain process.

    Outgoing messages to the forbidden correct group are dropped; messages to
    other split-brain members (and to the process itself) are wrapped with
    the personality's world label so the receiver can route them to its
    matching personality.
    """

    def __init__(
        self,
        outer: "SplitBrainProcess",
        simulation: Simulation,
        world: str,
        allowed_correct: Set[int],
        byzantine_group: Set[int],
    ):
        self._outer = outer
        self._simulation = simulation
        self._world = world
        self._allowed_correct = set(allowed_correct)
        self._byzantine_group = set(byzantine_group)
        self.system = simulation.system
        self.authority = simulation.authority
        self.delay_model = simulation.delay_model

    @property
    def time(self) -> float:
        return self._simulation.time

    def is_correct(self, pid: int) -> bool:
        return self._simulation.is_correct(pid)

    def transmit(self, sender: int, receivers: Sequence[int], envelope: Envelope) -> None:
        # One simulator send per receiver, in receiver order: the receivers get
        # different envelopes, and grouping them would reorder the delay draws.
        for receiver in receivers:
            if receiver in self._byzantine_group or receiver == self._outer.pid:
                wrapped = Envelope((self._world,) + envelope.path, envelope.payload)
                self._simulation.transmit(self._outer.pid, (receiver,), wrapped)
            elif receiver in self._allowed_correct:
                self._simulation.transmit(self._outer.pid, (receiver,), envelope)

    def schedule_timer(self, pid: int, delay: float, path: Tuple[str, ...], tag: Any) -> None:
        self._simulation.schedule_timer(self._outer.pid, delay, (self._world,) + path, tag)

    def record_decision(self, pid: int, value: Any) -> None:
        self._outer.personality_decisions[self._world] = value


class SplitBrainProcess(Process):
    """The Lemma 2 adversary: one Byzantine process running two personalities.

    Personality ``A`` runs the honest protocol with proposal ``value_a`` and
    talks only to group ``A`` (and the Byzantine group); personality ``C``
    does the same with ``value_c`` towards group ``C``.  Both personalities
    sign with the process's real key — no signature is ever forged.
    """

    def __init__(
        self,
        pid: int,
        simulation: Simulation,
        spec: UniversalSpec,
        value_a: Any,
        value_c: Any,
        group_a: Set[int],
        group_c: Set[int],
        byzantine_group: Set[int],
    ):
        super().__init__(pid, simulation)
        self.personality_decisions: Dict[str, Any] = {}
        self._group_a = set(group_a)
        self._group_c = set(group_c)
        self._byzantine_group = set(byzantine_group)
        shim_a = _SplitBrainShim(self, simulation, _WORLD_A, self._group_a, self._byzantine_group)
        shim_c = _SplitBrainShim(self, simulation, _WORLD_C, self._group_c, self._byzantine_group)
        self._personality_a = UniversalProcess(pid, shim_a, spec=spec, proposal=value_a)
        self._personality_c = UniversalProcess(pid, shim_c, spec=spec, proposal=value_c)

    def on_start(self) -> None:
        self._personality_a.on_start()
        self._personality_c.on_start()

    def deliver_message(self, sender: int, envelope: Envelope) -> None:
        path = envelope.path
        if path and path[0] in (_WORLD_A, _WORLD_C):
            target = self._personality_a if path[0] == _WORLD_A else self._personality_c
            target.deliver_message(sender, Envelope(path[1:], envelope.payload))
            return
        if sender in self._group_a:
            self._personality_a.deliver_message(sender, envelope)
        elif sender in self._group_c:
            self._personality_c.deliver_message(sender, envelope)

    def deliver_timer(self, expiry: TimerExpiry) -> None:
        if expiry.path and expiry.path[0] in (_WORLD_A, _WORLD_C):
            target = self._personality_a if expiry.path[0] == _WORLD_A else self._personality_c
            target.deliver_timer(TimerExpiry(path=expiry.path[1:], tag=expiry.tag))


@dataclass
class PartitionAttackReport:
    """Outcome of one split-brain attack."""

    system: SystemConfig
    group_a: Tuple[int, ...]
    group_c: Tuple[int, ...]
    byzantine_group: Tuple[int, ...]
    decisions_a: Dict[int, Any]
    decisions_c: Dict[int, Any]
    agreement_violated: bool
    all_correct_decided: bool

    def summary(self) -> Dict[str, Any]:
        return {
            "n": self.system.n,
            "t": self.system.t,
            "group_a_decisions": sorted(set(map(str, self.decisions_a.values()))),
            "group_c_decisions": sorted(set(map(str, self.decisions_c.values()))),
            "agreement_violated": self.agreement_violated,
            "all_correct_decided": self.all_correct_decided,
        }


def run_partitioning_attack(
    t: int = 2,
    property_key: str = "strong",
    value_a: Any = 0,
    value_c: Any = 1,
    release_time: float = 400.0,
    seed: int = 1,
    system: Optional[SystemConfig] = None,
) -> PartitionAttackReport:
    """Run the Lemma 2 split-brain attack against Universal.

    By default the system has ``n = 3t`` (the regime where Theorem 1 says the
    attack must succeed for every algorithm and every non-trivial validity
    property).  Passing a ``system`` with ``n > 3t`` instead demonstrates the
    attack failing once the resilience bound is met.
    """
    if system is None:
        system = SystemConfig.without_byzantine_resilience(t)
    spec = UniversalSpec.for_standard_property(system, property_key)

    byzantine = set(range(system.n - system.t, system.n))
    correct = [pid for pid in range(system.n) if pid not in byzantine]
    half = len(correct) // 2
    group_a = set(correct[:half])
    group_c = set(correct[half:])

    delay_model = HeldLinksDelayModel(
        held=[link for a in group_a for c in group_c for link in ((a, c), (c, a))],
        release=release_time,
        delta=1.0,
        seed=seed,
    )
    simulation = Simulation(system, delay_model=delay_model)
    for pid in sorted(group_a):
        simulation.add_process(
            UniversalProcess(pid, simulation, spec=spec, proposal=value_a), correct=True
        )
    for pid in sorted(group_c):
        simulation.add_process(
            UniversalProcess(pid, simulation, spec=spec, proposal=value_c), correct=True
        )
    for pid in sorted(byzantine):
        simulation.add_process(
            SplitBrainProcess(
                pid,
                simulation,
                spec=spec,
                value_a=value_a,
                value_c=value_c,
                group_a=group_a,
                group_c=group_c,
                byzantine_group=byzantine,
            ),
            correct=False,
        )
    simulation.run_until_all_correct_decide(until=release_time + 200.0)

    decisions = simulation.decisions()
    decisions_a = {pid: value for pid, value in decisions.items() if pid in group_a}
    decisions_c = {pid: value for pid, value in decisions.items() if pid in group_c}
    return PartitionAttackReport(
        system=system,
        group_a=tuple(sorted(group_a)),
        group_c=tuple(sorted(group_c)),
        byzantine_group=tuple(sorted(byzantine)),
        decisions_a=decisions_a,
        decisions_c=decisions_c,
        agreement_violated=not simulation.agreement_holds(),
        all_correct_decided=simulation.all_correct_decided(),
    )
