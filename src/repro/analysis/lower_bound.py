"""The Theorem 4 experiment: non-trivial consensus needs Omega(t^2) messages.

The paper's lower bound (Lemmas 5-7) shows that any algorithm solving
consensus with a non-trivial validity property must have executions with
more than ``(t/2)^2`` messages: otherwise, by a pigeonhole argument, some
process ``Q`` can decide *without receiving any message*, and merging that
local behaviour with an execution in which ``Q`` is silent and a different
value is decided violates Agreement.

The experiment makes the bound tangible by:

* running a deliberately cheap strawman protocol (a single leader broadcast,
  ``O(n)`` messages, with a local timeout fallback — the fallback is exactly
  a "decide without receiving messages" behaviour) and showing that the
  Dolev-Reischuk-style adversary (isolate the victim until after its
  timeout) makes two correct processes decide differently;
* running Universal under the *same* adversarial scheduling and showing that
  it never violates Agreement — it simply pays the quadratic number of
  messages the bound demands;
* reporting the ``(ceil(t/2))^2`` threshold next to the measured message
  complexity of Universal, which always exceeds it.

Examples
--------

The Theorem 4 threshold grows quadratically in the fault budget:

>>> from repro.core.system import SystemConfig
>>> dolev_reischuk_threshold(SystemConfig(4, 1))
1
>>> dolev_reischuk_threshold(SystemConfig(10, 3))
4
>>> dolev_reischuk_threshold(SystemConfig(16, 5))
9
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..consensus.universal_protocol import universal_process_factory
from ..core.system import SystemConfig
from ..core.universal import UniversalSpec
from ..sim.network import DelayModel
from ..sim.process import Process, ProtocolModule
from ..sim.simulation import Simulation


def dolev_reischuk_threshold(system: SystemConfig) -> int:
    """The ``(ceil(t/2))^2`` message threshold below which the attack of Theorem 4 applies."""
    half = math.ceil(system.t / 2)
    return half * half


class CheapLeaderConsensus(ProtocolModule):
    """A strawman sub-quadratic consensus: one leader broadcast plus a timeout fallback.

    The leader broadcasts its proposal (``n`` messages in total); every
    process decides the leader's value on receipt, or falls back to deciding
    its *own* proposal when its timer fires first.  The protocol terminates,
    and under friendly scheduling satisfies Weak Validity — but the fallback
    is precisely a correct local behaviour that decides without having
    received any message, which is what the Theorem 4 adversary exploits.
    """

    LEADER = 0

    def __init__(self, process: Process, proposal: Any, timeout: float, on_decide, name: str = "cheap"):
        super().__init__(process, name)
        self.proposal = proposal
        self.timeout = timeout
        self._on_decide = on_decide
        self._decided = False

    def start(self) -> None:
        if self.pid == self.LEADER:
            self.broadcast(("lead", self.proposal))
        self.set_timer(self.timeout, "fallback")

    MESSAGES = {"lead": ("_on_lead", (object,))}

    def _on_lead(self, sender: int, value: Any) -> None:
        if sender == self.LEADER:
            self._decide(value)

    def on_timer(self, tag: Any) -> None:
        if tag == "fallback":
            self._decide(self.proposal)

    def _decide(self, value: Any) -> None:
        if not self._decided:
            self._decided = True
            self._on_decide(value)


class CheapLeaderProcess(Process):
    def __init__(self, pid: int, simulation: Simulation, proposal: Any, timeout: float = 10.0):
        super().__init__(pid, simulation)
        self.proposal = proposal
        self.timeout = timeout

    def on_start(self) -> None:
        self.protocol = CheapLeaderConsensus(self, self.proposal, self.timeout, on_decide=self.decide)
        self.protocol.start()


class _IsolationDelayModel(DelayModel):
    """Theorem 4's isolation adversary: the default draws, but the victim is cut off until GST.

    Every message to or from ``victim`` sent before GST arrives at
    ``gst + 0.5``, long after the victim's timeout has fired; with the
    release at GST the schedule stays inside partial synchrony.
    """

    def __init__(self, victim: int, gst: float, seed: int):
        super().__init__(gst=gst, delta=1.0, seed=seed)
        self.victim = victim

    def _candidate_delays(self, sender: int, receivers: Sequence[int], send_time: float) -> List[float]:
        times = super()._candidate_delays(sender, receivers, send_time)
        if send_time >= self.gst:
            return times
        late, victim = self.gst + 0.5, self.victim
        return [late if victim in (sender, receiver) else time for receiver, time in zip(receivers, times)]


@dataclass
class LowerBoundReport:
    """Outcome of the Theorem 4 experiment on one system size."""

    system: SystemConfig
    threshold: int
    cheap_messages: int
    cheap_agreement_violated: bool
    cheap_decisions: Dict[int, Any]
    universal_messages: int
    universal_agreement_violated: bool
    universal_exceeds_threshold: bool

    def summary(self) -> Dict[str, Any]:
        return {
            "n": self.system.n,
            "t": self.system.t,
            "threshold_(t/2)^2": self.threshold,
            "cheap_protocol_messages": self.cheap_messages,
            "cheap_protocol_disagrees": self.cheap_agreement_violated,
            "universal_messages": self.universal_messages,
            "universal_disagrees": self.universal_agreement_violated,
            "universal_above_threshold": self.universal_exceeds_threshold,
        }


def run_lower_bound_experiment(
    n: int = 10,
    property_key: str = "strong",
    victim: Optional[int] = None,
    timeout: float = 10.0,
    seed: int = 1,
) -> LowerBoundReport:
    """Run the isolation adversary against the cheap protocol and against Universal."""
    system = SystemConfig.with_optimal_resilience(n)
    chosen_victim = victim if victim is not None else system.n - 1
    if chosen_victim == CheapLeaderConsensus.LEADER:
        raise ValueError("the victim must differ from the leader of the strawman protocol")
    release_time = timeout * 4
    proposals = {pid: ("L" if pid == CheapLeaderConsensus.LEADER else f"own-{pid}") for pid in range(system.n)}

    # --- Strawman protocol under the isolation adversary -----------------
    cheap_sim = Simulation(system, delay_model=_IsolationDelayModel(chosen_victim, release_time, seed))
    cheap_sim.populate(lambda pid, s: CheapLeaderProcess(pid, s, proposals[pid], timeout=timeout))
    cheap_sim.run_until_all_correct_decide(until=release_time * 3)

    # --- Universal under the same adversarial scheduling -----------------
    spec = UniversalSpec.for_standard_property(system, property_key)
    universal_sim = Simulation(system, delay_model=_IsolationDelayModel(chosen_victim, release_time, seed))
    universal_sim.populate(universal_process_factory(spec, {pid: proposals[pid] for pid in range(system.n)}))
    universal_sim.run_until_all_correct_decide(until=release_time * 30)

    threshold = dolev_reischuk_threshold(system)
    return LowerBoundReport(
        system=system,
        threshold=threshold,
        cheap_messages=cheap_sim.metrics.total_messages,
        cheap_agreement_violated=not cheap_sim.agreement_holds(),
        cheap_decisions=cheap_sim.decisions(),
        universal_messages=universal_sim.metrics.total_messages,
        universal_agreement_violated=not universal_sim.agreement_holds(),
        universal_exceeds_threshold=universal_sim.metrics.total_messages > threshold,
    )

