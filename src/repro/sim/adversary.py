"""Byzantine behaviours and fault-injection helpers.

The paper's model allows up to ``t`` processes to behave arbitrarily.  This
module collects the behaviours used by the tests and experiments:

* :class:`SilentProcess` — crashed from the very beginning (takes no step);
  this is the behaviour of faulty processes in the paper's *canonical*
  executions.
* :class:`CrashProcess` — behaves correctly until a configurable time, then
  stops (crash failure).
* :class:`EquivocatingProposer` — sends different (properly signed by itself)
  proposals to different processes in the vector-consensus proposal phase,
  the textbook equivocation attack against the dissemination layer.
* :class:`MessageDroppingProcess` — wraps a correct implementation but drops
  a configurable fraction of its outgoing messages (used for robustness and
  failure-injection tests).
* :class:`QuadSplitBrainLeader` — a colluding Byzantine leader for the Quad
  protocol that drives two disjoint halves of the correct processes to
  conflicting decisions; it succeeds exactly when ``n <= 3t`` (two
  ``n - t`` quorums need not intersect in a correct process), which is the
  resilience bound of the paper's Theorem 1 made executable.

The individual-fault behaviours only ever use their own signing key, so the
simulated PKI's unforgeability assumption is never violated.  The split-brain
leader additionally produces threshold shares for its *fellow corrupted*
processes: in the paper's model all ``t`` corruptions are controlled by a
single adversary entity that knows every corrupted key, so colluding shares
are model-faithful — no correct process's key is ever used.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional, Sequence

from .events import Envelope
from .process import Process
from .simulation import Simulation


class SilentProcess(Process):
    """A faulty process that never takes any computational step (the inherited hooks do nothing)."""

    listens = False


class CrashProcess(Process):
    """Behaves like a wrapped correct process until ``crash_time``, then goes silent."""

    def __init__(self, pid: int, simulation: Simulation, inner_factory: Callable[[int, Simulation], Process], crash_time: float):
        super().__init__(pid, simulation)
        self.crash_time = crash_time
        self._crashed = False
        self._inner = inner_factory(pid, _ForwardingShim(self, simulation))

    def on_start(self) -> None:
        if self.now >= self.crash_time:
            self._crashed = True
            return
        self._inner.on_start()

    def deliver_message(self, sender: int, envelope: Envelope) -> None:
        if self._check_crashed():
            return
        self._inner.deliver_message(sender, envelope)

    def deliver_timer(self, expiry) -> None:
        if self._check_crashed():
            return
        self._inner.deliver_timer(expiry)

    def _check_crashed(self) -> bool:
        if not self._crashed and self.now >= self.crash_time:
            self._crashed = True
        return self._crashed


class _ForwardingShim:
    """Presents a :class:`Simulation`-like facade to a wrapped inner process.

    Outgoing traffic from the inner process is attributed to the outer
    (faulty) process and suppressed once it has crashed.
    """

    def __init__(self, outer: Process, simulation: Simulation):
        self._outer = outer
        self._simulation = simulation
        self.system = simulation.system
        self.authority = simulation.authority
        self.delay_model = simulation.delay_model

    @property
    def time(self) -> float:
        return self._simulation.time

    def is_correct(self, pid: int) -> bool:
        return self._simulation.is_correct(pid)

    def transmit(self, sender: int, receivers: Sequence[int], envelope: Envelope) -> None:
        if isinstance(self._outer, CrashProcess) and self._outer._check_crashed():
            return
        self._simulation.transmit(self._outer.pid, receivers, envelope)

    def schedule_timer(self, pid: int, delay: float, path, tag) -> None:
        self._simulation.schedule_timer(self._outer.pid, delay, path, tag)

    def record_decision(self, pid: int, value: Any) -> None:
        # Decisions of faulty processes are not part of the correctness metrics.
        pass


class MessageDroppingProcess(Process):
    """Wraps a correct implementation but silently drops some outgoing messages."""

    def __init__(
        self,
        pid: int,
        simulation: Simulation,
        inner_factory: Callable[[int, Simulation], Process],
        drop_probability: float = 0.5,
        seed: int = 0,
    ):
        super().__init__(pid, simulation)
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        self.drop_probability = drop_probability
        self._rng = random.Random(seed * 1_000_003 + pid)
        shim = _DroppingShim(self, simulation, self.drop_probability, self._rng)
        self._inner = inner_factory(pid, shim)

    def on_start(self) -> None:
        self._inner.on_start()

    def deliver_message(self, sender: int, envelope: Envelope) -> None:
        self._inner.deliver_message(sender, envelope)

    def deliver_timer(self, expiry) -> None:
        self._inner.deliver_timer(expiry)


class _DroppingShim(_ForwardingShim):
    def __init__(self, outer: Process, simulation: Simulation, drop_probability: float, rng: random.Random):
        super().__init__(outer, simulation)
        self._drop_probability = drop_probability
        self._rng = rng

    def transmit(self, sender: int, receivers: Sequence[int], envelope: Envelope) -> None:
        # One drop draw per receiver, in receiver order; the kept ones travel as one send.
        random, drop_probability = self._rng.random, self._drop_probability
        kept = [receiver for receiver in receivers if random() >= drop_probability]
        if kept:
            self._simulation.transmit(self._outer.pid, kept, envelope)


class EquivocatingProposer(Process):
    """Byzantine proposer that equivocates in the proposal/dissemination phase.

    It sends a different, properly self-signed proposal to every other
    process under a configurable module path (by default the proposal phase
    of the authenticated vector consensus).  It then stays silent, which
    stresses the protocol's handling of inconsistent Byzantine input without
    ever forging another process's signature.
    """

    listens = False

    def __init__(
        self,
        pid: int,
        simulation: Simulation,
        target_path: tuple,
        value_for_receiver: Optional[Callable[[int], Any]] = None,
        message_builder: Optional[Callable[["EquivocatingProposer", int, Any], Any]] = None,
    ):
        super().__init__(pid, simulation)
        self.target_path = tuple(target_path)
        self.value_for_receiver = value_for_receiver or (lambda receiver: ("equivocation", receiver))
        self.message_builder = message_builder

    def on_start(self) -> None:
        for receiver in range(self.n):
            value = self.value_for_receiver(receiver)
            if self.message_builder is not None:
                payload = self.message_builder(self, receiver, value)
            else:
                payload = value
            self.send_raw(receiver, Envelope(self.target_path, payload))


class QuadSplitBrainLeader(Process):
    """Colluding Byzantine leader that splits Quad into two decision brains.

    The attack (executable form of the paper's ``n > 3t`` necessity
    argument): the first corrupted process leads view ``n - t + 1`` under
    Quad's round-robin assignment.  Correct replicas advance views on
    synchronized local timers, so they all sit in that view during a known
    window.  Under the ``stalled`` schedule — a
    :class:`~repro.sim.network.HeldLinksDelayModel` that holds the links among
    the correct processes while the corrupted ones talk promptly — the leader

    1. sends *conflicting* ``PROPOSE`` messages to two disjoint halves of the
       correct processes (each value carries a proof the protocol's
       ``verify`` accepts);
    2. collects each half's ``PREPARE_VOTE`` threshold shares promptly
       (replica-to-leader traffic is favoured);
    3. tops each half's votes up with shares minted for its *fellow
       corrupted* processes — the single adversary entity controls all ``t``
       corrupted keys, so this never touches a correct process's key — and
       combines two valid :class:`~repro.consensus.quad.PrepareCertificate`
       objects;
    4. repeats the same trick for the commit phase and sends each half its
       own valid ``DECIDE`` certificate.

    Each half needs ``quorum - t = n - 2t`` correct votes, so with the
    correct processes split ``floor((n-t)/2)`` / the rest the attack closes
    both certificates iff ``n <= 3t``; at ``n > 3t`` one half falls short,
    agreement survives, and the run degrades to a liveness hiccup that heals
    at GST.  Decisions are sticky (first one wins), so the split persists
    when the stall lifts and the halves' decision relays finally cross.

    Only the first corrupted index runs the attack; the remaining corrupted
    processes stay silent (their keys are what the leader mints shares for).
    """

    def __init__(
        self,
        pid: int,
        simulation: Simulation,
        values: tuple = ("splitA", "splitB"),
        proof_for: Optional[Callable[[Any], Any]] = None,
        view_duration: float = 8.0,
        attack_offset: float = 0.2,
    ):
        super().__init__(pid, simulation)
        from ..crypto.threshold import ThresholdScheme

        system = simulation.system
        delta = simulation.delay_model.delta
        self.colluders = tuple(range(system.n - system.t, system.n))
        self.attack_view = system.n - system.t + 1
        self.view_duration = view_duration * delta
        self.attack_offset = attack_offset * delta
        self.values = tuple(values)
        # Quad's external validity predicate is scenario-defined; the attack
        # needs proofs that predicate accepts, so the proof builder is a knob.
        self.proof_for = proof_for if proof_for is not None else (lambda value: ("ok", value))
        self._scheme = ThresholdScheme(simulation.authority, threshold=system.quorum)
        self._sides: Dict[str, tuple] = {}  # value digest -> (value, half members)
        self._prepare_votes: Dict[str, Dict[int, Any]] = {}
        self._commit_votes: Dict[str, Dict[int, Any]] = {}
        self._precommitted: set = set()
        self._decided: set = set()

    def on_start(self) -> None:
        if self.pid != self.colluders[0]:
            return  # fellow corrupted processes take no step of their own
        from ..crypto.hashing import digest

        correct = sorted(set(range(self.n)) - set(self.colluders))
        half = len(correct) // 2
        if half == 0:
            return  # no two non-empty halves to split
        value_a, value_b = self.values[0], self.values[1]
        self._sides = {
            digest(value_a): (value_a, tuple(correct[:half])),
            digest(value_b): (value_b, tuple(correct[half:])),
        }
        # Fire just after every correct replica has entered the attack view.
        at = (self.attack_view - 1) * self.view_duration + self.attack_offset
        self.set_timer_raw(max(at - self.now, 0.0), (), "splitbrain")

    def on_timer(self, tag: Any) -> None:
        if tag != "splitbrain":
            return
        view = self.attack_view
        for value, members in self._sides.values():
            payload = ("propose", view, value, self.proof_for(value), None)
            for receiver in members:
                self.send_raw(receiver, Envelope(("quad",), payload))

    def deliver_message(self, sender: int, envelope: Envelope) -> None:
        payload = envelope.payload
        if not isinstance(payload, tuple) or len(payload) != 4:
            return
        kind, view, value_digest, share = payload
        if view != self.attack_view or value_digest not in self._sides:
            return
        if kind == "prepare_vote":
            self._collect(sender, value_digest, share, phase="prepare")
        elif kind == "commit_vote":
            self._collect(sender, value_digest, share, phase="commit")

    def _collect(self, sender: int, value_digest: str, share: Any, phase: str) -> None:
        from ..consensus.quad import PrepareCertificate

        votes = (self._prepare_votes if phase == "prepare" else self._commit_votes).setdefault(
            value_digest, {}
        )
        votes[sender] = share
        closed = self._precommitted if phase == "prepare" else self._decided
        needed_correct = max(self.system.quorum - len(self.colluders), 1)
        if len(votes) < needed_correct or value_digest in closed:
            return
        closed.add(value_digest)
        view = self.attack_view
        message = (phase, view, value_digest)
        shares = list(votes.values()) + [
            self._scheme.partial_sign(colluder, message) for colluder in self.colluders
        ]
        signature = self._scheme.combine(shares, message)
        value, members = self._sides[value_digest]
        proof = self.proof_for(value)
        if phase == "prepare":
            certificate = PrepareCertificate(view=view, value_digest=value_digest, signature=signature)
            payload = ("precommit", view, value, proof, certificate)
        else:
            payload = ("decide", view, value, proof, signature)
        for receiver in members:
            self.send_raw(receiver, Envelope(("quad",), payload))


def silent_factory(pid: int, simulation: Simulation) -> Process:
    """Factory for silent faulty processes (canonical-execution adversary)."""
    return SilentProcess(pid, simulation)


def crash_factory(
    inner_factory: Callable[[int, Simulation], Process], crash_time: float
) -> Callable[[int, Simulation], Process]:
    """Factory building processes that crash at ``crash_time``."""

    def build(pid: int, simulation: Simulation) -> Process:
        return CrashProcess(pid, simulation, inner_factory, crash_time)

    return build


def dropping_factory(
    inner_factory: Callable[[int, Simulation], Process], drop_probability: float, seed: int = 0
) -> Callable[[int, Simulation], Process]:
    """Factory building processes that drop a fraction of their outgoing messages."""

    def build(pid: int, simulation: Simulation) -> Process:
        return MessageDroppingProcess(pid, simulation, inner_factory, drop_probability, seed)

    return build


def equivocating_factory(
    target_path: tuple,
    value_for_receiver: Callable[[int, int], Any],
    message_builder: Optional[Callable[[EquivocatingProposer, int, Any], Any]] = None,
) -> Callable[[int, Simulation], Process]:
    """Factory building equivocating proposers for :meth:`Simulation.populate`.

    Unlike :class:`EquivocatingProposer`'s own ``value_for_receiver`` (which
    sees only the receiver), the callable here receives ``(pid, receiver)``
    so that several Byzantine proposers built from one factory equivocate
    with distinct value families.
    """

    def build(pid: int, simulation: Simulation) -> Process:
        return EquivocatingProposer(
            pid,
            simulation,
            target_path=target_path,
            value_for_receiver=lambda receiver: value_for_receiver(pid, receiver),
            message_builder=message_builder,
        )

    return build
