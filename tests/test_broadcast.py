"""Tests for the broadcast substrates (best-effort and Bracha reliable broadcast)."""

import pytest

from repro.core import SystemConfig
from repro.broadcast import BestEffortBroadcast, ByzantineReliableBroadcast
from repro.sim import Envelope, Process, Simulation, SynchronousDelayModel, silent_factory


class BebProcess(Process):
    def __init__(self, pid, simulation, message=None):
        super().__init__(pid, simulation)
        self.message = message
        self.delivered = []

    def on_start(self):
        self.beb = BestEffortBroadcast(self, on_deliver=lambda s, m: self.delivered.append((s, m)))
        if self.message is not None:
            self.beb.broadcast_message(self.message)


class BrbProcess(Process):
    def __init__(self, pid, simulation, message=None):
        super().__init__(pid, simulation)
        self.message = message
        self.delivered = {}

    def on_start(self):
        self.brb = ByzantineReliableBroadcast(self, on_deliver=self._deliver)
        if self.message is not None:
            self.brb.broadcast_message(self.message)

    def _deliver(self, origin, message):
        assert origin not in self.delivered, "integrity: at most one delivery per origin"
        self.delivered[origin] = message


def run_simulation(factory, n=4, t=1, faulty=(), faulty_factory=None, seed=1):
    system = SystemConfig(n, t)
    sim = Simulation(system, delay_model=SynchronousDelayModel(seed=seed))
    sim.populate(factory, faulty=faulty, faulty_factory=faulty_factory)
    sim.run()
    return sim


class TestBestEffortBroadcast:
    def test_all_correct_deliver_from_correct_senders(self):
        sim = run_simulation(lambda pid, s: BebProcess(pid, s, message=f"m{pid}"))
        for pid in sim.correct_processes:
            delivered = dict(sim.processes[pid].delivered)
            assert delivered == {p: f"m{p}" for p in range(4)}

    def test_point_to_point_send(self):
        class OneToOne(BebProcess):
            def on_start(self):
                super().on_start()
                if self.pid == 0:
                    self.beb.send(2, "direct")

        sim = run_simulation(lambda pid, s: OneToOne(pid, s))
        assert (0, "direct") in sim.processes[2].delivered
        assert (0, "direct") not in sim.processes[1].delivered

    def test_callback_given_at_construction_sees_every_delivery(self):
        class CallbackProcess(Process):
            def on_start(self):
                self.got = []
                self.beb = BestEffortBroadcast(self, on_deliver=lambda s, m: self.got.append(m))
                self.beb.broadcast_message("x")

        sim = run_simulation(lambda pid, s: CallbackProcess(pid, s))
        assert sim.processes[0].got == ["x"] * 4 or len(sim.processes[0].got) == 4


class TestByzantineReliableBroadcast:
    def test_validity_and_totality_all_correct(self):
        sim = run_simulation(lambda pid, s: BrbProcess(pid, s, message=("payload", pid)))
        for pid in sim.correct_processes:
            assert sim.processes[pid].delivered == {p: ("payload", p) for p in range(4)}

    def test_silent_byzantine_origin_is_simply_not_delivered(self):
        sim = run_simulation(
            lambda pid, s: BrbProcess(pid, s, message=("payload", pid)),
            faulty=[3],
            faulty_factory=silent_factory,
        )
        for pid in sim.correct_processes:
            delivered = sim.processes[pid].delivered
            assert set(delivered) == {0, 1, 2}

    def test_consistency_under_equivocating_sender(self):
        class EquivocatingBrbSender(Process):
            """Sends conflicting SEND messages to different processes."""

            def on_start(self):
                path = ("brb",)
                for receiver in range(self.n):
                    value = "left" if receiver < self.n // 2 else "right"
                    self.send_raw(receiver, Envelope(path, ("send", value)))

        sim = run_simulation(
            lambda pid, s: BrbProcess(pid, s, message=("payload", pid)),
            faulty=[0],
            faulty_factory=lambda pid, s: EquivocatingBrbSender(pid, s),
        )
        deliveries = [
            sim.processes[pid].delivered.get(0)
            for pid in sim.correct_processes
            if 0 in sim.processes[pid].delivered
        ]
        # Consistency: whatever subset delivered a message from the equivocator,
        # they all delivered the same one.
        assert len(set(deliveries)) <= 1

    def test_an_origin_that_is_not_a_process_index_is_ignored(self):
        class MalformedOriginSender(Process):
            """ECHO and READY whose origin field is unhashable."""

            def on_start(self):
                for receiver in range(self.n):
                    self.send_raw(receiver, Envelope(("brb",), ("echo", [1], "x")))
                    self.send_raw(receiver, Envelope(("brb",), ("ready", {1: 2}, "x")))

        sim = run_simulation(
            lambda pid, s: BrbProcess(pid, s, message=("payload", pid)),
            faulty=[3],
            faulty_factory=MalformedOriginSender,
        )
        # Every correct process keeps running and delivers the same message per origin.
        for pid in sim.correct_processes:
            assert sim.processes[pid].delivered == {p: ("payload", p) for p in range(3)}

    def test_larger_system(self):
        sim = run_simulation(lambda pid, s: BrbProcess(pid, s, message=pid), n=7, t=2, faulty=[5, 6], faulty_factory=silent_factory)
        for pid in sim.correct_processes:
            assert set(sim.processes[pid].delivered) == {0, 1, 2, 3, 4}

    def test_message_complexity_is_quadratic_per_origin(self):
        sim = run_simulation(lambda pid, s: BrbProcess(pid, s, message=pid))
        # n origins, each costing at most (send + echo + ready) * n^2 messages.
        n = 4
        assert sim.metrics.message_complexity <= 3 * n**3
        assert sim.metrics.message_complexity >= n * n  # at least the send phase
