"""Tests for slow broadcast, vector dissemination and the Algorithm 6 backend."""

from repro.broadcast import SlowBroadcast
from repro.core import InputConfiguration, SystemConfig, UniversalSpec
from repro.consensus import (
    deserialise_vector,
    serialise_vector,
    universal_process_factory,
    VectorConsensusProof,
    VectorDissemination,
)
from repro.consensus.vector_authenticated import SignedProposal
from repro.sim import Process, Simulation, SynchronousDelayModel, silent_factory


class SlowProcess(Process):
    def __init__(self, pid, simulation, payload=None):
        super().__init__(pid, simulation)
        self.payload = payload
        self.delivered = []

    def on_start(self):
        self.slow = SlowBroadcast(self, on_deliver=lambda blob, sender: self.delivered.append((sender, blob)))
        if self.payload is not None:
            self.slow.broadcast_message(self.payload)


class DisseminatorProcess(Process):
    def __init__(self, pid, simulation, blob):
        super().__init__(pid, simulation)
        self.blob = blob
        self.acquired = None

    def on_start(self):
        self.disseminator = VectorDissemination(self, on_acquire=self._acquire)
        self.disseminator.disseminate(self.blob)

    def _acquire(self, blob_hash, signature):
        # Acquiring is this test process's decision, so the run can stop once all have.
        self.acquired = (blob_hash, signature)
        self.decide(self.acquired)


class TestSlowBroadcast:
    def test_everyone_eventually_delivers(self):
        system = SystemConfig(4, 1)
        sim = Simulation(system, delay_model=SynchronousDelayModel(seed=1))
        sim.populate(lambda pid, s: SlowProcess(pid, s, payload=f"blob-{pid}"))
        sim.run()
        for pid in sim.correct_processes:
            senders = {sender for sender, _ in sim.processes[pid].delivered}
            assert senders == set(range(4))

    def test_later_processes_are_slower(self):
        system = SystemConfig(4, 1)
        sim = Simulation(system, delay_model=SynchronousDelayModel(seed=1))
        sim.populate(lambda pid, s: SlowProcess(pid, s, payload=pid))
        process0 = sim.processes[0]
        process3 = sim.processes[3]
        sim.run()
        assert process0.slow.wait_between_sends == 0
        assert process3.slow.wait_between_sends > process0.slow.wait_between_sends


class TestVectorDissemination:
    def test_every_process_acquires_a_valid_pair(self):
        system = SystemConfig(4, 1)
        sim = Simulation(system, delay_model=SynchronousDelayModel(seed=2))
        sim.populate(lambda pid, s: DisseminatorProcess(pid, s, blob=b"common-vector"))
        sim.run_until_all_correct_decide()
        hashes = set()
        for pid in sim.correct_processes:
            process = sim.processes[pid]
            assert process.acquired is not None
            blob_hash, signature = process.acquired
            assert process.disseminator.scheme.verify(signature, ("vector", blob_hash))
            hashes.add(blob_hash)
        # Redundancy: the acquired hash corresponds to a cached vector somewhere.
        for pid in sim.correct_processes:
            process = sim.processes[pid]
            assert any(h in process.disseminator.cached_vectors for h in hashes)

    def test_acquire_with_silent_faulty_processes(self):
        system = SystemConfig(4, 1)
        sim = Simulation(system, delay_model=SynchronousDelayModel(seed=3))
        sim.populate(
            lambda pid, s: DisseminatorProcess(pid, s, blob=bytes([pid]) * 10),
            faulty=[3],
            faulty_factory=silent_factory,
        )
        sim.run_until_all_correct_decide()
        for pid in sim.correct_processes:
            assert sim.processes[pid].acquired is not None


class TestSerialisation:
    def test_vector_roundtrip(self):
        from repro.crypto import KeyAuthority

        authority = KeyAuthority(4)
        proposals = {
            pid: SignedProposal(pid, f"v{pid}", authority.sign(pid, ("proposal", f"v{pid}")))
            for pid in range(3)
        }
        vector = InputConfiguration.from_mapping({pid: f"v{pid}" for pid in range(3)})
        proof = VectorConsensusProof(proposals)
        blob = serialise_vector(vector, proof)
        recovered_vector, recovered_proof = deserialise_vector(blob)
        assert recovered_vector == vector
        assert recovered_proof == proof


class TestCompactBackendEndToEnd:
    def run(self, proposals, n=4, t=1, faulty=(), seed=2, key="strong"):
        system = SystemConfig(n, t)
        spec = UniversalSpec.for_standard_property(system, key)
        sim = Simulation(system, delay_model=SynchronousDelayModel(seed=seed))
        sim.populate(
            universal_process_factory(spec, proposals, backend="compact"),
            faulty=faulty,
            faulty_factory=silent_factory,
        )
        sim.run_until_all_correct_decide(until=20_000)
        return sim, spec

    def test_agreement_termination_validity(self):
        proposals = {0: 5, 1: 5, 2: 5, 3: 6}
        sim, spec = self.run(proposals)
        assert sim.all_correct_decided()
        assert sim.agreement_holds()
        assert set(sim.decisions().values()) == {5}

    def test_with_silent_byzantine(self):
        proposals = {0: 5, 1: 5, 2: 5, 3: 6}
        sim, _ = self.run(proposals, faulty=[3], seed=4)
        assert sim.all_correct_decided()
        assert set(sim.decisions().values()) == {5}

    def test_communication_is_cheaper_per_word_than_messages_suggest(self):
        # The compact backend should not ship full vectors in every Quad message:
        # its words/messages ratio stays bounded as n grows.
        proposals7 = {pid: pid % 2 for pid in range(7)}
        sim7, _ = self.run(proposals7, n=7, t=2, seed=5)
        assert sim7.all_correct_decided()
        ratio = sim7.metrics.communication_complexity / max(1, sim7.metrics.message_complexity)
        assert ratio < 25
