"""Integration tests for the consensus stack: Quad, binary consensus, vector consensus, Universal."""

import pytest

from repro.core import InputConfiguration, SystemConfig, UniversalSpec, VectorValidity
from repro.consensus import (
    BinaryConsensus,
    Quad,
    UniversalProcess,
    universal_process_factory,
)
from repro.experiments import execute_run, make_scenario
from repro.experiments.scenario import DELAY_MODELS
from repro.sim import (
    DelayModel,
    Envelope,
    HeldLinksDelayModel,
    Process,
    Simulation,
    SynchronousDelayModel,
    crash_factory,
    silent_factory,
)


# ----------------------------------------------------------------------
# Binary consensus
# ----------------------------------------------------------------------
class BinaryProcess(Process):
    def __init__(self, pid, simulation, proposal):
        super().__init__(pid, simulation)
        self.proposal = proposal

    def on_start(self):
        self.consensus = BinaryConsensus(self, on_decide=self.decide)
        self.consensus.propose(self.proposal)


def run_binary(proposals, n=4, t=1, faulty=(), seed=1, gst=0.0):
    system = SystemConfig(n, t)
    delay = DelayModel(gst=gst, delta=1.0, seed=seed) if gst else SynchronousDelayModel(seed=seed)
    sim = Simulation(system, delay_model=delay)
    sim.populate(
        lambda pid, s: BinaryProcess(pid, s, proposals[pid]), faulty=faulty, faulty_factory=silent_factory
    )
    sim.run_until_all_correct_decide(until=5_000)
    return sim


class TestBinaryConsensus:
    def test_unanimous_zero(self):
        sim = run_binary({0: 0, 1: 0, 2: 0, 3: 0})
        assert set(sim.decisions().values()) == {0}

    def test_unanimous_one(self):
        sim = run_binary({0: 1, 1: 1, 2: 1, 3: 1})
        assert set(sim.decisions().values()) == {1}

    def test_mixed_proposals_agreement(self):
        sim = run_binary({0: 0, 1: 1, 2: 0, 3: 1})
        assert sim.all_correct_decided()
        assert sim.agreement_holds()
        assert set(sim.decisions().values()) <= {0, 1}

    def test_with_silent_faulty_process(self):
        sim = run_binary({0: 1, 1: 1, 2: 1, 3: 1}, faulty=[3])
        assert set(sim.decisions().values()) == {1}
        assert sim.all_correct_decided()

    def test_strong_binary_validity_with_faulty(self):
        # All correct propose 0; the faulty process cannot force a decision of 1.
        sim = run_binary({0: 0, 1: 0, 2: 0, 3: 1}, faulty=[3])
        assert set(sim.decisions().values()) == {0}

    def test_larger_system_with_faults(self):
        proposals = {pid: pid % 2 for pid in range(7)}
        sim = run_binary(proposals, n=7, t=2, faulty=[5, 6])
        assert sim.all_correct_decided()
        assert sim.agreement_holds()

    def test_rejects_non_binary_proposal(self):
        system = SystemConfig(4, 1)
        sim = Simulation(system)
        process = BinaryProcess(0, sim, proposal=2)
        sim.add_process(process)
        with pytest.raises(ValueError):
            process.on_start()

    def test_proposing_twice_is_an_error(self):
        system = SystemConfig(4, 1)
        sim = Simulation(system)
        process = BinaryProcess(0, sim, proposal=1)
        sim.add_process(process)
        process.on_start()
        with pytest.raises(RuntimeError):
            process.consensus.propose(0)


# ----------------------------------------------------------------------
# Quad
# ----------------------------------------------------------------------
class QuadProcess(Process):
    """Runs Quad directly with a trivially verifiable proof scheme."""

    def __init__(self, pid, simulation, value):
        super().__init__(pid, simulation)
        self.value = value

    def on_start(self):
        self.quad = Quad(self, verify=lambda value, proof: proof == ("ok", value), on_decide=self.decide)
        self.quad.propose((self.value, ("ok", self.value)))


def run_quad(values, n=4, t=1, faulty=(), seed=1, gst=0.0):
    system = SystemConfig(n, t)
    delay = DelayModel(gst=gst, delta=1.0, seed=seed) if gst else SynchronousDelayModel(seed=seed)
    sim = Simulation(system, delay_model=delay)
    sim.populate(
        lambda pid, s: QuadProcess(pid, s, values[pid]), faulty=faulty, faulty_factory=silent_factory
    )
    sim.run_until_all_correct_decide(until=5_000)
    return sim


class TestQuad:
    def test_agreement_and_termination_all_correct(self):
        sim = run_quad({0: "a", 1: "b", 2: "c", 3: "d"})
        assert sim.all_correct_decided()
        assert sim.agreement_holds()

    def test_decided_pair_satisfies_verify(self):
        sim = run_quad({0: "a", 1: "b", 2: "c", 3: "d"})
        value, proof = next(iter(sim.decisions().values()))
        assert proof == ("ok", value)

    def test_silent_leader_triggers_view_change(self):
        # Process 0 leads view 1; making it silent forces a view change and a
        # decision under the next leader.
        sim = run_quad({0: "a", 1: "b", 2: "c", 3: "d"}, faulty=[0])
        assert sim.all_correct_decided()
        assert sim.agreement_holds()
        decided_value, _ = next(iter(sim.decisions().values()))
        assert decided_value in {"b", "c", "d"}

    def test_quadratic_message_complexity_shape(self):
        small = run_quad({pid: pid for pid in range(4)}, n=4, t=1)
        large = run_quad({pid: pid for pid in range(10)}, n=10, t=3)
        ratio = large.metrics.message_complexity / max(1, small.metrics.message_complexity)
        # n grows by 2.5x, so a quadratic protocol grows by ~6.25x; allow a wide
        # band but rule out cubic blow-ups.
        assert ratio < 2.5**3

    def test_correct_process_must_propose_verifiable_pair(self):
        system = SystemConfig(4, 1)
        sim = Simulation(system)
        process = QuadProcess(0, sim, "x")
        sim.add_process(process)
        process.quad = Quad(process, verify=lambda v, p: False, on_decide=process.decide)
        with pytest.raises(ValueError):
            process.quad.propose(("x", "bad proof"))

    def test_gst_after_start(self):
        sim = run_quad({0: "a", 1: "b", 2: "c", 3: "d"}, gst=15.0, seed=3)
        assert sim.all_correct_decided()
        assert sim.agreement_holds()


# What a Byzantine sender may put on Quad's path: not a tuple, empty, an
# unknown or unhashable kind, a known kind at the wrong arity, a view that is
# not a number, and the right shape around junk fields.
MALFORMED_QUAD_PAYLOADS = [
    7,
    {1: 2},
    None,
    "decide",
    b"decide",
    [],
    ["decide", 1, "v", ("ok", "v"), None],
    (),
    (None,),
    (["decide"], 1, "v", ("ok", "v"), None),
    ("gossip", 1, 2),
    ("new_view",),
    ("new_view", 1),
    ("propose", 1),
    ("prepare_vote", 1, "digest"),
    ("precommit", 1, "v", ("ok", "v"), None, None),
    ("commit_vote", 1),
    ("decide", 1, 2),
    ("new_view", "x", None),
    ("propose", None, "v", ("ok", "v"), None),
    ("decide", (1,), "v", ("ok", "v"), None),
    ("new_view", 1, 7),
    ("new_view", 1, (1, 2)),
    ("new_view", 1, ("cert", "v", ("ok", "v"))),
    ("propose", 1, "v", "bad proof", 7),
    ("prepare_vote", 1, "digest", "share"),
    ("precommit", 1, "v", ("ok", "v"), "cert"),
    ("commit_vote", 1, "digest", None),
    ("decide", 1, "v", ("ok", "v"), "cert"),
]


class MalformedQuadSender(Process):
    """Byzantine: floods every process with every malformed payload, at start and again later."""

    def on_start(self):
        self.on_timer("again")
        self.set_timer_raw(1.5, (), "later")

    def on_timer(self, tag):
        for payload in MALFORMED_QUAD_PAYLOADS:
            for receiver in range(self.system.n):
                self.send_raw(receiver, Envelope(("quad",), payload))


class TestQuadMalformedPayloads:
    @pytest.mark.parametrize("payload", MALFORMED_QUAD_PAYLOADS, ids=repr)
    def test_undecided_and_decided_processes_ignore_it(self, payload):
        sim = Simulation(SystemConfig(4, 1))
        sim.populate(lambda pid, s: QuadProcess(pid, s, "abcd"[pid]))
        undecided = sim.processes[0]  # leads view 1, so the leader-side handlers run too
        undecided.on_start()
        for sender in range(4):
            undecided.quad.on_message(sender, payload)
        assert not undecided.quad.has_decided() and undecided.quad.locked is None

        sim = run_quad({0: "a", 1: "b", 2: "c", 3: "d"})
        decisions = dict(sim.decisions())
        sent = sim.metrics.message_complexity
        for process in sim.processes.values():
            for sender in range(4):
                process.quad.on_message(sender, payload)
        assert sim.decisions() == decisions
        assert sim.metrics.message_complexity == sent  # a decided process sends nothing more

    @pytest.mark.parametrize("faulty", [[3], [0]], ids=["replica", "first-leader"])
    def test_agreement_and_termination_under_a_flood_of_them(self, faulty):
        values = {0: "a", 1: "b", 2: "c", 3: "d"}
        sim = Simulation(SystemConfig(4, 1), delay_model=SynchronousDelayModel(seed=1))
        sim.populate(
            lambda pid, s: QuadProcess(pid, s, values[pid]),
            faulty=faulty,
            faulty_factory=MalformedQuadSender,
        )
        sim.run_until_all_correct_decide(until=5_000)
        assert sim.all_correct_decided()
        assert sim.agreement_holds()
        value, proof = next(iter(sim.decisions().values()))
        assert proof == ("ok", value)
        sim.run(until=sim.time + 50)  # deliver the later flood to processes that have decided
        assert sim.agreement_holds()

    def test_a_decided_process_skips_every_later_message(self):
        calls = []
        sim = run_quad({0: "a", 1: "b", 2: "c", 3: "d"})
        quad = sim.processes[2].quad
        quad.verify = lambda value, proof: calls.append(value) or True
        decided = quad.decided_value
        quad.on_message(0, ("decide", 9, "other", ("ok", "other"), None))
        quad.on_message(0, ("propose", quad.view, "other", ("ok", "other"), None))
        assert not calls and quad.decided_value == decided


class TestQuadStaleView:
    """A correct process locks and commit-votes only in its current view.

    Before the guard, a precommit held back from an earlier view reached a
    process that had moved on: it locked on the old value and voted to
    commit it, and two values were decided.  Under the first held set
    {0, 1} decided v1 and {2, 3} decided v2; under the second, with process 3
    crashed, {0, 1} decided v1 and 2 decided v0.
    """

    @pytest.mark.parametrize(
        "adversary, held",
        [("none", {(0, 1), (1, 2), (2, 0)}), ("crash", {(1, 0), (2, 1)})],
        ids=["none", "crash"],
    )
    def test_late_precommit_from_an_old_view_breaks_no_agreement(self, monkeypatch, adversary, held):
        monkeypatch.setitem(
            DELAY_MODELS,
            "held-links",
            lambda spec, seed: HeldLinksDelayModel(held, release=20.0, seed=seed),
        )
        spec = make_scenario("quad", adversary=adversary, delay="held-links", n=4, t=1, name="held")
        result = execute_run(spec, 2023)
        assert result.agreement, result.decisions
        assert result.ok, (result.error, result.violations)


# ----------------------------------------------------------------------
# Universal end-to-end (both vector-consensus backends)
# ----------------------------------------------------------------------
def run_universal(
    property_key,
    proposals,
    n=4,
    t=1,
    backend="authenticated",
    faulty=(),
    faulty_factory=silent_factory,
    seed=1,
    gst=0.0,
):
    system = SystemConfig(n, t)
    spec = UniversalSpec.for_standard_property(system, property_key)
    delay = DelayModel(gst=gst, delta=1.0, seed=seed) if gst else SynchronousDelayModel(seed=seed)
    sim = Simulation(system, delay_model=delay)
    sim.populate(
        universal_process_factory(spec, proposals, backend=backend),
        faulty=faulty,
        faulty_factory=faulty_factory,
    )
    sim.run_until_all_correct_decide(until=10_000)
    return sim, spec


def execution_configuration(sim, proposals):
    return InputConfiguration.from_mapping(
        {pid: proposals[pid] for pid in sim.correct_processes}
    )


class TestUniversalAuthenticated:
    def test_strong_validity_unanimous(self):
        proposals = {pid: "v" for pid in range(4)}
        sim, _ = run_universal("strong", proposals)
        assert set(sim.decisions().values()) == {"v"}

    def test_strong_validity_with_silent_byzantine(self):
        proposals = {0: 5, 1: 5, 2: 5, 3: 5}
        sim, spec = run_universal("strong", proposals, faulty=[2])
        assert sim.all_correct_decided()
        assert set(sim.decisions().values()) == {5}

    def test_decision_admissible_for_every_standard_property(self):
        proposals = {0: 1, 1: 2, 2: 2, 3: 3}
        for key in ["strong", "weak", "convex-hull", "median", "free"]:
            sim, spec = run_universal(key, proposals, seed=3)
            assert sim.all_correct_decided(), key
            assert sim.agreement_holds(), key
            config = execution_configuration(sim, proposals)
            for decided in sim.decisions().values():
                assert spec.validity.is_admissible(config, decided), key

    def test_correct_proposal_validity_decision_was_proposed(self):
        proposals = {0: "a", 1: "a", 2: "a", 3: "b"}
        sim, spec = run_universal("correct-proposal", proposals, faulty=[3])
        config = execution_configuration(sim, proposals)
        for decided in sim.decisions().values():
            assert decided in config.distinct_proposals()

    def test_vector_validity_via_identity_lambda(self):
        system = SystemConfig(4, 1)
        spec = UniversalSpec(
            system=system,
            validity=VectorValidity(system),
            decision_rule=lambda vector: vector,
        )
        proposals = {0: "a", 1: "b", 2: "c", 3: "d"}
        sim = Simulation(system, delay_model=SynchronousDelayModel(seed=2))
        sim.populate(universal_process_factory(spec, proposals))
        sim.run_until_all_correct_decide(until=5_000)
        assert sim.agreement_holds()
        vector = next(iter(sim.decisions().values()))
        config = InputConfiguration.from_mapping(proposals)
        for pair in vector.pairs:
            assert config[pair.process] == pair.proposal

    def test_larger_system_with_two_faults(self):
        proposals = {pid: pid % 3 for pid in range(7)}
        sim, spec = run_universal("convex-hull", proposals, n=7, t=2, faulty=[5, 6], seed=4)
        assert sim.all_correct_decided()
        assert sim.agreement_holds()
        config = execution_configuration(sim, proposals)
        for decided in sim.decisions().values():
            assert spec.validity.is_admissible(config, decided)

    def test_gst_after_start_still_terminates(self):
        proposals = {pid: 1 for pid in range(4)}
        sim, _ = run_universal("strong", proposals, gst=25.0, seed=5)
        assert sim.all_correct_decided()
        assert set(sim.decisions().values()) == {1}

    def test_crash_fault_mid_protocol(self):
        proposals = {pid: 1 for pid in range(4)}
        system = SystemConfig(4, 1)
        spec = UniversalSpec.for_standard_property(system, "strong")
        sim = Simulation(system, delay_model=SynchronousDelayModel(seed=6))
        correct = universal_process_factory(spec, proposals)
        sim.populate(correct, faulty=[1], faulty_factory=crash_factory(correct, crash_time=2.0))
        sim.run_until_all_correct_decide(until=10_000)
        assert sim.all_correct_decided()
        assert set(sim.decisions().values()) == {1}

    def test_message_complexity_grows_quadratically_not_cubically(self):
        proposals_small = {pid: 0 for pid in range(4)}
        proposals_large = {pid: 0 for pid in range(13)}
        small, _ = run_universal("strong", proposals_small, n=4, t=1)
        large, _ = run_universal("strong", proposals_large, n=13, t=4)
        ratio = large.metrics.message_complexity / max(1, small.metrics.message_complexity)
        scale = 13 / 4
        assert ratio < scale**3, "authenticated Universal should not blow up cubically"


class TestUniversalNonAuthenticated:
    def test_agreement_and_validity(self):
        proposals = {0: 3, 1: 3, 2: 3, 3: 4}
        sim, spec = run_universal("strong", proposals, backend="non-authenticated", seed=2)
        assert sim.all_correct_decided()
        assert sim.agreement_holds()
        assert set(sim.decisions().values()) == {3}

    def test_with_silent_byzantine(self):
        proposals = {0: 3, 1: 3, 2: 3, 3: 4}
        sim, spec = run_universal(
            "strong", proposals, backend="non-authenticated", faulty=[3], seed=3
        )
        assert sim.all_correct_decided()
        assert set(sim.decisions().values()) == {3}

    def test_costs_more_messages_than_authenticated(self):
        proposals = {pid: 1 for pid in range(4)}
        auth, _ = run_universal("strong", proposals, backend="authenticated", seed=4)
        non_auth, _ = run_universal("strong", proposals, backend="non-authenticated", seed=4)
        assert non_auth.metrics.message_complexity > 2 * auth.metrics.message_complexity
