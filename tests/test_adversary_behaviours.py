"""Fault-injection tests: crash, message-dropping and equivocating behaviours."""

from repro.core import SystemConfig, UniversalSpec
from repro.consensus import universal_process_factory
from repro.consensus.vector_authenticated import SignedProposal
from repro.experiments.scenario import PROTOCOLS, make_scenario
from repro.sim import (
    Envelope,
    EquivocatingProposer,
    Process,
    Simulation,
    SynchronousDelayModel,
    crash_factory,
    dropping_factory,
)


def build_simulation(seed=1, n=4, t=1):
    system = SystemConfig(n, t)
    spec = UniversalSpec.for_standard_property(system, "strong")
    proposals = {pid: 1 for pid in range(n)}
    sim = Simulation(system, delay_model=SynchronousDelayModel(seed=seed))
    return sim, spec, proposals


class TestCrashFaults:
    def test_leaderless_progress_with_late_crash(self):
        sim, spec, proposals = build_simulation(seed=3)
        correct = universal_process_factory(spec, proposals)
        sim.populate(correct, faulty=[2], faulty_factory=crash_factory(correct, crash_time=3.0))
        sim.run_until_all_correct_decide(until=10_000)
        assert sim.all_correct_decided()
        assert set(sim.decisions().values()) == {1}

    def test_crash_at_time_zero_behaves_like_silence(self):
        sim, spec, proposals = build_simulation(seed=4)
        correct = universal_process_factory(spec, proposals)
        sim.populate(correct, faulty=[3], faulty_factory=crash_factory(correct, crash_time=0.0))
        sim.run_until_all_correct_decide(until=10_000)
        assert sim.all_correct_decided()
        assert sim.metrics.per_sender_messages.get(3, 0) == 0


class TestMessageDropping:
    def test_dropping_byzantine_does_not_block_termination(self):
        sim, spec, proposals = build_simulation(seed=5)
        correct = universal_process_factory(spec, proposals)
        sim.populate(
            correct, faulty=[3], faulty_factory=dropping_factory(correct, drop_probability=0.7, seed=5)
        )
        sim.run_until_all_correct_decide(until=10_000)
        assert sim.all_correct_decided()
        assert sim.agreement_holds()
        assert set(sim.decisions().values()) == {1}

    def test_dropping_everything_equals_silence(self):
        sim, spec, proposals = build_simulation(seed=6)
        correct = universal_process_factory(spec, proposals)
        sim.populate(
            correct, faulty=[3], faulty_factory=dropping_factory(correct, drop_probability=1.0, seed=6)
        )
        sim.run_until_all_correct_decide(until=10_000)
        assert sim.all_correct_decided()
        assert sim.metrics.per_sender_messages.get(3, 0) == 0


class TestEquivocatingProposer:
    def test_equivocation_in_vector_consensus_does_not_break_agreement(self):
        system = SystemConfig(4, 1)
        spec = UniversalSpec.for_standard_property(system, "strong")
        proposals = {pid: 1 for pid in range(4)}
        sim = Simulation(system, delay_model=SynchronousDelayModel(seed=7))

        def equivocator(pid, simulation):
            # Sends a different, self-signed proposal to every receiver under
            # the authenticated vector consensus's module path.
            path = ("universal", "vec_cons")

            def builder(process, receiver, value):
                signature = simulation.authority.sign(pid, ("proposal", value))
                return SignedProposal(sender=pid, value=value, signature=signature)

            return EquivocatingProposer(
                pid,
                simulation,
                target_path=path,
                value_for_receiver=lambda receiver: 100 + receiver,
                message_builder=builder,
            )

        sim.populate(universal_process_factory(spec, proposals), faulty=[3], faulty_factory=equivocator)
        sim.run_until_all_correct_decide(until=10_000)
        assert sim.all_correct_decided()
        assert sim.agreement_holds()
        # Strong validity: all correct proposed 1, so 1 must be decided even
        # though the equivocator injected different values at every process.
        assert set(sim.decisions().values()) == {1}


class TestByzantineBooleans:
    """A Byzantine ``True``/``False`` is not a binary value, though ``isinstance(True, int)``.

    Before binary consensus checked exact types, a faulty process sending
    ``("bval", r, True)`` could put ``True`` into a correct process's
    ``bin_values`` (``True == 1`` shares the key), which then went out in its
    own AUX and came back as a correct decision of ``True``: 194 of these
    200 seeds decided a bool.
    """

    class BoolSender(Process):
        listens = False

        def on_start(self):
            for round_number in range(1, 5):
                for value in (True, False):
                    for kind in ("bval", "aux"):
                        for receiver in range(self.n):
                            self.send_raw(receiver, Envelope(("binary",), (kind, round_number, value)))

    def test_every_decision_is_an_int_and_the_run_is_correct(self):
        spec = make_scenario("binary", "silent", "synchronous", n=4, t=1)
        system = spec.system()
        for seed in range(200):
            setup = PROTOCOLS["binary"](spec, system, seed)
            sim = Simulation(system, delay_model=SynchronousDelayModel(seed=seed), seed=seed)
            sim.populate(setup.factory, faulty=[3], faulty_factory=self.BoolSender)
            sim.run_until_all_correct_decide(until=10_000)
            assert sim.all_correct_decided(), seed
            assert {type(value) for value in sim.decisions().values()} == {int}, seed
            # Agreement, termination and binary validity, as the scenario checks them.
            assert setup.check(sim, setup.proposals) == [], seed
