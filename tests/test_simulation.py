"""Tests for the partially synchronous simulator substrate."""

import pytest

from repro.core import SystemConfig
from repro.sim import (
    DelayModel,
    Envelope,
    HeldLinksDelayModel,
    Process,
    ProtocolModule,
    Simulation,
    SimulationError,
    SynchronousDelayModel,
    silent_factory,
    word_size,
)


class PingModule(ProtocolModule):
    """Toy protocol: everybody broadcasts 'ping' and records what it hears."""

    def __init__(self, process, name="ping", parent=None):
        super().__init__(process, name, parent)
        self.received = []

    def start(self):
        self.broadcast(("ping", self.pid))

    def on_message(self, sender, payload):
        self.received.append((sender, payload))


class PingProcess(Process):
    def on_start(self):
        self.ping = PingModule(self)
        self.ping.start()


class DeciderProcess(Process):
    """Decides a constant after one timer tick (exercises timers and decisions)."""

    def on_start(self):
        self.set_timer_raw(1.0, (), "decide")

    def on_timer(self, tag):
        if tag == "decide":
            self.decide("constant")


def build(n=4, t=1, delay_model=None, faulty=(), factory=None):
    system = SystemConfig(n, t)
    sim = Simulation(system, delay_model=delay_model or SynchronousDelayModel(seed=3))
    sim.populate(factory or (lambda pid, s: PingProcess(pid, s)), faulty=faulty)
    return sim


class TestDelayModel:
    def test_post_gst_delays_bounded_by_delta(self):
        model = DelayModel(gst=10.0, delta=2.0, min_delay=0.5, seed=1)
        for send_time in [10.0, 15.0, 100.0]:
            delivery = model.delivery_time(0, 1, send_time, sender_correct=True)
            assert send_time + 0.5 <= delivery <= send_time + 2.0

    def test_pre_gst_delivery_by_gst_plus_delta(self):
        model = DelayModel(gst=10.0, delta=2.0, min_delay=0.5, seed=1)
        for send_time in [0.0, 5.0, 9.9]:
            delivery = model.delivery_time(0, 1, send_time, sender_correct=True)
            assert send_time < delivery <= 12.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DelayModel(delta=0)
        with pytest.raises(ValueError):
            DelayModel(delta=1.0, min_delay=2.0)
        with pytest.raises(ValueError):
            DelayModel(gst=-1.0)

    def test_partition_model_delays_cross_group_messages(self):
        model = HeldLinksDelayModel(held={(0, 2), (2, 0)}, release=50.0, delta=1.0, seed=1)
        assert model.delivery_time(0, 2, 1.0, True) > 50.0
        assert model.delivery_time(2, 0, 1.0, True) > 50.0
        assert model.delivery_time(0, 1, 1.0, True) < 50.0


class TestSimulationBasics:
    def test_ping_all_to_all_delivery(self):
        sim = build()
        sim.run()
        for pid in sim.correct_processes:
            received = sim.processes[pid].ping.received
            assert {sender for sender, _ in received} == set(range(4))

    def test_message_complexity_counts_correct_senders_only(self):
        sim = build(faulty=[3])
        sim.run()
        # 3 correct processes broadcast to 4 destinations each.
        assert sim.metrics.message_complexity == 12
        assert sim.metrics.total_messages == 12

    def test_pre_gst_messages_excluded_from_paper_metric(self):
        system = SystemConfig(4, 1)
        sim = Simulation(system, delay_model=DelayModel(gst=100.0, delta=1.0, seed=1))
        sim.populate(lambda pid, s: PingProcess(pid, s))
        sim.run(until=50.0)
        assert sim.metrics.message_complexity == 0
        assert sim.metrics.total_messages == 16

    def test_decisions_and_agreement(self):
        sim = build(factory=lambda pid, s: DeciderProcess(pid, s))
        sim.run_until_all_correct_decide()
        assert sim.all_correct_decided()
        assert sim.agreement_holds()
        assert set(sim.decisions().values()) == {"constant"}

    def test_populate_rejects_too_many_faulty(self):
        system = SystemConfig(4, 1)
        sim = Simulation(system)
        with pytest.raises(ValueError):
            sim.populate(lambda pid, s: PingProcess(pid, s), faulty=[0, 1])

    def test_correct_process_cannot_start_after_gst(self):
        system = SystemConfig(4, 1)
        sim = Simulation(system, delay_model=DelayModel(gst=5.0))
        with pytest.raises(ValueError):
            sim.add_process(PingProcess(0, sim), correct=True, start_time=10.0)

    def test_duplicate_process_rejected(self):
        sim = build()
        with pytest.raises(ValueError):
            sim.add_process(PingProcess(0, sim))

    def test_silent_faulty_send_nothing(self):
        sim = build(faulty=[2], factory=lambda pid, s: PingProcess(pid, s))
        sim.run()
        assert sim.metrics.per_sender_messages.get(2, 0) == 0

    def test_max_events_guard(self):
        class FloodProcess(Process):
            def on_start(self):
                self.set_timer_raw(0.1, (), "tick")

            def on_timer(self, tag):
                self.set_timer_raw(0.1, (), "tick")

        system = SystemConfig(4, 1)
        sim = Simulation(system)
        sim.populate(lambda pid, s: FloodProcess(pid, s))
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_run_until_time_horizon(self):
        sim = build(factory=lambda pid, s: DeciderProcess(pid, s))
        sim.run(until=0.5)
        assert not sim.all_correct_decided()
        sim.run()
        assert sim.all_correct_decided()

    def test_determinism_across_runs(self):
        first = build(delay_model=SynchronousDelayModel(seed=7))
        first.run()
        second = build(delay_model=SynchronousDelayModel(seed=7))
        second.run()
        assert first.metrics.summary() == second.metrics.summary()


class TestWordSize:
    def test_atomic_values(self):
        assert word_size(1) == 1
        assert word_size("hash") == 1
        assert word_size(None) == 0

    def test_containers_sum(self):
        assert word_size((1, 2, 3)) == 3
        assert word_size({"a": 1}) == 2

    def test_input_configuration_costs_its_size(self):
        from repro.core import InputConfiguration

        config = InputConfiguration.from_mapping({0: 1, 1: 2, 2: 3})
        assert word_size(config) == 3

    def test_signature_costs_one_word(self):
        from repro.crypto import KeyAuthority

        assert word_size(KeyAuthority(4).sign(0, "m")) == 1

    def test_bytes_cost_one_word_per_64_bytes(self):
        assert word_size(b"") == 1  # even an empty blob occupies a word
        assert word_size(b"x" * 64) == 1
        assert word_size(b"x" * 65) == 2
        assert word_size(bytearray(200)) == 4

    def test_nested_empty_containers_floor_at_one_word(self):
        assert word_size(()) == 1
        assert word_size([]) == 1
        assert word_size(((), ())) == 2  # each empty element still costs its floor
        assert word_size([[], {}]) == 2
        assert word_size({}) == 1
        assert word_size(frozenset()) == 1

    def test_subclass_words_override_beats_builtin_fast_paths(self):
        class SizedInt(int):
            @property
            def words(self):
                return 5

        class SizedBytes(bytes):
            @property
            def words(self):
                return 2

        class SizedTuple(tuple):
            @property
            def words(self):
                return 7

        assert word_size(SizedInt(3)) == 5
        assert word_size(SizedBytes(b"x" * 1000)) == 2  # override, not len//64
        assert word_size(SizedTuple((1, 2, 3))) == 7  # override, not element sum
        # The override is floored at one word and must be an int to count.
        class ZeroWords(int):
            @property
            def words(self):
                return 0

        class BogusWords(int):
            @property
            def words(self):
                return "many"

        assert word_size(ZeroWords(9)) == 1
        assert word_size(BogusWords(9)) == 1  # falls through to the int rule


class TestModuleRouting:
    def test_messages_routed_by_path(self):
        class TwoModuleProcess(Process):
            def on_start(self):
                self.first = PingModule(self, name="first")
                self.second = PingModule(self, name="second")
                self.first.broadcast("from-first")

        system = SystemConfig(4, 1)
        sim = Simulation(system, delay_model=SynchronousDelayModel(seed=2))
        sim.populate(lambda pid, s: TwoModuleProcess(pid, s))
        sim.run()
        for pid in sim.correct_processes:
            process = sim.processes[pid]
            assert len(process.first.received) == 4
            assert len(process.second.received) == 0

    def test_duplicate_module_path_rejected(self):
        sim = build()
        process = sim.processes[0]
        PingModule(process, name="unique")
        with pytest.raises(ValueError):
            PingModule(process, name="unique")

    def test_unrouted_messages_ignored(self):
        sim = build()
        process = sim.processes[0]
        process.deliver_message(1, Envelope(("ghost",), "x"))


def _subclasses(cls):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _subclasses(subclass)


class TestNonListeningReceivers:
    """A message to a process that never reads its mail is counted, drawn, and not queued."""

    PROTOCOLS = ("binary", "quad", "universal-authenticated", "universal-non-authenticated", "universal-compact")

    @staticmethod
    def run_capturing(monkeypatch, spec, seed=2023):
        from repro.experiments.execute import execute_run

        simulations = []
        original = Simulation.run_until_all_correct_decide

        def run(self, *args, **kwargs):
            simulations.append(self)
            return original(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Simulation, "run_until_all_correct_decide", run)
            result = execute_run(spec, seed)
        (simulation,) = simulations
        return result, simulation

    def test_every_non_listening_class_keeps_the_inherited_delivery(self):
        import repro.experiments  # noqa: F401  (loads every shipped adversary)

        non_listening = {cls for cls in _subclasses(Process) if not cls.listens}
        assert {cls.__name__ for cls in non_listening} >= {"SilentProcess", "EquivocatingProposer"}
        for cls in non_listening:
            assert cls.deliver_message is Process.deliver_message, cls

    @pytest.mark.parametrize("adversary", ["silent", "equivocation"])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_not_queueing_changes_no_count_and_no_result(self, monkeypatch, protocol, adversary):
        from repro.experiments import make_scenario
        from repro.sim import EquivocatingProposer, SilentProcess

        spec = make_scenario(protocol, adversary, "eventual", n=7, t=2)
        result, simulation = self.run_capturing(monkeypatch, spec)
        silent = [process for process in simulation.processes.values() if not process.listens]
        assert len(silent) == spec.t
        for process in silent:
            assert not process._modules, "a non-listening process must register no module"
        monkeypatch.setattr(SilentProcess, "listens", True)
        monkeypatch.setattr(EquivocatingProposer, "listens", True)
        queued_result, queued_simulation = self.run_capturing(monkeypatch, spec)
        assert result.canonical_json() == queued_result.canonical_json()
        metrics, queued_metrics = simulation.metrics, queued_simulation.metrics
        assert metrics.per_sender_messages == queued_metrics.per_sender_messages
        assert metrics.message_complexity == queued_metrics.message_complexity
        assert metrics.total_messages == queued_metrics.total_messages
        assert simulation.events_processed < queued_simulation.events_processed
