"""The optimized hot path reproduces the committed regression baseline exactly.

The tuple event queue, the decided-counter stop condition, the memoized
``word_size`` and the vectorized Reed-Solomon codec are all *supposed* to be
pure constant-factor optimizations: no event is ever ordered differently and
no metric changes by a single word.  These tests pin that down byte-for-byte
against ``benchmarks/baselines/scenario_matrix.json`` — the file was
generated by the pre-optimization simulator and is never regenerated to
absorb a change: the serial sweep reproduces the whole file (every scenario
of the default matrix, every seed), and the persistent pool reproduces a
slice that covers every protocol family, the coding-heavy compact variant,
adversarial behaviours and every delay model.  (``python -m
repro.experiments run --check-baseline`` only bounds the drift of means.)
"""

import json
import pathlib

import pytest

from repro.experiments import (
    Runner,
    StreamingAggregator,
    aggregate,
    default_matrix,
    find_scenarios,
    summaries_to_json,
    summaries_to_payload,
    sweep_seeds,
)
from repro.sim import Envelope, Event, Simulation, SynchronousDelayModel, word_size
from repro.core import SystemConfig

BASELINE = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "baselines" / "scenario_matrix.json"

# One scenario per protocol family x a spread of adversaries and delay
# models; universal-compact routes its payloads through ADD and therefore
# exercises the vectorized Reed-Solomon codec inside real protocol runs.
SLICE = [
    "binary+crash+eventual",
    "binary+equivocation+jittered",
    "quad+dropping+synchronous",
    "universal-authenticated+silent+eventual",
    "universal-authenticated+equivocation+partition",
    "universal-compact+none+synchronous",
    "universal-compact+silent+eventual",
    "universal-compact+equivocation+synchronous",
    "universal-non-authenticated+silent+synchronous",
]
# The committed baseline was produced by a 2-seed sweep of the full matrix.
BASELINE_SEEDS = sweep_seeds(2)


def test_optimized_sim_reproduces_the_whole_committed_baseline():
    text = BASELINE.read_text()
    committed = json.loads(text)["scenarios"]
    summaries = aggregate(Runner().run(default_matrix(), BASELINE_SEEDS))
    measured = summaries_to_payload(summaries)["scenarios"]
    assert set(SLICE) <= set(committed)
    assert sorted(measured) == sorted(committed)
    # Byte-level comparison: serialising both sides the same way makes
    # every float bit-identical, not merely close.
    diverged = [
        name
        for name in committed
        if json.dumps(measured[name], sort_keys=True) != json.dumps(committed[name], sort_keys=True)
    ]
    assert not diverged, f"diverged from the pre-optimization baseline: {diverged}"
    assert summaries_to_json(summaries) + "\n" == text


def test_parallel_persistent_pool_matches_the_baseline_slice_too():
    committed = json.loads(BASELINE.read_text())["scenarios"]
    with Runner(parallel=3) as runner:
        # Two sweeps over the same pool: the second must reuse the workers
        # and still match the baseline byte for byte.
        first = runner.run(find_scenarios(SLICE[:4]), BASELINE_SEEDS)
        assert runner._pool is not None
        pool = runner._pool
        second = runner.run(find_scenarios(SLICE[4:]), BASELINE_SEEDS)
        assert runner._pool is pool, "the persistent pool must be reused across sweeps"
    measured = summaries_to_payload(aggregate(first + second))["scenarios"]
    for name in SLICE:
        assert json.dumps(measured[name], sort_keys=True) == json.dumps(
            committed[name], sort_keys=True
        )


def test_streaming_aggregation_equals_batch_aggregation():
    scenarios = find_scenarios(SLICE[:3])
    with Runner(parallel=2) as runner:
        streaming = StreamingAggregator()
        seen = 0
        for result in runner.iter_runs(scenarios, BASELINE_SEEDS):
            streaming.add(result)
            seen += 1
        batch = aggregate(runner.run(scenarios, BASELINE_SEEDS))
    assert seen == len(scenarios) * len(BASELINE_SEEDS)
    assert summaries_to_payload(streaming.summaries()) == summaries_to_payload(batch)


def test_runner_close_releases_and_recreates_the_pool():
    runner = Runner(parallel=2)
    scenarios = find_scenarios(SLICE[:1])
    first = runner.run(scenarios, BASELINE_SEEDS)
    assert runner._pool is not None
    runner.close()
    assert runner._pool is None
    # A sweep after close() transparently builds a fresh pool.
    second = runner.run(scenarios, BASELINE_SEEDS)
    assert [r.canonical_json() for r in first] == [r.canonical_json() for r in second]
    runner.close()


# ----------------------------------------------------------------------
# Micro-level guarantees of the optimized core
# ----------------------------------------------------------------------
def test_event_namedtuple_is_interchangeable_with_queue_tuples():
    event = Event(1.0, 2, Event.MESSAGE, 0, None)
    assert event == (1.0, 2, "message", 0, None)
    assert event.time == 1.0 and event.kind == "message" and event.target == 0
    assert Event.MESSAGE == "message" and Event.TIMER == "timer"
    assert (0.5, 99, "timer", 1, None) < event  # ordered by (time, sequence)


def test_correct_processes_is_a_cached_frozen_view():
    from repro.sim import Process

    system = SystemConfig(4, 1)
    simulation = Simulation(system, delay_model=SynchronousDelayModel(seed=1))
    simulation.populate(lambda pid, s: Process(pid, s), faulty=[3])
    view = simulation.correct_processes
    assert isinstance(view, frozenset)
    assert view == {0, 1, 2}
    assert simulation.correct_processes is view, "hot predicates must not copy per call"
    with pytest.raises(AttributeError):
        view.add(3)  # frozenset has no mutators


def test_decided_counter_matches_the_full_scan():
    from repro.sim import Process

    class TimedDecider(Process):
        def on_start(self):
            self.set_timer_raw(float(self.pid + 1), (), "decide")

        def on_timer(self, tag):
            self.decide(self.pid)

    system = SystemConfig(4, 1)
    simulation = Simulation(system, delay_model=SynchronousDelayModel(seed=1))
    simulation.populate(lambda pid, s: TimedDecider(pid, s), faulty=[3])
    simulation.run(until=1.5)
    assert not simulation.all_correct_decided()
    assert simulation._decided_correct == 1
    simulation.run_until_all_correct_decide()
    assert simulation.all_correct_decided()
    assert simulation._decided_correct == len(simulation.correct_processes) == 3
    assert set(simulation.decisions()) == {0, 1, 2}


def test_slotted_payload_classes_have_no_dict_and_keep_value_semantics():
    envelope = Envelope(("a", "b"), ("payload", 1))
    same = Envelope(("a", "b"), ("payload", 1))
    assert envelope == same and hash(envelope) == hash(same)
    assert envelope != Envelope(("a",), ("payload", 1))
    assert "path" in repr(envelope)
    with pytest.raises(AttributeError):
        envelope.extra = 1  # __slots__: no per-instance dict on the hot path


def test_word_size_memo_and_fast_paths_agree_with_the_convention():
    # The exact-type fast paths must produce the same estimates as the
    # documented convention (and as the generic path for subclasses).
    assert word_size(()) == 1
    assert word_size((1, 2, (3, 4))) == 4
    assert word_size(Envelope(("mod",), ("x", "y"))) == 3
    assert word_size(Envelope((), None)) == 1
    assert word_size(b"\x00" * 65) == 2

    class WordyTuple(tuple):
        words = 7

    assert word_size(WordyTuple((1, 2, 3))) == 7, "subclasses keep their words override"

    from repro.sim import MetricsCollector

    collector = MetricsCollector()
    payload = ("broadcast", "payload")
    for receiver in range(4):
        collector.record_message(
            sender=0, send_time=1.0, payload=payload, protocol=("p",), sender_correct=True
        )
    assert collector.total_words == 4 * word_size(payload)
