"""Property tests for the partial-synchrony delay-model contract.

The contract (enforced in exactly one place, ``DelayModel.delivery_times``):
every message from a correct sender is delivered within::

    send_time + min_delay  <=  delivery  <=  max(send_time, gst) + delta

These tests sweep every registered delay model under a family of adversarial
``_candidate_delays`` overrides and assert the bound holds for every
correct-sender delivery — including the regression case that motivated the
refactor (a partition with an explicit ``gst`` before the release time,
which previously let cross-group messages from correct senders land after
``GST + delta``).
"""

import random

import pytest

from repro.experiments import DELAY_MODELS, make_scenario
from repro.sim import DelayModel, HeldLinksDelayModel, JitteredDelayModel

SEEDS = (0, 2023, 77)

# Adversarial candidate shapes, ``(sender, receiver, send_time, candidate) ->
# delivery or None``: each tries to push deliveries outside the contract
# window in a different way.
SHAPES = {
    "none": None,
    "huge": lambda s, r, t, d: 1_000_000.0,
    "negative": lambda s, r, t, d: -5.0,
    "zero": lambda s, r, t, d: 0.0,
    "nudge": lambda s, r, t, d: d + 0.4,
    "selective": lambda s, r, t, d: 900.0 if (s + r) % 2 == 0 else None,
}


def override_candidates(model: DelayModel, shape) -> DelayModel:
    """Override ``model``'s ``_candidate_delays``: its own draws, then ``shape`` per receiver."""
    if shape is None:
        return model
    draw = model._candidate_delays

    def candidates(sender, receivers, send_time):
        times = draw(sender, receivers, send_time)
        for index, receiver in enumerate(receivers):
            override = shape(sender, receiver, send_time, times[index])
            if override is not None:
                times[index] = override
        return times

    model._candidate_delays = candidates
    return model


def contract_holds(model: DelayModel, sender: int, receiver: int, send_time: float) -> None:
    delivery = model.delivery_time(sender, receiver, send_time, sender_correct=True)
    earliest = send_time + model.min_delay
    latest = max(send_time, model.gst) + model.delta
    assert earliest <= delivery <= latest, (
        f"{type(model).__name__}: correct-sender delivery {delivery} outside "
        f"[{earliest}, {latest}] for send_time={send_time}"
    )


@pytest.mark.parametrize("delay_key", sorted(DELAY_MODELS))
@pytest.mark.parametrize("shape_key", sorted(SHAPES))
def test_registered_models_respect_contract_under_adversarial_candidates(delay_key, shape_key):
    spec = make_scenario("binary", delay=delay_key, n=7, t=2)
    for seed in SEEDS:
        model = override_candidates(DELAY_MODELS[delay_key](spec, seed), SHAPES[shape_key])
        sampler = random.Random(seed * 31 + 7)
        for _ in range(200):
            sender = sampler.randrange(spec.n)
            receiver = sampler.randrange(spec.n)
            send_time = sampler.uniform(0.0, 3.0 * max(model.gst, model.delta))
            contract_holds(model, sender, receiver, send_time)


def every_candidate(delivery) -> DelayModel:
    return override_candidates(DelayModel(gst=0.0, delta=2.0, min_delay=0.5, seed=1), lambda s, r, t, d: delivery)


def test_byzantine_senders_keep_causality_floor_but_no_upper_bound():
    assert every_candidate(1_000.0).delivery_time(0, 1, 5.0, sender_correct=False) == 1_000.0
    assert every_candidate(-100.0).delivery_time(0, 1, 5.0, sender_correct=False) == 5.5


def test_an_override_can_delay_but_not_violate_contract():
    # Clamped to send + delta for a correct sender.
    assert every_candidate(1_000.0).delivery_time(0, 1, 5.0, sender_correct=True) == 7.0


def test_delivery_time_is_final():
    with pytest.raises(TypeError, match="_candidate_delay"):

        class Rogue(DelayModel):
            def delivery_time(self, sender, receiver, send_time, sender_correct):
                return 0.0


def test_delivery_times_is_final():
    with pytest.raises(TypeError, match="_candidate_delay"):

        class Rogue(DelayModel):
            def delivery_times(self, sender, receivers, send_time, sender_correct):
                return [0.0] * len(receivers)


@pytest.mark.parametrize("delay_key", sorted(DELAY_MODELS))
@pytest.mark.parametrize("shape_key", ["none", "selective", "zero"])
def test_one_call_for_all_receivers_equals_one_call_per_receiver(delay_key, shape_key):
    # The simulator asks for a whole send's delays at once; a same-seed twin
    # asked once per receiver must see the same times and stay in step.
    spec = make_scenario("binary", delay=delay_key, n=7, t=2)
    for seed in SEEDS:
        batched = override_candidates(DELAY_MODELS[delay_key](spec, seed), SHAPES[shape_key])
        single = override_candidates(DELAY_MODELS[delay_key](spec, seed), SHAPES[shape_key])
        gst = batched.gst
        send_times = (0.0, gst / 2, gst, gst + 0.3, gst + 4.0)
        for send_time in send_times:
            for sender in range(spec.n):
                for sender_correct in (True, False):
                    receivers = range(spec.n)
                    expected = [
                        single.delivery_time(sender, receiver, send_time, sender_correct)
                        for receiver in receivers
                    ]
                    assert batched.delivery_times(sender, receivers, send_time, sender_correct) == expected
        # Still in step: the next draw of each twin is the same draw.
        assert batched.delivery_times(0, (3,), gst + 1.0, True) == [single.delivery_time(0, 3, gst + 1.0, True)]


def test_latest_delivery_is_final_too():
    # Overriding the ceiling computation would bypass the contract clamp.
    with pytest.raises(TypeError, match="_candidate_delay"):

        class Looser(DelayModel):
            def latest_delivery(self, send_time):
                return send_time + 1_000.0


class TestPartitionModelRegression:
    def test_explicit_gst_before_release_cannot_violate_contract(self):
        # Regression: an explicit gst < release_time used to let cross-group
        # messages from correct senders land after max(send, gst) + delta.
        model = HeldLinksDelayModel(
            held={(0, 2), (2, 0)}, release=50.0, delta=1.0, min_delay=0.1, seed=1, gst=2.0
        )
        for send_time in (0.0, 1.0, 3.0, 49.0):
            contract_holds(model, 0, 2, send_time)
            contract_holds(model, 2, 0, send_time)
        # Byzantine cross-group messages stay partitioned until release.
        assert model.delivery_time(0, 2, 1.0, sender_correct=False) > 50.0

    def test_partition_still_blocks_until_release_when_gst_is_release(self):
        model = HeldLinksDelayModel(held={(0, 2), (2, 0)}, release=50.0, delta=1.0, seed=1)
        assert model.delivery_time(0, 2, 1.0, True) > 50.0
        assert model.delivery_time(0, 1, 1.0, True) < 50.0
        contract_holds(model, 0, 2, 1.0)


class TestJitteredModel:
    def test_post_gst_behaves_like_default(self):
        model = JitteredDelayModel(gst=5.0, delta=2.0, min_delay=0.5, seed=3)
        for send_time in (5.0, 9.0, 42.0):
            delivery = model.delivery_time(0, 1, send_time, sender_correct=True)
            assert send_time + 0.5 <= delivery <= send_time + 2.0

    def test_pre_gst_tail_is_heavy_but_clamped(self):
        model = JitteredDelayModel(gst=10.0, delta=1.0, min_delay=0.1, seed=5, alpha=1.1)
        deliveries = [model.delivery_time(0, 1, 0.0, sender_correct=True) for _ in range(500)]
        assert max(deliveries) <= 11.0  # gst + delta
        assert min(deliveries) >= 0.1
        # Heavy tail: some messages straggle well beyond the typical delay.
        assert any(delivery > 5.0 for delivery in deliveries)
        assert sum(1 for delivery in deliveries if delivery < 1.0) > len(deliveries) // 2

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            JitteredDelayModel(alpha=0.0)
