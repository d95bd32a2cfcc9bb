"""Property tests for the partial-synchrony delay-model contract.

The contract (enforced in exactly one place, ``DelayModel.delivery_times``):
every message from a correct sender is delivered within::

    send_time + min_delay  <=  delivery  <=  max(send_time, gst) + delta

These tests sweep every registered delay model under a family of adversarial
``schedule_hook``s and assert the bound holds for every correct-sender
delivery — including the regression case that motivated the refactor
(``PartitionDelayModel`` with an explicit ``gst`` before the release time,
which previously let cross-group messages from correct senders land after
``GST + delta``, and ignored ``schedule_hook`` entirely).
"""

import random

import pytest

from repro.experiments import DELAY_MODELS, make_scenario
from repro.sim import DelayModel, JitteredDelayModel, PartitionDelayModel

SEEDS = (0, 2023, 77)

# Adversarial schedule hooks: each tries to push deliveries outside the
# contract window in a different way.
HOOKS = {
    "none": None,
    "huge": lambda s, r, t, d: 1_000_000.0,
    "negative": lambda s, r, t, d: -5.0,
    "zero": lambda s, r, t, d: 0.0,
    "nudge": lambda s, r, t, d: d + 0.4,
    "selective": lambda s, r, t, d: 900.0 if (s + r) % 2 == 0 else None,
}


def contract_holds(model: DelayModel, sender: int, receiver: int, send_time: float) -> None:
    delivery = model.delivery_time(sender, receiver, send_time, sender_correct=True)
    earliest = send_time + model.min_delay
    latest = max(send_time, model.gst) + model.delta
    assert earliest <= delivery <= latest, (
        f"{type(model).__name__}: correct-sender delivery {delivery} outside "
        f"[{earliest}, {latest}] for send_time={send_time}"
    )


@pytest.mark.parametrize("delay_key", sorted(DELAY_MODELS))
@pytest.mark.parametrize("hook_key", sorted(HOOKS))
def test_registered_models_respect_contract_under_adversarial_hooks(delay_key, hook_key):
    spec = make_scenario("binary", delay=delay_key, n=7, t=2)
    for seed in SEEDS:
        model = DELAY_MODELS[delay_key](spec, seed)
        model.schedule_hook = HOOKS[hook_key]
        sampler = random.Random(seed * 31 + 7)
        for _ in range(200):
            sender = sampler.randrange(spec.n)
            receiver = sampler.randrange(spec.n)
            send_time = sampler.uniform(0.0, 3.0 * max(model.gst, model.delta))
            contract_holds(model, sender, receiver, send_time)


def test_byzantine_senders_keep_causality_floor_but_no_upper_bound():
    model = DelayModel(gst=0.0, delta=2.0, min_delay=0.5, seed=1, schedule_hook=lambda s, r, t, d: 1_000.0)
    assert model.delivery_time(0, 1, 5.0, sender_correct=False) == 1_000.0
    model.schedule_hook = lambda s, r, t, d: -100.0
    assert model.delivery_time(0, 1, 5.0, sender_correct=False) == 5.5


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
@pytest.mark.parametrize("hook_key", ["none", "selective", "zero"])
def test_one_call_for_all_receivers_equals_one_call_per_receiver(delay_key, hook_key):
    # The simulator asks for a whole send's delays at once; a same-seed twin
    # asked once per receiver must see the same times and stay in step.
    spec = make_scenario("binary", delay=delay_key, n=7, t=2)
    for seed in SEEDS:
        batched = DELAY_MODELS[delay_key](spec, seed)
        single = DELAY_MODELS[delay_key](spec, seed)
        batched.schedule_hook = single.schedule_hook = HOOKS[hook_key]
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
        model = PartitionDelayModel(
            group_a={0}, group_c={2}, release_time=50.0, delta=1.0, min_delay=0.1, seed=1, gst=2.0
        )
        for send_time in (0.0, 1.0, 3.0, 49.0):
            contract_holds(model, 0, 2, send_time)
            contract_holds(model, 2, 0, send_time)
        # Byzantine cross-group messages stay partitioned until release.
        assert model.delivery_time(0, 2, 1.0, sender_correct=False) > 50.0

    def test_partition_still_blocks_until_release_when_gst_is_release(self):
        model = PartitionDelayModel(group_a={0}, group_c={2}, release_time=50.0, delta=1.0, seed=1)
        assert model.delivery_time(0, 2, 1.0, True) > 50.0
        assert model.delivery_time(0, 1, 1.0, True) < 50.0
        contract_holds(model, 0, 2, 1.0)

    def test_partition_model_honours_schedule_hook(self):
        # Regression: schedule_hook used to be silently ignored.
        seen = []

        def hook(sender, receiver, send_time, candidate):
            seen.append((sender, receiver, send_time, candidate))
            return 7.0

        model = PartitionDelayModel(
            group_a={0}, group_c={2}, release_time=5.0, delta=1.0, seed=1, schedule_hook=hook
        )
        assert model.delivery_time(0, 1, 1.0, sender_correct=True) == 6.0  # clamped to gst + delta
        assert model.delivery_time(0, 1, 6.5, sender_correct=True) == 7.0  # within contract
        assert len(seen) == 2


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
