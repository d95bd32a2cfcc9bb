"""Partially synchronous network model (GST and delta) with adversarial scheduling.

The paper uses the standard partially synchronous model of Dwork, Lynch and
Stockmeyer: every execution has an unknown Global Stabilization Time (GST)
and a known bound ``delta`` such that messages sent by correct processes are
delivered within ``delta`` after GST (and messages sent before GST are
delivered by ``GST + delta`` at the latest).  Before GST the adversary fully
controls delays.

The delay-model contract
========================

For every message from a **correct** sender, the delivery time satisfies::

    send_time + min_delay  <=  delivery  <=  max(send_time, gst) + delta

Messages from Byzantine senders carry no upper bound in the model (only the
``min_delay`` causality floor), which is the freedom the lower-bound and
partitioning adversaries exploit.

The contract is enforced in exactly one place — :meth:`DelayModel.delivery_times`,
which is final, as is its one-receiver wrapper :meth:`DelayModel.delivery_time`
(subclasses attempting to override either are rejected at class definition
time).  The simulator calls ``delivery_times`` once per send, with every
receiver of the send in order.  Concrete network behaviours are
*candidate-only*: they override the one hook
:meth:`DelayModel._candidate_delays`, which proposes a delivery time for each
receiver of a send, in one loop that draws each receiver's delay in receiver
order — so a broadcast consumes the random stream exactly as ``n``
one-receiver sends would.  The base class then clamps every candidate to the
contract.  The optional ``schedule_hook`` gives per-message adversarial
control on top of any candidate distribution (it too is clamped for correct
senders); it is called once per receiver, in receiver order, after the
send's candidates are drawn, so a hook must not draw from the model's own
random stream.  Both the lower-bound and triviality experiments rely on it
to delay specific link groups until after a chosen time.

Shipped candidate models:

* :class:`DelayModel` — uniform jitter in ``[min_delay, delta]`` after GST and
  uniform in the full contract window before GST;
* :class:`SynchronousDelayModel` — GST = 0 (synchronous from the start);
* :class:`PartitionDelayModel` — two process groups do not hear from each
  other until a release time (the Lemma 2 partitioning argument);
* :class:`JitteredDelayModel` — heavy-tailed (Pareto) jitter before GST,
  modelling an unstable network that calms down at GST;
* :class:`StalledDelayModel` — traffic among non-favoured processes stalls
  until a release time while the favoured (Byzantine) processes communicate
  promptly in both directions — the scheduling behind the split-brain attack
  at ``n <= 3t``.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

ScheduleHook = Callable[[int, int, float, float], Optional[float]]
"""Adversarial override: ``(sender, receiver, send_time, candidate_delivery) -> delivery or None``."""


class DelayModel:
    """Computes delivery times under partial synchrony.

    ``delivery_times`` is **final**: it asks :meth:`_candidate_delays` for
    one candidate delivery time per receiver (then the ``schedule_hook``, if
    any) and clamps the results to the partial-synchrony contract for
    correct senders, so no subclass or hook can accidentally violate the
    model.  Subclasses express network behaviours by overriding
    :meth:`_candidate_delays` only.

    Args:
        gst: The Global Stabilization Time of the execution.
        delta: The known post-GST delay bound.
        min_delay: Minimum link latency (must be positive so that causality
            is preserved and the event loop always makes progress).
        seed: Seed for the deterministic pseudo-random delays.
        schedule_hook: Optional adversarial override consulted for every
            message; it may return an explicit delivery time, which is then
            clamped to the partial-synchrony contract for correct senders.
    """

    def __init__(
        self,
        gst: float = 0.0,
        delta: float = 1.0,
        min_delay: float = 0.1,
        seed: int = 0,
        schedule_hook: Optional[ScheduleHook] = None,
    ):
        if delta <= 0:
            raise ValueError("delta must be positive")
        if min_delay <= 0 or min_delay > delta:
            raise ValueError("min_delay must satisfy 0 < min_delay <= delta")
        if gst < 0:
            raise ValueError("GST must be non-negative")
        self.gst = gst
        self.delta = delta
        self.min_delay = min_delay
        self.schedule_hook = schedule_hook
        self._rng = random.Random(seed)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for final in ("delivery_times", "delivery_time", "latest_delivery"):
            if final in cls.__dict__:
                raise TypeError(
                    f"{cls.__name__} must not override {final}(); the partial-synchrony "
                    "contract is enforced there — override _candidate_delays() instead"
                )

    # ------------------------------------------------------------------
    def latest_delivery(self, send_time: float) -> float:
        """The latest time the partial-synchrony contract allows for delivery."""
        return max(send_time, self.gst) + self.delta

    def delivery_times(
        self, sender: int, receivers: Sequence[int], send_time: float, sender_correct: bool
    ) -> List[float]:
        """Return the delivery time of one send to each of ``receivers`` (final).

        One delay is drawn per receiver, in receiver order.  Messages from
        correct senders always respect the partial-synchrony contract;
        messages from Byzantine senders may be delayed arbitrarily by the
        candidate model or the hook (they carry no guarantee in the model)
        but never below the ``min_delay`` causality floor.
        """
        times = self._candidate_delays(sender, receivers, send_time)
        hook = self.schedule_hook
        if hook is not None:
            for index, receiver in enumerate(receivers):
                override = hook(sender, receiver, send_time, times[index])
                if override is not None:
                    times[index] = override
        # The clamps, per receiver; min()/max() skip a pass that would change nothing.
        earliest = send_time + self.min_delay
        if times and min(times) < earliest:
            times = [time if time > earliest else earliest for time in times]
        if sender_correct:
            # The latest_delivery() bound, inlined: it is the same for every receiver.
            gst = self.gst
            latest = (send_time if send_time > gst else gst) + self.delta
            if times and max(times) > latest:
                times = [time if time < latest else latest for time in times]
        return times

    def delivery_time(self, sender: int, receiver: int, send_time: float, sender_correct: bool) -> float:
        """Return the delivery time for one message (final; :meth:`delivery_times` for one receiver)."""
        return self.delivery_times(sender, (receiver,), send_time, sender_correct)[0]

    def _candidate_delays(self, sender: int, receivers: Sequence[int], send_time: float) -> List[float]:
        """Propose one delivery time per receiver (the extension point for network behaviours).

        One call per send; an override draws each receiver's delay in
        receiver order and returns a new list.  A candidate may fall outside
        the contract window; the base class clamps it.  The default draws
        uniform jitter from ``[min_delay, delta]`` after GST, and uniformly
        over the full allowed window before GST.
        """
        min_delay = self.min_delay
        earliest = send_time + min_delay
        if send_time >= self.gst:
            span = self.delta - min_delay
        else:
            # Before GST, latest_delivery(send_time) is gst + delta.
            span = self.gst + self.delta - earliest
        random = self._rng.random
        return [earliest + random() * span for _ in receivers]


class SynchronousDelayModel(DelayModel):
    """A network that is synchronous from the very beginning (GST = 0).

    Used by the lower-bound experiment (the adversary of Theorem 4 operates
    in a fully synchronous execution) and as the fast path for complexity
    sweeps.
    """

    def __init__(self, delta: float = 1.0, min_delay: float = 0.1, seed: int = 0,
                 schedule_hook: Optional[ScheduleHook] = None):
        super().__init__(gst=0.0, delta=delta, min_delay=min_delay, seed=seed, schedule_hook=schedule_hook)


class PartitionDelayModel(DelayModel):
    """Delays all communication between two process groups until a release time.

    This is the scheduling used by the classical partitioning argument
    (Lemma 2 of the paper): groups ``A`` and ``C`` do not hear from each
    other until after both sides have decided.  The release time is also used
    as the GST unless an explicit one is given.  Either way the base class
    clamps correct-sender deliveries to the contract, so passing an explicit
    ``gst < release_time`` shortens the partition for correct senders instead
    of silently violating partial synchrony (Byzantine cross-group messages
    stay delayed until release).
    """

    def __init__(
        self,
        group_a: set,
        group_c: set,
        release_time: float,
        delta: float = 1.0,
        min_delay: float = 0.1,
        seed: int = 0,
        gst: Optional[float] = None,
        schedule_hook: Optional[ScheduleHook] = None,
    ):
        self.group_a = frozenset(group_a)
        self.group_c = frozenset(group_c)
        if self.group_a & self.group_c:
            raise ValueError("partitioned groups must be disjoint")
        self.release_time = release_time
        super().__init__(
            gst=release_time if gst is None else gst,
            delta=delta,
            min_delay=min_delay,
            seed=seed,
            schedule_hook=schedule_hook,
        )

    def _candidate_delays(self, sender: int, receivers: Sequence[int], send_time: float) -> List[float]:
        # A message crosses when it goes from one group to the other.  Within a
        # group (or involving processes outside both groups) the adversary
        # chooses prompt, synchronous-looking delays even before GST: this is
        # exactly the scheduling freedom the partitioning argument exploits.
        if send_time >= self.release_time:
            other: frozenset = frozenset()
        elif sender in self.group_a:
            other = self.group_c
        elif sender in self.group_c:
            other = self.group_a
        else:
            other = frozenset()
        prompt = send_time + self.min_delay
        released = self.release_time + self.min_delay
        span = self.delta - self.min_delay
        random = self._rng.random
        return [(released if receiver in other else prompt) + random() * span for receiver in receivers]


class StalledDelayModel(DelayModel):
    """Stalls traffic among non-favoured processes until ``stall_until``.

    The adversarial scheduling behind the split-brain attack on leader-based
    consensus at ``n <= 3t``: messages between *non-favoured* processes
    (typically the correct ones) are held back until ``stall_until``, while
    any message with a favoured sender **or** receiver — the adversary's own
    traffic in both directions — is delivered promptly.  A Byzantine leader
    can therefore run private vote-collection conversations with disjoint
    groups of correct processes faster than those groups can compare notes.

    ``stall_until`` doubles as the GST, so the stall is exactly the pre-GST
    scheduling freedom the partial-synchrony model grants: the base-class
    clamp still bounds every correct-sender delivery by
    ``max(send, gst) + delta``, and after ``stall_until`` the network behaves
    like the default prompt model.
    """

    def __init__(
        self,
        favoured: set,
        stall_until: float,
        delta: float = 1.0,
        min_delay: float = 0.1,
        seed: int = 0,
        schedule_hook: Optional[ScheduleHook] = None,
    ):
        self.favoured = frozenset(favoured)
        self.stall_until = stall_until
        super().__init__(
            gst=stall_until,
            delta=delta,
            min_delay=min_delay,
            seed=seed,
            schedule_hook=schedule_hook,
        )

    def _candidate_delays(self, sender: int, receivers: Sequence[int], send_time: float) -> List[float]:
        # Every message draws a prompt delay; a stalled one (no favoured end,
        # before stall_until) draws a second, after the stall, and keeps that.
        early = send_time + self.min_delay
        span = self.delta - self.min_delay
        random = self._rng.random
        if send_time >= self.stall_until or sender in self.favoured:
            return [early + random() * span for _ in receivers]
        stalled = self.stall_until + self.min_delay
        favoured = self.favoured
        times = []
        for receiver in receivers:
            prompt = early + random() * span
            times.append(prompt if receiver in favoured else stalled + random() * span)
        return times


class JitteredDelayModel(DelayModel):
    """Heavy-tailed (Pareto) message jitter before GST, calm after it.

    Before GST every message draws an extra Pareto-distributed delay on top
    of ``min_delay`` — most messages arrive promptly, a heavy tail straggles
    (and is clamped to ``GST + delta`` by the base class for correct
    senders).  After GST the network behaves like the default uniform model.
    This models the "unstable network that eventually stabilises" reading of
    partial synchrony, in between the benign ``eventual`` model and the fully
    adversarial partition schedules.

    Args:
        alpha: Pareto tail exponent (smaller = heavier tail; must be > 0).
        jitter_scale: Scale of the pre-GST jitter, in time units (defaults
            to ``delta``).
    """

    def __init__(
        self,
        gst: float = 5.0,
        delta: float = 1.0,
        min_delay: float = 0.1,
        seed: int = 0,
        alpha: float = 1.5,
        jitter_scale: Optional[float] = None,
        schedule_hook: Optional[ScheduleHook] = None,
    ):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        super().__init__(gst=gst, delta=delta, min_delay=min_delay, seed=seed, schedule_hook=schedule_hook)
        self.alpha = alpha
        self.jitter_scale = delta if jitter_scale is None else jitter_scale

    def _candidate_delays(self, sender: int, receivers: Sequence[int], send_time: float) -> List[float]:
        earliest = send_time + self.min_delay
        if send_time >= self.gst:
            span = self.delta - self.min_delay
            random = self._rng.random
            return [earliest + random() * span for _ in receivers]
        # paretovariate() >= 1, so the extra jitter starts at 0 and has a
        # heavy right tail; stragglers are clamped to GST + delta by the base.
        pareto, alpha, scale = self._rng.paretovariate, self.alpha, self.jitter_scale
        return [earliest + (pareto(alpha) - 1.0) * scale for _ in receivers]
