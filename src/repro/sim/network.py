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
contract.

Shipped candidate models:

* :class:`DelayModel` — uniform jitter in ``[min_delay, delta]`` after GST and
  uniform in the full contract window before GST;
* :class:`SynchronousDelayModel` — GST = 0 (synchronous from the start);
* :class:`HeldLinksDelayModel` — chosen directed links are held until a
  release time while every other link is prompt: the ``partition`` schedule
  of Lemma 2 holds the links between two groups, the ``stalled`` schedule
  behind the split-brain attack at ``n <= 3t`` holds the links among the
  correct processes;
* :class:`JitteredDelayModel` — heavy-tailed (Pareto) jitter before GST,
  modelling an unstable network that calms down at GST.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Tuple


class DelayModel:
    """Computes delivery times under partial synchrony.

    ``delivery_times`` is **final**: it asks :meth:`_candidate_delays` for
    one candidate delivery time per receiver and clamps the results to the
    partial-synchrony contract for correct senders, so no subclass can
    accidentally violate the model.  Subclasses express network behaviours
    by overriding :meth:`_candidate_delays` only.

    Args:
        gst: The Global Stabilization Time of the execution.
        delta: The known post-GST delay bound.
        min_delay: Minimum link latency (must be positive so that causality
            is preserved and the event loop always makes progress).
        seed: Seed for the deterministic pseudo-random delays.
    """

    def __init__(
        self,
        gst: float = 0.0,
        delta: float = 1.0,
        min_delay: float = 0.1,
        seed: int = 0,
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
        candidate model (they carry no guarantee in the model) but never
        below the ``min_delay`` causality floor.
        """
        times = self._candidate_delays(sender, receivers, send_time)
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

    The ``synchronous`` scenario delay model, and the fast path for
    complexity sweeps.
    """

    def __init__(self, delta: float = 1.0, min_delay: float = 0.1, seed: int = 0):
        super().__init__(gst=0.0, delta=delta, min_delay=min_delay, seed=seed)


class HeldLinksDelayModel(DelayModel):
    """Holds chosen directed links until ``release``; every other link is prompt.

    Before ``release`` a message on a held ``(sender, receiver)`` link draws
    its delay from ``[min_delay, delta]`` counted from ``release``, and every
    other message draws the same span counted from its send — one draw per
    receiver, in receiver order.  From ``release`` on, every link is prompt.
    This is the adversary's pre-GST freedom of partial synchrony, and the
    schedule of both the Lemma 2 partition (hold the links between two
    groups until both have decided) and the split-brain stall (hold the
    links among the correct processes).

    ``release`` doubles as the GST unless an explicit ``gst`` is given.
    Either way the base class clamps correct-sender deliveries to the
    contract, so an explicit ``gst < release`` shortens the hold for correct
    senders instead of silently violating partial synchrony (a Byzantine
    sender's held messages still wait for ``release``).
    """

    def __init__(
        self,
        held: Iterable[Tuple[int, int]],
        release: float,
        delta: float = 1.0,
        min_delay: float = 0.1,
        seed: int = 0,
        gst: Optional[float] = None,
    ):
        index: dict = {}
        for sender, receiver in held:
            index.setdefault(sender, set()).add(receiver)
        self._held = {sender: frozenset(receivers) for sender, receivers in index.items()}
        self.release = release
        super().__init__(
            gst=release if gst is None else gst, delta=delta, min_delay=min_delay, seed=seed
        )

    def _candidate_delays(self, sender: int, receivers: Sequence[int], send_time: float) -> List[float]:
        held = self._held.get(sender, ()) if send_time < self.release else ()
        prompt = send_time + self.min_delay
        released = self.release + self.min_delay
        span = self.delta - self.min_delay
        random = self._rng.random
        return [(released if receiver in held else prompt) + random() * span for receiver in receivers]


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
    ):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        super().__init__(gst=gst, delta=delta, min_delay=min_delay, seed=seed)
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
