"""Reference (deliberately naive) event loop for the simulator.

:class:`ReferenceSimulation` runs the same processes, delay models and
metrics as :class:`repro.sim.simulation.Simulation`, but does each step the
obvious way:

* a send is taken apart into its messages: each receiver gets its own
  ``record_message`` call and its own ``DelayModel.delivery_time`` call, in
  receiver order;
* every message is queued, also one to a process that never listens or to
  an index that has no process at all, and is delivered through
  ``Process.deliver_message`` when it is popped;
* the "every correct process decided" stop is a full scan of the correct
  processes after every event.

It lives beside the tests, outside the ``repro`` import path and the
store's code fingerprint, because nothing but ``test_reference_simulation.py``
uses it.  The production loop must produce the same result, the same metrics
and the same events, less the deliveries to non-listeners that it never
queues.  Being the oracle, this module should stay boring: do not optimise
it.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional, Sequence, Tuple

from repro.sim.events import Envelope, Event, TimerExpiry
from repro.sim.metrics import MetricsCollector
from repro.sim.simulation import Simulation, SimulationError

_START = ("__start__",)


class ReferenceSimulation(Simulation):
    """A :class:`Simulation` whose sending and event loop are the naive ones."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.reference_queue: list = []
        self.reference_sequence = 0
        self.reference_events = 0  # every popped event, deliveries to non-listeners included
        self.unheard_deliveries = 0  # popped deliveries whose receiver does not listen

    # ------------------------------------------------------------------
    def _enqueue(self, time: float, kind: str, target: int, data: Any) -> None:
        self.reference_sequence += 1
        heapq.heappush(self.reference_queue, (time, self.reference_sequence, kind, target, data))

    def transmit(self, sender: int, receivers: Sequence[int], envelope: Envelope) -> None:
        send_time = self.time
        sender_correct = sender in self.correct_processes
        for receiver in receivers:
            self.metrics.record_message(sender, send_time, envelope.payload, envelope.path, sender_correct)
            delivery = self.delay_model.delivery_time(sender, receiver, send_time, sender_correct)
            self._enqueue(delivery, Event.MESSAGE, receiver, (sender, envelope))

    def schedule_timer(self, pid: int, delay: float, path: Tuple[str, ...], tag: Any) -> None:
        if delay < 0:
            raise ValueError("timer delay must be non-negative")
        self._enqueue(self.time + delay, Event.TIMER, pid, TimerExpiry(path, tag))

    # ------------------------------------------------------------------
    def _everyone_correct_decided(self) -> bool:
        for pid in self.correct_processes:
            process = self.processes.get(pid)
            if process is not None and process.decision is None:
                return False
        return True

    def _run(self, until: Optional[float], max_events: int, stop_once_decided: bool) -> MetricsCollector:
        if not self._started:
            for pid in self.processes:
                self._enqueue(self._start_times[pid], Event.TIMER, pid, TimerExpiry(_START, None))
            self._started = True
        while self.reference_queue:
            # The cap counts the events the production loop would have processed.
            if self.reference_events - self.unheard_deliveries >= max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; the protocol is likely not terminating"
                )
            event = heapq.heappop(self.reference_queue)
            time, _sequence, kind, target, data = event
            if until is not None and time > until:
                heapq.heappush(self.reference_queue, event)
                break
            self.time = max(self.time, time)
            self.reference_events += 1
            process = self.processes.get(target)
            if kind == Event.MESSAGE:
                if process is None or not process.listens:
                    self.unheard_deliveries += 1
                if process is not None:
                    sender, envelope = data
                    process.deliver_message(sender, envelope)
            elif process is not None:
                if data.path == _START:
                    process.on_start()
                else:
                    process.deliver_timer(data)
            if stop_once_decided and self._everyone_correct_decided():
                break
        return self.metrics
