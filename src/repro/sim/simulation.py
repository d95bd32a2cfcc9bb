"""The discrete-event simulation driver.

:class:`Simulation` owns the event queue, the clock, the network delay
model, the (simulated) PKI, the fault assignment, and the complexity
metrics.  A run is fully deterministic given the system parameters, the
delay model (including its seed) and the process implementations, which is
what makes the complexity experiments reproducible.

The event loop is the hottest code in the repository — every message and
timer of every sweep run passes through it — so it is written tuple-first:
queue entries are plain tuples (see :mod:`repro.sim.events`), and the "all
correct processes decided" stop condition is a counter maintained by
:meth:`record_decision` instead of an O(n) scan after every event.

One delivery is one frame before the protocol handler.  A message entry is
``(time, sequence, kind, receiver, sender, envelope)``; nothing else is
allocated per delivery.  At the start of a run the loop builds one route
per process: the process's module dict when its class keeps the inherited
:meth:`Process.deliver_message`, ``None`` when the class overrides it.  A
routed delivery looks the envelope's path up and calls the module's
``on_message(sender, payload)`` itself (an unknown path goes to
:meth:`Process.on_unrouted_message`); an override is called as
``deliver_message(sender, envelope)``.

One send is one call: :meth:`Simulation.transmit` takes the send's whole
receiver sequence (``range(n)`` for a broadcast, a one-tuple otherwise),
records its messages once, draws every receiver's delay, in receiver
order, in one :meth:`~repro.sim.network.DelayModel.delivery_times` call
and queues the deliveries with one sequence number per message.  A
delivery to a receiver that never listens — no process at all, or a class
with :attr:`Process.listens` false, such as a silent process — is counted
and gets its delay drawn, but is not queued, so it is not an event and
:attr:`Simulation.events_processed` does not count it.  None of this
changes the event order or the random streams: regression baselines are
byte-identical to the pre-optimization driver.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.system import SystemConfig
from ..crypto.signatures import KeyAuthority
from . import instrument
from .events import Envelope, Event, TimerExpiry
from .metrics import MetricsCollector
from .network import DelayModel
from .process import Process

# The routing the loop inlines; a class whose deliver_message is anything else is called instead.
_INHERITED_DELIVERY = Process.deliver_message

_MESSAGE = Event.MESSAGE
_TIMER = Event.TIMER
_START_PATH = ("__start__",)
_heappush = heapq.heappush


class SimulationError(RuntimeError):
    """Raised when a simulation run exceeds its safety limits."""


class Simulation:
    """A single execution of the simulated distributed system."""

    def __init__(
        self,
        system: SystemConfig,
        delay_model: Optional[DelayModel] = None,
        seed: int = 0,
        authority: Optional[KeyAuthority] = None,
    ):
        self.system = system
        self.delay_model = delay_model if delay_model is not None else DelayModel(seed=seed)
        self.authority = authority if authority is not None else KeyAuthority(system.n, seed=seed)
        self.metrics = MetricsCollector(gst=self.delay_model.gst)
        self.time = 0.0
        self.events_processed = 0
        self.processes: Dict[int, Process] = {}
        self._correct: Set[int] = set()
        self._correct_view: Optional[FrozenSet[int]] = None
        self._listens: List[bool] = [False] * system.n  # pid -> is a delivery to it queued
        self._decided_correct = 0
        self._queue: List[tuple] = []
        self._sequence = 0
        self._started = False
        self._start_times: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_process(self, process: Process, correct: bool = True, start_time: float = 0.0) -> Process:
        """Register a process implementation for one process index.

        Args:
            process: The process object (its ``pid`` selects the slot).
            correct: Whether the process counts as correct for the metrics
                and the correctness checks.  Byzantine behaviours are added
                with ``correct=False``.
            start_time: When the process begins executing.  The paper assumes
                correct processes start at or before GST; this is asserted.
        """
        if process.pid in self.processes:
            raise ValueError(f"process {process.pid} already added")
        if correct and start_time > self.delay_model.gst:
            raise ValueError(
                f"correct process {process.pid} would start at {start_time}, after GST="
                f"{self.delay_model.gst}; the model requires correct processes to start by GST"
            )
        self.processes[process.pid] = process
        self._listens[process.pid] = process.listens
        if correct:
            self._correct.add(process.pid)
            self._correct_view = None
        self._start_times[process.pid] = start_time
        return process

    def populate(
        self,
        process_factory: Callable[[int, "Simulation"], Process],
        faulty: Iterable[int] = (),
        faulty_factory: Optional[Callable[[int, "Simulation"], Process]] = None,
        start_times: Optional[Dict[int, float]] = None,
    ) -> None:
        """Build the whole system from factories.

        Correct processes are created with ``process_factory``.  Faulty
        indices either get a Byzantine process from ``faulty_factory`` or are
        left silent (crashed from the start) when no factory is given.
        """
        faulty_set = set(faulty)
        if len(faulty_set) > self.system.t:
            raise ValueError(
                f"{len(faulty_set)} faulty processes exceed the threshold t={self.system.t}"
            )
        times = start_times or {}
        for pid in range(self.system.n):
            start = times.get(pid, 0.0)
            if pid in faulty_set:
                if faulty_factory is not None:
                    self.add_process(faulty_factory(pid, self), correct=False, start_time=start)
                continue
            self.add_process(process_factory(pid, self), correct=True, start_time=start)

    def is_correct(self, pid: int) -> bool:
        return pid in self._correct

    @property
    def correct_processes(self) -> FrozenSet[int]:
        """The correct process indices, as a cached immutable view.

        This is read inside hot predicates, so it must not copy: the view is
        built once per topology change and shared between calls.
        """
        view = self._correct_view
        if view is None:
            view = self._correct_view = frozenset(self._correct)
        return view

    # ------------------------------------------------------------------
    # Event scheduling
    # ------------------------------------------------------------------
    def _push(self, time: float, kind: str, target: int, data: Any) -> None:
        self._sequence += 1
        _heappush(self._queue, (time, self._sequence, kind, target, data))

    def transmit(self, sender: int, receivers: Sequence[int], envelope: Envelope) -> None:
        """Send ``envelope`` from ``sender`` to each of ``receivers`` (called by processes).

        One call per send: the caller checked the receiver it chose
        (``ProtocolModule.send``, ``Process.send_raw``); a broadcast's
        ``range(n)`` needs no check.  ``receivers`` must not be empty.
        """
        send_time = self.time
        sender_correct = sender in self._correct
        self.metrics.record_message(
            sender, send_time, envelope.payload, envelope.path, sender_correct, len(receivers)
        )
        if instrument.SINK is not None:
            payload = envelope.payload
            kind = payload[0] if type(payload) is tuple and payload else type(payload).__name__
            instrument.SINK.add(
                ("transmit", envelope.path[0] if envelope.path else "?", kind, sender_correct)
            )
        # DelayModel.delivery_times is final and already enforces the
        # min_delay causality floor and the GST + delta contract.
        times = self.delay_model.delivery_times(sender, receivers, send_time, sender_correct)
        listens = self._listens
        queue = self._queue
        sequence = self._sequence
        for receiver, delivery_time in zip(receivers, times):
            sequence += 1
            if listens[receiver]:
                _heappush(queue, (delivery_time, sequence, _MESSAGE, receiver, sender, envelope))
        self._sequence = sequence

    def schedule_timer(self, pid: int, delay: float, path: Tuple[str, ...], tag: Any) -> None:
        """Schedule a timer for a process (called by processes)."""
        if delay < 0:
            raise ValueError("timer delay must be non-negative")
        sequence = self._sequence + 1
        self._sequence = sequence
        _heappush(self._queue, (self.time + delay, sequence, _TIMER, pid, TimerExpiry(path, tag)))

    def record_decision(self, pid: int, value: Any) -> None:
        if pid in self._correct:
            if pid not in self.metrics.decisions:
                self._decided_correct += 1
            self.metrics.record_decision(pid, self.time, value)
            if instrument.SINK is not None:
                instrument.SINK.add(
                    ("decide", type(value).__name__, instrument.bucket(self._decided_correct))
                )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _start_processes(self) -> None:
        for pid, process in self.processes.items():
            self._push(self._start_times[pid], _TIMER, pid, TimerExpiry(path=_START_PATH, tag=None))
        self._started = True

    def run(self, until: Optional[float] = None, max_events: int = 2_000_000) -> MetricsCollector:
        """Run the event loop until the queue drains or the horizon is reached.

        Args:
            until: Optional simulated-time horizon.
            max_events: Safety bound on processed events.

        Returns:
            The metrics collector (also available as ``self.metrics``).
        """
        return self._run(until, max_events, stop_once_decided=False)

    def run_until_all_correct_decide(
        self, until: Optional[float] = None, max_events: int = 2_000_000
    ) -> MetricsCollector:
        """Run until every correct process has decided (or the queue drains).

        The stop condition costs O(1) per event: :meth:`record_decision`
        maintains a counter of distinct decided correct processes, which the
        loop compares against the number of correct processes.
        """
        return self._run(until, max_events, stop_once_decided=True)

    def _run(self, until: Optional[float], max_events: int, stop_once_decided: bool) -> MetricsCollector:
        if not self._started:
            self._start_processes()
        processed = 0
        queue = self._queue
        processes = self.processes
        # pid -> the module dict the loop routes through, or None: call the override.
        routes = {
            pid: process._modules if type(process).deliver_message is _INHERITED_DELIVERY else None
            for pid, process in processes.items()
        }
        correct_count = len(self._correct)
        heappop = heapq.heappop
        while queue:
            if processed >= max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; the protocol is likely not terminating"
                )
            event = heappop(queue)
            event_time = event[0]
            if until is not None and event_time > until:
                # Leave the event unprocessed and stop: the horizon is reached.
                heapq.heappush(queue, event)
                break
            if event_time > self.time:
                self.time = event_time
            # Dispatch, inlined (this is the per-event hot path).  Only listening
            # processes have message entries, so a message's receiver exists.
            if event[2] == _MESSAGE:
                _, _, _, receiver, sender, envelope = event
                modules = routes[receiver]
                if modules is None:
                    processes[receiver].deliver_message(sender, envelope)
                else:
                    module = modules.get(envelope.path)
                    if module is None:
                        processes[receiver].on_unrouted_message(sender, envelope)
                    else:
                        module.on_message(sender, envelope.payload)
            else:
                process = processes.get(event[3])
                if process is not None:
                    expiry = event[4]
                    if expiry.path == _START_PATH:
                        process.on_start()
                    else:
                        process.deliver_timer(expiry)
            processed += 1
            self.events_processed += 1
            if stop_once_decided and self._decided_correct >= correct_count:
                break
        return self.metrics

    # ------------------------------------------------------------------
    # Correctness checks used by tests and experiments
    # ------------------------------------------------------------------
    def all_correct_decided(self) -> bool:
        return all(self.processes[pid].has_decided() for pid in self._correct if pid in self.processes)

    def agreement_holds(self) -> bool:
        """No two correct processes decided different values."""
        decided = [
            self.processes[pid].decision
            for pid in self._correct
            if pid in self.processes and self.processes[pid].has_decided()
        ]
        return all(value == decided[0] for value in decided) if decided else True

    def decisions(self) -> Dict[int, Any]:
        """Decisions of correct processes (process -> value)."""
        return {
            pid: self.processes[pid].decision
            for pid in self._correct
            if pid in self.processes and self.processes[pid].has_decided()
        }
