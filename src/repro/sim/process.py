"""Processes and composable protocol modules, and the one message path between them.

A :class:`Process` is one node of the simulated system.  Protocol logic is
written as :class:`ProtocolModule` subclasses organised in a tree inside the
process — for example Universal owns a vector-consensus module, which owns a
Quad module, which owns a best-effort broadcast module.  Messages carry the
destination module's path so that each module only ever sees its own
messages, which keeps every protocol implementation self-contained and lets
them be stacked exactly the way the paper's pseudocode stacks its building
blocks ("Uses: ...").

Receiving.  Up to ``t`` processes may send arbitrary objects, and every
algorithm of the paper assumes that a correct process ignores malformed
input.  That assumption is implemented once: each module class declares the
messages it accepts in :attr:`ProtocolModule.MESSAGES`, a table from *kind*
to ``(handler name, field types)``.  The kind of a tuple payload is its first
element, a ``str``; the kind of any other payload is its class (for example
``SignedProposal``).  :meth:`ProtocolModule.on_message` is the only
dispatcher.  It drops a payload whose kind is missing, unhashable or unknown,
a tuple of the wrong arity and a field failing ``isinstance`` against its
declared type, then calls ``handler(sender, *fields)`` for a tuple and
``handler(sender, payload)`` for a class kind.  Handlers keep the value and
state rules (a round is positive, a signature verifies); the shape is
settled before they run.  A module that has stopped listening sets
:attr:`ProtocolModule.stopped`, and the dispatcher drops everything after.
Each module resolves its table once, when it is built, into
``kind -> (bound handler, field types, arity)``; a table passed to
``on_message`` (a ``DELIVERED`` table) is resolved on its first use and
kept.  No handler name is looked up per message.

Delivering.  The simulation routes a message itself: for a process whose
class keeps the inherited :meth:`Process.deliver_message` it looks the
envelope's path up in the process's module dict and calls the module's
``on_message(sender, payload)`` directly, so a delivery costs one frame
before the dispatcher.  A class that overrides ``deliver_message`` (a crash,
a dropping wrapper, a split-brain adversary) is called as
``deliver_message(sender, envelope)`` and routes on its own.

Sending.  Every send is one call to
:meth:`~repro.sim.simulation.Simulation.transmit` with one
:class:`~repro.sim.events.Envelope` and its receivers.
:meth:`ProtocolModule.send` checks the receiver it was given and passes it
as a one-tuple; :meth:`ProtocolModule.broadcast` passes ``range(n)``, which
needs no check.  Envelopes are never mutated, so one can travel in ``n``
deliveries.  :meth:`Process.send_raw` is the same step for adversaries and
tests that build their own envelopes.  A process class that never reads its
mail sets :attr:`Process.listens` to ``False``; deliveries to it are counted
but never queued.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple, Union

from .events import Envelope, TimerExpiry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.system import SystemConfig
    from ..crypto.signatures import KeyAuthority
    from .simulation import Simulation

MessageTable = Dict[Union[str, type], Tuple[str, Tuple[Any, ...]]]
"""Kind -> (handler method name, one ``isinstance`` type or type tuple per field)."""

BoundTable = Dict[Union[str, type], Tuple[Callable[..., None], Tuple[Any, ...], int]]
"""A :data:`MessageTable` resolved on one module: kind -> (bound handler, field types, arity)."""


class Process:
    """A simulated process hosting a tree of protocol modules.

    Subclasses (or users composing modules directly) override :meth:`on_start`
    to build their protocol stack and kick it off, and may override
    :meth:`on_decide` to observe decisions.  ``system``, ``n`` and
    ``authority`` are fixed for the life of the process.
    """

    listens: bool = True
    """Whether deliveries to this process are queued.  A class sets it to
    ``False`` only if it keeps the inherited :meth:`deliver_message` and
    registers no module, so every delivery would be dropped unread; the
    simulator then still counts each message to it and draws its delay, but
    queues no event."""

    def __init__(self, pid: int, simulation: "Simulation"):
        system = simulation.system
        system.validate_process(pid)
        self.pid = pid
        self.simulation = simulation
        self.system: "SystemConfig" = system
        self.n: int = system.n
        self.authority: "KeyAuthority" = simulation.authority
        self.decision: Optional[Any] = None
        self.decision_time: Optional[float] = None
        self._modules: Dict[Tuple[str, ...], ProtocolModule] = {}

    # ------------------------------------------------------------------
    # Environment accessors
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.simulation.time

    @property
    def is_correct(self) -> bool:
        return self.simulation.is_correct(self.pid)

    def has_decided(self) -> bool:
        return self.decision is not None

    # ------------------------------------------------------------------
    # Module management and routing
    # ------------------------------------------------------------------
    def register_module(self, module: "ProtocolModule") -> None:
        if module.path in self._modules:
            raise ValueError(f"module path {module.path} already registered on process {self.pid}")
        self._modules[module.path] = module

    def deliver_message(self, sender: int, envelope: Envelope) -> None:
        """Route an incoming message to the addressed module (harness callback).

        The simulation inlines exactly this routing for every class that
        keeps it, and calls an override instead where a class defines one.
        """
        module = self._modules.get(envelope.path)
        if module is None:
            self.on_unrouted_message(sender, envelope)
            return
        module.on_message(sender, envelope.payload)

    def deliver_timer(self, expiry: TimerExpiry) -> None:
        """Route a timer expiry to the addressed module (harness callback)."""
        if expiry.path == ():
            self.on_timer(expiry.tag)
            return
        module = self._modules.get(expiry.path)
        if module is not None:
            module.on_timer(expiry.tag)

    # ------------------------------------------------------------------
    # Raw communication primitives (adversaries and tests)
    # ------------------------------------------------------------------
    def send_raw(self, receiver: int, envelope: Envelope) -> None:
        self.system.validate_process(receiver)
        self.simulation.transmit(self.pid, (receiver,), envelope)

    def set_timer_raw(self, delay: float, path: Tuple[str, ...], tag: Any) -> None:
        self.simulation.schedule_timer(self.pid, delay, path, tag)

    def decide(self, value: Any) -> None:
        """Record this process's (first) decision."""
        if self.decision is None:
            self.decision = value
            self.decision_time = self.now
            self.simulation.record_decision(self.pid, value)
            self.on_decide(value)

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Called once when the process starts executing (build the stack here)."""

    def on_decide(self, value: Any) -> None:
        """Called when the process decides (after the decision is recorded)."""

    def on_timer(self, tag: Any) -> None:
        """Called for process-level timers (path ``()``)."""

    def on_unrouted_message(self, sender: int, envelope: Envelope) -> None:
        """Called for messages addressed to a module this process never built.

        The default ignores them, which is the right behaviour for Byzantine
        or crashed processes and for protocol messages arriving after the
        local stack was torn down.
        """


class ProtocolModule:
    """Base class for protocol building blocks.

    Each module owns a unique path in its process and communicates only with
    the module at the same path on other processes.  Submodules are created
    by passing ``parent``; their names must be unique among siblings.
    Subclasses declare what they receive in :attr:`MESSAGES` (see the module
    docstring) and do not override :meth:`on_message`; the pass-through
    best-effort broadcast, whose payloads belong to its user, is the one
    exception.
    """

    MESSAGES: MessageTable = {}
    _passed: Tuple[Optional[MessageTable], BoundTable] = (None, {})
    """The last table passed to :meth:`on_message` and its binding (a one-slot memo)."""

    def __init__(self, process: Process, name: str, parent: Optional["ProtocolModule"] = None):
        self.process = process
        self.name = name
        self.parent = parent
        self.path: Tuple[str, ...] = (parent.path + (name,)) if parent is not None else (name,)
        self.pid = process.pid
        self.n = process.n
        self.system = process.system
        self.authority = process.authority
        self.stopped = False  # set once the module stops listening; the dispatcher then drops everything
        # Resolved per instance, at construction: a handler patched on the class
        # before the module is built is the one that runs.
        self._handlers = self._bind(self.MESSAGES)
        process.register_module(self)

    def _bind(self, table: MessageTable) -> BoundTable:
        return {kind: (getattr(self, name), types, len(types)) for kind, (name, types) in table.items()}

    @property
    def now(self) -> float:
        return self.process.now

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def send(self, receiver: int, payload: Any) -> None:
        """Send a point-to-point message to the peer module on ``receiver``."""
        self.system.validate_process(receiver)
        self.process.simulation.transmit(self.pid, (receiver,), Envelope(self.path, payload))

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to the peer module on every process, itself included.

        The broadcast costs ``n`` messages, which matches the accounting used
        by the paper's complexity statements.
        """
        self.process.simulation.transmit(self.pid, range(self.n), Envelope(self.path, payload))

    def set_timer(self, delay: float, tag: Any) -> None:
        """Schedule :meth:`on_timer` to fire after ``delay`` time units."""
        self.process.set_timer_raw(delay, self.path, tag)

    # ------------------------------------------------------------------
    # The dispatcher, and the timer handler to override
    # ------------------------------------------------------------------
    def on_message(self, sender: int, payload: Any, messages: Optional[MessageTable] = None) -> None:
        """Validate ``payload`` against ``messages`` (default :attr:`MESSAGES`) and run its handler.

        A module whose payloads reach it through a child's callback rather
        than its own path (a Bracha delivery, say) passes that table here.
        """
        if self.stopped:
            return
        if messages is None:
            handlers = self._handlers
        else:
            passed = self._passed
            if passed[0] is not messages:
                passed = self._passed = (messages, self._bind(messages))
            handlers = passed[1]
        if type(payload) is tuple:
            kind = payload[0] if payload else None
            entry = handlers.get(kind) if type(kind) is str else None
            if entry is not None:
                fields = payload[1:]
                if len(fields) == entry[2] and all(map(isinstance, fields, entry[1])):
                    entry[0](sender, *fields)
        else:
            entry = handlers.get(type(payload))
            if entry is not None:
                entry[0](sender, payload)

    def on_timer(self, tag: Any) -> None:
        """Handle a timer scheduled with :meth:`set_timer`."""
