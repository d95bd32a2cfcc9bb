"""Event types for the discrete-event simulator.

The simulator processes two kinds of events: message deliveries and local
timer expirations.  Events are totally ordered by ``(time, sequence)`` where
the sequence number breaks ties deterministically, so a simulation run is a
pure function of its inputs (processes, delay model, seed).

Hot-path layout: the event queue holds plain tuples.  A timer entry is
``(time, sequence, kind, pid, TimerExpiry)``; a message entry is
``(time, sequence, kind, receiver, sender, envelope)``, so a delivery
allocates nothing beyond its queue tuple and the loop hands ``sender`` and
the shared :class:`Envelope` straight to the receiving module.  Heap sifting
costs one C-level tuple comparison per level, and since the sequence number
is unique the comparison never reaches the non-ordered fields.
:class:`Event` is a ``NamedTuple`` over the five leading fields (for a
message, ``data`` is the sender), so code that builds or inspects events by
attribute keeps working and its instances compare equal to timer entries.

The payload classes (:class:`Envelope`, :class:`TimerExpiry`) are allocated
once per send/timer, which makes their constructors hot.  They are plain
``__slots__`` classes with handwritten ``__init__`` — a frozen dataclass
would route every field through ``object.__setattr__``, roughly doubling the
allocation cost — but they keep dataclass-style value equality, hashing and
repr.  Treat them as immutable: one envelope travels in every delivery of
its send and nothing in the simulator mutates it.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Tuple


class Envelope:
    """A routed protocol message.

    Protocol modules are organised in a tree inside each process (for example
    Universal -> vector consensus -> Quad -> best-effort broadcast).  The
    ``path`` identifies the destination module within the receiving process;
    the ``payload`` is the module-level message.
    """

    __slots__ = ("path", "payload")

    def __init__(self, path: Tuple[str, ...], payload: Any):
        self.path = path
        self.payload = payload

    def stable_fields(self) -> tuple:
        return (self.path, self.payload)

    def __repr__(self) -> str:
        return f"Envelope(path={self.path!r}, payload={self.payload!r})"

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is Envelope:
            return self.path == other.path and self.payload == other.payload
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Envelope, self.path, self.payload))


class Event(NamedTuple):
    """A scheduled simulator event (interchangeable with the queue's raw tuples)."""

    time: float
    sequence: int
    kind: str
    target: int
    data: Any


Event.MESSAGE = "message"
Event.TIMER = "timer"


class TimerExpiry:
    """Payload of a timer event."""

    __slots__ = ("path", "tag")

    def __init__(self, path: Tuple[str, ...], tag: Any):
        self.path = path
        self.tag = tag

    def __repr__(self) -> str:
        return f"TimerExpiry(path={self.path!r}, tag={self.tag!r})"

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is TimerExpiry:
            return self.path == other.path and self.tag == other.tag
        return NotImplemented

    def __hash__(self) -> int:
        return hash((TimerExpiry, self.path, self.tag))
