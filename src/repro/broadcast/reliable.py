"""Byzantine reliable broadcast (Bracha) — the ``brb`` building block.

The non-authenticated vector consensus (Algorithm 3 of the paper) relies on
Bracha's signature-free Byzantine reliable broadcast, which guarantees:

* *Validity*: if a correct process broadcasts ``m``, it eventually delivers ``m``.
* *Consistency*: no two correct processes deliver different messages from the
  same origin.
* *Integrity*: at most one message is delivered per origin, and if the origin
  is correct it is the message that origin broadcast.
* *Totality*: if a correct process delivers a message from an origin, every
  correct process eventually delivers a message from that origin.

This implementation multiplexes every origin over one module: each process
may broadcast one message, and deliveries are reported as
``on_deliver(origin, message)``.  The echo/ready thresholds are the standard
ones for ``n > 3t``: ``ceil((n + t + 1) / 2)`` echoes to send ``ready``,
``t + 1`` readies to amplify, ``2t + 1`` readies to deliver.

Messages are keyed by ``(origin, digest(message))``.  Every echo and ready
of one origin carries the very object the origin sent, so each module
digests an object once: a memo keyed on ``id(message)`` holds
``(message, digest)``, and a hit requires the stored object ``is`` the
message (the stored reference also keeps the id from being reused).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..crypto.hashing import digest
from ..sim.process import Process, ProtocolModule

DeliverCallback = Callable[[int, Any], None]

_SEND = "send"
_ECHO = "echo"
_READY = "ready"


class ByzantineReliableBroadcast(ProtocolModule):
    """Bracha reliable broadcast for every origin in the system."""

    def __init__(
        self,
        process: Process,
        name: str = "brb",
        parent: Optional[ProtocolModule] = None,
        on_deliver: Optional[DeliverCallback] = None,
    ):
        super().__init__(process, name, parent)
        self._on_deliver = on_deliver
        n, t = self.system.n, self.system.t
        self.echo_threshold = (n + t) // 2 + 1
        self.ready_amplification_threshold = t + 1
        self.delivery_threshold = 2 * t + 1
        # Per-origin state, keyed by origin process index.
        self._echoed: Set[int] = set()  # origins whose first SEND this process echoed
        self._readied: Set[Tuple[int, str]] = set()
        self._delivered: Set[int] = set()
        self._echo_senders: Dict[Tuple[int, str], Set[int]] = {}
        self._ready_senders: Dict[Tuple[int, str], Set[int]] = {}
        self._payloads: Dict[Tuple[int, str], Any] = {}
        self._digests: Dict[int, Tuple[Any, str]] = {}  # id(message) -> (message, digest(message))

    # ------------------------------------------------------------------
    def broadcast_message(self, message: Any) -> None:
        """Reliably broadcast ``message`` with this process as the origin."""
        self.broadcast((_SEND, message))

    # ------------------------------------------------------------------
    # A SEND's origin is its sender; ECHO and READY name the origin they vouch for.
    MESSAGES = {
        _SEND: ("_handle_send", (object,)),
        _ECHO: ("_handle_echo", (int, object)),
        _READY: ("_handle_ready", (int, object)),
    }

    def _key(self, origin: int, message: Any) -> Tuple[int, str]:
        entry = self._digests.get(id(message))
        if entry is None or entry[0] is not message:
            entry = self._digests[id(message)] = (message, digest(message))
        return (origin, entry[1])

    def _handle_send(self, origin: int, message: Any) -> None:
        if origin in self._echoed:
            # A repeat, or the origin equivocated; echo only its first message.
            return
        self._echoed.add(origin)
        key = self._key(origin, message)
        self._payloads[key] = message
        self.broadcast((_ECHO, origin, message))

    def _handle_echo(self, sender: int, origin: int, message: Any) -> None:
        key = self._key(origin, message)
        self._payloads.setdefault(key, message)
        senders = self._echo_senders.setdefault(key, set())
        senders.add(sender)
        if len(senders) >= self.echo_threshold:
            self._send_ready(key, message)

    def _handle_ready(self, sender: int, origin: int, message: Any) -> None:
        key = self._key(origin, message)
        self._payloads.setdefault(key, message)
        senders = self._ready_senders.setdefault(key, set())
        senders.add(sender)
        if len(senders) >= self.ready_amplification_threshold:
            self._send_ready(key, message)
        if len(senders) >= self.delivery_threshold:
            self._deliver(key)

    def _send_ready(self, key: Tuple[int, str], message: Any) -> None:
        if key in self._readied:
            return
        self._readied.add(key)
        self.broadcast((_READY, key[0], message))

    def _deliver(self, key: Tuple[int, str]) -> None:
        origin = key[0]
        if origin in self._delivered:
            return
        self._delivered.add(origin)
        if self._on_deliver is not None:
            self._on_deliver(origin, self._payloads[key])
