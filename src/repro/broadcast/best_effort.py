"""Best-effort broadcast (the paper's ``beb`` building block).

Best-effort broadcast simply sends a message to every process over the
authenticated point-to-point links.  It gives no guarantees when the sender
is faulty; when the sender is correct, reliability of the links ensures that
every correct process eventually delivers the message.  Both vector-consensus
algorithms of the paper use it for their ``proposal`` and ``confirm``
messages.

The payload format belongs to the user, so this module declares no message
table and forwards every delivery untouched.  A best-effort delivery is
exactly a link message from its sender, so the in-tree users pass their own
dispatcher, ``on_deliver=self.on_message``, and what arrives here is checked
against their ``MESSAGES`` like anything sent to their own path.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim.process import Process, ProtocolModule

DeliverCallback = Callable[[int, Any], None]


class BestEffortBroadcast(ProtocolModule):
    """Best-effort broadcast module.

    Args:
        process: Owning process.
        name: Module name (unique among siblings).
        parent: Parent module, if any.
        on_deliver: Callback invoked as ``on_deliver(sender, message)`` for
            every received broadcast message.
    """

    def __init__(
        self,
        process: Process,
        name: str = "beb",
        parent: Optional[ProtocolModule] = None,
        on_deliver: Optional[DeliverCallback] = None,
    ):
        super().__init__(process, name, parent)
        self._on_deliver = on_deliver

    def broadcast_message(self, message: Any) -> None:
        """Broadcast ``message`` to all ``n`` processes (including ourselves)."""
        self.broadcast(message)

    def on_message(self, sender: int, payload: Any) -> None:
        if self._on_deliver is not None:
            self._on_deliver(sender, payload)
