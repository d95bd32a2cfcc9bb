"""Slow broadcast (Algorithm 4 of the paper).

Slow broadcast staggers the dissemination of large payloads: process ``P_i``
sends its payload to one process at a time, waiting ``delta * n * i`` time
between consecutive sends (0-based ``i``; the paper's ``P_1`` waits nothing).
If the system is synchronous, the waiting time of a later process is enough
for every earlier process to finish its whole broadcast — which is exactly
why only one correct process ends up paying the full linear-size broadcast
after GST in the vector-dissemination protocol (Algorithm 5), keeping the
communication complexity quadratic.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim.process import Process, ProtocolModule

DeliverCallback = Callable[[Any, int], None]


class SlowBroadcast(ProtocolModule):
    """Algorithm 4: staggered one-by-one broadcast."""

    def __init__(
        self,
        process: Process,
        name: str = "slow",
        parent: Optional[ProtocolModule] = None,
        on_deliver: Optional[DeliverCallback] = None,
    ):
        super().__init__(process, name, parent)
        self._on_deliver = on_deliver
        self._payload: Any = None
        self._next_receiver = 0
        delta = process.simulation.delay_model.delta
        self.wait_between_sends = delta * self.n * self.pid

    # ------------------------------------------------------------------
    def broadcast_message(self, payload: Any) -> None:
        """Start the slow broadcast of ``payload``."""
        if self._payload is not None:
            raise RuntimeError("slow broadcast supports a single payload per instance")
        self._payload = payload
        self._send_next()

    def stop(self) -> None:
        """Stop participating (called when vector dissemination completes)."""
        self.stopped = True

    def _send_next(self) -> None:
        if self.stopped or self._payload is None or self._next_receiver >= self.n:
            return
        self.send(self._next_receiver, ("slow_broadcast", self._payload))
        self._next_receiver += 1
        if self._next_receiver < self.n:
            if self.wait_between_sends <= 0:
                self._send_next()
            else:
                self.set_timer(self.wait_between_sends, "next_send")

    def on_timer(self, tag: Any) -> None:
        if tag == "next_send":
            self._send_next()

    MESSAGES = {"slow_broadcast": ("_on_slow_broadcast", (object,))}

    def _on_slow_broadcast(self, sender: int, payload: Any) -> None:
        if self._on_deliver is not None:
            self._on_deliver(payload, sender)
