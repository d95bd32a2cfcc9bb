"""Non-authenticated vector consensus (Algorithm 3 of the paper, Appendix B.2).

This variant uses no cryptography at all.  It follows the classical reduction
from binary to multivalued consensus:

1. every process reliably broadcasts its proposal (Bracha broadcast, line 10);
2. when the proposal of process ``P_j`` is delivered, the process proposes
   ``1`` to the ``j``-th binary consensus instance (line 15) — unless the
   "stop proposing ones" phase has started;
3. once ``n - t`` binary instances have decided ``1``, the process proposes
   ``0`` to every instance it has not yet proposed to (line 20);
4. when *all* instances have decided, and the proposals of the first
   ``n - t`` processes whose instances decided ``1`` have been delivered, the
   process decides the input configuration assembled from those proposals
   (lines 21-23).

Its message complexity is dominated by the ``n`` reliable-broadcast instances
and the ``n`` binary-consensus instances, i.e. two orders of magnitude more
than Algorithm 1 — the gap the E6 experiment measures.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Optional

from ..broadcast.reliable import ByzantineReliableBroadcast
from ..core.input_config import InputConfiguration, ProcessProposal
from ..sim.process import Process, ProtocolModule
from .binary import BinaryConsensus
from .interfaces import ConsensusModule, DecisionCallback


class NonAuthenticatedVectorConsensus(ConsensusModule):
    """Algorithm 3: signature-free vector consensus from Bracha broadcast + binary consensus."""

    # Proposals are Bracha deliveries, never messages on this module's own path:
    # only ``self.brb`` dispatches against this table, as ``(origin, message)``.
    DELIVERED = {"proposal": ("_on_proposal_delivered", (object,))}

    def __init__(
        self,
        process: Process,
        name: str = "vector",
        parent: Optional[ProtocolModule] = None,
        on_decide: Optional[DecisionCallback] = None,
    ):
        super().__init__(process, name, parent, on_decide)
        self.brb = ByzantineReliableBroadcast(
            process, name="brb", parent=self, on_deliver=partial(self.on_message, messages=self.DELIVERED)
        )
        self.instances: Dict[int, BinaryConsensus] = {}
        for origin in range(self.n):
            self.instances[origin] = BinaryConsensus(
                process,
                name=f"dbft-{origin}",
                parent=self,
                on_decide=self._make_instance_callback(origin),
            )
        self._proposals: Dict[int, Any] = {}
        self._instance_decisions: Dict[int, int] = {}
        self._proposing_ones = True
        self._proposed_to: set = set()

    # ------------------------------------------------------------------
    def _handle_proposal(self, value: Any) -> None:
        self.brb.broadcast_message(("proposal", value))

    def _on_proposal_delivered(self, origin: int, value: Any) -> None:
        if origin in self._proposals:
            return
        self._proposals[origin] = value
        if self._proposing_ones and origin not in self._proposed_to:
            self._proposed_to.add(origin)
            self.instances[origin].propose(1)
        self._maybe_decide()

    def _make_instance_callback(self, origin: int):
        def on_instance_decide(value: int) -> None:
            self._instance_decisions[origin] = value
            self._maybe_stop_proposing_ones()
            self._maybe_decide()

        return on_instance_decide

    # ------------------------------------------------------------------
    def _maybe_stop_proposing_ones(self) -> None:
        if not self._proposing_ones:
            return
        ones = sum(1 for value in self._instance_decisions.values() if value == 1)
        if ones >= self.system.quorum:
            self._proposing_ones = False
            for origin in range(self.n):
                if origin not in self._proposed_to:
                    self._proposed_to.add(origin)
                    self.instances[origin].propose(0)

    def _maybe_decide(self) -> None:
        if self.has_decided():
            return
        if len(self._instance_decisions) < self.n:
            return
        winners = [origin for origin in range(self.n) if self._instance_decisions[origin] == 1]
        if len(winners) < self.system.quorum:
            # Cannot happen when the protocol is used correctly (at least the
            # n - t instances of correct processes eventually decide 1), but
            # guard against it instead of assembling an undersized vector.
            return
        chosen = winners[: self.system.quorum]
        if any(origin not in self._proposals for origin in chosen):
            return  # Totality of reliable broadcast will eventually deliver them.
        vector = InputConfiguration(
            ProcessProposal(origin, self._proposals[origin]) for origin in chosen
        )
        self._decide(vector)
