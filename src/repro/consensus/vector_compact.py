"""Vector consensus with O(n^2 log n) communication (Algorithm 6 of the paper).

Algorithm 6 removes the linear-size proposals from the consensus critical
path: instead of agreeing on the full vector (as Algorithm 1 does, paying
``O(n^3)`` communication), processes agree — via Quad — only on a *hash* of a
disseminated vector together with a threshold signature proving that enough
processes stored it, and then reconstruct the vector itself with ADD:

1. best-effort broadcast a signed ``proposal`` message (line 11);
2. upon ``n - t`` proposals, assemble the vector and hand it to vector
   dissemination (Algorithm 5), which slow-broadcasts it and acquires a
   ``(hash, threshold-signature)`` pair (lines 16-19);
3. propose the acquired pair to Quad, whose external validity predicate is
   "the threshold signature is valid for the hash" (lines 20-21);
4. when Quad decides a hash, feed the locally cached vector (or nothing, if
   this process never cached a matching vector) into ADD with that hash as
   the expected digest (lines 22-24);
5. decide the vector ADD outputs (lines 25-26).

The price is latency: slow broadcast is linear in ``delta * n^2`` in the
worst case, which the latency experiment (E10) measures.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Optional

from ..broadcast.best_effort import BestEffortBroadcast
from ..coding.add import AsynchronousDataDissemination
from ..core.input_config import InputConfiguration, ProcessProposal
from ..crypto.threshold import ThresholdScheme, ThresholdSignature
from ..sim.process import Process, ProtocolModule
from .interfaces import ConsensusModule, DecisionCallback
from .quad import Quad
from .vector_authenticated import SignedProposal, VectorConsensusProof, make_vector_verify
from .vector_dissemination import VectorDissemination


def serialise_vector(vector: InputConfiguration, proof: VectorConsensusProof) -> bytes:
    """Serialise a (vector, proof) pair into the blob handled by dissemination and ADD."""
    return pickle.dumps((vector.as_mapping(), proof), protocol=4)


def deserialise_vector(blob: bytes) -> tuple:
    """Inverse of :func:`serialise_vector`; returns ``(vector, proof)``."""
    mapping, proof = pickle.loads(blob)
    vector = InputConfiguration(ProcessProposal(pid, value) for pid, value in mapping.items())
    return vector, proof


class CompactVectorConsensus(ConsensusModule):
    """Algorithm 6: vector consensus with sub-cubic communication."""

    def __init__(
        self,
        process: Process,
        name: str = "vector",
        parent: Optional[ProtocolModule] = None,
        on_decide: Optional[DecisionCallback] = None,
    ):
        super().__init__(process, name, parent, on_decide)
        self._pair_verify = make_vector_verify(process)
        self.scheme = ThresholdScheme(self.authority, threshold=self.system.quorum)
        self.beb = BestEffortBroadcast(process, name="beb", parent=self, on_deliver=self.on_message)
        self.disseminator = VectorDissemination(
            process,
            name="disseminator",
            parent=self,
            on_acquire=self._on_acquire,
            cache_validator=self._validate_blob,
        )
        self.add = AsynchronousDataDissemination(
            process, name="add", parent=self, on_output=self._on_add_output
        )
        self.quad = Quad(
            process,
            verify=self._verify_hash_signature,
            name="quad",
            parent=self,
            on_decide=self._on_quad_decision,
        )
        self._received: Dict[int, SignedProposal] = {}
        self._proposed_to_quad = False

    # ------------------------------------------------------------------
    # Quad's external validity predicate: a valid (n - t)-threshold signature.
    # ------------------------------------------------------------------
    def _verify_hash_signature(self, blob_hash: Any, signature: Any) -> bool:
        if not isinstance(blob_hash, str) or not isinstance(signature, ThresholdSignature):
            return False
        return self.scheme.verify(signature, ("vector", blob_hash))

    def _validate_blob(self, blob: bytes) -> bool:
        """The caching check the paper mentions: cached vectors must carry valid proposal messages."""
        try:
            vector, proof = deserialise_vector(blob)
        except Exception:
            return False
        return self._pair_verify(vector, proof)

    # ------------------------------------------------------------------
    def _handle_proposal(self, value: Any) -> None:
        signature = self.authority.sign(self.pid, ("proposal", value))
        self.beb.broadcast_message(SignedProposal(sender=self.pid, value=value, signature=signature))

    # Proposals arrive through ``self.beb``.
    MESSAGES = {SignedProposal: ("_on_proposal", ())}

    def _on_proposal(self, sender: int, payload: SignedProposal) -> None:
        if payload.sender != sender or sender in self._received:
            return
        if not self.authority.verify(payload.signature, ("proposal", payload.value), expected_signer=sender):
            return
        self._received[sender] = payload
        if len(self._received) == self.system.quorum:
            vector = InputConfiguration(
                ProcessProposal(pid, signed.value) for pid, signed in self._received.items()
            )
            proof = VectorConsensusProof(self._received)
            self.stopped = True  # proposals after the quorum change nothing
            self.disseminator.disseminate(serialise_vector(vector, proof))

    def _on_acquire(self, blob_hash: str, signature: ThresholdSignature) -> None:
        if self._proposed_to_quad:
            return
        self._proposed_to_quad = True
        self.quad.propose((blob_hash, signature))

    def _on_quad_decision(self, pair: Any) -> None:
        blob_hash, _signature = pair
        cached = self.disseminator.cached_vectors.get(blob_hash)
        self.add.input(cached, expected_hash=blob_hash)

    def _on_add_output(self, blob: bytes) -> None:
        vector, _proof = deserialise_vector(blob)
        self._decide(vector)
