"""Authenticated vector consensus (Algorithm 1 of the paper).

Vector consensus lets correct processes agree on an input configuration with
exactly ``n - t`` process-proposal pairs, satisfying *Vector Validity*: if
the decided vector attributes value ``v`` to a correct process ``P``, then
``P`` really proposed ``v``.

Algorithm 1 achieves this with ``O(n^2)`` messages assuming a PKI:

1. every process best-effort broadcasts a signed ``proposal`` message
   (line 9);
2. upon receiving ``n - t`` proposal messages, a process assembles them into
   an input configuration ``vector`` and a proof ``Sigma`` (the signed
   messages themselves) and proposes ``(vector, Sigma)`` to Quad
   (lines 14-17);
3. Quad's external validity predicate checks that every pair of the vector is
   backed by a correctly signed proposal message, so whatever pair Quad
   decides satisfies Vector Validity, and the process decides the vector
   (lines 18-19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..core.input_config import InputConfiguration, ProcessProposal
from ..crypto.signatures import Signature
from ..sim.process import Process, ProtocolModule
from .interfaces import ConsensusModule, DecisionCallback
from .quad import Quad


@dataclass(frozen=True)
class SignedProposal:
    """A ``<proposal, v>_sigma_i`` message: a proposal signed by its sender."""

    sender: int
    value: Any
    signature: Signature

    def stable_fields(self) -> tuple:
        return (self.sender, self.value, self.signature.stable_fields())

    @property
    def words(self) -> int:
        return 2


class VectorConsensusProof:
    """The proof ``Sigma``: one signed proposal message per pair of the vector."""

    def __init__(self, proposals: Dict[int, SignedProposal]):
        self.proposals = dict(proposals)

    def stable_fields(self) -> tuple:
        return tuple(sorted((pid, sp.stable_fields()) for pid, sp in self.proposals.items()))

    @property
    def words(self) -> int:
        return max(1, 2 * len(self.proposals))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorConsensusProof):
            return NotImplemented
        return self.proposals == other.proposals

    def __hash__(self) -> int:
        return hash(self.stable_fields())


def make_vector_verify(process: Process):
    """Build Quad's external ``verify`` predicate for vector consensus.

    ``verify(vector, Sigma)`` holds iff the vector has exactly ``n - t``
    pairs and every process-proposal pair is accompanied by a proposal
    message properly signed by that process.
    """
    system = process.system
    authority = process.authority

    def verify(vector: Any, proof: Any) -> bool:
        if not isinstance(vector, InputConfiguration) or not isinstance(proof, VectorConsensusProof):
            return False
        if vector.size != system.quorum:
            return False
        for pair in vector.pairs:
            signed = proof.proposals.get(pair.process)
            if signed is None or signed.value != pair.proposal or signed.sender != pair.process:
                return False
            if not authority.verify(signed.signature, ("proposal", signed.value), expected_signer=pair.process):
                return False
        return True

    return verify


class AuthenticatedVectorConsensus(ConsensusModule):
    """Algorithm 1: authenticated vector consensus with ``O(n^2)`` messages."""

    def __init__(
        self,
        process: Process,
        name: str = "vector",
        parent: Optional[ProtocolModule] = None,
        on_decide: Optional[DecisionCallback] = None,
    ):
        super().__init__(process, name, parent, on_decide)
        self._received: Dict[int, SignedProposal] = {}
        self.quad = Quad(
            process,
            verify=make_vector_verify(process),
            name="quad",
            parent=self,
            on_decide=self._on_quad_decision,
        )

    # ------------------------------------------------------------------
    def _handle_proposal(self, value: Any) -> None:
        signature = self.authority.sign(self.pid, ("proposal", value))
        self.broadcast(SignedProposal(sender=self.pid, value=value, signature=signature))

    MESSAGES = {SignedProposal: ("_on_proposal", ())}

    def _on_proposal(self, sender: int, payload: SignedProposal) -> None:
        if sender in self._received or payload.sender != sender:
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
            self.quad.propose((vector, proof))

    def _on_quad_decision(self, pair: Any) -> None:
        vector, _proof = pair
        self._decide(vector)
