"""Quad: a partially synchronous, leader-based Byzantine consensus with O(n^2) messages.

The paper uses Quad (Civit et al., DISC 2022) as a closed box with the
following contract:

* processes propose and decide *value-proof* pairs ``(v, Sigma)``;
* there is an external predicate ``verify(v, Sigma)``; correct processes
  propose only pairs with ``verify(v, Sigma) = true`` and every decided pair
  satisfies the predicate;
* Termination and Agreement hold under partial synchrony with ``n > 3t``;
* the message complexity after GST is ``O(n^2)``.

This module reimplements that contract faithfully in spirit: a view-based,
leader-driven protocol with two voting phases (prepare / commit), threshold
signatures for the quorum certificates, a locking rule for safety across
views, and timer-driven view advancement.  Each view costs ``O(n)`` messages
(the leader communicates with everyone, votes go only to the leader), a
decision is reached within ``O(t)`` views after GST under a correct leader,
and every correct process relays the final decision certificate once, so the
total message complexity is ``O(n^2)`` — matching the contract the paper
relies on.  The original Quad achieves view synchronization with RareSync;
here views advance on drift-free local timers only.  That keeps views in
step after GST only if every process starts its views together: a process
enters view 1 when its own proposal arrives, so a pre-GST skew in proposal
times (which the Universal stacks inherit from their vector layer) stays a
skew in views.  A correct process prepares, locks and commit-votes only in
its current view (ROADMAP item 1(a)), so a message held back from an earlier
view cannot split the decision; liveness under a pre-GST view skew stays
with item 1(b), the synchronizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..crypto.hashing import digest
from ..crypto.threshold import PartialSignature, ThresholdScheme, ThresholdSignature
from ..sim import instrument
from ..sim.process import Process, ProtocolModule
from .interfaces import ConsensusModule, DecisionCallback

VerifyFunction = Callable[[Any, Any], bool]

_NEW_VIEW = "new_view"
_PROPOSE = "propose"
_PREPARE_VOTE = "prepare_vote"
_PRECOMMIT = "precommit"
_COMMIT_VOTE = "commit_vote"
_DECIDE = "decide"


@dataclass(frozen=True)
class PrepareCertificate:
    """A quorum certificate proving that ``n - t`` processes prepared a value in a view."""

    view: int
    value_digest: str
    signature: ThresholdSignature

    def stable_fields(self) -> tuple:
        return (self.view, self.value_digest, self.signature.stable_fields())

    @property
    def words(self) -> int:
        return 2


class Quad(ConsensusModule):
    """Leader-based value-proof consensus (the paper's Quad contract).

    Args:
        process: Owning process.
        verify: The external validity predicate over value-proof pairs.
        name: Module name.
        parent: Parent module.
        on_decide: Callback receiving the decided ``(value, proof)`` pair.
        view_duration: View timer length, in multiples of the known ``delta``.
    """

    def __init__(
        self,
        process: Process,
        verify: VerifyFunction,
        name: str = "quad",
        parent: Optional[ProtocolModule] = None,
        on_decide: Optional[DecisionCallback] = None,
        view_duration: float = 8.0,
    ):
        super().__init__(process, name, parent, on_decide)
        self.verify = verify
        self.view_duration = view_duration * process.simulation.delay_model.delta
        self.scheme = ThresholdScheme(self.authority, threshold=self.system.quorum)

        self.view = 0
        self.locked: Optional[Tuple[Any, Any, int]] = None  # (value, proof, view)
        self.highest_prepare: Optional[Tuple[PrepareCertificate, Any, Any]] = None  # (cert, value, proof)

        # Leader-side, per-view state.
        self._new_view_messages: Dict[int, Dict[int, Optional[Tuple[PrepareCertificate, Any, Any]]]] = {}
        self._prepare_votes: Dict[int, Dict[int, PartialSignature]] = {}
        self._commit_votes: Dict[int, Dict[int, PartialSignature]] = {}
        self._proposed_in_view: set = set()
        self._precommitted_in_view: set = set()
        self._decided_in_view: set = set()
        self._current_view_value: Dict[int, Tuple[Any, Any]] = {}

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def leader_of(self, view: int) -> int:
        """Round-robin leader assignment."""
        return (view - 1) % self.n

    def _handle_proposal(self, value: Any) -> None:
        pair = value
        if not isinstance(pair, tuple) or len(pair) != 2:
            raise ValueError("Quad proposals are (value, proof) pairs")
        if not self.verify(pair[0], pair[1]):
            raise ValueError("a correct process must propose a pair satisfying verify()")
        if self.view == 0:
            self._enter_view(1)
        else:
            # The proposal arrived while a view was already running (e.g. the
            # vector-consensus layer gathered its quorum late); if we lead the
            # current view, try to propose now.
            self._try_lead(self.view)

    # ------------------------------------------------------------------
    # View management
    # ------------------------------------------------------------------
    def _enter_view(self, view: int) -> None:
        if self.has_decided() or view <= self.view:
            return
        self.view = view
        self.set_timer(self.view_duration, ("view_timeout", view))
        self.send(self.leader_of(view), (_NEW_VIEW, view, self._highest_prepare_payload()))
        self._try_lead(view)

    def on_timer(self, tag: Any) -> None:
        if not isinstance(tag, tuple) or tag[0] != "view_timeout":
            return
        expired_view = tag[1]
        if expired_view == self.view and not self.has_decided():
            self._enter_view(self.view + 1)

    def _highest_prepare_payload(self) -> Optional[tuple]:
        if self.highest_prepare is None:
            return None
        cert, value, proof = self.highest_prepare
        return (cert, value, proof)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    # Every kind carries its view second; values and proofs are the verify
    # predicate's business, so they may be anything.
    MESSAGES = {
        _NEW_VIEW: ("_on_new_view", (int, (tuple, type(None)))),
        _PROPOSE: ("_on_propose", (int, object, object, (PrepareCertificate, type(None)))),
        _PREPARE_VOTE: ("_on_prepare_vote", (int, str, PartialSignature)),
        _PRECOMMIT: ("_on_precommit", (int, object, object, PrepareCertificate)),
        _COMMIT_VOTE: ("_on_commit_vote", (int, str, PartialSignature)),
        _DECIDE: ("_on_decide_message", (int, object, object, ThresholdSignature)),
    }

    # ----------------------------- leader side -----------------------
    def _on_new_view(self, sender: int, view: int, prepare_payload: Optional[tuple]) -> None:
        if view < self.view or self.leader_of(view) != self.pid:
            return
        entry = self._validated_prepare(prepare_payload)
        self._new_view_messages.setdefault(view, {})[sender] = entry
        self._try_lead(view)

    def _validated_prepare(self, prepare_payload: Optional[tuple]) -> Optional[tuple]:
        if prepare_payload is None or len(prepare_payload) != 3:
            return None
        cert, value, proof = prepare_payload
        if not isinstance(cert, PrepareCertificate):
            return None
        if cert.value_digest != digest(value):
            return None
        if not self.scheme.verify(cert.signature, ("prepare", cert.view, cert.value_digest)):
            return None
        if not self.verify(value, proof):
            return None
        return (cert, value, proof)

    def _try_lead(self, view: int) -> None:
        if view != self.view or self.leader_of(view) != self.pid or view in self._proposed_in_view:
            return
        received = self._new_view_messages.get(view, {})
        own_prepare = self._highest_prepare_payload()
        candidates = dict(received)
        candidates[self.pid] = self._validated_prepare(own_prepare)
        if instrument.SINK is not None:
            instrument.SINK.add(
                (
                    "quad.lead",
                    instrument.bucket(view),
                    instrument.margin(len(candidates), self.system.quorum),
                )
            )
        if len(candidates) < self.system.quorum:
            return
        best = None
        for entry in candidates.values():
            if entry is None:
                continue
            if best is None or entry[0].view > best[0].view:
                best = entry
        if best is not None:
            value, proof = best[1], best[2]
            justification = best[0]
        elif self.proposed_value is not None:
            value, proof = self.proposed_value
            justification = None
        else:
            return  # No safe candidate and our own proposal has not arrived yet.
        self._proposed_in_view.add(view)
        self.broadcast((_PROPOSE, view, value, proof, justification))

    def _on_prepare_vote(self, sender: int, view: int, value_digest: str, share: PartialSignature) -> None:
        if self.leader_of(view) != self.pid or view in self._precommitted_in_view:
            return
        if view not in self._current_view_value:
            return
        value, proof = self._current_view_value[view]
        if value_digest != digest(value):
            return
        if not self.scheme.verify_partial(share, ("prepare", view, value_digest)):
            return
        votes = self._prepare_votes.setdefault(view, {})
        votes[sender] = share
        if instrument.SINK is not None:
            instrument.SINK.add(
                (
                    "quad.prepare",
                    instrument.bucket(view),
                    instrument.margin(len(votes), self.system.quorum),
                )
            )
        if len(votes) >= self.system.quorum:
            certificate = PrepareCertificate(
                view=view,
                value_digest=value_digest,
                signature=self.scheme.combine(votes.values(), ("prepare", view, value_digest)),
            )
            self._precommitted_in_view.add(view)
            self.broadcast((_PRECOMMIT, view, value, proof, certificate))

    def _on_commit_vote(self, sender: int, view: int, value_digest: str, share: PartialSignature) -> None:
        if self.leader_of(view) != self.pid or view in self._decided_in_view:
            return
        if view not in self._current_view_value:
            return
        value, proof = self._current_view_value[view]
        if value_digest != digest(value):
            return
        if not self.scheme.verify_partial(share, ("commit", view, value_digest)):
            return
        votes = self._commit_votes.setdefault(view, {})
        votes[sender] = share
        if instrument.SINK is not None:
            instrument.SINK.add(
                (
                    "quad.commit",
                    instrument.bucket(view),
                    instrument.margin(len(votes), self.system.quorum),
                )
            )
        if len(votes) >= self.system.quorum:
            commit_certificate = self.scheme.combine(votes.values(), ("commit", view, value_digest))
            self._decided_in_view.add(view)
            self.broadcast((_DECIDE, view, value, proof, commit_certificate))

    # ----------------------------- replica side ----------------------
    def _on_propose(
        self, sender: int, view: int, value: Any, proof: Any, justification: Optional[PrepareCertificate]
    ) -> None:
        if view != self.view or sender != self.leader_of(view):
            return
        if not self.verify(value, proof):
            return
        safe = self._safe_to_vote(value, justification)
        if instrument.SINK is not None:
            instrument.SINK.add(("quad.propose", instrument.bucket(view), safe, self.locked is not None))
        if not safe:
            return
        if sender == self.pid:
            self._current_view_value[view] = (value, proof)
        value_digest = digest(value)
        share = self.scheme.partial_sign(self.pid, ("prepare", view, value_digest))
        # Remember what the leader proposed so the leader role (possibly us) can
        # match votes to it.
        self._current_view_value.setdefault(view, (value, proof))
        self.send(self.leader_of(view), (_PREPARE_VOTE, view, value_digest, share))

    def _safe_to_vote(self, value: Any, justification: Optional[PrepareCertificate]) -> bool:
        if self.locked is None:
            return True
        locked_value, _, locked_view = self.locked
        if value == locked_value:
            return True
        if justification is None:
            return False
        if justification.value_digest != digest(value):
            return False
        if not self.scheme.verify(justification.signature, ("prepare", justification.view, justification.value_digest)):
            return False
        return justification.view >= locked_view

    def _on_precommit(
        self, sender: int, view: int, value: Any, proof: Any, certificate: PrepareCertificate
    ) -> None:
        # Only in the current view: a precommit held back from an earlier
        # view must not lock an old value or commit-vote for it.
        if view != self.view or sender != self.leader_of(view) or certificate.view != view:
            return
        if certificate.value_digest != digest(value):
            return
        if not self.scheme.verify(certificate.signature, ("prepare", view, certificate.value_digest)):
            return
        if not self.verify(value, proof):
            return
        if self.locked is None or view >= self.locked[2]:
            self.locked = (value, proof, view)
            if instrument.SINK is not None:
                instrument.SINK.add(("quad.lock", instrument.bucket(view)))
        if self.highest_prepare is None or certificate.view > self.highest_prepare[0].view:
            self.highest_prepare = (certificate, value, proof)
        share = self.scheme.partial_sign(self.pid, ("commit", view, certificate.value_digest))
        self.send(self.leader_of(view), (_COMMIT_VOTE, view, certificate.value_digest, share))

    def _on_decide_message(
        self, sender: int, view: int, value: Any, proof: Any, commit_certificate: ThresholdSignature
    ) -> None:
        if not self.scheme.verify(commit_certificate, ("commit", view, digest(value))):
            return
        if not self.verify(value, proof):
            return
        # One relay per correct process guarantees that everyone decides even
        # if the leader crashes right after producing the certificate, at a
        # one-off cost of O(n^2) messages overall.  A process decides only
        # here, and nothing that arrives later can change what it does, so it
        # stops listening: this runs once.
        self.broadcast((_DECIDE, view, value, proof, commit_certificate))
        self.stopped = True
        self._decide((value, proof))
