"""Vector dissemination (Algorithm 5 of the paper).

Every correct process disseminates a (serialised) vector of ``n - t`` values
and must eventually *acquire* a hash-signature pair ``(H, tsig)`` such that
(1) the threshold signature is valid for ``H`` (integrity) and (2) at least
``t + 1`` correct processes have cached a vector hashing to ``H``
(redundancy — which is exactly what ADD later needs to reconstruct the
vector everywhere).

The protocol is Algorithm 5 verbatim: slow-broadcast the vector, acknowledge
received vectors with partial signatures of their hash, combine ``n - t``
acknowledgements into a threshold signature, broadcast it, and rebroadcast
the first valid threshold signature seen before acquiring it and going
quiet.  Slow broadcast keeps the post-GST communication quadratic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..broadcast.best_effort import BestEffortBroadcast
from ..broadcast.slow import SlowBroadcast
from ..crypto.hashing import digest
from ..crypto.threshold import PartialSignature, ThresholdScheme, ThresholdSignature
from ..sim.process import Process, ProtocolModule

AcquireCallback = Callable[[str, ThresholdSignature], None]
CacheValidator = Callable[[bytes], bool]

_STORED = "stored"
_CONFIRM = "confirm"


class VectorDissemination(ProtocolModule):
    """Algorithm 5: disseminate a blob, acquire a hash/threshold-signature pair."""

    def __init__(
        self,
        process: Process,
        name: str = "disseminator",
        parent: Optional[ProtocolModule] = None,
        on_acquire: Optional[AcquireCallback] = None,
        cache_validator: Optional[CacheValidator] = None,
    ):
        super().__init__(process, name, parent)
        self._on_acquire = on_acquire
        self._cache_validator = cache_validator
        self.scheme = ThresholdScheme(self.authority, threshold=self.system.quorum)
        self.slow = SlowBroadcast(process, name="slow", parent=self, on_deliver=self._on_slow_deliver)
        self.beb = BestEffortBroadcast(process, name="beb", parent=self, on_deliver=self.on_message)
        self.own_hash: Optional[str] = None
        self.cached_vectors: Dict[str, bytes] = {}
        self._stored_from: Set[int] = set()
        self._partials: Dict[int, PartialSignature] = {}
        self._acknowledged_senders: Set[int] = set()
        self._acquired: Optional[Tuple[str, ThresholdSignature]] = None
        self._confirmed = False

    # ------------------------------------------------------------------
    def disseminate(self, blob: bytes) -> None:
        """Disseminate this process's serialised vector (line 8 of Algorithm 5)."""
        if self.own_hash is not None:
            raise RuntimeError("vector dissemination supports a single blob per instance")
        self.own_hash = digest(blob)
        self.cached_vectors[self.own_hash] = blob
        self.slow.broadcast_message(blob)

    @property
    def acquired(self) -> Optional[Tuple[str, ThresholdSignature]]:
        return self._acquired

    # ------------------------------------------------------------------
    # STORED arrives on this module's path, CONFIRM through ``self.beb``.
    MESSAGES = {
        _STORED: ("_on_stored", (str, PartialSignature)),
        _CONFIRM: ("_on_confirm", (str, ThresholdSignature)),
    }

    def _on_slow_deliver(self, blob: Any, sender: int) -> None:
        # Slow broadcast carries any payload; this module's are serialised vectors.
        if not isinstance(blob, (bytes, bytearray)) or sender in self._acknowledged_senders:
            return
        blob = bytes(blob)
        if self._cache_validator is not None and not self._cache_validator(blob):
            return
        self._acknowledged_senders.add(sender)
        blob_hash = digest(blob)
        self.cached_vectors[blob_hash] = blob
        share = self.scheme.partial_sign(self.pid, ("vector", blob_hash))
        self.send(sender, (_STORED, blob_hash, share))

    def _on_stored(self, sender: int, blob_hash: str, share: PartialSignature) -> None:
        if blob_hash != self.own_hash or sender in self._stored_from or share.signer != sender:
            return
        if not self.scheme.verify_partial(share, ("vector", blob_hash)):
            return
        self._stored_from.add(sender)
        self._partials[sender] = share
        if len(self._partials) >= self.system.quorum and not self._confirmed:
            self._confirmed = True
            combined = self.scheme.combine(self._partials.values(), ("vector", blob_hash))
            self.beb.broadcast_message((_CONFIRM, blob_hash, combined))

    def _on_confirm(self, sender: int, blob_hash: str, signature: ThresholdSignature) -> None:
        if not self.scheme.verify(signature, ("vector", blob_hash)):
            return
        # Rebroadcast once, acquire, and stop participating (lines 23-25).
        self.beb.broadcast_message((_CONFIRM, blob_hash, signature))
        self._acquired = (blob_hash, signature)
        self.stopped = True
        self.slow.stop()
        if self._on_acquire is not None:
            self._on_acquire(blob_hash, signature)
