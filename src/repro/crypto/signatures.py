"""Simulated public-key infrastructure (PKI) signatures.

The paper assumes that every process can sign messages and that faulty
processes cannot forge the signatures of correct processes.  In the
simulator this is modelled with keyed HMACs derived from a master seed held
by a :class:`KeyAuthority`: a signature carries an authentication tag that
only the authority can produce, and the honest protocol code only ever asks
the authority to sign on behalf of the process that owns the key.  Byzantine
behaviours implemented in :mod:`repro.sim.adversary` deliberately never call
``sign`` for a process they do not control, which preserves the
unforgeability abstraction while keeping everything deterministic and
dependency-free.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from .hashing import stable_encode


@dataclass(frozen=True)
class Signature:
    """A digital signature by one process over one message.

    Attributes:
        signer: Index of the signing process.
        tag: Hex authentication tag binding the signer to the message.
    """

    signer: int
    tag: str

    def stable_fields(self) -> tuple:
        return (self.signer, self.tag)

    @property
    def words(self) -> int:
        """Size in words (a signature counts as one word, as in the paper)."""
        return 1


class KeyAuthority:
    """Issues and verifies signatures for all processes of a system.

    One authority instance is shared by a simulation.  It is equivalent to a
    PKI in which every process knows every public key: anyone can *verify*
    any signature, while producing a valid tag for process ``i`` requires
    process ``i``'s secret key.
    """

    def __init__(self, n: int, seed: int = 0):
        if n < 1:
            raise ValueError("a key authority needs at least one process")
        self._n = n
        # One keyed HMAC state per signer; a tag is a copy of it updated with the message.
        self._keys = [
            hmac.new(
                hashlib.sha256(f"repro-secret-{seed}-{pid}".encode()).digest(),
                digestmod=hashlib.sha256,
            )
            for pid in range(n)
        ]
        # (signer, stable_encode(message)) -> tag, for every message ``sign`` has
        # signed.  Keyed on the encoded bytes, never on ``==`` (which aliases 1,
        # True and 1.0); ``verify`` reads it and never adds to it.
        self._tags: Dict[Tuple[int, bytes], str] = {}

    @property
    def n(self) -> int:
        return self._n

    def _tag(self, signer: int, encoded: bytes) -> str:
        mac = self._keys[signer].copy()
        mac.update(encoded)
        return mac.hexdigest()

    def sign(self, signer: int, message: Any) -> Signature:
        """Sign ``message`` with ``signer``'s key."""
        if not 0 <= signer < self._n:
            raise ValueError(f"unknown signer {signer}")
        key = (signer, stable_encode(message))
        tag = self._tags[key] = self._tag(*key)
        return Signature(signer=signer, tag=tag)

    def verify(self, signature: Signature, message: Any, expected_signer: int | None = None) -> bool:
        """Check that ``signature`` is a valid signature of ``message``.

        Args:
            signature: The signature to verify.
            message: The signed message.
            expected_signer: When given, additionally require the signature
                to come from this process.
        """
        if not isinstance(signature, Signature):
            return False
        if not 0 <= signature.signer < self._n:
            return False
        if expected_signer is not None and signature.signer != expected_signer:
            return False
        key = (signature.signer, stable_encode(message))
        # A message its signer never signed has a tag too; computing it keeps a
        # forgery failing in ``compare_digest`` without growing the table.
        expected = self._tags.get(key) or self._tag(*key)
        return hmac.compare_digest(expected, signature.tag)

    def forge(self, claimed_signer: int, message: Any) -> Signature:
        """Produce an *invalid* signature claiming to come from ``claimed_signer``.

        Used by Byzantine behaviours and by tests to confirm that forged
        signatures are rejected: the tag is derived from a key the adversary
        does not hold, so verification fails.
        """
        fake_secret = hashlib.sha256(f"forged-{claimed_signer}".encode()).digest()
        tag = hmac.new(fake_secret, stable_encode(message), hashlib.sha256).hexdigest()
        return Signature(signer=claimed_signer, tag=tag)
