"""Simulated ``(k, n)``-threshold signature scheme.

Appendix B.3 of the paper assumes an ``(n - t, n)``-threshold signature
scheme: each process can produce a *partial* signature of a message, and any
``k`` distinct valid partial signatures can be combined into a single
constant-size threshold signature proving that ``k`` processes signed.

The simulation models partial signatures as ordinary
:class:`~repro.crypto.signatures.Signature` objects and a threshold
signature as a constant-size object recording the message digest and the set
of signers — its :attr:`ThresholdSignature.words` size is 1, matching the
paper's accounting where a threshold signature fits in one word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Iterable

from .hashing import digest
from .signatures import KeyAuthority, Signature


@dataclass(frozen=True)
class PartialSignature:
    """A partial (share) signature of one process over a message."""

    signer: int
    signature: Signature

    def stable_fields(self) -> tuple:
        return (self.signer, self.signature.stable_fields())

    @property
    def words(self) -> int:
        return 1


@dataclass(frozen=True)
class ThresholdSignature:
    """A combined threshold signature: constant-size proof that ``k`` processes signed."""

    message_digest: str
    signers: FrozenSet[int]
    threshold: int

    def stable_fields(self) -> tuple:
        return (self.message_digest, tuple(sorted(self.signers)), self.threshold)

    @property
    def words(self) -> int:
        return 1


class ThresholdScheme:
    """A ``(threshold, n)``-threshold signature scheme backed by a :class:`KeyAuthority`."""

    def __init__(self, authority: KeyAuthority, threshold: int):
        if not 1 <= threshold <= authority.n:
            raise ValueError(
                f"threshold must be between 1 and n={authority.n}, got {threshold}"
            )
        self._authority = authority
        self.threshold = threshold

    @property
    def n(self) -> int:
        return self._authority.n

    def partial_sign(self, signer: int, message: Any) -> PartialSignature:
        """Produce ``signer``'s share for ``message``."""
        return PartialSignature(signer=signer, signature=self._authority.sign(signer, ("tsig", message)))

    def verify_partial(self, partial: PartialSignature, message: Any) -> bool:
        """Check one share."""
        if not isinstance(partial, PartialSignature):
            return False
        return self._authority.verify(partial.signature, ("tsig", message), expected_signer=partial.signer)

    def combine(self, partials: Iterable[PartialSignature], message: Any) -> ThresholdSignature:
        """Combine at least ``threshold`` valid shares into a threshold signature.

        Raises:
            ValueError: if fewer than ``threshold`` distinct valid shares are provided.
        """
        valid_signers = {
            partial.signer for partial in partials if self.verify_partial(partial, message)
        }
        if len(valid_signers) < self.threshold:
            raise ValueError(
                f"need {self.threshold} valid partial signatures, got {len(valid_signers)}"
            )
        return ThresholdSignature(
            message_digest=digest(("tsig", message)),
            signers=frozenset(valid_signers),
            threshold=self.threshold,
        )

    def verify(self, signature: ThresholdSignature, message: Any) -> bool:
        """Verify a combined threshold signature against a message."""
        if not isinstance(signature, ThresholdSignature):
            return False
        if signature.threshold != self.threshold or len(signature.signers) < self.threshold:
            return False
        n = self.n
        if any(not 0 <= signer < n for signer in signature.signers):
            return False
        return signature.message_digest == digest(("tsig", message))
