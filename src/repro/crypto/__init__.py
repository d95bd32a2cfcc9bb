"""Simulated cryptography: hashing, PKI signatures and threshold signatures."""

from .hashing import digest, stable_encode
from .signatures import KeyAuthority, Signature
from .threshold import PartialSignature, ThresholdScheme, ThresholdSignature

__all__ = [
    "digest",
    "stable_encode",
    "KeyAuthority",
    "Signature",
    "PartialSignature",
    "ThresholdScheme",
    "ThresholdSignature",
]
