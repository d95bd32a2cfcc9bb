"""Collision-resistant hashing of protocol values.

The paper's Appendix B.3 uses a collision-resistant hash function ``hash(.)``
over disseminated vectors.  This module provides a deterministic, canonical
serialisation of the Python values used by the protocols (so that equal
values always hash identically, across processes and across runs) and a
SHA-256 digest on top of it.
"""

from __future__ import annotations

import hashlib
from typing import Any, Tuple


# The last ``.pairs`` tuple encoded, as ``(pairs, encoded)``.  A hit requires
# ``is``, and the strong reference keeps the tuple's id from being reused.
_LAST_PAIRS: Tuple[Any, bytes] = (None, b"")


def stable_encode(value: Any) -> bytes:
    """Serialise a protocol value into a canonical byte string.

    Supports the primitives and containers that protocol messages are built
    from.  Dictionaries and sets are serialised in sorted-key order so that
    logically equal values encode identically.  Objects exposing a
    ``stable_fields()`` method (used by the library's message and
    configuration classes) are encoded from those fields.
    """
    global _LAST_PAIRS
    # Strings, exact ints and sequences first: most of what a message is made of.
    if isinstance(value, str):
        encoded = value.encode()
        return b"S%d:%b" % (len(encoded), encoded)
    if type(value) is int:
        return b"I%d" % value
    if isinstance(value, (list, tuple)):
        return b"L%d:%b" % (len(value), b"".join(map(stable_encode, value)))
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"B1" if value else b"B0"
    if isinstance(value, int):  # subclasses: ``%d`` of an IntEnum is version-dependent
        return b"I" + str(value).encode()
    if isinstance(value, float):
        return b"F" + repr(value).encode()
    if isinstance(value, bytes):
        return b"Y" + str(len(value)).encode() + b":" + value
    if isinstance(value, (set, frozenset)):
        encoded_items = sorted(stable_encode(item) for item in value)
        return b"E" + str(len(encoded_items)).encode() + b":" + b"".join(encoded_items)
    if isinstance(value, dict):
        encoded_items = sorted(
            stable_encode(key) + b"=" + stable_encode(item) for key, item in value.items()
        )
        return b"D" + str(len(encoded_items)).encode() + b":" + b"".join(encoded_items)
    stable_fields = getattr(value, "stable_fields", None)
    if callable(stable_fields):
        return b"O" + type(value).__name__.encode() + b":" + stable_encode(stable_fields())
    pairs = getattr(value, "pairs", None)
    if pairs is not None:
        # InputConfiguration and similar pair-carrying containers.  All n receivers
        # of a disseminated vector digest the same immutable tuple of pairs.
        last = _LAST_PAIRS
        if last[0] is pairs:
            return last[1]
        encoded = b"C" + stable_encode([(pair.process, pair.proposal) for pair in pairs])
        _LAST_PAIRS = (pairs, encoded)
        return encoded
    return b"R" + repr(value).encode()


def digest(value: Any) -> str:
    """Return a hex SHA-256 digest of a protocol value."""
    return hashlib.sha256(stable_encode(value)).hexdigest()
