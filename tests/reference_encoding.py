"""Reference ``stable_encode``: the canonical encoder before it was memoised.

This is :func:`repro.crypto.hashing.stable_encode` exactly as it stood before
it gained exact-type fast paths and the identity-keyed memo for library
objects: one ``isinstance`` chain, every value re-encoded on every call, no
state.  It lives beside the tests, outside the ``repro`` import path and the
store's code fingerprints, because nothing but
``test_encoding_differential.py`` uses it: the production encoder must return
the same bytes for every value, whatever the memo holds.

Being the oracle, this module should stay boring.  Fix bugs in both places;
do not optimize this one.
"""

from __future__ import annotations

from typing import Any


def stable_encode(value: Any) -> bytes:
    """Serialise a protocol value into a canonical byte string.

    Supports the primitives and containers that protocol messages are built
    from.  Dictionaries and sets are serialised in sorted-key order so that
    logically equal values encode identically.  Objects exposing a
    ``stable_fields()`` method (used by the library's message and
    configuration classes) are encoded from those fields.
    """
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"B1" if value else b"B0"
    if isinstance(value, int):
        return b"I" + str(value).encode()
    if isinstance(value, float):
        return b"F" + repr(value).encode()
    if isinstance(value, str):
        encoded = value.encode()
        return b"S" + str(len(encoded)).encode() + b":" + encoded
    if isinstance(value, bytes):
        return b"Y" + str(len(value)).encode() + b":" + value
    if isinstance(value, (list, tuple)):
        inner = b"".join(stable_encode(item) for item in value)
        return b"L" + str(len(value)).encode() + b":" + inner
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
        # InputConfiguration and similar pair-carrying containers.
        return b"C" + stable_encode([(pair.process, pair.proposal) for pair in pairs])
    return b"R" + repr(value).encode()
