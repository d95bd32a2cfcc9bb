"""Arithmetic in the finite field GF(2^8), vectorized for the codec hot path.

The ADD data-dissemination primitive (Appendix B.3) relies on an erasure /
error-correcting code; this module provides the underlying field arithmetic
for the Reed-Solomon codec in :mod:`repro.coding.reed_solomon`.  The field is
GF(2^8) with the AES-style reduction polynomial ``x^8 + x^4 + x^3 + x^2 + 1``
(0x11D) and generator 2; elements are the integers 0..255.

Two layers of API:

* Scalar operations (:func:`add`, :func:`multiply`, ...) validate their
  operands — they are the boundary of the module and are what tests and
  one-off callers use.  Inside their bodies everything is a table lookup.
* Row operations (:func:`scalar_multiply_row`, :func:`xor_rows`) treat a
  ``bytes``/``bytearray`` as a vector of field elements and run at C speed:
  multiplication by a scalar is one ``bytes.translate`` over the
  precomputed 256x256 multiplication table, addition is one big-integer
  XOR.  The codec and polynomial helpers are built on these, with no
  per-element bounds checks inside inner loops.

The original element-at-a-time implementation is retained verbatim in
``tests/reference_codec.py`` and the differential property suite pins this
module to it byte for byte.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

_PRIMITIVE_POLYNOMIAL = 0x11D
FIELD_SIZE = 256

_EXP: List[int] = [0] * (FIELD_SIZE * 2)
_LOG: List[int] = [0] * FIELD_SIZE


def _build_tables() -> None:
    value = 1
    for power in range(FIELD_SIZE - 1):
        _EXP[power] = value
        _LOG[value] = power
        value <<= 1
        if value & 0x100:
            value ^= _PRIMITIVE_POLYNOMIAL
    for power in range(FIELD_SIZE - 1, 2 * FIELD_SIZE):
        _EXP[power] = _EXP[power - (FIELD_SIZE - 1)]


_build_tables()


def _build_multiplication_table() -> Tuple[bytes, ...]:
    exp, log = _EXP, _LOG
    rows = [bytes(FIELD_SIZE)]  # row 0: everything maps to 0
    for a in range(1, FIELD_SIZE):
        log_a = log[a]
        rows.append(bytes([0] + [exp[log_a + log[b]] for b in range(1, FIELD_SIZE)]))
    return tuple(rows)


MUL_TABLE: Tuple[bytes, ...] = _build_multiplication_table()
"""The full 256x256 product table: ``MUL_TABLE[a][b] == a * b`` in GF(256).

Each row is a 256-byte ``bytes`` object, which makes it directly usable as a
``bytes.translate`` mapping — multiplying a whole row of field elements by
``a`` is a single C-level call.
"""

_INVERSE: bytes = bytes([0] + [_EXP[(FIELD_SIZE - 1) - _LOG[a]] for a in range(1, FIELD_SIZE)])


def _check(value: int) -> int:
    if not 0 <= value < FIELD_SIZE:
        raise ValueError(f"GF(256) elements are integers in [0, 255], got {value}")
    return value


# ----------------------------------------------------------------------
# Scalar operations (validated API boundary)
# ----------------------------------------------------------------------
def add(a: int, b: int) -> int:
    """Field addition (XOR)."""
    return _check(a) ^ _check(b)


def subtract(a: int, b: int) -> int:
    """Field subtraction (identical to addition in characteristic 2)."""
    return add(a, b)


def multiply(a: int, b: int) -> int:
    """Field multiplication via the precomputed product table."""
    if 0 <= a < FIELD_SIZE and 0 <= b < FIELD_SIZE:
        return MUL_TABLE[a][b]
    _check(a), _check(b)
    raise AssertionError("unreachable")  # pragma: no cover


def inverse(a: int) -> int:
    """Multiplicative inverse; raises on zero."""
    _check(a)
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(256)")
    return _INVERSE[a]


def divide(a: int, b: int) -> int:
    """Field division ``a / b``."""
    return multiply(a, inverse(b))


def power(a: int, exponent: int) -> int:
    """Raise ``a`` to a (possibly negative) integer power."""
    _check(a)
    if a == 0:
        if exponent <= 0:
            raise ZeroDivisionError("0 cannot be raised to a non-positive power")
        return 0
    log = (_LOG[a] * exponent) % (FIELD_SIZE - 1)
    return _EXP[log]


# ----------------------------------------------------------------------
# Row (vector) operations — the codec hot path
# ----------------------------------------------------------------------
def scalar_multiply_row(scalar: int, row: bytes) -> bytes:
    """Multiply every field element of ``row`` by ``scalar`` in one call.

    ``row`` is any bytes-like vector of GF(256) elements; the result is a
    ``bytes`` of the same length.  This is a single ``bytes.translate`` over
    the scalar's :data:`MUL_TABLE` row.
    """
    _check(scalar)
    return bytes(row).translate(MUL_TABLE[scalar])


def xor_rows(a: bytes, b: bytes) -> bytes:
    """Element-wise field addition of two equal-length rows (single big XOR)."""
    if len(a) != len(b):
        raise ValueError(f"row lengths differ: {len(a)} != {len(b)}")
    length = len(a)
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(length, "little")


# ----------------------------------------------------------------------
# Polynomial helpers (coefficients in increasing degree order)
# ----------------------------------------------------------------------
def poly_eval(coefficients: Sequence[int], x: int) -> int:
    """Evaluate a polynomial (coefficients in increasing degree order) at ``x``.

    Horner's rule over the product table; coefficients are trusted to be
    field elements (bounds are checked at the module's scalar boundary, not
    per element inside this loop).
    """
    _check(x)
    row = MUL_TABLE[x]
    result = 0
    for index in range(len(coefficients) - 1, -1, -1):
        result = row[result] ^ coefficients[index]
    return result


def poly_add(p: Sequence[int], q: Sequence[int]) -> List[int]:
    """Add two polynomials given in increasing degree order."""
    longer, shorter = (list(p), list(q)) if len(p) >= len(q) else (list(q), list(p))
    for index, coefficient in enumerate(shorter):
        longer[index] ^= coefficient
    return longer


def poly_multiply(p: Sequence[int], q: Sequence[int]) -> List[int]:
    """Multiply two polynomials given in increasing degree order."""
    result = [0] * (len(p) + len(q) - 1) if p and q else [0]
    table = MUL_TABLE
    for i, a in enumerate(p):
        if a == 0:
            continue
        row = table[a]
        for j, b in enumerate(q):
            if b != 0:
                result[i + j] ^= row[b]
    return result


def poly_divmod(numerator: Sequence[int], denominator: Sequence[int]) -> tuple:
    """Polynomial long division: returns ``(quotient, remainder)``.

    Both inputs are coefficient lists in increasing degree order; the
    denominator must be non-zero.
    """
    num = list(numerator)
    den = list(denominator)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    table = MUL_TABLE
    quotient = [0] * max(1, len(num) - len(den) + 1)
    remainder = list(num)
    lead_inverse = _INVERSE[den[-1]]
    lead_row = table[lead_inverse]
    den_length = len(den)
    for shift in range(len(num) - den_length, -1, -1):
        coefficient = lead_row[remainder[shift + den_length - 1]]
        quotient[shift] = coefficient
        if coefficient != 0:
            row = table[coefficient]
            for index in range(den_length):
                remainder[shift + index] ^= row[den[index]]
    while len(remainder) > 1 and remainder[-1] == 0:
        remainder.pop()
    return quotient, remainder
