"""Reference (element-at-a-time) GF(256) and Reed-Solomon implementations.

This module preserves the original, straightforward coding layer exactly as
it was before the hot-path optimization pass: every field operation is a
checked scalar call and every codec step walks Python lists one element at a
time.  It lives beside the tests, outside the ``repro`` import path and the
store's code fingerprint, because nothing but ``test_coding_differential.py``
uses it: :mod:`repro.coding.gf256` and :mod:`repro.coding.reed_solomon` are
the production implementation, and the differential suite asserts they are
byte-for-byte equivalent to this one on every path (clean, max-erasure,
error-correcting, k=1, inconsistent-shape failures, malformed fragments).

Being the oracle, this module should stay boring.  Fix bugs in both places;
do not optimize this one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.coding.reed_solomon import DecodingError, Fragment

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


def _check(value: int) -> int:
    if not 0 <= value < FIELD_SIZE:
        raise ValueError(f"GF(256) elements are integers in [0, 255], got {value}")
    return value


def add(a: int, b: int) -> int:
    """Field addition (XOR)."""
    return _check(a) ^ _check(b)


def subtract(a: int, b: int) -> int:
    """Field subtraction (identical to addition in characteristic 2)."""
    return add(a, b)


def multiply(a: int, b: int) -> int:
    """Field multiplication via log/antilog tables."""
    _check(a), _check(b)
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def inverse(a: int) -> int:
    """Multiplicative inverse; raises on zero."""
    _check(a)
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(256)")
    return _EXP[(FIELD_SIZE - 1) - _LOG[a]]


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


def poly_eval(coefficients: Sequence[int], x: int) -> int:
    """Evaluate a polynomial (coefficients in increasing degree order) at ``x``."""
    result = 0
    for coefficient in reversed(list(coefficients)):
        result = add(multiply(result, x), coefficient)
    return result


def poly_add(p: Sequence[int], q: Sequence[int]) -> List[int]:
    """Add two polynomials given in increasing degree order."""
    longer, shorter = (list(p), list(q)) if len(p) >= len(q) else (list(q), list(p))
    for index, coefficient in enumerate(shorter):
        longer[index] = add(longer[index], coefficient)
    return longer


def poly_multiply(p: Sequence[int], q: Sequence[int]) -> List[int]:
    """Multiply two polynomials given in increasing degree order."""
    result = [0] * (len(p) + len(q) - 1) if p and q else [0]
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b == 0:
                continue
            result[i + j] = add(result[i + j], multiply(a, b))
    return result


def poly_divmod(numerator: Sequence[int], denominator: Sequence[int]) -> tuple:
    """Polynomial long division: returns ``(quotient, remainder)``."""
    num = list(numerator)
    den = list(denominator)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = [0] * max(1, len(num) - len(den) + 1)
    remainder = list(num)
    lead_inverse = inverse(den[-1])
    for shift in range(len(num) - len(den), -1, -1):
        coefficient = multiply(remainder[shift + len(den) - 1], lead_inverse)
        quotient[shift] = coefficient
        if coefficient != 0:
            for index, den_coefficient in enumerate(den):
                remainder[shift + index] = subtract(
                    remainder[shift + index], multiply(den_coefficient, coefficient)
                )
    while len(remainder) > 1 and remainder[-1] == 0:
        remainder.pop()
    return quotient, remainder


# ----------------------------------------------------------------------
# Reference Reed-Solomon codec (Berlekamp-Welch, element-at-a-time)
# ----------------------------------------------------------------------
def _solve_linear_system(matrix: List[List[int]], rhs: List[int]) -> Optional[List[int]]:
    """Solve ``matrix * x = rhs`` over GF(256) by Gaussian elimination."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    augmented = [list(row) + [value] for row, value in zip(matrix, rhs)]
    pivot_columns: List[int] = []
    pivot_row = 0
    for column in range(cols):
        pivot = next((r for r in range(pivot_row, rows) if augmented[r][column] != 0), None)
        if pivot is None:
            continue
        augmented[pivot_row], augmented[pivot] = augmented[pivot], augmented[pivot_row]
        pivot_inverse = inverse(augmented[pivot_row][column])
        augmented[pivot_row] = [multiply(value, pivot_inverse) for value in augmented[pivot_row]]
        for row in range(rows):
            if row != pivot_row and augmented[row][column] != 0:
                factor = augmented[row][column]
                augmented[row] = [
                    subtract(value, multiply(factor, pivot_value))
                    for value, pivot_value in zip(augmented[row], augmented[pivot_row])
                ]
        pivot_columns.append(column)
        pivot_row += 1
        if pivot_row == rows:
            break
    for row in range(pivot_row, rows):
        if all(value == 0 for value in augmented[row][:cols]) and augmented[row][cols] != 0:
            return None
    solution = [0] * cols
    for row, column in enumerate(pivot_columns):
        solution[column] = augmented[row][cols]
    return solution


class ReferenceReedSolomonCode:
    """The original ``(n, k)`` Reed-Solomon codec, kept as a test oracle."""

    def __init__(self, total_symbols: int, data_symbols: int):
        if not 1 <= data_symbols <= total_symbols:
            raise ValueError("need 1 <= data_symbols <= total_symbols")
        if total_symbols > FIELD_SIZE - 1:
            raise ValueError("at most 255 symbols are supported by GF(256)")
        self.total_symbols = total_symbols
        self.data_symbols = data_symbols
        self.evaluation_points = list(range(1, total_symbols + 1))

    # ------------------------------------------------------------------
    def max_correctable_errors(self, received: int) -> int:
        return max(0, (received - self.data_symbols) // 2)

    def encode(self, blob: bytes) -> List[Fragment]:
        chunks = self._chunk(blob)
        per_index: List[List[int]] = [[] for _ in range(self.total_symbols)]
        for chunk in chunks:
            for position, point in enumerate(self.evaluation_points):
                per_index[position].append(poly_eval(chunk, point))
        return [
            Fragment(index=index, symbols=tuple(symbols), blob_length=len(blob))
            for index, symbols in enumerate(per_index)
        ]

    def decode(self, fragments: Sequence[Fragment]) -> bytes:
        by_index = {}
        for fragment in fragments:
            if not isinstance(fragment, Fragment) or not self._well_formed(fragment):
                continue
            by_index.setdefault(fragment.index, fragment)
        if len(by_index) < self.data_symbols:
            raise DecodingError(
                f"need at least {self.data_symbols} fragments, got {len(by_index)}"
            )
        length_votes = {}
        for fragment in by_index.values():
            length_votes[fragment.blob_length] = length_votes.get(fragment.blob_length, 0) + 1
        candidates = sorted(length_votes, key=lambda length: (-length_votes[length], length))
        last_error: Optional[DecodingError] = None
        for blob_length in candidates:
            chunk_count = self._chunk_count(blob_length)
            usable = {
                index: fragment
                for index, fragment in by_index.items()
                if len(fragment.symbols) == chunk_count
            }
            if len(usable) < self.data_symbols:
                last_error = DecodingError("not enough fragments with a consistent shape")
                continue
            try:
                data = bytearray()
                for chunk_index in range(chunk_count):
                    points = [
                        (self.evaluation_points[index], fragment.symbols[chunk_index])
                        for index, fragment in sorted(usable.items())
                    ]
                    coefficients = self._berlekamp_welch(points)
                    data.extend(coefficients)
                return bytes(data[:blob_length])
            except DecodingError as error:
                last_error = error
        raise last_error if last_error is not None else DecodingError("no decodable fragment shape")

    # ------------------------------------------------------------------
    def _well_formed(self, fragment: Fragment) -> bool:
        """The production codec's skip rules, spelled out one field at a time."""
        if not isinstance(fragment.index, int) or not 0 <= fragment.index < self.total_symbols:
            return False
        if not isinstance(fragment.blob_length, int) or fragment.blob_length < 0:
            return False
        if not isinstance(fragment.symbols, tuple):
            return False
        return all(
            isinstance(symbol, int) and 0 <= symbol < FIELD_SIZE for symbol in fragment.symbols
        )

    def _chunk_count(self, blob_length: int) -> int:
        return max(1, -(-blob_length // self.data_symbols))

    def _chunk(self, blob: bytes) -> List[List[int]]:
        padded_length = self._chunk_count(len(blob)) * self.data_symbols
        padded = blob + bytes(padded_length - len(blob))
        return [
            list(padded[start : start + self.data_symbols])
            for start in range(0, padded_length, self.data_symbols)
        ]

    def _berlekamp_welch(self, points: Sequence[Tuple[int, int]]) -> List[int]:
        received = len(points)
        k = self.data_symbols
        for errors in range(self.max_correctable_errors(received), -1, -1):
            q_terms = errors + k
            matrix: List[List[int]] = []
            rhs: List[int] = []
            for x, y in points:
                row = [power(x, j) if x != 0 or j == 0 else 0 for j in range(q_terms)]
                row += [
                    multiply(y, power(x, j)) if x != 0 or j == 0 else (y if j == 0 else 0)
                    for j in range(errors)
                ]
                matrix.append(row)
                rhs.append(multiply(y, power(x, errors)) if x != 0 or errors == 0 else 0)
            solution = _solve_linear_system(matrix, rhs)
            if solution is None:
                continue
            q_coefficients = solution[:q_terms]
            e_coefficients = solution[q_terms:] + [1]  # monic error locator
            quotient, remainder = poly_divmod(q_coefficients, e_coefficients)
            if any(value != 0 for value in remainder):
                continue
            candidate = (quotient + [0] * k)[:k]
            mismatches = sum(1 for x, y in points if poly_eval(candidate, x) != y)
            if mismatches <= errors:
                return candidate
        raise DecodingError("Berlekamp-Welch decoding failed: too many corrupted fragments")
