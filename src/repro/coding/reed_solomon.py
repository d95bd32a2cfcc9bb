"""Reed-Solomon coding over GF(256) with Berlekamp-Welch error correction.

ADD (Appendix B.3 / Das-Xiang-Ren) disperses a data blob as ``n`` coded
symbols such that the blob can be reconstructed from any sufficiently large
subset of symbols even when up to ``t`` of them are corrupted by Byzantine
processes.  This module provides exactly that primitive:

* :meth:`ReedSolomonCode.encode` evaluates the degree ``< k`` data polynomial
  at ``n`` fixed points, producing one symbol per process;
* :meth:`ReedSolomonCode.decode` runs the Berlekamp-Welch algorithm, which
  recovers the data polynomial from ``m`` received symbols as long as the
  number of corrupted ones ``e`` satisfies ``m >= k + 2e``.

Blobs longer than ``k`` bytes are striped: byte ``j`` of fragment ``i`` is the
``i``-th coded symbol of the ``j``-th chunk of ``k`` data bytes.

This is the vectorized implementation: instead of evaluating one chunk at a
time with scalar field calls, it lays the blob out as ``k`` coefficient rows
(``bytes`` objects spanning every chunk) and drives polynomial evaluation,
Lagrange interpolation and the Gaussian eliminations through whole-row
``bytes.translate`` / big-integer-XOR operations (see
:mod:`repro.coding.gf256`); rows are summed as ints and turned back into
``bytes`` once.  Decoding first interpolates through the first ``k``
received fragments and verifies the candidate against the other ``m - k``
received symbols row-wise (the first ``k`` match by construction); chunks
where every symbol matches are provably identical to the Berlekamp-Welch
answer (two degree ``< k`` polynomials with ``<= e`` mismatches over
``m >= k + 2e`` points agree on ``>= k`` points and are therefore equal),
and only chunks with a detected mismatch fall back to the exact per-chunk
Berlekamp-Welch solve.  Encoding remembers the last ``bytes`` blob it
encoded, because every correct process of an ADD instance encodes the same
object; nothing else is cached.  This is the only codec in the import path;
the original element-at-a-time implementation lives on as
``tests/reference_codec.py``, the differential-test oracle for all of this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import gf256

_MUL = gf256.MUL_TABLE
_INVERSE = gf256._INVERSE


class DecodingError(ValueError):
    """Raised when the received symbols cannot be decoded consistently."""


def _evaluate(rows: Sequence[bytes], constant: int, point: int) -> int:
    """The polynomial whose coefficient ``r`` is ``rows[r]`` at ``point``, row-wise.

    ``constant`` is ``rows[0]`` as a little-endian int.  Each further term is
    one translate by ``point ** r`` and one int XOR; the result stays an int.
    """
    value = constant
    power = 1
    point_row = _MUL[point]
    for row in rows[1:]:
        power = point_row[power]
        value ^= int.from_bytes(row.translate(_MUL[power]), "little")
    return value


def _solve_augmented(augmented: List[bytearray], cols: int) -> Optional[List[int]]:
    """Solve the augmented system (last column = RHS) over GF(256) in place.

    Row-vectorized Gaussian elimination: scaling a row is one ``translate``
    over the pivot's inverse row, eliminating is one translate plus one
    big-integer XOR.  Pivot selection, the free-variables-to-zero convention
    and the consistency check mirror the test-side oracle
    (``tests/reference_codec.py``) exactly, so the returned solution is
    identical element for element.
    """
    rows = len(augmented)
    width = cols + 1
    pivot_columns: List[int] = []
    pivot_row = 0
    for column in range(cols):
        pivot = next((r for r in range(pivot_row, rows) if augmented[r][column]), None)
        if pivot is None:
            continue
        augmented[pivot_row], augmented[pivot] = augmented[pivot], augmented[pivot_row]
        lead = augmented[pivot_row][column]
        if lead != 1:
            augmented[pivot_row] = bytearray(augmented[pivot_row].translate(_MUL[_INVERSE[lead]]))
        pivot_bytes = bytes(augmented[pivot_row])
        pivot_int = int.from_bytes(pivot_bytes, "little")
        for row in range(rows):
            if row != pivot_row and augmented[row][column]:
                factor = augmented[row][column]
                if factor == 1:
                    scaled = pivot_int
                else:
                    scaled = int.from_bytes(pivot_bytes.translate(_MUL[factor]), "little")
                augmented[row] = bytearray(
                    (int.from_bytes(augmented[row], "little") ^ scaled).to_bytes(width, "little")
                )
        pivot_columns.append(column)
        pivot_row += 1
        if pivot_row == rows:
            break
    # Consistency check: a zero row with non-zero RHS means no solution.
    for row in range(pivot_row, rows):
        if augmented[row][cols] != 0 and not any(augmented[row][column] for column in range(cols)):
            return None
    solution = [0] * cols
    for row, column in enumerate(pivot_columns):
        solution[column] = augmented[row][cols]
    return solution


@dataclass(frozen=True)
class Fragment:
    """One process's share of an encoded blob."""

    index: int
    symbols: Tuple[int, ...]
    blob_length: int

    def stable_fields(self) -> tuple:
        return (self.index, self.symbols, self.blob_length)

    @property
    def words(self) -> int:
        # Symbols are single bytes; count one word per 64 of them, consistent
        # with how serialised blobs are measured by the metrics collector.
        return max(1, (len(self.symbols) + 63) // 64)


# The last blob encoded, as ``(blob, total_symbols, data_symbols, fragments)``.
# Every correct process of a run encodes the same ``bytes`` object.  A hit
# requires ``is`` and the same code shape, and the strong reference keeps the
# blob's id from being reused.  Only an exact ``bytes`` is remembered: a
# ``bytearray`` can change under the same id.
_LAST_ENCODED: Tuple[Any, int, int, Tuple[Fragment, ...]] = (None, 0, 0, ())


class ReedSolomonCode:
    """A ``(n, k)`` Reed-Solomon code over GF(256)."""

    def __init__(self, total_symbols: int, data_symbols: int):
        if not 1 <= data_symbols <= total_symbols:
            raise ValueError("need 1 <= data_symbols <= total_symbols")
        if total_symbols > gf256.FIELD_SIZE - 1:
            raise ValueError("at most 255 symbols are supported by GF(256)")
        self.total_symbols = total_symbols
        self.data_symbols = data_symbols
        self.evaluation_points = list(range(1, total_symbols + 1))

    # ------------------------------------------------------------------
    def max_correctable_errors(self, received: int) -> int:
        """Largest number of corrupted symbols correctable from ``received`` symbols."""
        return max(0, (received - self.data_symbols) // 2)

    def encode(self, blob: bytes) -> List[Fragment]:
        """Encode ``blob`` into one fragment per symbol index.

        The blob is laid out as ``k`` coefficient rows spanning every chunk
        (``rows[r][j]`` is coefficient ``r`` of chunk ``j``); each evaluation
        point then costs ``k - 1`` row-translates and int XORs, regardless of
        how many chunks there are.  The last ``bytes`` blob encoded is
        remembered (see ``_LAST_ENCODED``): encoding it again with the same
        ``(n, k)`` returns a new list of the same fragments.
        """
        global _LAST_ENCODED
        n, k = self.total_symbols, self.data_symbols
        last = _LAST_ENCODED
        if last[0] is blob and last[1] == n and last[2] == k:
            return list(last[3])
        data = bytes(blob)
        blob_length = len(data)
        chunk_count = self._chunk_count(blob_length)
        padded = data + bytes(chunk_count * k - blob_length)
        rows = [padded[row::k] for row in range(k)]
        constant = int.from_bytes(rows[0], "little")
        fragments = [
            Fragment(
                index=index,
                symbols=tuple(_evaluate(rows, constant, point).to_bytes(chunk_count, "little")),
                blob_length=blob_length,
            )
            for index, point in enumerate(self.evaluation_points)
        ]
        if type(blob) is bytes:
            _LAST_ENCODED = (blob, n, k, tuple(fragments))
        return fragments

    def decode(self, fragments: Sequence[Fragment]) -> bytes:
        """Reconstruct the blob from fragments, correcting up to ``(m - k) / 2`` corrupted ones.

        Raises:
            DecodingError: when the fragments are insufficient or inconsistent.
        """
        # A Byzantine sender controls every field of its fragment, so one that
        # is not well-formed is unusable, never fatal: skip it like a stranger.
        received: Dict[int, Tuple[bytes, int]] = {}
        for fragment in fragments:
            if not isinstance(fragment, Fragment):
                continue
            index, blob_length = fragment.index, fragment.blob_length
            if not isinstance(index, int) or not 0 <= index < self.total_symbols:
                continue
            if not isinstance(blob_length, int) or blob_length < 0:
                continue
            if not isinstance(fragment.symbols, tuple):
                continue
            try:
                symbol_row = bytes(fragment.symbols)
            except (TypeError, ValueError):
                continue
            received.setdefault(index, (symbol_row, blob_length))
        if len(received) < self.data_symbols:
            raise DecodingError(
                f"need at least {self.data_symbols} fragments, got {len(received)}"
            )
        # Byzantine fragments may lie about the blob length; try candidate
        # lengths from the most to the least frequently claimed one.
        length_votes: Dict[int, int] = {}
        for _, blob_length in received.values():
            length_votes[blob_length] = length_votes.get(blob_length, 0) + 1
        candidates = sorted(length_votes, key=lambda length: (-length_votes[length], length))
        last_error: Optional[DecodingError] = None
        for blob_length in candidates:
            chunk_count = self._chunk_count(blob_length)
            usable = sorted(
                (index, symbol_row)
                for index, (symbol_row, _) in received.items()
                if len(symbol_row) == chunk_count
            )
            if len(usable) < self.data_symbols:
                last_error = DecodingError("not enough fragments with a consistent shape")
                continue
            try:
                return self._decode_shape(usable, blob_length, chunk_count)
            except DecodingError as error:
                last_error = error
        raise last_error if last_error is not None else DecodingError("no decodable fragment shape")

    # ------------------------------------------------------------------
    def _decode_shape(
        self, usable: List[Tuple[int, bytes]], blob_length: int, chunk_count: int
    ) -> bytes:
        """Decode index-ordered rows of one consistent shape (may raise :class:`DecodingError`)."""
        k = self.data_symbols
        points = [self.evaluation_points[index] for index, _ in usable]
        symbol_rows = [symbol_row for _, symbol_row in usable]

        # Fast path: interpolate through the first k fragments across every
        # chunk at once, then verify the candidate against the other received
        # symbols row-wise (the first k match by construction).  Chunks that
        # verify cleanly are provably the Berlekamp-Welch answer; the rest are
        # re-solved exactly below.
        basis = self._interpolation_basis(tuple(points[:k]))
        coefficient_rows: List[bytes] = []
        for basis_row in basis:
            coefficient = 0
            for weight, symbol_row in zip(basis_row, symbol_rows):
                if weight:
                    coefficient ^= int.from_bytes(symbol_row.translate(_MUL[weight]), "little")
            coefficient_rows.append(coefficient.to_bytes(chunk_count, "little"))
        constant = int.from_bytes(coefficient_rows[0], "little")
        mismatch_mask = 0
        for point, symbol_row in zip(points[k:], symbol_rows[k:]):
            mismatch_mask |= _evaluate(coefficient_rows, constant, point) ^ int.from_bytes(
                symbol_row, "little"
            )

        data = bytearray(chunk_count * k)
        for row in range(k):
            data[row::k] = coefficient_rows[row]
        if mismatch_mask:
            # Some chunk disagrees somewhere: run the exact Berlekamp-Welch
            # recovery for precisely those chunks.
            mismatched = mismatch_mask.to_bytes(chunk_count, "little")
            for chunk_index in range(chunk_count):
                if mismatched[chunk_index]:
                    coefficients = self._berlekamp_welch(
                        points, [symbol_row[chunk_index] for symbol_row in symbol_rows]
                    )
                    data[chunk_index * k : (chunk_index + 1) * k] = bytes(coefficients)
        return bytes(data[:blob_length])

    def _interpolation_basis(self, points: Tuple[int, ...]) -> List[bytes]:
        """The inverse Vandermonde of ``points``: ``coeffs = basis @ symbols``.

        ``basis[r][i]`` is the weight of symbol ``i`` in coefficient ``r`` of
        the unique degree ``< k`` polynomial through the ``k`` points.  Not
        cached: each ADD instance has its own codec and decodes about 1.5
        times, so a per-codec cache hit 0 of 188 lookups on a
        ``large_n_signed`` unit.
        """
        k = len(points)
        width = 2 * k
        # Invert the Vandermonde matrix V[i][r] = points[i] ** r by Gauss-Jordan
        # elimination on [V | I], one little-endian int per row (element c is
        # byte c); then coeffs = V^-1 @ ys.
        augmented = []
        for i, x in enumerate(points):
            row = bytearray(width)
            value = 1
            for r in range(k):
                row[r] = value
                value = _MUL[value][x]
            row[k + i] = 1
            augmented.append(int.from_bytes(row, "little"))
        for column in range(k):
            shift = 8 * column
            pivot = next(r for r in range(column, k) if augmented[r] >> shift & 0xFF)
            augmented[column], augmented[pivot] = augmented[pivot], augmented[column]
            lead = augmented[column] >> shift & 0xFF
            pivot_row = augmented[column].to_bytes(width, "little").translate(_MUL[_INVERSE[lead]])
            augmented[column] = int.from_bytes(pivot_row, "little")
            for row in range(k):
                factor = augmented[row] >> shift & 0xFF
                if factor and row != column:
                    augmented[row] ^= int.from_bytes(pivot_row.translate(_MUL[factor]), "little")
        return [row.to_bytes(width, "little")[k:] for row in augmented]

    def _chunk_count(self, blob_length: int) -> int:
        return max(1, -(-blob_length // self.data_symbols))

    def _berlekamp_welch(self, points: Sequence[int], symbols: Sequence[int]) -> List[int]:
        """Recover one chunk's data polynomial from ``(x, y)`` pairs with errors.

        Identical algorithm to the reference implementation (same error-count
        descent, same matrix layout, same free-variable convention), with the
        linear algebra running on bytearray rows.
        """
        received = len(points)
        k = self.data_symbols
        max_errors = self.max_correctable_errors(received)
        # powers[i][j] = points[i] ** j, shared by every error-count attempt.
        max_power = max_errors + k
        powers = []
        for x in points:
            row = [1] * (max_power + 1)
            value = 1
            for j in range(1, max_power + 1):
                value = _MUL[value][x]
                row[j] = value
            powers.append(row)
        for errors in range(max_errors, -1, -1):
            q_terms = errors + k
            width = q_terms + errors + 1
            augmented = []
            for i, y in enumerate(symbols):
                power_row = powers[i]
                y_row = _MUL[y]
                row = bytearray(width)
                row[:q_terms] = bytes(power_row[:q_terms])
                for j in range(errors):
                    row[q_terms + j] = y_row[power_row[j]]
                row[q_terms + errors] = y_row[power_row[errors]]
                augmented.append(row)
            solution = _solve_augmented(augmented, q_terms + errors)
            if solution is None:
                continue
            q_coefficients = solution[:q_terms]
            e_coefficients = solution[q_terms:] + [1]  # monic error locator
            quotient, remainder = gf256.poly_divmod(q_coefficients, e_coefficients)
            if any(value != 0 for value in remainder):
                continue
            candidate = (quotient + [0] * k)[:k]
            mismatches = 0
            for x, y in zip(points, symbols):
                if gf256.poly_eval(candidate, x) != y:
                    mismatches += 1
            if mismatches <= errors:
                return candidate
        raise DecodingError("Berlekamp-Welch decoding failed: too many corrupted fragments")
