"""Differential tests: the production codec against the element-at-a-time oracle.

The hot-path PR rewrote :mod:`repro.coding.gf256` (table-driven, row-wise
``bytes.translate`` operations) and :mod:`repro.coding.reed_solomon`
(vectorized encode, interpolate-and-verify decode with a per-chunk
Berlekamp-Welch fallback).  The original implementation is retained beside
this file as ``reference_codec.py``, and this suite pins the production
codec to it byte for byte on every path: scalar field ops over the whole
field, the row kernels, the polynomial helpers, encode, and decode through
clean, max-erasure, error-correcting, scattered-corruption, k=1,
malformed-fragment and failure paths.  The last section checks what the
codec remembers (the one encode slot: identity, shape, exact ``bytes``) and
the two kernels the verify shortcut relies on: the inverse Vandermonde, and
damage inside the interpolated points.
"""

import operator
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_codec as reference
from repro.coding import Fragment, ReedSolomonCode, gf256, reed_solomon
from repro.coding.reed_solomon import DecodingError

SEEDS = [2023, 2024, 2025]


# ----------------------------------------------------------------------
# Field arithmetic
# ----------------------------------------------------------------------
class TestScalarOpsMatchReference:
    def test_multiply_matches_over_the_whole_field(self):
        for a in range(256):
            row = gf256.MUL_TABLE[a]
            for b in range(256):
                expected = reference.multiply(a, b)
                assert gf256.multiply(a, b) == expected
                assert row[b] == expected

    def test_add_inverse_divide_power_match(self):
        rng = random.Random(SEEDS[0])
        for _ in range(2000):
            a, b = rng.randrange(256), rng.randrange(256)
            assert gf256.add(a, b) == reference.add(a, b)
            assert gf256.subtract(a, b) == reference.subtract(a, b)
            if a:
                assert gf256.inverse(a) == reference.inverse(a)
                assert gf256.divide(b, a) == reference.divide(b, a)
                exponent = rng.randrange(-300, 300)
                assert gf256.power(a, exponent) == reference.power(a, exponent)

    def test_boundary_validation_matches(self):
        for bad in (-1, 256, 1000):
            with pytest.raises(ValueError):
                gf256.add(bad, 0)
            with pytest.raises(ValueError):
                gf256.multiply(bad, 1)
            with pytest.raises(ValueError):
                gf256.scalar_multiply_row(bad, b"\x01")
        with pytest.raises(ZeroDivisionError):
            gf256.inverse(0)
        with pytest.raises(ZeroDivisionError):
            gf256.power(0, -1)

    def test_row_operations_match_scalar_loops(self):
        rng = random.Random(SEEDS[1])
        for _ in range(50):
            scalar = rng.randrange(256)
            row = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
            expected = bytes(reference.multiply(scalar, value) for value in row)
            assert gf256.scalar_multiply_row(scalar, row) == expected
        left = bytes(rng.randrange(256) for _ in range(64))
        right = bytes(rng.randrange(256) for _ in range(64))
        assert gf256.xor_rows(left, right) == bytes(a ^ b for a, b in zip(left, right))
        with pytest.raises(ValueError):
            gf256.xor_rows(b"\x00", b"\x00\x00")


@pytest.mark.parametrize("seed", SEEDS)
class TestPolynomialHelpersMatchReference:
    def test_poly_helpers(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            p = [rng.randrange(256) for _ in range(rng.randrange(1, 12))]
            q = [rng.randrange(256) for _ in range(rng.randrange(1, 12))]
            x = rng.randrange(256)
            assert gf256.poly_eval(p, x) == reference.poly_eval(p, x)
            assert gf256.poly_add(p, q) == reference.poly_add(p, q)
            assert gf256.poly_multiply(p, q) == reference.poly_multiply(p, q)
            assert gf256.poly_divmod(p, q) == reference.poly_divmod(p, q)

    def test_poly_eval_accepts_any_sequence_without_copying(self, seed):
        rng = random.Random(seed)
        coefficients = bytes(rng.randrange(256) for _ in range(8))
        x = rng.randrange(256)
        assert gf256.poly_eval(coefficients, x) == reference.poly_eval(list(coefficients), x)
        assert gf256.poly_eval(tuple(coefficients), x) == reference.poly_eval(list(coefficients), x)


# ----------------------------------------------------------------------
# Reed-Solomon codec
# ----------------------------------------------------------------------
def _pair(n, k):
    return (
        ReedSolomonCode(total_symbols=n, data_symbols=k),
        reference.ReferenceReedSolomonCode(total_symbols=n, data_symbols=k),
    )


def _corrupt(fragments, indices, shift=101):
    corrupted = list(fragments)
    for index in indices:
        fragment = corrupted[index]
        corrupted[index] = Fragment(
            index=fragment.index,
            symbols=tuple((symbol + shift) % 256 for symbol in fragment.symbols),
            blob_length=fragment.blob_length,
        )
    return corrupted


def _corrupt_scattered(fragments, rng, flips):
    """XOR random single symbols: some chunks of a blob are damaged, others are not."""
    corrupted = [
        [list(fragment.symbols), fragment.index, fragment.blob_length] for fragment in fragments
    ]
    for _ in range(flips):
        target = rng.randrange(len(corrupted))
        symbols = corrupted[target][0]
        if symbols:
            symbols[rng.randrange(len(symbols))] ^= rng.randrange(1, 256)
    return [
        Fragment(index=index, symbols=tuple(symbols), blob_length=blob_length)
        for symbols, index, blob_length in corrupted
    ]


def _malformed_variants(good):
    """Every way a Byzantine sender can malform one field of an honest fragment."""
    width = len(good.symbols)
    return {
        "symbol above 255": replace(good, symbols=(300,) * width),
        "negative symbol": replace(good, symbols=(-1,) * width),
        "non-int symbol": replace(good, symbols=("x",) * width),
        "symbols None": replace(good, symbols=None),
        "symbols an int": replace(good, symbols=width),
        "index a string": replace(good, index=str(good.index)),
        "index None": replace(good, index=None),
        "length a string": replace(good, blob_length="x"),
        "length unhashable": replace(good, blob_length=[]),
        "length negative": replace(good, blob_length=-1),
    }


def _outcome(codec, fragments):
    try:
        return ("ok", codec.decode(fragments))
    except Exception as error:  # noqa: BLE001 - parity includes the failure mode
        return (type(error).__name__, str(error))


@pytest.mark.parametrize("seed", SEEDS)
class TestCodecMatchesReference:
    def test_encode_byte_identical_across_shapes(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randrange(1, 28)
            k = rng.randrange(1, n + 1)
            optimized, oracle = _pair(n, k)
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 150)))
            assert optimized.encode(blob) == oracle.encode(blob)

    def test_decode_parity_under_random_erasure_and_corruption(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randrange(2, 24)
            k = rng.randrange(1, n + 1)
            optimized, oracle = _pair(n, k)
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 100)))
            fragments = optimized.encode(blob)
            received_count = rng.randrange(k, n + 1)
            received = rng.sample(fragments, received_count)
            # Anywhere from decodable to undecodable corruption levels.
            corruption = rng.randrange(0, min(received_count, (received_count - k) // 2 + 2))
            received = _corrupt(received, range(corruption))
            assert _outcome(optimized, received) == _outcome(oracle, received)

    def test_k_equals_one_paths(self, seed):
        rng = random.Random(seed)
        optimized, oracle = _pair(7, 1)
        blob = bytes(rng.randrange(256) for _ in range(25))
        fragments = optimized.encode(blob)
        assert fragments == oracle.encode(blob)
        assert optimized.decode(fragments[3:4]) == oracle.decode(fragments[3:4]) == blob
        corrupted = _corrupt(fragments, (0, 1, 2))
        assert _outcome(optimized, corrupted) == _outcome(oracle, corrupted)

    def test_max_erasure_exactly_k_fragments(self, seed):
        rng = random.Random(seed)
        for n, k in ((7, 3), (10, 4), (5, 5)):
            optimized, oracle = _pair(n, k)
            blob = bytes(rng.randrange(256) for _ in range(3 * k + 1))
            fragments = optimized.encode(blob)
            subset = rng.sample(fragments, k)
            assert optimized.decode(subset) == oracle.decode(subset) == blob

    def test_error_correction_at_the_exact_bw_bound(self, seed):
        rng = random.Random(seed)
        n, k = 12, 4
        optimized, oracle = _pair(n, k)
        blob = bytes(rng.randrange(256) for _ in range(40))
        fragments = optimized.encode(blob)
        budget = optimized.max_correctable_errors(n)  # (12 - 4) // 2 == 4
        at_bound = _corrupt(fragments, range(budget))
        assert optimized.decode(at_bound) == oracle.decode(at_bound) == blob
        beyond = _corrupt(fragments, range(budget + 1))
        assert _outcome(optimized, beyond) == _outcome(oracle, beyond)

    def test_length_lies_and_shape_mismatches(self, seed):
        rng = random.Random(seed)
        optimized, oracle = _pair(7, 3)
        blob = bytes(rng.randrange(256) for _ in range(31))
        fragments = list(optimized.encode(blob))
        fragments[0] = Fragment(index=0, symbols=fragments[0].symbols, blob_length=9999)
        fragments[1] = Fragment(index=1, symbols=fragments[1].symbols[:-2], blob_length=31)
        assert _outcome(optimized, fragments) == _outcome(oracle, fragments)
        assert optimized.decode(fragments) == blob

    def test_empty_blob_and_insufficient_fragments(self, seed):
        optimized, oracle = _pair(4, 2)
        fragments = optimized.encode(b"")
        assert fragments == oracle.encode(b"")
        assert optimized.decode(fragments) == oracle.decode(fragments) == b""
        assert _outcome(optimized, fragments[:1]) == _outcome(oracle, fragments[:1])
        assert _outcome(optimized, []) == _outcome(oracle, [])

    def test_scattered_corruption_falls_back_on_some_chunks_only(self, seed, monkeypatch):
        rng = random.Random(seed)
        n, k = 12, 4
        optimized, oracle = _pair(n, k)
        blob = bytes(rng.randrange(256) for _ in range(k * rng.randrange(16, 40)))
        chunk_count = len(blob) // k
        # A handful of single-symbol flips: each damaged chunk stays within
        # the (12 - 4) // 2 budget, and most chunks are not touched at all.
        damaged = _corrupt_scattered(optimized.encode(blob), rng, 4)
        fallbacks = []
        exact_solve = optimized._berlekamp_welch
        monkeypatch.setattr(
            optimized,
            "_berlekamp_welch",
            lambda points, symbols: fallbacks.append(1) or exact_solve(points, symbols),
        )
        assert optimized.decode(damaged) == oracle.decode(damaged) == blob
        assert 0 < len(fallbacks) < chunk_count

    def test_decode_parity_under_scattered_corruption_of_long_blobs(self, seed):
        rng = random.Random(seed)
        for _ in range(15):
            n = rng.randrange(2, 16)
            k = rng.randrange(1, n + 1)
            optimized, oracle = _pair(n, k)
            blob = bytes(rng.randrange(256) for _ in range(k * rng.randrange(16, 30)))
            received = rng.sample(optimized.encode(blob), rng.randrange(k, n + 1))
            # Anywhere from untouched to hopeless, chunk by chunk.
            received = _corrupt_scattered(received, rng, rng.randrange(0, 2 * n))
            assert _outcome(optimized, received) == _outcome(oracle, received)

    def test_hopeless_corruption_fails_with_the_identical_message(self, seed):
        rng = random.Random(seed)
        optimized, oracle = _pair(8, 3)
        blob = bytes(rng.randrange(256) for _ in range(41))
        hopeless = _corrupt(optimized.encode(blob), range(6))
        expected = _outcome(oracle, hopeless)
        assert expected[0] == DecodingError.__name__
        assert _outcome(optimized, hopeless) == expected
        # Scattered ruin: nearly every chunk of a (6, 4) codeword is beyond repair.
        optimized, oracle = _pair(6, 4)
        ruined = _corrupt_scattered(optimized.encode(blob), rng, 40)
        expected = _outcome(oracle, ruined)
        assert expected[0] == DecodingError.__name__
        assert _outcome(optimized, ruined) == expected

    @pytest.mark.parametrize("shape", sorted(_malformed_variants(Fragment(0, (0,), 1))))
    def test_malformed_fragments_are_skipped_identically(self, seed, shape):
        rng = random.Random(seed)
        optimized, oracle = _pair(7, 3)
        blob = bytes(rng.randrange(256) for _ in range(31))
        fragments = optimized.encode(blob)
        malformed = _malformed_variants(fragments[6])[shape]
        received = fragments[:6] + [malformed]
        assert _outcome(optimized, received) == _outcome(oracle, received) == ("ok", blob)
        # Below k well-formed fragments it is a DecodingError, on both sides.
        starved = fragments[:2] + [malformed]
        expected = _outcome(oracle, starved)
        assert expected[0] == DecodingError.__name__
        assert _outcome(optimized, starved) == expected


# ----------------------------------------------------------------------
# The encode slot and the integer-domain kernels
# ----------------------------------------------------------------------
_EMPTY_SLOT = (None, 0, 0, ())


@pytest.fixture
def empty_slot(monkeypatch):
    monkeypatch.setattr(reed_solomon, "_LAST_ENCODED", _EMPTY_SLOT)


def _blob(seed, length=61):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(length))


@pytest.mark.usefixtures("empty_slot")
class TestEncodeSlot:
    def test_one_blob_under_different_shapes(self):
        blob = _blob(SEEDS[0])
        for n, k in ((7, 3), (7, 4), (10, 3), (7, 3), (7, 3)):
            optimized, oracle = _pair(n, k)
            assert optimized.encode(blob) == oracle.encode(blob)
            assert reed_solomon._LAST_ENCODED[:3] == (blob, n, k)

    def test_a_bytearray_is_never_remembered(self):
        optimized, oracle = _pair(7, 3)
        buffer = bytearray(_blob(SEEDS[1]))
        assert optimized.encode(buffer) == oracle.encode(bytes(buffer))
        buffer[0] ^= 0xFF
        buffer.extend(b"more")
        assert optimized.encode(buffer) == oracle.encode(bytes(buffer))
        assert reed_solomon._LAST_ENCODED is _EMPTY_SLOT

    def test_equal_but_distinct_blobs_are_encoded_afresh(self):
        optimized, oracle = _pair(7, 3)
        blob = _blob(SEEDS[2])
        twin = bytes(bytearray(blob))
        assert twin == blob and twin is not blob
        first, second = optimized.encode(blob), optimized.encode(twin)
        assert first == second == oracle.encode(blob)
        assert not any(map(operator.is_, first, second))
        assert reed_solomon._LAST_ENCODED[0] is twin

    def test_a_hit_is_a_new_list_of_the_same_fragments(self):
        optimized, oracle = _pair(7, 3)
        blob = _blob(SEEDS[0])
        first = optimized.encode(blob)
        kept = list(first)
        first[0] = Fragment(0, (0,) * len(first[0].symbols), len(blob))
        first.append(first[1])
        second = optimized.encode(blob)
        assert second == oracle.encode(blob)
        assert second is not first
        assert all(map(operator.is_, second, kept))
        # Another codec of the same shape shares the slot: the blob, not the codec, is the key.
        assert all(map(operator.is_, ReedSolomonCode(7, 3).encode(blob), kept))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_the_interpolation_basis_inverts_the_vandermonde(data):
    k = data.draw(st.integers(1, 16))
    points = data.draw(st.lists(st.integers(1, 255), min_size=k, max_size=k, unique=True))
    basis = ReedSolomonCode(255, k)._interpolation_basis(tuple(points))
    for r in range(k):
        for column in range(k):
            entry = 0
            for i, x in enumerate(points):
                entry ^= reference.multiply(basis[r][i], reference.power(x, column))
            assert entry == (r == column)


@pytest.mark.parametrize("seed", SEEDS)
def test_corruption_among_the_interpolated_points_is_still_corrected(seed):
    # Decoding interpolates through the first k received fragments (in index
    # order) and checks only the rest, so damage inside the first k must show
    # up as mismatches at the others and be corrected by the exact solve.
    rng = random.Random(seed)
    n, k = 10, 3
    optimized, oracle = _pair(n, k)
    blob = _blob(seed, 47)
    fragments = optimized.encode(blob)
    for damaged in ([0], [2], [0, 1], [0, 1, 2], [1, rng.randrange(k, n)]):
        received = _corrupt(fragments, damaged, shift=rng.randrange(1, 256))
        rng.shuffle(received)
        assert optimized.decode(received) == oracle.decode(received) == blob
