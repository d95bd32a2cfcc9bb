"""Tests for the coding substrate: GF(256), Reed-Solomon with error correction, and ADD."""

import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import DecodingError, Fragment, ReedSolomonCode, gf256


class TestGF256:
    def test_addition_is_xor_and_self_inverse(self):
        assert gf256.add(0x53, 0xCA) == 0x53 ^ 0xCA
        assert gf256.add(0x53, 0x53) == 0
        assert gf256.subtract(0x53, 0xCA) == gf256.add(0x53, 0xCA)

    def test_multiplicative_identity_and_zero(self):
        for value in range(256):
            assert gf256.multiply(value, 1) == value
            assert gf256.multiply(value, 0) == 0

    def test_inverse(self):
        for value in range(1, 256):
            assert gf256.multiply(value, gf256.inverse(value)) == 1
        with pytest.raises(ZeroDivisionError):
            gf256.inverse(0)

    def test_division(self):
        assert gf256.divide(gf256.multiply(17, 99), 99) == 17

    def test_power(self):
        assert gf256.power(2, 0) == 1
        assert gf256.power(2, 8) == gf256.multiply(gf256.power(2, 4), gf256.power(2, 4))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            gf256.add(256, 1)
        with pytest.raises(ValueError):
            gf256.multiply(-1, 1)

    def test_poly_eval_matches_horner_by_hand(self):
        # p(x) = 3 + 5x + 7x^2 at x = 2
        expected = gf256.add(3, gf256.add(gf256.multiply(5, 2), gf256.multiply(7, gf256.multiply(2, 2))))
        assert gf256.poly_eval([3, 5, 7], 2) == expected

    def test_poly_divmod_roundtrip(self):
        p = [1, 2, 3, 4]
        q = [5, 6]
        product = gf256.poly_multiply(p, q)
        quotient, remainder = gf256.poly_divmod(product, q)
        assert all(r == 0 for r in remainder)
        assert quotient[: len(p)] == p

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=100)
    def test_field_axioms(self, a, b, c):
        assert gf256.multiply(a, b) == gf256.multiply(b, a)
        assert gf256.add(a, b) == gf256.add(b, a)
        assert gf256.multiply(a, gf256.add(b, c)) == gf256.add(gf256.multiply(a, b), gf256.multiply(a, c))


class TestReedSolomon:
    def test_roundtrip_without_errors(self):
        code = ReedSolomonCode(total_symbols=7, data_symbols=3)
        blob = bytes(range(40))
        assert code.decode(code.encode(blob)) == blob

    def test_roundtrip_with_erasures(self):
        code = ReedSolomonCode(total_symbols=7, data_symbols=3)
        blob = b"erasure tolerance"
        fragments = code.encode(blob)
        assert code.decode(fragments[2:]) == blob

    def test_roundtrip_with_byzantine_corruption(self):
        code = ReedSolomonCode(total_symbols=10, data_symbols=4)
        rng = random.Random(7)
        blob = bytes(rng.randrange(256) for _ in range(100))
        fragments = list(code.encode(blob))
        for index in (1, 6, 8):  # up to t = 3 corrupted fragments
            fragments[index] = Fragment(
                index=index,
                symbols=tuple((s + 13) % 256 for s in fragments[index].symbols),
                blob_length=fragments[index].blob_length,
            )
        assert code.decode(fragments) == blob

    def test_corrupted_length_claims_are_survivable(self):
        code = ReedSolomonCode(total_symbols=7, data_symbols=3)
        blob = b"length lies"
        fragments = list(code.encode(blob))
        fragments[0] = Fragment(index=0, symbols=fragments[0].symbols, blob_length=9999)
        assert code.decode(fragments[0:6]) == blob

    def test_too_few_fragments_raise(self):
        code = ReedSolomonCode(total_symbols=7, data_symbols=3)
        fragments = code.encode(b"hello")
        with pytest.raises(DecodingError):
            code.decode(fragments[:2])

    def test_too_many_corruptions_raise(self):
        code = ReedSolomonCode(total_symbols=4, data_symbols=2)
        blob = b"xy"
        fragments = list(code.encode(blob))
        corrupted = [
            Fragment(index=f.index, symbols=tuple((s + 1) % 256 for s in f.symbols), blob_length=f.blob_length)
            for f in fragments[:3]
        ] + [fragments[3]]
        with pytest.raises(DecodingError):
            result = code.decode(corrupted)
            assert result != blob  # pragma: no cover - reached only if decode "succeeds" wrongly
            raise DecodingError("decoded inconsistent data")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(total_symbols=3, data_symbols=4)
        with pytest.raises(ValueError):
            ReedSolomonCode(total_symbols=300, data_symbols=3)

    def test_empty_blob(self):
        code = ReedSolomonCode(total_symbols=4, data_symbols=2)
        assert code.decode(code.encode(b"")) == b""

    @given(st.binary(min_size=1, max_size=60), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_with_random_corruption(self, blob, corruptions):
        code = ReedSolomonCode(total_symbols=7, data_symbols=3)
        fragments = list(code.encode(blob))
        for index in range(corruptions):
            fragments[index] = Fragment(
                index=index,
                symbols=tuple((s + 101) % 256 for s in fragments[index].symbols),
                blob_length=fragments[index].blob_length,
            )
        assert code.decode(fragments) == blob

    def test_t_malformed_fragments_among_n_do_not_stop_the_decode(self):
        code = ReedSolomonCode(total_symbols=7, data_symbols=3)  # n = 7, t = 2
        blob = b"one bad sender must not abort a correct process"
        fragments = code.encode(blob)
        length = len(fragments[0].symbols)
        malformed = [Fragment(5, (300,) * length, len(blob)), Fragment(6, None, len(blob))]
        assert code.decode(malformed + fragments[:5]) == blob
        with pytest.raises(DecodingError):
            code.decode(malformed + fragments[:2])

    def test_word_size_scales_with_fragment_length(self):
        code = ReedSolomonCode(total_symbols=4, data_symbols=2)
        long_blob = bytes(1000)
        fragment = code.encode(long_blob)[0]
        assert fragment.words >= 7


class TestADDInSimulation:
    blob = b"the vector that quad agreed on" * 3

    def add_process_factory(self, holders):
        """Correct processes running one ADD instance; ``holders`` input the blob."""
        from repro.crypto import digest
        from repro.coding import AsynchronousDataDissemination
        from repro.sim import Process

        blob, expected = self.blob, digest(self.blob)

        class AddProcess(Process):
            def on_start(self):
                self.add = AsynchronousDataDissemination(self, on_output=self.decide)
                self.add.input(blob if self.pid in holders else None, expected_hash=expected)

        return AddProcess

    def test_all_processes_output_the_blob(self):
        from repro.core import SystemConfig
        from repro.sim import Simulation, SynchronousDelayModel, silent_factory

        sim = Simulation(SystemConfig(4, 1), delay_model=SynchronousDelayModel(seed=5))
        # Only t + 1 = 2 correct processes hold the blob; everyone must output it.
        sim.populate(self.add_process_factory(holders=(0, 1)), faulty=[3], faulty_factory=silent_factory)
        sim.run_until_all_correct_decide(until=1_000)
        assert sim.all_correct_decided()
        assert set(sim.decisions().values()) == {self.blob}

    @pytest.mark.parametrize("bad_symbol", [300, -1, "x"])
    def test_malformed_reconstruct_fragments_from_t_senders_are_tolerated(self, bad_symbol):
        from repro.core import SystemConfig
        from repro.crypto import digest
        from repro.sim import Envelope, Process, Simulation, SynchronousDelayModel

        blob, expected = self.blob, digest(self.blob)
        system = SystemConfig(7, 2)
        symbols_per_fragment = -(-len(blob) // (system.t + 1))

        class MalformedFragmentSender(Process):
            """Byzantine: its reconstruct fragment has the right shape and garbage symbols."""

            def on_start(self):
                fragment = Fragment(self.pid, (bad_symbol,) * symbols_per_fragment, len(blob))
                for receiver in range(system.n):
                    self.send_raw(receiver, Envelope(("add",), ("reconstruct", expected, fragment)))

        sim = Simulation(system, delay_model=SynchronousDelayModel(seed=5))
        sim.populate(
            self.add_process_factory(holders=(0, 1, 2)),
            faulty=[5, 6],
            faulty_factory=MalformedFragmentSender,
        )
        sim.run_until_all_correct_decide(until=1_000)
        assert sim.all_correct_decided()
        assert set(sim.decisions().values()) == {self.blob}


    @pytest.mark.parametrize(
        "fields",
        [
            {"symbols": [1]},
            {"symbols": (1, [2])},
            {"symbols": {1: 2}},
            {"blob_length": [1]},
        ],
        ids=["list-symbols", "nested-list-symbol", "dict-symbols", "list-length"],
    )
    def test_malformed_disperse_fragments_are_dropped(self, fields):
        # A Fragment whose fields are not the declared ints used to reach
        # ADD's vote table as a dict key: an unhashable one crashed every
        # correct process it was addressed to.
        from repro.core import SystemConfig
        from repro.crypto import digest
        from repro.sim import Envelope, Process, Simulation, SynchronousDelayModel

        blob, expected = self.blob, digest(self.blob)
        system = SystemConfig(7, 2)

        class MalformedDisperser(Process):
            """Byzantine: disperses a malformed fragment to every process, under the expected hash."""

            def on_start(self):
                for receiver in range(system.n):
                    fragment = Fragment(**{"index": receiver, "symbols": (1,), "blob_length": 1, **fields})
                    self.send_raw(receiver, Envelope(("add",), ("disperse", expected, fragment)))

        sim = Simulation(system, delay_model=SynchronousDelayModel(seed=5))
        sim.populate(
            self.add_process_factory(holders=(0, 1, 2)),
            faulty=[5, 6],
            faulty_factory=MalformedDisperser,
        )
        sim.run_until_all_correct_decide(until=1_000)
        assert sim.all_correct_decided()
        assert set(sim.decisions().values()) == {self.blob}


def test_the_cli_import_is_stdlib_only():
    """A fresh interpreter importing the CLI loads neither numpy nor the test-side oracle."""
    probe = (
        "import sys; import repro.experiments.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'numpy' or 'reference' in m.split('.')[-1]))"
    )
    source_root = pathlib.Path(gf256.__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(source_root)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout.strip() == "[]"
