"""Tests for the simulated cryptography substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    KeyAuthority,
    PartialSignature,
    Signature,
    ThresholdScheme,
    ThresholdSignature,
    digest,
    stable_encode,
)


class TestStableEncoding:
    def test_equal_values_encode_equally(self):
        assert stable_encode({"a": 1, "b": 2}) == stable_encode({"b": 2, "a": 1})
        assert stable_encode(frozenset({1, 2, 3})) == stable_encode({3, 2, 1})

    def test_different_values_encode_differently(self):
        assert stable_encode([1, 2]) != stable_encode([2, 1])
        assert stable_encode("12") != stable_encode(12)
        assert stable_encode(True) != stable_encode(1)

    def test_nested_containers(self):
        value = {"k": [1, (2, 3)], "s": {"x"}}
        assert digest(value) == digest({"s": {"x"}, "k": [1, (2, 3)]})

    def test_input_configuration_encoding(self):
        from repro.core import InputConfiguration

        a = InputConfiguration.from_mapping({0: "v", 2: "w"})
        b = InputConfiguration.from_mapping({2: "w", 0: "v"})
        c = InputConfiguration.from_mapping({0: "v", 2: "x"})
        assert digest(a) == digest(b)
        assert digest(a) != digest(c)

    @given(st.recursive(st.integers() | st.text() | st.booleans(), st.lists, max_leaves=10))
    @settings(max_examples=60)
    def test_encoding_is_deterministic(self, value):
        assert stable_encode(value) == stable_encode(value)


class TestSignatures:
    def test_sign_and_verify(self):
        authority = KeyAuthority(4)
        signature = authority.sign(2, ("proposal", "v"))
        assert authority.verify(signature, ("proposal", "v"))
        assert authority.verify(signature, ("proposal", "v"), expected_signer=2)

    def test_wrong_message_rejected(self):
        authority = KeyAuthority(4)
        signature = authority.sign(2, "m1")
        assert not authority.verify(signature, "m2")

    def test_wrong_expected_signer_rejected(self):
        authority = KeyAuthority(4)
        signature = authority.sign(2, "m")
        assert not authority.verify(signature, "m", expected_signer=3)

    def test_forged_signature_rejected(self):
        authority = KeyAuthority(4)
        forged = authority.forge(claimed_signer=1, message="m")
        assert not authority.verify(forged, "m")

    def test_unknown_signer_rejected(self):
        authority = KeyAuthority(4)
        with pytest.raises(ValueError):
            authority.sign(7, "m")
        bogus = Signature(signer=9, tag="00")
        assert not authority.verify(bogus, "m")

    def test_non_signature_objects_rejected(self):
        authority = KeyAuthority(4)
        assert not authority.verify("not a signature", "m")

    def test_different_seeds_produce_independent_keys(self):
        first = KeyAuthority(4, seed=1)
        second = KeyAuthority(4, seed=2)
        signature = first.sign(0, "m")
        assert not second.verify(signature, "m")

    def test_signature_word_size(self):
        authority = KeyAuthority(4)
        assert authority.sign(0, "m").words == 1


class TestThresholdSignatures:
    def make_scheme(self, n=4, t=1):
        authority = KeyAuthority(n)
        return ThresholdScheme(authority, threshold=n - t)

    def test_combine_and_verify(self):
        scheme = self.make_scheme()
        partials = [scheme.partial_sign(pid, "msg") for pid in range(3)]
        combined = scheme.combine(partials, "msg")
        assert scheme.verify(combined, "msg")
        assert combined.words == 1

    def test_combine_requires_threshold_distinct_shares(self):
        scheme = self.make_scheme()
        partials = [scheme.partial_sign(0, "msg"), scheme.partial_sign(1, "msg")]
        with pytest.raises(ValueError):
            scheme.combine(partials, "msg")
        duplicated = [scheme.partial_sign(0, "msg")] * 3
        with pytest.raises(ValueError):
            scheme.combine(duplicated, "msg")

    def test_invalid_shares_are_ignored(self):
        scheme = self.make_scheme()
        good = [scheme.partial_sign(pid, "msg") for pid in range(2)]
        bad = [PartialSignature(signer=2, signature=Signature(signer=2, tag="junk"))]
        with pytest.raises(ValueError):
            scheme.combine(good + bad, "msg")

    def test_verify_rejects_wrong_message(self):
        scheme = self.make_scheme()
        partials = [scheme.partial_sign(pid, "msg") for pid in range(3)]
        combined = scheme.combine(partials, "msg")
        assert not scheme.verify(combined, "other")

    def test_verify_rejects_undersized_signer_set(self):
        scheme = self.make_scheme()
        fake = ThresholdSignature(message_digest=digest(("tsig", "msg")), signers=frozenset({0}), threshold=3)
        assert not scheme.verify(fake, "msg")

    def test_partial_verification(self):
        scheme = self.make_scheme()
        share = scheme.partial_sign(1, "msg")
        assert scheme.verify_partial(share, "msg")
        assert not scheme.verify_partial(share, "other")
        assert not scheme.verify_partial("garbage", "msg")

    def test_threshold_bounds_validated(self):
        authority = KeyAuthority(4)
        with pytest.raises(ValueError):
            ThresholdScheme(authority, threshold=0)
        with pytest.raises(ValueError):
            ThresholdScheme(authority, threshold=5)


class TestTagMemoSoundness:
    """``KeyAuthority.verify`` reuses the tag ``sign`` computed; nothing else changes."""

    def test_a_forged_tag_fails_after_a_valid_verify_and_vice_versa(self):
        authority = KeyAuthority(4)
        valid = authority.sign(1, "m")
        forged = authority.forge(claimed_signer=1, message="m")
        assert authority.verify(valid, "m")
        assert not authority.verify(forged, "m")
        assert not authority.verify(Signature(signer=1, tag=valid.tag[:-1] + "x"), "m")
        assert authority.verify(valid, "m")

        fresh = KeyAuthority(4)  # nothing signed here yet: every expected tag is computed
        assert not fresh.verify(forged, "m")
        assert fresh.verify(valid, "m")
        assert not fresh.verify(forged, "m")
        assert fresh.sign(1, "m") == valid

    @pytest.mark.parametrize("signed, others", [(1, (True, 1.0)), (True, (1, 1.0)), (1.0, (1, True))])
    def test_equal_but_distinct_messages_do_not_share_a_tag(self, signed, others):
        authority = KeyAuthority(4)
        signature = authority.sign(0, ("proposal", signed))
        for other in others:
            assert ("proposal", other) == ("proposal", signed)  # what an ``==`` key would alias
            assert not authority.verify(signature, ("proposal", other))
            assert authority.sign(0, ("proposal", other)) != signature
        assert authority.verify(signature, ("proposal", signed))

    def test_a_valid_tag_under_another_signer_fails(self):
        authority = KeyAuthority(4)
        signature = authority.sign(2, "m")
        assert authority.verify(signature, "m", expected_signer=2)
        assert not authority.verify(signature, "m", expected_signer=1)
        assert not authority.verify(Signature(signer=1, tag=signature.tag), "m")
        assert not authority.verify(Signature(signer=1, tag=signature.tag), "m", expected_signer=1)
        assert authority.verify(signature, "m")  # the rejected presentations poisoned nothing
        assert authority.sign(1, "m").tag != signature.tag

    def test_authorities_never_share_entries(self):
        first, twin, other = KeyAuthority(4, seed=1), KeyAuthority(4, seed=1), KeyAuthority(4, seed=2)
        signature = first.sign(0, "m")
        assert first.verify(signature, "m")
        assert first._tags and not twin._tags and not other._tags
        assert twin.verify(signature, "m")  # same seed: same keys, its own computation
        assert not other.verify(signature, "m")
        assert other.sign(0, "m") != signature
        assert first.verify(signature, "m")

    def test_verify_reuses_signed_tags_and_stores_none_of_its_own(self, monkeypatch):
        import hmac

        evaluations = []
        real = hmac.HMAC.hexdigest
        monkeypatch.setattr(
            hmac.HMAC, "hexdigest", lambda self: evaluations.append(1) or real(self)
        )
        authority = KeyAuthority(4)
        signature = authority.sign(0, ("proposal", "v"))
        for _ in range(5):
            assert authority.verify(signature, ("proposal", "v"))
        assert authority.verify(signature, ["proposal", "v"])  # lists and tuples encode alike
        assert len(evaluations) == 1  # the sign; every verify read its tag
        stored = dict(authority._tags)
        for index in range(5):  # never signed: each tag is computed, compared and dropped
            assert not authority.verify(signature, ("proposal", "w"))
            assert not authority.verify(signature, ("junk", index))
        assert len(evaluations) == 11
        assert authority._tags == stored and len(stored) == 1

    def test_threshold_results_are_the_same_cold_and_warm(self):
        def outcomes(scheme):
            shares = [scheme.partial_sign(pid, "msg") for pid in range(3)]
            bad = PartialSignature(signer=3, signature=Signature(signer=3, tag="junk"))
            combined = scheme.combine(shares + [bad], "msg")
            with pytest.raises(ValueError):
                scheme.combine(shares[:2] + [bad], "msg")
            return (
                shares,
                combined,
                [scheme.verify_partial(share, "msg") for share in shares + [bad]],
                [scheme.verify_partial(share, "other") for share in shares],
                scheme.verify(combined, "msg"),
                scheme.verify(combined, "other"),
            )

        warm = ThresholdScheme(KeyAuthority(4), threshold=3)
        first = outcomes(warm)
        assert outcomes(warm) == first  # second pass: every tag comes from the memo
        assert outcomes(ThresholdScheme(KeyAuthority(4), threshold=3)) == first  # a cold authority
