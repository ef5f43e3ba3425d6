"""Provider contract tests: determinism, totality of verify, KEM failure."""

import hashlib
import hmac

import pytest

from uavchain import crypto
from uavchain.crypto import (DIGEST_LEN, MOCK_CIPHERTEXT_LEN, MOCK_PUBLIC_LEN,
                             MOCK_SIGNATURE_LEN, CryptoError,
                             DecapsulationError, MalformedKeyError,
                             MockProvider,
                             UnsupportedSchemeError, get_provider,
                             register_provider)

provider = MockProvider()


def reference_sign(private_key: bytes, digest: bytes) -> bytes:
    """The mock signature layout, built with `hmac.new` alone."""
    return (hmac.new(private_key, b"sig1" + digest, hashlib.sha256).digest()
            + hmac.new(private_key, b"sig2" + digest, hashlib.sha256).digest())


def reference_encaps(private_key: bytes, seed: int) -> tuple[bytes, bytes]:
    eph = hashlib.sha256(b"uav-mock-eph" + seed.to_bytes(8, "little")).digest()
    tag = hmac.new(private_key, b"kem" + eph, hashlib.sha256).digest()[:16]
    return eph + tag, hashlib.sha256(b"uav-mock-ss" + private_key + eph).digest()


def test_keygen_deterministic_and_sized():
    a = provider.keygen(42)
    b = provider.keygen(42)
    c = provider.keygen(43)
    assert a == b
    assert a.private_key != c.private_key
    assert len(a.public_key) == MOCK_PUBLIC_LEN
    assert a.public_key.startswith(b"MK1")


def test_sign_verify_roundtrip():
    pair = provider.keygen(1)
    digest = hashlib.sha256(b"payload").digest()
    sig = provider.sign(pair.private_key, digest)
    assert isinstance(sig, bytes) and len(sig) == MOCK_SIGNATURE_LEN
    assert provider.verify(digest, sig, pair.public_key)


def test_verify_rejects_tampered_message():
    pair = provider.keygen(2)
    sig = provider.sign(pair.private_key, hashlib.sha256(b"original").digest())
    assert not provider.verify(hashlib.sha256(b"tampered").digest(), sig,
                               pair.public_key)


def test_verify_rejects_tampered_signature():
    pair = provider.keygen(3)
    digest = hashlib.sha256(b"msg").digest()
    sig = provider.sign(pair.private_key, digest)
    flipped = bytes([sig[0] ^ 1]) + sig[1:]
    assert not provider.verify(digest, flipped, pair.public_key)


def test_verify_rejects_wrong_key():
    pair, other = provider.keygen(4), provider.keygen(5)
    digest = hashlib.sha256(b"msg").digest()
    sig = provider.sign(pair.private_key, digest)
    assert not provider.verify(digest, sig, other.public_key)


def test_verify_is_total_on_malformed_input():
    pair = provider.keygen(6)
    digest = hashlib.sha256(b"msg").digest()
    sig = provider.sign(pair.private_key, digest)
    assert not provider.verify(b"short", sig, pair.public_key)
    assert not provider.verify(digest, sig, b"notakey")
    assert not provider.verify(digest, sig, b"XX" + pair.public_key[2:])
    assert not provider.verify(digest, "not a signature", pair.public_key)
    short = b"\x00" * 8
    assert not provider.verify(digest, short, pair.public_key)
    # Digests and keys of the wrong type are False too, not a TypeError.
    for bad in (None, 32, digest.hex()[:DIGEST_LEN], bytearray(digest)):
        assert not provider.verify(bad, sig, pair.public_key)
    for bad in (None, 35, pair.public_key.decode("latin-1"),
                bytearray(pair.public_key)):
        assert not provider.verify(digest, sig, bad)
    assert not provider.verify(digest, None, pair.public_key)
    assert provider.verify(digest, sig, pair.public_key)


class TaggedProvider(MockProvider):
    """Mock signatures behind a tag: sign adds it, verify strips it."""

    TAG = b"tag"

    def sign(self, private_key: bytes, message_hash: bytes) -> bytes:
        return self.TAG + super().sign(private_key, message_hash)

    def verify(self, message_hash: bytes, signature: bytes,
               public_key: bytes) -> bool:
        return (signature.startswith(self.TAG)
                and super().verify(message_hash, signature[len(self.TAG):],
                                   public_key))


def test_subclass_that_wraps_sign_verifies_its_own_signatures():
    tagged = TaggedProvider()
    pair = tagged.keygen(10)
    digest = hashlib.sha256(b"msg").digest()
    sig = tagged.sign(pair.private_key, digest)
    assert sig.startswith(TaggedProvider.TAG)
    assert tagged.verify(digest, sig, pair.public_key)
    assert not tagged.verify(hashlib.sha256(b"other").digest(), sig,
                             pair.public_key)


def test_mock_bytes_match_an_hmac_reference():
    for seed in range(51):
        pair = provider.keygen(seed)
        digest = hashlib.sha256(b"msg" + bytes([seed])).digest()
        sig = provider.sign(pair.private_key, digest)
        assert sig == reference_sign(pair.private_key, digest)
        assert provider.verify(digest, sig, pair.public_key)
        ct, secret = provider.encaps(pair.public_key, seed + 1)
        assert (ct, secret) == reference_encaps(pair.private_key, seed + 1)
        assert provider.decaps(pair.private_key, ct) == secret


def test_signatures_stay_exact_past_the_pad_cache_bound():
    bound = crypto._hmac_states.cache_info().maxsize
    digest = hashlib.sha256(b"msg").digest()
    pairs = [provider.keygen(seed) for seed in range(bound + 10)]
    # The second pass signs with keys the first pass evicted.
    for pair in pairs + pairs[:10]:
        sig = provider.sign(pair.private_key, digest)
        assert sig == reference_sign(pair.private_key, digest)
        assert provider.verify(digest, sig, pair.public_key)
    assert crypto._hmac_states.cache_info().currsize <= bound


def test_sign_matches_hmac_for_random_keys_and_digests():
    hypothesis = pytest.importorskip("hypothesis")
    strategies = hypothesis.strategies
    thirty_two = strategies.binary(min_size=32, max_size=32)

    @hypothesis.settings(derandomize=True, max_examples=200, database=None)
    @hypothesis.given(key=thirty_two, digest=thirty_two)
    def check(key, digest):
        sig = provider.sign(key, digest)
        assert sig == reference_sign(key, digest)
        assert provider.verify(digest, sig, b"MK1" + key)

    check()


def test_sign_rejects_malformed_inputs():
    pair = provider.keygen(7)
    with pytest.raises(MalformedKeyError):
        provider.sign(b"short", hashlib.sha256(b"m").digest())
    with pytest.raises(CryptoError):
        provider.sign(pair.private_key, b"not-32-bytes")


def test_kem_roundtrip():
    pair = provider.keygen(8)
    ct, sent = provider.encaps(pair.public_key, 99)
    assert len(ct) == MOCK_CIPHERTEXT_LEN
    assert provider.decaps(pair.private_key, ct) == sent


def test_kem_decaps_rejects_corruption():
    pair = provider.keygen(9)
    ct, _ = provider.encaps(pair.public_key, 1)
    bad = ct[:-1] + bytes([ct[-1] ^ 1])
    with pytest.raises(DecapsulationError):
        provider.decaps(pair.private_key, bad)
    with pytest.raises(DecapsulationError):
        provider.decaps(pair.private_key, ct[:10])


def test_kem_encaps_rejects_bad_key():
    with pytest.raises(MalformedKeyError):
        provider.encaps(b"bogus", 1)


def test_provider_registry():
    assert isinstance(get_provider("mock-sig"), MockProvider)
    with pytest.raises(UnsupportedSchemeError):
        get_provider("no-such-scheme")
    sentinel = object()
    register_provider("test-only", sentinel)
    assert get_provider("test-only") is sentinel
