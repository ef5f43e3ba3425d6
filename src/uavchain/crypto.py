"""Pluggable signature + KEM provider with a deterministic mock backend.

A provider offers ``keygen(seed) -> KeyPair``, ``sign(private_key, digest)
-> bytes``, ``verify(digest, signature, public_key) -> bool`` (total: any
malformed input is False), ``encaps(public_key, seed) -> (ciphertext,
secret)``, ``decaps(private_key, ciphertext) -> secret`` and
``signature_len``. Signatures, KEM ciphertexts and shared secrets are
plain bytes; the scheme that made them is named once, by ``crypto.scheme``
in the scenario (and, for signatures, by the ledger dump's ``scheme``).

The mock backend ("mock-sig") is the default for simulation and tests: it is
a keyed-hash construction that is bit-exact reproducible from integer seeds,
which makes every simulator output a pure function of the scenario seed.
It offers NO cryptographic security -- the mock public key embeds the signing
secret so that verification works from the public half alone.

A real lattice-class backend (say, "dilithium3-class") can be plugged in
through ``register_provider``; the registered names are exactly the values
``crypto.scheme`` accepts, and nothing in the simulator depends on a real
backend being present.

Every mock MAC is HMAC-SHA256 (RFC 2104) with the bytes of ``hmac.new``.
Each key's SHA-256 states are computed once and kept in a bounded cache: the
outer state after the padded key, and one inner state per mock prefix
(``sig1``, ``sig2``, ``kem``) after the padded key and the prefix. A MAC then
costs two state copies, two updates and two digests, with no HMAC set-up and
no concatenated message.

Mock byte layouts (length-prefixed encodings use little-endian u32 lengths):
  private key   32 bytes   sha256("uav-mock-sk" || seed_le64)
  public key    35 bytes   b"MK1" || private_key
  signature     64 bytes   hmac(sk, "sig1" || digest) || hmac(sk, "sig2" || digest)
  kem ct        48 bytes   eph(32) || hmac(sk, "kem" || eph)[:16]
  session key   32 bytes   sha256("uav-mock-ss" || sk || eph)
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from dataclasses import dataclass

DIGEST_LEN = 32
MOCK_PRIVATE_LEN = 32
MOCK_PUBLIC_LEN = 35
MOCK_SIGNATURE_LEN = 64
MOCK_CIPHERTEXT_LEN = 48

_MOCK_PK_TAG = b"MK1"


class CryptoError(Exception):
    """Base class for provider failures."""


class UnsupportedSchemeError(CryptoError):
    """Requested scheme has no registered provider."""


class MalformedKeyError(CryptoError):
    """Key material does not match the provider's layout."""


class DecapsulationError(CryptoError):
    """Ciphertext rejected during decapsulation (mock: explicit failure)."""


@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    private_key: bytes


def hash_bytes(data: bytes) -> bytes:
    """SHA-256, the 32-byte digest of every ledger hash."""
    return hashlib.sha256(data).digest()


def _le64(value: int) -> bytes:
    return int(value).to_bytes(8, "little", signed=False)


_SHA256_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


@functools.lru_cache(maxsize=4096)
def _hmac_states(key: bytes):
    """`key`'s HMAC-SHA256 states: ``(outer, sig1, sig2, kem)``.

    ``outer`` has absorbed `key` XOR opad; each other state has absorbed
    `key` XOR ipad and then its prefix. `key` is at most one SHA-256 block
    long (every mock key is 32 bytes). The returned hash objects are shared
    by every caller: copy them, never update them.
    """
    key = key.ljust(_SHA256_BLOCK, b"\0")
    inner_pad = hashlib.sha256(key.translate(_IPAD))
    states = [hashlib.sha256(key.translate(_OPAD))]
    for prefix in (b"sig1", b"sig2", b"kem"):
        inner = inner_pad.copy()
        inner.update(prefix)
        states.append(inner)
    return tuple(states)


def _hmac_sha256(outer_state, inner_state, message: bytes) -> bytes:
    """HMAC-SHA256 of the prefix that `inner_state` absorbed followed by
    `message`, equal to ``hmac.new(key, prefix + message, sha256)``."""
    inner = inner_state.copy()
    inner.update(message)
    outer = outer_state.copy()
    outer.update(inner.digest())
    return outer.digest()


class MockProvider:
    """Deterministic keyed-hash signature + KEM stand-in.

    decaps() on a corrupted ciphertext raises DecapsulationError (explicit
    failure, not implicit rejection).
    """

    signature_len = MOCK_SIGNATURE_LEN

    def keygen(self, seed: int) -> KeyPair:
        sk = hashlib.sha256(b"uav-mock-sk" + _le64(seed)).digest()
        return KeyPair(public_key=_MOCK_PK_TAG + sk, private_key=sk)

    def sign(self, private_key: bytes, message_hash: bytes) -> bytes:
        if len(private_key) != MOCK_PRIVATE_LEN:
            raise MalformedKeyError("mock private key must be 32 bytes")
        if len(message_hash) != DIGEST_LEN:
            raise CryptoError(f"message hash must be {DIGEST_LEN} bytes")
        return self._mac(private_key, message_hash)

    def verify(self, message_hash: bytes, signature: bytes,
               public_key: bytes) -> bool:
        # Total by contract: any malformed input yields False, never an error.
        return (isinstance(message_hash, bytes) and isinstance(signature, bytes)
                and isinstance(public_key, bytes)
                and len(message_hash) == DIGEST_LEN
                and len(signature) == MOCK_SIGNATURE_LEN
                and len(public_key) == MOCK_PUBLIC_LEN
                and public_key.startswith(_MOCK_PK_TAG)
                and hmac.compare_digest(
                    self._mac(public_key[len(_MOCK_PK_TAG):], message_hash),
                    signature))

    @staticmethod
    def _mac(private_key: bytes, message_hash: bytes) -> bytes:
        # Shared by sign and verify, so a subclass may wrap sign (say, in a tag).
        outer, sig1, sig2, _ = _hmac_states(private_key)
        return (_hmac_sha256(outer, sig1, message_hash)
                + _hmac_sha256(outer, sig2, message_hash))

    def encaps(self, public_key: bytes, randomness_seed: int) -> tuple[bytes, bytes]:
        if len(public_key) != MOCK_PUBLIC_LEN or not public_key.startswith(_MOCK_PK_TAG):
            raise MalformedKeyError("not a mock public key")
        sk = public_key[len(_MOCK_PK_TAG):]
        eph = hashlib.sha256(b"uav-mock-eph" + _le64(randomness_seed)).digest()
        outer, _, _, kem = _hmac_states(sk)
        tag = _hmac_sha256(outer, kem, eph)[:16]
        return eph + tag, hashlib.sha256(b"uav-mock-ss" + sk + eph).digest()

    def decaps(self, private_key: bytes, ciphertext: bytes) -> bytes:
        if len(private_key) != MOCK_PRIVATE_LEN:
            raise MalformedKeyError("mock private key must be 32 bytes")
        if len(ciphertext) != MOCK_CIPHERTEXT_LEN:
            raise DecapsulationError("ciphertext length mismatch")
        eph, tag = ciphertext[:32], ciphertext[32:]
        outer, _, _, kem = _hmac_states(private_key)
        expected = _hmac_sha256(outer, kem, eph)[:16]
        if not hmac.compare_digest(expected, tag):
            raise DecapsulationError("ciphertext integrity check failed")
        return hashlib.sha256(b"uav-mock-ss" + private_key + eph).digest()


_PROVIDERS: dict[str, object] = {"mock-sig": MockProvider()}


def register_provider(scheme: str, provider) -> None:
    """Install a backend for a scheme id (e.g. a real Dilithium-3 adapter)."""
    _PROVIDERS[str(scheme)] = provider


def get_provider(scheme: str):
    try:
        return _PROVIDERS[str(scheme)]
    except KeyError:
        raise UnsupportedSchemeError(f"no provider registered for {scheme!r}") from None
