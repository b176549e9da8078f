"""Shared cryptographic plumbing: hashes, HKDF, HMAC and a seedable DRBG.

Every piece of randomness in the simulator flows through :class:`Rng` so
that a whole scenario run is reproducible from a single seed.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
import os
from collections.abc import Iterator

from cryptography.hazmat.primitives.hashes import SHA384
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

DIGEST_LEN = 48  # SHA-384
MAC_LEN = DIGEST_LEN  # HMAC-SHA-384
KEY_LEN = 32  # AES-256, and every key HKDF derives by default
NONCE_LEN = 12  # AES-GCM


def sha384(data: bytes) -> bytes:
    return hashlib.sha384(data).digest()


def sha3_384(data: bytes) -> bytes:
    return hashlib.sha3_384(data).digest()


def hmac_sha384(key: bytes, data: bytes) -> bytes:
    return hmac.new(key, data, hashlib.sha384).digest()


def constant_time_eq(a: bytes, b: bytes) -> bool:
    return hmac.compare_digest(a, b)


def hkdf_sha384(ikm: bytes, *, salt: bytes = b"", info: bytes = b"", length: int = KEY_LEN) -> bytes:
    """Extract-then-expand key derivation over SHA-384."""
    return HKDF(algorithm=SHA384(), length=length, salt=salt, info=info).derive(ikm)


class Rng:
    """Deterministic byte generator (SHA-384 in counter mode over a seed).

    With ``seed=None`` the state is drawn from ``os.urandom``, giving a
    fresh-entropy generator with the same interface.
    """

    def __init__(self, seed: int | bytes | None = None):
        if seed is None:
            state = os.urandom(DIGEST_LEN)
        elif isinstance(seed, int):
            state = sha384(seed.to_bytes(16, "big", signed=False))
        else:
            state = sha384(seed)
        self._state = state
        self._counter = 0

    def blocks(self) -> Iterator[bytes]:
        """The 48-byte counter blocks, in order; each one advances the counter
        as it is handed out, so a caller that stops early consumed no more."""
        while True:
            block = hashlib.sha384(self._state + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
            yield block

    def bytes(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("byte count must be non-negative")
        count = -(-n // DIGEST_LEN)
        return b"".join(itertools.islice(self.blocks(), count))[:n]

    def child(self, label: str) -> "Rng":
        """Derive an independent generator, e.g. one per protocol endpoint."""
        rng = Rng(b"")
        rng._state = sha384(self._state + b"/" + label.encode())
        return rng
