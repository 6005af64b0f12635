"""Sealing of lease data: the paper's ``Protect`` and ``Validate``.

Algorithm 2 (Protect): hash the data, generate a random key, encrypt
``data || hash`` under that key, and return ``(ciphertext, key)``.  The
ciphertext lives in untrusted memory; the key stays inside the enclave
(in the parent lease-tree node).

Algorithm 3 (Validate): decrypt, split off the hash, recompute, compare.
A mismatch means the untrusted side tampered with or replayed the blob.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aes import aes128_ctr_decrypt, aes128_ctr_encrypt
from repro.crypto.hashes import sha256_digest
from repro.crypto.keys import KeyGenerator, expand_key64

_HASH_LEN = 32


class TamperedSealError(Exception):
    """Raised when a sealed blob fails integrity validation."""


@dataclass(frozen=True)
class SealedBlob:
    """An encrypted payload living in untrusted memory.

    The nonce rides along in plaintext (standard for CTR); secrecy and
    integrity come from the key and the embedded hash respectively.
    """

    ciphertext: bytes
    nonce: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.ciphertext) + len(self.nonce)


def protect(data: bytes, keygen: KeyGenerator) -> "tuple[SealedBlob, int]":
    """Seal ``data`` under a fresh 64-bit key (paper Algorithm 2).

    Returns ``(blob, key64)``.  The caller stores ``key64`` in trusted
    memory (the parent tree node) and may place ``blob`` anywhere.
    """
    digest = sha256_digest(data)
    key64 = keygen.fresh_key64()
    nonce = keygen.fresh_nonce()
    ciphertext = aes128_ctr_encrypt(data + digest, expand_key64(key64), nonce)
    return SealedBlob(ciphertext=ciphertext, nonce=nonce), key64


def validate(blob: SealedBlob, key64: int) -> bytes:
    """Unseal a blob and verify integrity (paper Algorithm 3).

    Returns the original data, or raises :class:`TamperedSealError` if
    the embedded hash does not match — which is exactly what happens when
    an attacker replays a blob sealed under an older (different) key.
    """
    plaintext = aes128_ctr_decrypt(blob.ciphertext, expand_key64(key64), blob.nonce)
    if len(plaintext) < _HASH_LEN:
        raise TamperedSealError("sealed blob too short to contain a hash")
    data, stored_hash = plaintext[:-_HASH_LEN], plaintext[-_HASH_LEN:]
    if sha256_digest(data) != stored_hash:
        raise TamperedSealError("hash mismatch: blob tampered with or replayed")
    return data
