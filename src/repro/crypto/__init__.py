"""Cryptographic substrate for SecureLease.

The paper seals evicted lease nodes with authenticated encryption
(Algorithms 2-3) keyed by per-commit 64-bit random keys, compares
MurmurHash- and SHA-256-based lease stores (Table 1), and relies on SGX's
hardware key derivation.  This package supplies all of that in pure
Python: a from-scratch AES-128 (CTR mode), MurmurHash3 (32- and 128-bit
x86 variants), SHA-256 via :mod:`hashlib`, and the sealing helpers.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "murmur3_32": "repro.crypto.hashes",
    "murmur3_128": "repro.crypto.hashes",
    "sha256_digest": "repro.crypto.hashes",
    "sha256_word": "repro.crypto.hashes",
    "Aes128": "repro.crypto.aes",
    "aes128_ctr_decrypt": "repro.crypto.aes",
    "aes128_ctr_encrypt": "repro.crypto.aes",
    "constant_time_equal": "repro.crypto.hmac",
    "hmac_sha256": "repro.crypto.hmac",
    "hmac_sha256_word": "repro.crypto.hmac",
    "KeyGenerator": "repro.crypto.keys",
    "expand_key64": "repro.crypto.keys",
    "SealedBlob": "repro.crypto.sealing",
    "TamperedSealError": "repro.crypto.sealing",
    "protect": "repro.crypto.sealing",
    "validate": "repro.crypto.sealing",
})
