"""Pure-Python AES-128 with CTR mode.

SGX seals data with AES-GCM in hardware; the paper's ``Protect``/
``Validate`` routines (Algorithms 2-3) need only an authenticated
encrypt/decrypt pair.  We implement AES-128 from the FIPS-197
specification and run it in counter mode; authentication is provided on
top by :mod:`repro.crypto.sealing` (encrypt-then-check of an embedded
SHA-256).

The cipher is the standard 32-bit T-table formulation: the state is
four big-endian column words, and SubBytes + ShiftRows + MixColumns for
one output column is four table lookups XORed together (tables
``_TE0.._TE3``, each a byte rotation of the first; ``_TD0.._TD3`` for
the equivalent inverse cipher).  The tables are built once at import.
Key schedules are 44 words, memoised per 16-byte key in a small bounded
cache: the WAL seals every record under one key and never re-expands
it, while SL-Local's fresh-key-per-seal traffic just cycles the cache.
CTR mode generates the keystream straight from ``(nonce, counter)``
words and applies it with one wide integer XOR.

There are two kernels over the same tables and the same memoised key
schedule, because the two shapes of traffic genuinely conflict:

* :func:`aes128_ctr_encrypt` — scalar Python, one message at a time.
  Right for one short message under a fresh key (SL-Local's lease-tree
  seals, the WAL snapshot), and the oracle every test compares against:
  a 9-block record costs it ~120 us, the bulk kernel ~200 us.
* :func:`aes128_ctr_keystreams` — the keystream only, for many nonces
  under *one* key at once.  CTR keystream is a function of ``(key,
  nonce, counter)`` alone (NIST SP 800-38A allows computing it before
  the plaintext exists), so each AES round is a handful of ``numpy``
  ``uint32`` table gathers over every requested counter block:
  ~0.6 us/block from ~1,500 blocks up, against ~13 us/block scalar.
  The write-ahead log (:mod:`repro.storage.wal`) uses it to pre-draw
  keystream ahead of appends and to unseal a whole log in one call.

The implementation is self-contained and verified against FIPS-197 /
NIST SP 800-38A test vectors in the test suite; the bulk kernel is
checked slot for slot against the scalar one.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import accumulate
from typing import List, Sequence, Tuple

import numpy as np


def _build_sbox() -> List[int]:
    """Construct the AES S-box from GF(2^8) inverses plus the affine map."""
    # Multiplicative inverses in GF(2^8) via exp/log tables (generator 3).
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by 3 in GF(2^8)
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF

    sbox = []
    for value in range(256):
        inv = 0 if value == 0 else exp[(255 - log[value]) % 255]
        # affine transformation
        s = inv
        result = 0x63
        for _ in range(4):
            s = ((s << 1) | (s >> 7)) & 0xFF
            result ^= s
        result ^= inv
        sbox.append(result)
    return sbox


def _gf_mul(a: int, b: int) -> int:
    """GF(2^8) multiplication (only used to build the tables)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


def _rotations(table: List[int]) -> Tuple[List[int], ...]:
    """``table`` and its three successive right rotations by one byte."""
    tables = [table]
    for _ in range(3):
        table = [(w >> 8) | ((w & 0xFF) << 24) for w in table]
        tables.append(table)
    return tuple(tables)


_SBOX = _build_sbox()
_INV_SBOX = [0] * 256
for _value, _mapped in enumerate(_SBOX):
    _INV_SBOX[_mapped] = _value

# _TE0[a] is the MixColumns column (2s, s, s, 3s) for s = S[a]; _TD0[a]
# is the InvMixColumns column (14s, 9s, 13s, 11s) for s = InvS[a].
_TE0, _TE1, _TE2, _TE3 = _rotations([
    (_gf_mul(s, 2) << 24) | (s << 16) | (s << 8) | _gf_mul(s, 3)
    for s in _SBOX
])
_TD0, _TD1, _TD2, _TD3 = _rotations([
    (_gf_mul(s, 14) << 24) | (_gf_mul(s, 9) << 16)
    | (_gf_mul(s, 13) << 8) | _gf_mul(s, 11)
    for s in _INV_SBOX
])

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]
_FOUR_WORDS = struct.Struct(">4I")

# The same tables as gatherable arrays, for the bulk keystream kernel.
_NP_TE = tuple(np.array(table, dtype=np.uint32)
               for table in (_TE0, _TE1, _TE2, _TE3))
_NP_SBOX = np.array(_SBOX, dtype=np.uint8)

#: Counter blocks the bulk kernel holds in flight at once.  Its working
#: set is three (4, chunk) uint32 buffers (192 KB here) whatever the
#: request size.  Measured on a 36,000-block request (a 4,000-record
#: log): 0.88 us/block at 512, 0.77 at 1,024, 0.61 at 2,048, 0.60 at
#: 4,096, 0.55 at 8,192 and 16,384 - the per-round numpy call overhead
#: is amortised by 4,096 and the buffers still sit in L2.
KEYSTREAM_CHUNK_BLOCKS = 4096


@lru_cache(maxsize=64)
def _expand_key(key: bytes) -> Tuple[int, ...]:
    """FIPS-197 key schedule: 11 round keys as 44 big-endian words."""
    if len(key) != 16:
        raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
    sbox = _SBOX
    words = list(_FOUR_WORDS.unpack(key))
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            # SubWord(RotWord(temp)) ^ Rcon
            temp = (
                (sbox[(temp >> 16) & 0xFF] << 24)
                | (sbox[(temp >> 8) & 0xFF] << 16)
                | (sbox[temp & 0xFF] << 8)
                | sbox[temp >> 24]
            ) ^ (_RCON[i // 4 - 1] << 24)
        words.append(words[i - 4] ^ temp)
    return tuple(words)


def _inverse_key(rk: Tuple[int, ...]) -> Tuple[int, ...]:
    """Round keys for the equivalent inverse cipher (FIPS-197 5.3.5):
    reversed round order, InvMixColumns applied to the inner nine."""
    sbox = _SBOX
    words = []
    for rnd in range(10, -1, -1):
        for w in rk[4 * rnd:4 * rnd + 4]:
            if 0 < rnd < 10:
                w = (_TD0[sbox[w >> 24]] ^ _TD1[sbox[(w >> 16) & 0xFF]]
                     ^ _TD2[sbox[(w >> 8) & 0xFF]] ^ _TD3[sbox[w & 0xFF]])
            words.append(w)
    return tuple(words)


def _encrypt_words(rk: Tuple[int, ...], s0: int, s1: int, s2: int,
                   s3: int) -> Tuple[int, int, int, int]:
    """The forward cipher on four column words (round 0 key included)."""
    te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
    s0 ^= rk[0]
    s1 ^= rk[1]
    s2 ^= rk[2]
    s3 ^= rk[3]
    for r in range(4, 40, 4):
        t0 = (te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF]
              ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ rk[r])
        t1 = (te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF]
              ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ rk[r + 1])
        t2 = (te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF]
              ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ rk[r + 2])
        s3 = (te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF]
              ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ rk[r + 3])
        s0, s1, s2 = t0, t1, t2
    sbox = _SBOX
    return (
        ((sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
         | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]) ^ rk[40],
        ((sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
         | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]) ^ rk[41],
        ((sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
         | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]) ^ rk[42],
        ((sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
         | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]) ^ rk[43],
    )


class Aes128:
    """AES-128 block cipher (CTR needs only the forward direction)."""

    BLOCK_SIZE = 16

    def __init__(self, key: bytes) -> None:
        self._round_keys = _expand_key(bytes(key))

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        return _FOUR_WORDS.pack(
            *_encrypt_words(self._round_keys, *_FOUR_WORDS.unpack(block))
        )

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block (FIPS-197 equivalent inverse cipher).

        CTR mode never calls this; it exists so the cipher is complete
        (and so the ECB known-answer vectors can be checked both ways).
        """
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        rk = _inverse_key(self._round_keys)
        td0, td1, td2, td3 = _TD0, _TD1, _TD2, _TD3
        s0, s1, s2, s3 = (w ^ k for w, k in
                          zip(_FOUR_WORDS.unpack(block), rk))
        for r in range(4, 40, 4):
            s0, s1, s2, s3 = (
                td0[s0 >> 24] ^ td1[(s3 >> 16) & 0xFF]
                ^ td2[(s2 >> 8) & 0xFF] ^ td3[s1 & 0xFF] ^ rk[r],
                td0[s1 >> 24] ^ td1[(s0 >> 16) & 0xFF]
                ^ td2[(s3 >> 8) & 0xFF] ^ td3[s2 & 0xFF] ^ rk[r + 1],
                td0[s2 >> 24] ^ td1[(s1 >> 16) & 0xFF]
                ^ td2[(s0 >> 8) & 0xFF] ^ td3[s3 & 0xFF] ^ rk[r + 2],
                td0[s3 >> 24] ^ td1[(s2 >> 16) & 0xFF]
                ^ td2[(s1 >> 8) & 0xFF] ^ td3[s0 & 0xFF] ^ rk[r + 3],
            )
        inv = _INV_SBOX
        return _FOUR_WORDS.pack(
            ((inv[s0 >> 24] << 24) | (inv[(s3 >> 16) & 0xFF] << 16)
             | (inv[(s2 >> 8) & 0xFF] << 8) | inv[s1 & 0xFF]) ^ rk[40],
            ((inv[s1 >> 24] << 24) | (inv[(s0 >> 16) & 0xFF] << 16)
             | (inv[(s3 >> 8) & 0xFF] << 8) | inv[s2 & 0xFF]) ^ rk[41],
            ((inv[s2 >> 24] << 24) | (inv[(s1 >> 16) & 0xFF] << 16)
             | (inv[(s0 >> 8) & 0xFF] << 8) | inv[s3 & 0xFF]) ^ rk[42],
            ((inv[s3 >> 24] << 24) | (inv[(s2 >> 16) & 0xFF] << 16)
             | (inv[(s1 >> 8) & 0xFF] << 8) | inv[s0 & 0xFF]) ^ rk[43],
        )


def aes128_ctr_encrypt(plaintext: bytes, key: bytes, nonce: bytes) -> bytes:
    """Encrypt ``plaintext`` with AES-128-CTR; the nonce is 8 bytes.

    Counter block ``i`` is ``nonce || i`` (64-bit big-endian counter
    from zero).  The keystream words are gathered and applied to the
    whole message with a single integer XOR.
    """
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes")
    rk = _expand_key(bytes(key))
    size = len(plaintext)
    nblocks = (size + 15) // 16
    n0, n1 = struct.unpack(">II", nonce)
    words: List[int] = []
    for counter in range(nblocks):
        words += _encrypt_words(rk, n0, n1, counter >> 32,
                                counter & 0xFFFFFFFF)
    stream = struct.pack(f">{len(words)}I", *words)[:size]
    return (
        int.from_bytes(plaintext, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(size, "big")


def aes128_ctr_decrypt(ciphertext: bytes, key: bytes, nonce: bytes) -> bytes:
    """CTR decryption is identical to encryption."""
    return aes128_ctr_encrypt(ciphertext, key, nonce)


def aes128_ctr_keystreams(key: bytes, nonces: Sequence[bytes],
                          blocks_each: Sequence[int]) -> List[bytes]:
    """Raw AES-128-CTR keystream for many nonces under one key.

    ``result[i]`` is the first ``blocks_each[i]`` keystream blocks for
    ``nonces[i]`` - exactly ``aes128_ctr_encrypt(bytes(16 * n), key,
    nonce)`` - so XORing it over a message seals or unseals it.  Every
    requested counter block goes through the cipher together: the state
    is four ``uint32`` column arrays and a round is four table gathers
    over all of them, :data:`KEYSTREAM_CHUNK_BLOCKS` blocks at a time
    into buffers reused across rounds and chunks.  Worth it from a few
    hundred blocks up; for one short message :func:`aes128_ctr_encrypt`
    is faster.
    """
    if len(nonces) != len(blocks_each):
        raise ValueError("one block count per nonce")
    if any(len(nonce) != 8 for nonce in nonces):
        raise ValueError("CTR nonce must be 8 bytes")
    if any(not 0 <= count < 1 << 32 for count in blocks_each):
        raise ValueError("block counts must fit the 32-bit counter word")
    schedule = _expand_key(bytes(key))
    total = sum(blocks_each)
    if total == 0:
        return [b""] * len(nonces)
    ends = np.array(list(accumulate(blocks_each)))
    starts = ends - np.array(blocks_each)
    round_keys = np.array(schedule, dtype=np.uint32).reshape(11, 4, 1)
    last_key = np.frombuffer(_FOUR_WORDS.pack(*schedule[40:]), dtype=np.uint8)
    nonce_words = np.frombuffer(b"".join(nonces), dtype=">u4").reshape(-1, 2)
    te0, te1, te2, te3 = _NP_TE
    out = np.empty((total, 16), dtype=np.uint8)
    width = min(KEYSTREAM_CHUNK_BLOCKS, total)
    buffers = np.empty((3, 4, width), dtype=np.uint32)
    for low in range(0, total, width):
        high = min(low + width, total)
        size = high - low
        state, mixed, gathered = buffers[:, :, :size]
        # Counter block = nonce || counter, as four big-endian words
        # (the third is the counter's high half: always zero here).
        block = np.arange(low, high)
        owner = np.searchsorted(ends, block, side="right")
        state[0] = nonce_words[owner, 0]
        state[1] = nonce_words[owner, 1]
        state[2] = 0
        state[3] = block - starts[owner]
        state ^= round_keys[0]
        for rnd in range(1, 10):
            # [column, block, byte]; little-endian, so byte 3 is the top.
            octets = state.view(np.uint8).reshape(4, size, 4)
            # ShiftRows: output column c reads row r of column c + r.
            np.take(te0, octets[:, :, 3], out=mixed)
            np.take(te1, octets[:, :, 2], out=gathered)
            mixed[:3] ^= gathered[1:]
            mixed[3:] ^= gathered[:1]
            np.take(te2, octets[:, :, 1], out=gathered)
            mixed[:2] ^= gathered[2:]
            mixed[2:] ^= gathered[:2]
            np.take(te3, octets[:, :, 0], out=gathered)
            mixed[:1] ^= gathered[3:]
            mixed[1:] ^= gathered[:3]
            mixed ^= round_keys[rnd]
            state, mixed = mixed, state
        # Final round (no MixColumns), written as big-endian bytes.
        octets = _NP_SBOX[state.view(np.uint8).reshape(4, size, 4)]
        stream = out[low:high].reshape(size, 4, 4)  # [block, column, byte]
        stream[:, :, 0] = octets[:, :, 3].T
        stream[:, :3, 1] = octets[1:, :, 2].T
        stream[:, 3:, 1] = octets[:1, :, 2].T
        stream[:, :2, 2] = octets[2:, :, 1].T
        stream[:, 2:, 2] = octets[:2, :, 1].T
        stream[:, :1, 3] = octets[3:, :, 0].T
        stream[:, 1:, 3] = octets[:3, :, 0].T
        out[low:high] ^= last_key
    flat = out.tobytes()
    return [flat[16 * low:16 * high]
            for low, high in zip(starts.tolist(), ends.tolist())]
