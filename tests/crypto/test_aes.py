"""Tests for the from-scratch AES-128 (FIPS-197 / SP 800-38A vectors)."""

import hashlib
import struct

import pytest
from hypothesis import given, strategies as st

from repro.crypto import aes
from repro.crypto.aes import (
    Aes128,
    aes128_ctr_decrypt,
    aes128_ctr_encrypt,
    aes128_ctr_keystreams,
)


class TestAesBlockVectors:
    def test_fips197_appendix_b(self):
        """The worked example from FIPS-197 Appendix B."""
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert Aes128(key).encrypt_block(plaintext) == expected

    def test_fips197_appendix_c1(self):
        """FIPS-197 Appendix C.1 known-answer test."""
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert Aes128(key).encrypt_block(plaintext) == expected

    def test_sp800_38a_ecb_vectors(self):
        """First two blocks of the NIST SP 800-38A AES-128 ECB test."""
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        cipher = Aes128(key)
        cases = [
            ("6bc1bee22e409f96e93d7e117393172a",
             "3ad77bb40d7a3660a89ecaf32466ef97"),
            ("ae2d8a571e03ac9c9eb76fac45af8e51",
             "f5d3d58503b9699de785895a96fdbaaf"),
        ]
        for plaintext_hex, expected_hex in cases:
            assert cipher.encrypt_block(bytes.fromhex(plaintext_hex)) == (
                bytes.fromhex(expected_hex)
            )

    def test_wrong_key_length_rejected(self):
        with pytest.raises(ValueError):
            Aes128(b"short")
        with pytest.raises(ValueError):
            Aes128(b"x" * 32)  # AES-256 keys not supported here

    def test_wrong_block_length_rejected(self):
        cipher = Aes128(b"k" * 16)
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"tiny")


class TestCtrMode:
    KEY = b"0123456789abcdef"
    NONCE = b"\x00" * 8

    def test_roundtrip(self):
        plaintext = b"the lease tree stays in trusted memory"
        ciphertext = aes128_ctr_encrypt(plaintext, self.KEY, self.NONCE)
        assert aes128_ctr_decrypt(ciphertext, self.KEY, self.NONCE) == plaintext

    def test_ciphertext_differs_from_plaintext(self):
        plaintext = b"A" * 64
        assert aes128_ctr_encrypt(plaintext, self.KEY, self.NONCE) != plaintext

    def test_empty_plaintext(self):
        assert aes128_ctr_encrypt(b"", self.KEY, self.NONCE) == b""

    def test_non_block_aligned_lengths(self):
        for length in (1, 15, 16, 17, 31, 33, 100):
            plaintext = bytes(range(length % 256)) * (length // 256 + 1)
            plaintext = plaintext[:length]
            ciphertext = aes128_ctr_encrypt(plaintext, self.KEY, self.NONCE)
            assert len(ciphertext) == length
            assert aes128_ctr_decrypt(ciphertext, self.KEY, self.NONCE) == plaintext

    def test_different_nonce_different_ciphertext(self):
        plaintext = b"B" * 32
        a = aes128_ctr_encrypt(plaintext, self.KEY, b"\x00" * 8)
        b = aes128_ctr_encrypt(plaintext, self.KEY, b"\x01" + b"\x00" * 7)
        assert a != b

    def test_different_key_different_ciphertext(self):
        plaintext = b"C" * 32
        a = aes128_ctr_encrypt(plaintext, b"k" * 16, self.NONCE)
        b = aes128_ctr_encrypt(plaintext, b"K" * 16, self.NONCE)
        assert a != b

    def test_wrong_nonce_length_rejected(self):
        with pytest.raises(ValueError):
            aes128_ctr_encrypt(b"data", self.KEY, b"\x00" * 4)

    def test_wrong_key_fails_decryption(self):
        plaintext = b"guarded content"
        ciphertext = aes128_ctr_encrypt(plaintext, self.KEY, self.NONCE)
        assert aes128_ctr_decrypt(ciphertext, b"wrongkey12345678", self.NONCE) != plaintext


class TestCtrPinnedVectors:
    """Ciphertexts produced by the byte-at-a-time cipher this module
    replaced (PR 12's tree): the word-wide cipher must reproduce them
    bit for bit, or sealed logs written before it stop recovering."""

    KEY = bytes.fromhex("8e73b0f7da0e6452c810f32b809079e5")
    NONCE = bytes.fromhex("f0f1f2f3f4f5f6f7")
    LONG = (
        "7b2bd4fd284ec14f87c4311ebbd143a91d9e4e265e409d29db338fc45fbc1e49"
        "be499714ac1b506bccefcaea16b1b90c9ac42f66d1689f21d6a678e7ffb5e413"
        "6e75f19bd4eb24c2f9e3cca2833168182eb7a5c1be12e866f102283d401a907c"
        "276e8d0381bcce401dda59b12f0c44e3d44b8f1230803934d4974917b3ffaf4a"
        "306a90aac5"
    )

    @staticmethod
    def plaintext(length):
        return bytes((i * 7 + 3) % 256 for i in range(length))

    @pytest.mark.parametrize("length", (0, 1, 15, 16, 17, 133))
    def test_short_messages(self, length):
        """Every length is a prefix of one keystream (counter from 0)."""
        ciphertext = aes128_ctr_encrypt(self.plaintext(length), self.KEY,
                                        self.NONCE)
        assert ciphertext.hex() == self.LONG[:2 * length]

    def test_4101_bytes(self):
        """257 blocks: crosses the one-byte counter and ends mid-block."""
        ciphertext = aes128_ctr_encrypt(self.plaintext(4101), self.KEY,
                                        self.NONCE)
        assert len(ciphertext) == 4101
        assert ciphertext[:133].hex() == self.LONG
        assert ciphertext[-21:].hex() == \
            "5b0f911c50fac72ab349deda4cd2505bf24256919f"
        assert hashlib.sha256(ciphertext).hexdigest() == (
            "909bb32585899487358d59cb13b43ba411a78b634ea06a016bfde531add97794"
        )

    def test_key_schedule_cache_eviction(self):
        """The memoised schedules are bounded: a key pushed out by 300
        others is re-expanded, not confused with a newer one."""
        expected = aes128_ctr_encrypt(self.plaintext(133), self.KEY,
                                      self.NONCE)
        for i in range(300):
            aes128_ctr_encrypt(b"x", i.to_bytes(16, "big"), self.NONCE)
        assert aes128_ctr_encrypt(self.plaintext(133), self.KEY,
                                  self.NONCE) == expected
        assert expected.hex() == self.LONG


@given(st.binary(max_size=512), st.binary(min_size=16, max_size=16),
       st.binary(min_size=8, max_size=8))
def test_ctr_is_xor_with_encrypted_counter_blocks(plaintext, key, nonce):
    """The definition of the mode, block by block."""
    cipher = Aes128(key)
    expected = bytearray()
    for offset in range(0, len(plaintext), 16):
        pad = cipher.encrypt_block(nonce + struct.pack(">Q", offset // 16))
        expected += bytes(
            p ^ s for p, s in zip(plaintext[offset:offset + 16], pad))
    assert aes128_ctr_encrypt(plaintext, key, nonce) == bytes(expected)


@given(st.binary(max_size=512), st.binary(min_size=16, max_size=16),
       st.binary(min_size=8, max_size=8))
def test_ctr_roundtrip_property(plaintext, key, nonce):
    ciphertext = aes128_ctr_encrypt(plaintext, key, nonce)
    assert aes128_ctr_decrypt(ciphertext, key, nonce) == plaintext


def scalar_keystream(key, nonce, blocks):
    """The oracle: the scalar cipher over that many zero blocks."""
    return aes128_ctr_encrypt(bytes(16 * blocks), key, nonce)


class TestBulkKeystream:
    """``aes128_ctr_keystreams`` against the scalar cipher, slot for slot."""

    KEY = bytes.fromhex("8e73b0f7da0e6452c810f32b809079e5")

    @given(st.binary(min_size=16, max_size=16),
           st.lists(st.tuples(st.binary(min_size=8, max_size=8),
                              st.sampled_from((0, 0, 1, 1, 2, 9, 12, 40))),
                    max_size=12),
           st.sampled_from((1, 5, 16, aes.KEYSTREAM_CHUNK_BLOCKS)))
    def test_matches_the_scalar_cipher(self, key, slots, chunk):
        """Random keys, nonce lists and per-nonce block counts (zeros,
        ones, mixed), with the chunk narrowed so that most requests
        cross several chunk boundaries, some mid-slot."""
        nonces = [nonce for nonce, _ in slots]
        counts = [count for _, count in slots]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aes, "KEYSTREAM_CHUNK_BLOCKS", chunk)
            streams = aes128_ctr_keystreams(key, nonces, counts)
        assert streams == [scalar_keystream(key, nonce, count)
                           for nonce, count in slots]

    def test_crosses_the_real_chunk_boundary(self):
        """At the shipped chunk size: the boundary falls inside the
        second slot, and a last slot starts a chunk of its own."""
        chunk = aes.KEYSTREAM_CHUNK_BLOCKS
        nonces = [bytes([n]) * 8 for n in range(4)]
        counts = [chunk - 3, 7, 0, chunk - 4]
        streams = aes128_ctr_keystreams(self.KEY, nonces, counts)
        assert [len(stream) for stream in streams] == [16 * n for n in counts]
        assert streams == [scalar_keystream(self.KEY, nonce, count)
                           for nonce, count in zip(nonces, counts)]

    def test_pinned_vector_is_keystream_xor_plaintext(self):
        """The PR 12 ciphertext, rebuilt from the bulk keystream."""
        vectors = TestCtrPinnedVectors
        stream, = aes128_ctr_keystreams(vectors.KEY, [vectors.NONCE], [9])
        sealed = bytes(p ^ k for p, k in zip(vectors.plaintext(133), stream))
        assert sealed.hex() == vectors.LONG

    def test_empty_request_returns_empty(self):
        assert aes128_ctr_keystreams(self.KEY, [], []) == []
        assert aes128_ctr_keystreams(self.KEY, [b"n" * 8] * 3, [0] * 3) \
            == [b"", b"", b""]

    def test_same_nonce_twice_gives_the_same_stream(self):
        """Slots are independent: each counts from zero."""
        one, two = aes128_ctr_keystreams(self.KEY, [b"n" * 8] * 2, [3, 5])
        assert two[:48] == one

    def test_malformed_requests_rejected(self):
        with pytest.raises(ValueError):
            aes128_ctr_keystreams(self.KEY, [b"n" * 8], [1, 2])
        with pytest.raises(ValueError):
            aes128_ctr_keystreams(self.KEY, [b"short"], [1])
        with pytest.raises(ValueError):
            aes128_ctr_keystreams(self.KEY, [b"n" * 8], [-1])
        with pytest.raises(ValueError):
            aes128_ctr_keystreams(b"short", [b"n" * 8], [1])


@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
def test_block_encryption_is_permutation(key, block):
    """Distinct blocks encrypt to distinct ciphertexts under one key."""
    cipher = Aes128(key)
    other = bytes([block[0] ^ 0xFF]) + block[1:]
    assert cipher.encrypt_block(block) != cipher.encrypt_block(other)


class TestInverseCipher:
    def test_fips197_appendix_c1_decrypt(self):
        """The C.1 known-answer test, inverted."""
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        ciphertext = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        expected = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert Aes128(key).decrypt_block(ciphertext) == expected

    def test_decrypt_inverts_encrypt(self):
        cipher = Aes128(b"0123456789abcdef")
        block = bytes(range(16))
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_wrong_block_length_rejected(self):
        with pytest.raises(ValueError):
            Aes128(b"k" * 16).decrypt_block(b"short")


@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
def test_decrypt_encrypt_roundtrip_property(key, block):
    cipher = Aes128(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block
    assert cipher.encrypt_block(cipher.decrypt_block(block)) == block
