"""Unit tests for GameOver Zeus crypto."""

import gc
import random

import pytest

from repro.botnets.zeus.crypto import (
    KeystreamCache,
    rc4_keystream,
    visual_decode,
    visual_encode,
    zeus_decrypt,
    zeus_encrypt,
)

KEY = bytes(range(20))
OTHER_KEY = bytes(range(1, 21))
# Message lengths on both sides of every keystream doubling boundary.
BOUNDARY_LENGTHS = (1, 31, 32, 33, 63, 64, 65, 129, 4096)


def _textbook_rc4(key: bytes, length: int) -> bytes:
    """RC4 exactly as usually written: an independent reference."""
    state = list(range(256))
    j = 0
    for i in range(256):
        j = (j + state[i] + key[i % len(key)]) % 256
        state[i], state[j] = state[j], state[i]
    i = j = 0
    out = []
    for _ in range(length):
        i = (i + 1) % 256
        j = (j + state[i]) % 256
        state[i], state[j] = state[j], state[i]
        out.append(state[(state[i] + state[j]) % 256])
    return bytes(out)


class TestRc4:
    def test_known_vector(self):
        """RFC 6229-style check: RC4("Key") keystream prefix."""
        ks = rc4_keystream(b"Key", 8)
        assert ks.hex() == "eb9f7781b734ca72a719"[:16]

    def test_known_vector_wiki(self):
        # Classic test vector: key "Key", plaintext "Plaintext"
        ks = rc4_keystream(b"Key", 9)
        ct = bytes(k ^ p for k, p in zip(ks, b"Plaintext"))
        assert ct.hex() == "bbf316e8d940af0ad3"

    @pytest.mark.parametrize(
        "key, expected",
        [
            # RFC 6229, offset 0: a key length that does not divide 256
            # and one that does, around the key-repeat in the schedule.
            (bytes(range(1, 6)), "b2396305f03dc027ccc3524a0a1118a8"),
            (bytes(range(1, 33)), "eaa6bd25880bf93d3f5d1e4ca2611d91"),
        ],
    )
    def test_rfc6229_vectors(self, key, expected):
        assert rc4_keystream(key, 16).hex() == expected

    @pytest.mark.parametrize("key_len", [1, 3, 5, 7, 20, 24, 32, 100, 255, 256])
    def test_matches_textbook_rc4(self, key_len):
        """Long keystreams for keys whose length does and does not
        divide 256 equal the textbook algorithm's."""
        key = bytes((index * 29 + key_len) & 0xFF for index in range(key_len))
        assert rc4_keystream(key, 1024) == _textbook_rc4(key, 1024)

    def test_deterministic(self):
        assert rc4_keystream(KEY, 64) == rc4_keystream(KEY, 64)

    def test_distinct_keys_distinct_streams(self):
        assert rc4_keystream(KEY, 64) != rc4_keystream(OTHER_KEY, 64)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            rc4_keystream(b"", 8)


class TestKeystreamCache:
    def test_xor_roundtrip(self):
        cache = KeystreamCache()
        data = b"The quick brown fox jumps over the lazy dog"
        assert cache.xor(KEY, cache.xor(KEY, data)) == data

    def test_xor_matches_raw_rc4(self):
        cache = KeystreamCache()
        data = b"hello world"
        expected = bytes(k ^ p for k, p in zip(rc4_keystream(KEY, len(data)), data))
        assert cache.xor(KEY, data) == expected

    def test_empty_data(self):
        assert KeystreamCache().xor(KEY, b"") == b""

    def test_oversized_message_rejected(self):
        with pytest.raises(ValueError):
            KeystreamCache().xor(KEY, b"x" * 5000)

    @pytest.mark.parametrize("order", ["ascending", "shuffled"])
    def test_growth_across_doubling_boundaries_matches_raw_rc4(self, order):
        """Keystreams grow by resuming the PRGA; every prefix length, in
        any request order, must match a fresh RC4 run of that length."""
        lengths = list(BOUNDARY_LENGTHS)
        if order == "shuffled":
            random.Random(7).shuffle(lengths)
        cache = KeystreamCache()
        for length in lengths:
            data = bytes((index * 37 + length) & 0xFF for index in range(length))
            expected = bytes(k ^ p for k, p in zip(rc4_keystream(KEY, length), data))
            assert cache.xor(KEY, data) == expected

    def test_first_chunk_is_packet_sized(self):
        cache = KeystreamCache()
        cache.xor(KEY, b"x" * 12)
        assert cache._entry(KEY, 1)[1] == KeystreamCache.INITIAL_LEN == 32
        cache.xor(KEY, b"x" * 33)
        assert cache._entry(KEY, 1)[1] == 64

    def test_entry_is_an_untracked_tuple_with_bytes_state(self):
        cache = KeystreamCache()
        cache.xor(KEY, b"x" * 12)
        entry = cache._entry(KEY, 1)
        assert type(entry) is tuple and len(entry) == 5
        assert type(entry[2]) is bytes and len(entry[2]) == 256
        gc.collect()
        assert not gc.is_tracked(entry)

    def test_growth_from_saved_state_matches_raw_rc4(self):
        """Each doubling resumes the PRGA from the saved bytes state."""
        cache = KeystreamCache()
        length = KeystreamCache.INITIAL_LEN
        cache.xor(KEY, b"x" * length)
        while length < 4096:
            entry = cache._entry(KEY, length + 1)
            length *= 2
            assert entry[1] == length
            assert type(entry[2]) is bytes and len(entry[2]) == 256
            assert entry[0].to_bytes(length, "big") == rc4_keystream(KEY, length)

    def test_cache_eviction_safe(self):
        cache = KeystreamCache(max_entries=2)
        data = b"payload"
        first = cache.xor(KEY, data)
        cache.xor(OTHER_KEY, data)
        cache.xor(bytes(20), data)  # evicts
        assert cache.xor(KEY, data) == first


class TestVisualLayer:
    def test_roundtrip(self):
        for data in (b"", b"a", b"ab", b"hello world", bytes(range(256))):
            assert visual_decode(visual_encode(data)) == data

    def test_encode_is_chained_xor(self):
        data = b"\x10\x20\x30"
        encoded = visual_encode(data)
        assert encoded[0] == 0x10
        assert encoded[1] == 0x20 ^ 0x10
        assert encoded[2] == 0x30 ^ 0x20

    def test_encode_changes_data(self):
        assert visual_encode(b"hello world") != b"hello world"


class TestZeusEncryption:
    def test_roundtrip(self):
        plaintext = b"x" * 100
        assert zeus_decrypt(KEY, zeus_encrypt(KEY, plaintext)) == plaintext

    def test_wrong_key_garbles(self):
        plaintext = b"x" * 100
        garbled = zeus_decrypt(OTHER_KEY, zeus_encrypt(KEY, plaintext))
        assert garbled != plaintext

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            zeus_encrypt(b"short", b"data")
        with pytest.raises(ValueError):
            zeus_decrypt(b"short", b"data")
