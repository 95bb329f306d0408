"""Unit tests for GameOver Zeus crypto."""

import ctypes
import gc
import random
import sys
import threading

import pytest

from repro.botnets.zeus import crypto
from repro.botnets.zeus.crypto import (
    MAX_MESSAGE_LEN,
    KeystreamCache,
    libcrypto_rc4,
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


def _hashlib_exports_rc4() -> bool:
    try:
        import _hashlib
    except ImportError:
        return False
    return hasattr(ctypes.PyDLL(_hashlib.__file__), "RC4_set_key")


@pytest.fixture
def generator(monkeypatch):
    """The keystream generator under test, installed as the one
    ``KeystreamCache`` fills its entries with: the module's own choice,
    the libcrypto kernel wherever it loads."""
    keystream = libcrypto_rc4() or rc4_keystream
    monkeypatch.setattr(crypto, "_keystream", keystream)
    return keystream


@pytest.fixture
def pure_python_generator(monkeypatch):
    """The pure-Python fallback, forced as if the kernel had not loaded."""
    monkeypatch.setattr(crypto, "_keystream", rc4_keystream)
    return rc4_keystream


class TestRc4:
    def test_known_vector(self, generator):
        """RFC 6229-style check: RC4("Key") keystream prefix."""
        ks = generator(b"Key", 8)
        assert ks.hex() == "eb9f7781b734ca72a719"[:16]

    def test_known_vector_wiki(self, generator):
        # Classic test vector: key "Key", plaintext "Plaintext"
        ks = generator(b"Key", 9)
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
    def test_rfc6229_vectors(self, generator, key, expected):
        assert generator(key, 16).hex() == expected

    @pytest.mark.parametrize("key_len", [1, 3, 5, 7, 20, 24, 32, 100, 255, 256])
    def test_matches_textbook_rc4(self, generator, key_len):
        """Long keystreams for keys whose length does and does not
        divide 256 equal the textbook algorithm's."""
        key = bytes((index * 29 + key_len) & 0xFF for index in range(key_len))
        assert generator(key, 1024) == _textbook_rc4(key, 1024)

    def test_deterministic(self, generator):
        assert generator(KEY, 64) == generator(KEY, 64)

    def test_distinct_keys_distinct_streams(self, generator):
        assert generator(KEY, 64) != generator(OTHER_KEY, 64)

    def test_lengths_zero_and_max(self, generator):
        assert generator(KEY, 0) == b""
        assert generator(KEY, MAX_MESSAGE_LEN) == _textbook_rc4(KEY, MAX_MESSAGE_LEN)

    def test_empty_key_rejected(self, generator):
        with pytest.raises(ValueError):
            generator(b"", 8)

    def test_non_bytes_key_and_bad_length_rejected(self, generator):
        for key, length in ((bytearray(b"Key"), 8), (b"Key", -1), (b"Key", MAX_MESSAGE_LEN + 1)):
            with pytest.raises(ValueError):
                generator(key, length)


class TestRc4PurePython(TestRc4):
    """The same checks against the pure-Python fallback."""

    @pytest.fixture
    def generator(self, pure_python_generator):
        return pure_python_generator


class TestLibcryptoKernel:
    def test_loaded_wherever_hashlib_exports_rc4(self):
        """A silent fallback to pure Python would cost the Sality
        workloads a third of their run time; where ``_hashlib``'s
        libcrypto has the RC4 API, the kernel is the generator."""
        if not _hashlib_exports_rc4():
            pytest.skip("_hashlib's libcrypto does not export RC4_set_key")
        kernel = libcrypto_rc4()
        assert kernel is not None
        KeystreamCache().xor(KEY, b"x")  # the first use picks the generator
        assert crypto._keystream is kernel

    def test_validates_before_any_foreign_call(self):
        calls = []
        kernel = crypto._rc4_kernel(
            lambda *args: calls.append("RC4_set_key"),
            lambda *args: calls.append("RC4"),
        )
        for key, length in ((b"", 8), (b"Key", MAX_MESSAGE_LEN + 1), (b"Key", -1)):
            with pytest.raises(ValueError):
                kernel(key, length)
        assert calls == []
        kernel(b"Key", MAX_MESSAGE_LEN)
        assert calls == ["RC4_set_key", "RC4"]

    def test_threads_do_not_share_scratch(self):
        """Threads switched out between the key schedule and the
        keystream call must each get their own key's stream."""
        kernel = libcrypto_rc4()
        if kernel is None:
            pytest.skip("libcrypto's RC4 kernel did not load on this platform")
        keys = [bytes([index + 1]) * 20 for index in range(4)]
        expected = {key: rc4_keystream(key, 64) for key in keys}
        wrong = []

        def hammer(key):
            for _ in range(2000):
                if kernel(key, 64) != expected[key]:
                    wrong.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(key,)) for key in keys]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestKeystreamCache:
    def test_xor_roundtrip(self, generator):
        cache = KeystreamCache()
        data = b"The quick brown fox jumps over the lazy dog"
        assert cache.xor(KEY, cache.xor(KEY, data)) == data

    def test_xor_matches_raw_rc4(self, generator):
        cache = KeystreamCache()
        data = b"hello world"
        expected = bytes(k ^ p for k, p in zip(_textbook_rc4(KEY, len(data)), data))
        assert cache.xor(KEY, data) == expected

    def test_empty_data(self, generator):
        assert KeystreamCache().xor(KEY, b"") == b""

    def test_oversized_message_rejected(self, generator):
        with pytest.raises(ValueError):
            KeystreamCache().xor(KEY, b"x" * 5000)

    @pytest.mark.parametrize("order", ["ascending", "shuffled"])
    def test_growth_across_doubling_boundaries_matches_raw_rc4(self, generator, order):
        """Keystreams grow by regenerating at the doubled length; every
        prefix length, in any request order, must match a fresh RC4 run
        of that length."""
        lengths = list(BOUNDARY_LENGTHS)
        if order == "shuffled":
            random.Random(7).shuffle(lengths)
        cache = KeystreamCache()
        for length in lengths:
            data = bytes((index * 37 + length) & 0xFF for index in range(length))
            expected = bytes(k ^ p for k, p in zip(_textbook_rc4(KEY, length), data))
            assert cache.xor(KEY, data) == expected

    def test_first_chunk_is_packet_sized(self, generator):
        cache = KeystreamCache()
        cache.xor(KEY, b"x" * 12)
        assert cache._entry(KEY, 1)[1] == KeystreamCache.INITIAL_LEN == 32
        cache.xor(KEY, b"x" * 33)
        assert cache._entry(KEY, 1)[1] == 64

    def test_entry_is_an_untracked_int_pair(self, generator):
        cache = KeystreamCache()
        cache.xor(KEY, b"x" * 12)
        entry = cache._entry(KEY, 1)
        assert type(entry) is tuple and len(entry) == 2
        assert type(entry[0]) is int and type(entry[1]) is int
        gc.collect()
        assert not gc.is_tracked(entry)

    def test_each_doubling_equals_a_fresh_rc4_run(self, generator):
        """Each doubling regenerates the stream from its key."""
        cache = KeystreamCache()
        length = KeystreamCache.INITIAL_LEN
        cache.xor(KEY, b"x" * length)
        while length < MAX_MESSAGE_LEN:
            entry = cache._entry(KEY, length + 1)
            length *= 2
            assert entry[1] == length
            assert entry[0].to_bytes(length, "big") == _textbook_rc4(KEY, length)

    def test_cache_eviction_safe(self, generator):
        cache = KeystreamCache(max_entries=2)
        data = b"payload"
        first = cache.xor(KEY, data)
        cache.xor(OTHER_KEY, data)
        cache.xor(bytes(20), data)  # evicts
        assert cache.xor(KEY, data) == first


class TestKeystreamCachePurePython(TestKeystreamCache):
    """The same checks with the pure-Python fallback filling entries."""

    @pytest.fixture
    def generator(self, pure_python_generator):
        return pure_python_generator


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
