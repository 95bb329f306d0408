"""GameOver Zeus message encryption.

Zeus encrypts each message under a key derived from the *receiving*
bot's 20-byte identifier, layered over a chained-XOR "visual"
encoding.  Two consequences the paper leans on:

* A crawler must know a bot's ID before it can talk to that bot at all,
  which is what makes Zeus immune to Internet-wide scanning (Section 7).
* A crawler that mixes up per-bot keys emits messages its targets
  cannot decrypt -- the "invalid encryption" defect observed in 7 of 21
  in-the-wild crawlers (Section 4.1.3).

Implementation notes: RC4 produces an identical keystream for a fixed
key, so the keystream for each key is generated once and cached;
per-message work is then two big-int XORs.  The chained-XOR layer is
likewise implemented with shift/XOR on big ints, making the whole stack
fast enough to encrypt millions of simulated messages.  Keystreams come
from ``RC4_set_key``/``RC4`` in the libcrypto that CPython's
``_hashlib`` links, where that library exports them and reproduces an
RFC 6229 vector; everywhere else from :func:`rc4_keystream`, the
pure-Python RC4 that the tests also use as the reference.  Both produce
the same bytes, so the choice changes no simulated byte.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Dict, Optional, Tuple

KEY_LEN = 20
# Longest message we ever encrypt; cached keystreams grow to at most
# this length.
MAX_MESSAGE_LEN = 4096

# RFC 6229, key 0x0102030405, offset 0: the kernel is used only after
# it reproduces this vector.
_CHECK_KEY = bytes(range(1, 6))
_CHECK_STREAM = bytes.fromhex("b2396305f03dc027ccc3524a0a1118a8")
# Room for OpenSSL's RC4_KEY (x, y and 256 RC4_INTs; 1,032 bytes with
# 32-bit RC4_INT) at any RC4_INT width up to 64 bits.
_RC4_KEY_BYTES = 258 * 8

Keystream = Callable[[bytes, int], bytes]


def _check_args(key: bytes, length: int) -> None:
    if type(key) is not bytes or not key:
        raise ValueError("RC4 key must be non-empty bytes")
    if not 0 <= length <= MAX_MESSAGE_LEN:
        raise ValueError(f"keystream length must be in [0, {MAX_MESSAGE_LEN}]: {length}")


def rc4_keystream(key: bytes, length: int) -> bytes:
    """Pure-Python RC4: ``length`` bytes of keystream for ``key``.

    The reference the libcrypto kernel is tested against, and the
    generator wherever that kernel cannot be loaded.
    """
    _check_args(key, length)
    state = list(range(256))
    j = 0
    # Iterating the key repeated past 256 bytes saves a modulo per step.
    for i, k in zip(range(256), key * (256 // len(key) + 1)):
        si = state[i]
        j = (j + si + k) & 0xFF
        state[i] = state[j]
        state[j] = si
    out = bytearray(length)
    i = j = 0
    for n in range(length):
        i = (i + 1) & 0xFF
        si = state[i]
        j = (j + si) & 0xFF
        sj = state[j]
        state[i] = sj
        state[j] = si
        out[n] = state[(si + sj) & 0xFF]
    return bytes(out)


@functools.lru_cache(maxsize=None)
def libcrypto_rc4() -> Optional[Keystream]:
    """The RC4 keystream kernel over CPython's libcrypto, or ``None``.

    Loaded on the first call only.  ``dlsym`` on the ``_hashlib``
    extension's handle also searches its dependencies, so the kernel
    runs exactly the OpenSSL that :mod:`hashlib` uses.  ``None`` when
    the symbols are missing (no ``_hashlib``, an OpenSSL built without
    its deprecated RC4 API, a platform whose loader does not search
    dependencies) or the kernel does not reproduce an RFC 6229 vector.
    """
    try:
        import ctypes

        import _hashlib

        # PyDLL keeps the GIL across the two short calls; CDLL would
        # release and retake it around each.
        lib = ctypes.PyDLL(_hashlib.__file__)
        set_key = lib.RC4_set_key
        rc4 = lib.RC4
    except (ImportError, OSError, AttributeError):
        return None
    # void RC4_set_key(RC4_KEY *key, int len, const unsigned char *data)
    set_key.argtypes = (ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p)
    set_key.restype = None
    # void RC4(RC4_KEY *key, size_t len, const unsigned char *in, unsigned char *out)
    rc4.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_char_p, ctypes.c_void_p)
    rc4.restype = None
    kernel = _rc4_kernel(set_key, rc4)
    if kernel(_CHECK_KEY, len(_CHECK_STREAM)) != _CHECK_STREAM:
        return None
    return kernel


def _rc4_kernel(set_key: Callable, rc4: Callable) -> Keystream:
    """A keystream generator over the foreign ``RC4_set_key`` and ``RC4``.

    Arguments are checked before either is called: ``RC4_set_key``
    with an empty key reads past it, and ``RC4`` writes ``length``
    bytes into a ``MAX_MESSAGE_LEN``-byte buffer.
    """
    import ctypes

    zeros = bytes(MAX_MESSAGE_LEN)
    new_buffer = ctypes.create_string_buffer
    # The key state and output are scratch written by every call, and a
    # thread can be switched out between the two calls, so each thread
    # gets its own pair.
    local = threading.local()

    def keystream(key: bytes, length: int) -> bytes:
        _check_args(key, length)
        try:
            state, out = local.buffers
        except AttributeError:
            state, out = local.buffers = (
                new_buffer(_RC4_KEY_BYTES),
                new_buffer(MAX_MESSAGE_LEN),
            )
        set_key(state, len(key), key)
        rc4(state, length, zeros, out)
        # Slicing the char array copies out only ``length`` bytes.
        return out[:length]

    return keystream


def _first_keystream(key: bytes, length: int) -> bytes:
    """Stands in for the generator until its first use picks one."""
    global _keystream
    _keystream = libcrypto_rc4() or rc4_keystream
    return _keystream(key, length)


#: The generator :class:`KeystreamCache` fills entries with.
_keystream: Keystream = _first_keystream


class KeystreamCache:
    """Cache of lazily-grown RC4 keystreams keyed by recipient ID.

    One shared instance per simulation keeps total key-schedule work at
    about O(#distinct recipients) instead of O(#messages).  Keystreams
    start at ``INITIAL_LEN`` bytes and double only when a longer message
    appears, so a key never holds more than the next power of two above
    its longest message, and families that derive a fresh key per
    exchange (Sality's per-nonce keys) pay for packet-sized keystreams,
    not the MAX_MESSAGE_LEN worst case.

    Each entry is an immutable ``(keystream_int, length)`` tuple.  A
    longer message regenerates the stream from its key at the doubled
    length: with the libcrypto kernel a whole key costs a few
    microseconds, and a Zeus key doubles at most seven times, so no
    generator state is kept.  A dead Sality entry thus costs about the
    tuple and its int, and a tuple of ints drops out of the garbage
    collector's tracked set.
    """

    #: First chunk of keystream computed per key; covers most Sality
    #: packets (12 to 65 bytes) outright.
    INITIAL_LEN = 32

    def __init__(self, max_entries: int = 100_000) -> None:
        self.max_entries = max_entries
        self._cache: Dict[bytes, Tuple[int, int]] = {}

    def _entry(self, key: bytes, need: int) -> Tuple[int, int]:
        entry = self._cache.get(key)
        if entry is None or entry[1] < need:
            if entry is None and len(self._cache) >= self.max_entries:
                self._cache.clear()
            length = self.INITIAL_LEN
            while length < need:
                length <<= 1
            if length > MAX_MESSAGE_LEN:
                length = MAX_MESSAGE_LEN
            entry = (int.from_bytes(_keystream(key, length), "big"), length)
            self._cache[key] = entry
        return entry

    def keystream_int(self, key: bytes) -> int:
        """Keystream as a big int (big-endian, MAX_MESSAGE_LEN bytes)."""
        return self._entry(key, MAX_MESSAGE_LEN)[0]

    def xor(self, key: bytes, data: bytes) -> bytes:
        """XOR ``data`` with the key's keystream (its own inverse)."""
        size = len(data)
        if size > MAX_MESSAGE_LEN:
            raise ValueError(f"message too long: {size} > {MAX_MESSAGE_LEN}")
        if not data:
            return data
        entry = self._entry(key, size)
        ks = entry[0] >> (8 * (entry[1] - size))
        value = int.from_bytes(data, "big") ^ ks
        return value.to_bytes(size, "big")


_shared_cache = KeystreamCache()


def visual_encode(data: bytes) -> bytes:
    """Chained-XOR layer: ``c[i] = p[i] ^ p[i-1]`` (``c[0] = p[0]``)."""
    if len(data) < 2:
        return data
    value = int.from_bytes(data, "big")
    return (value ^ (value >> 8)).to_bytes(len(data), "big")


def visual_decode(data: bytes) -> bytes:
    """Inverse of :func:`visual_encode` via prefix-XOR doubling."""
    if len(data) < 2:
        return data
    value = int.from_bytes(data, "big")
    bits = len(data) * 8
    shift = 8
    while shift < bits:
        value ^= value >> shift
        shift <<= 1
    return value.to_bytes(len(data), "big")


def zeus_encrypt(recipient_id: bytes, plaintext: bytes, cache: KeystreamCache = _shared_cache) -> bytes:
    """Encrypt ``plaintext`` for the bot identified by ``recipient_id``.

    Fused form of ``cache.xor(recipient_id, visual_encode(plaintext))``:
    both layers run on one big int, skipping the intermediate bytes
    round-trip on the per-message hot path.
    """
    if len(recipient_id) != KEY_LEN:
        raise ValueError(f"recipient id must be {KEY_LEN} bytes")
    size = len(plaintext)
    if size > MAX_MESSAGE_LEN:
        raise ValueError(f"message too long: {size} > {MAX_MESSAGE_LEN}")
    if size < 2:
        return cache.xor(recipient_id, plaintext)
    entry = cache._entry(recipient_id, size)
    ks = entry[0] >> (8 * (entry[1] - size))
    value = int.from_bytes(plaintext, "big")
    return ((value ^ (value >> 8)) ^ ks).to_bytes(size, "big")


def zeus_decrypt(own_id: bytes, ciphertext: bytes, cache: KeystreamCache = _shared_cache) -> bytes:
    """Decrypt a message addressed to ``own_id``.

    Always returns *some* bytes; structural validation happens in
    :func:`repro.botnets.zeus.protocol.decode_message`, exactly as a
    real bot discovers a wrongly-keyed message only when the decoded
    structure is irrational.
    """
    if len(own_id) != KEY_LEN:
        raise ValueError(f"own id must be {KEY_LEN} bytes")
    size = len(ciphertext)
    if size > MAX_MESSAGE_LEN:
        raise ValueError(f"message too long: {size} > {MAX_MESSAGE_LEN}")
    if size < 2:
        return cache.xor(own_id, ciphertext)
    # Fused cache.xor + visual_decode: one big int carries both layers.
    entry = cache._entry(own_id, size)
    ks = entry[0] >> (8 * (entry[1] - size))
    value = int.from_bytes(ciphertext, "big") ^ ks
    bits = size * 8
    shift = 8
    while shift < bits:
        value ^= value >> shift
        shift <<= 1
    return value.to_bytes(size, "big")
