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
key, so the keystream for each recipient ID is computed once and
cached; per-message work is then two big-int XORs.  The chained-XOR
layer is likewise implemented with shift/XOR on big ints, making the
whole stack fast enough to encrypt millions of simulated messages.
"""

from __future__ import annotations

from typing import Dict, Tuple

KEY_LEN = 20
# Longest message we ever encrypt; cached keystreams grow to at most
# this length.
MAX_MESSAGE_LEN = 4096


def _rc4_init(key: bytes):
    """RC4 key schedule: returns the (state, i, j) PRGA start state."""
    if not key:
        raise ValueError("empty RC4 key")
    state = list(range(256))
    j = 0
    # Iterating the key repeated past 256 bytes saves a modulo per step.
    for i, k in zip(range(256), key * (256 // len(key) + 1)):
        si = state[i]
        j = (j + si + k) & 0xFF
        state[i] = state[j]
        state[j] = si
    return state, 0, 0


def _rc4_prga(state, i: int, j: int, length: int):
    """Emit ``length`` keystream bytes, mutating ``state`` in place.

    Returns (bytes, i, j) so the stream can be resumed later: RC4 is a
    stream cipher, so a prefix plus a continuation equals one long run.
    """
    out = bytearray(length)
    for n in range(length):
        i = (i + 1) & 0xFF
        si = state[i]
        j = (j + si) & 0xFF
        sj = state[j]
        state[i] = sj
        state[j] = si
        out[n] = state[(si + sj) & 0xFF]
    return bytes(out), i, j


def rc4_keystream(key: bytes, length: int) -> bytes:
    """Generate ``length`` bytes of RC4 keystream for ``key``."""
    state, i, j = _rc4_init(key)
    out, _, _ = _rc4_prga(state, i, j, length)
    return out


class KeystreamCache:
    """Cache of lazily-grown RC4 keystreams keyed by recipient ID.

    One shared instance per simulation keeps total KSA work at
    O(#distinct recipients) instead of O(#messages).  Keystreams start
    at ``INITIAL_LEN`` bytes and double (resuming the saved PRGA state)
    only when a longer message appears, so a key never generates more
    than the next power of two above its longest message, and families
    that derive a fresh key per exchange (Sality's per-nonce keys) pay
    for packet-sized keystreams, not the MAX_MESSAGE_LEN worst case.

    Each entry is an immutable ``(keystream_int, length, state, i, j)``
    tuple whose PRGA state is 256 ``bytes``, copied back to a list only
    when a longer message grows the stream.  Most Sality keys serve one
    exchange and are never grown: as bytes, a dead entry costs ~0.5 KB
    in all, where a list of 256 ints alone takes 2.1 KB, and a tuple
    holding only ints and bytes drops out of the garbage collector's
    tracked set.
    """

    #: First chunk of keystream computed per key; covers most Sality
    #: packets (12 to 65 bytes) outright.
    INITIAL_LEN = 32

    def __init__(self, max_entries: int = 100_000) -> None:
        self.max_entries = max_entries
        self._cache: Dict[bytes, Tuple[int, int, bytes, int, int]] = {}

    def _entry(self, key: bytes, need: int) -> Tuple[int, int, bytes, int, int]:
        entry = self._cache.get(key)
        if entry is None:
            if len(self._cache) >= self.max_entries:
                self._cache.clear()
            state, i, j = _rc4_init(key)
            length = self.INITIAL_LEN
            while length < need:
                length <<= 1
            if length > MAX_MESSAGE_LEN:
                length = MAX_MESSAGE_LEN
            chunk, i, j = _rc4_prga(state, i, j, length)
            entry = (int.from_bytes(chunk, "big"), length, bytes(state), i, j)
            self._cache[key] = entry
        elif entry[1] < need:
            stream, length, saved, i, j = entry
            target = length
            while target < need:
                target <<= 1
            if target > MAX_MESSAGE_LEN:
                target = MAX_MESSAGE_LEN
            state = list(saved)
            extra, i, j = _rc4_prga(state, i, j, target - length)
            stream = (stream << (8 * (target - length))) | int.from_bytes(extra, "big")
            entry = (stream, target, bytes(state), i, j)
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
