"""Sality v3 wire protocol: message structures and codec.

Synthetic layout preserving the paper-relevant field classes
(version numbers, random integer bot IDs, random trailing padding,
single-entry peer exchanges, URL packs)::

    offset  size  field
    0       1     major version   (always 3 for Sality v3)
    1       1     minor version   (current network minor)
    2       1     command
    3       1     pad length      (trailing random padding, 0-15)
    4       4     bot ID          (random uint32, stable while bot is up)
    8       4     nonce           (random per exchange; replies echo it)
    12      n     payload         (command-specific)
    12+n    pad   random padding

The whole packet after the 4-byte clear nonce prefix is RC4-encrypted
under ``network_key || nonce``; the per-message nonce prevents trivial
keystream reuse while keeping probe construction possible without any
per-bot secret -- which is exactly why Sality *is* probe-constructible
for Internet-wide scanning (Table 5) while Zeus is not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Tuple

from repro.botnets.zeus.crypto import MAX_MESSAGE_LEN, KeystreamCache
from repro.net.transport import Endpoint, intern_endpoint
from repro.sim.rng import random_bytes

HEADER_LEN = 12
MAJOR_VERSION = 3
CURRENT_MINOR_VERSION = 9
MAX_PADDING = 15
PEER_ENTRY_LEN = 4 + 4 + 2  # bot id + IPv4 + port

# The network-wide key, extractable from any bot sample (which is how
# analysts build Sality probes in practice).
NETWORK_KEY = b"sality3-p2p-network!"

# A nonce key serves one exchange (the request and its echoed reply),
# so the cap only needs to cover the exchanges in flight; the wholesale
# clear at the cap recomputes just those few keys.
_keystreams = KeystreamCache(max_entries=4096)


class Command(IntEnum):
    HELLO = 0x01            # presence announcement / keepalive
    PEER_REQUEST = 0x02     # peer exchange request
    PEER_RESPONSE = 0x03    # single peer entry (or empty)
    URLPACK_REQUEST = 0x04  # payload-distribution pack exchange
    URLPACK_RESPONSE = 0x05


_VALID_COMMANDS = {int(c) for c in Command}


class SalityDecodeError(ValueError):
    """Bytes do not form a rational Sality packet."""


@dataclass(slots=True)
class SalityMessage:
    """A decoded (plaintext) Sality packet."""

    command: int
    bot_id: int
    nonce: int
    payload: bytes = b""
    minor_version: int = CURRENT_MINOR_VERSION
    major_version: int = MAJOR_VERSION
    padding: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.bot_id <= 0xFFFFFFFF:
            raise ValueError("bot id out of range")
        if not 0 <= self.nonce <= 0xFFFFFFFF:
            raise ValueError("nonce out of range")
        if len(self.padding) > MAX_PADDING:
            raise ValueError("padding too long")


def make_message(
    command: int,
    bot_id: int,
    rng: random.Random,
    payload: bytes = b"",
    nonce: Optional[int] = None,
    minor_version: int = CURRENT_MINOR_VERSION,
) -> SalityMessage:
    """Build a packet as a real bot would: fresh nonce (unless replying)
    and a random amount of random padding."""
    pad_len = rng.randrange(0, MAX_PADDING + 1)
    return SalityMessage(
        command=command,
        bot_id=bot_id,
        nonce=nonce if nonce is not None else rng.getrandbits(32),
        payload=payload,
        minor_version=minor_version,
        padding=random_bytes(rng, pad_len),
    )


def _encode_plain(message: SalityMessage) -> bytes:
    if message.command not in _VALID_COMMANDS:
        raise ValueError(f"unknown command: {message.command}")
    header = bytes(
        (
            message.major_version,
            message.minor_version,
            message.command,
            len(message.padding),
        )
    )
    return (
        header
        + message.bot_id.to_bytes(4, "big")
        + message.nonce.to_bytes(4, "big")
        + message.payload
        + message.padding
    )


def encode_packet(message: SalityMessage) -> bytes:
    """Serialize and encrypt: clear nonce prefix + RC4 body."""
    plain = _encode_plain(message)
    nonce_bytes = message.nonce.to_bytes(4, "big")
    body = _keystreams.xor(NETWORK_KEY + nonce_bytes, plain)
    return nonce_bytes + body


def decode_packet(data: bytes) -> SalityMessage:
    """Decrypt and parse; :class:`SalityDecodeError` on irrational
    structure (short or oversized packet, bad version, unknown command,
    bad pad, bad payload such as a HELLO advertising port 0)."""
    if len(data) < 4 + HEADER_LEN:
        raise SalityDecodeError(f"short packet: {len(data)} bytes")
    if len(data) > 4 + MAX_MESSAGE_LEN:
        raise SalityDecodeError(f"oversized packet: {len(data)} bytes")
    nonce_bytes = data[:4]
    plain = _keystreams.xor(NETWORK_KEY + nonce_bytes, data[4:])
    major, minor, command, pad_len = plain[0], plain[1], plain[2], plain[3]
    if major != MAJOR_VERSION:
        raise SalityDecodeError(f"bad major version: {major}")
    if command not in _VALID_COMMANDS:
        raise SalityDecodeError(f"unknown command: {command:#x}")
    if pad_len > MAX_PADDING or HEADER_LEN + pad_len > len(plain):
        raise SalityDecodeError(f"irrational padding length: {pad_len}")
    bot_id = int.from_bytes(plain[4:8], "big")
    nonce = int.from_bytes(plain[8:12], "big")
    if nonce != int.from_bytes(nonce_bytes, "big"):
        raise SalityDecodeError("nonce mismatch")
    payload_end = len(plain) - pad_len
    message = SalityMessage(
        command=command,
        bot_id=bot_id,
        nonce=nonce,
        payload=plain[HEADER_LEN:payload_end],
        minor_version=minor,
        padding=plain[payload_end:],
    )
    _validate_payload(message)
    return message


def _validate_payload(message: SalityMessage) -> None:
    command, payload = message.command, message.payload
    if command == Command.HELLO:
        if len(payload) != 2:
            raise SalityDecodeError("hello needs a 2-byte listening port")
        if payload == b"\x00\x00":
            raise SalityDecodeError("zero port in hello")
    elif command == Command.PEER_REQUEST:
        if payload:
            raise SalityDecodeError("peer request carries no payload")
    elif command == Command.PEER_RESPONSE:
        if len(payload) not in (0, PEER_ENTRY_LEN):
            raise SalityDecodeError("peer response is empty or one entry")
    elif command == Command.URLPACK_REQUEST:
        if len(payload) != 4:
            raise SalityDecodeError("urlpack request needs a 4-byte sequence")
    elif command == Command.URLPACK_RESPONSE:
        if len(payload) < 6:
            raise SalityDecodeError("urlpack response too short")


# -- payload helpers -----------------------------------------------------------


def encode_hello(listening_port: int) -> bytes:
    return listening_port.to_bytes(2, "big")


def decode_hello(payload: bytes) -> int:
    if len(payload) != 2:
        raise SalityDecodeError("bad hello payload")
    return int.from_bytes(payload, "big")


def encode_peer_entry(bot_id: int, endpoint: Endpoint) -> bytes:
    return bot_id.to_bytes(4, "big") + endpoint.ip.to_bytes(4, "big") + endpoint.port.to_bytes(2, "big")


def decode_peer_entry(payload: bytes) -> Optional[Tuple[int, Endpoint]]:
    """Parse a PEER_RESPONSE payload; None for an empty response.  The
    endpoint is interned (:func:`repro.net.transport.intern_endpoint`)."""
    if not payload:
        return None
    if len(payload) != PEER_ENTRY_LEN:
        raise SalityDecodeError("bad peer entry length")
    bot_id = int.from_bytes(payload[:4], "big")
    ip = int.from_bytes(payload[4:8], "big")
    port = int.from_bytes(payload[8:10], "big")
    if port == 0:
        raise SalityDecodeError("zero port in peer entry")
    return bot_id, intern_endpoint(ip, port)


def encode_urlpack(sequence: int, blob: bytes) -> bytes:
    return sequence.to_bytes(4, "big") + len(blob).to_bytes(2, "big") + blob


def decode_urlpack(payload: bytes) -> Tuple[int, bytes]:
    if len(payload) < 6:
        raise SalityDecodeError("bad urlpack payload")
    sequence = int.from_bytes(payload[:4], "big")
    length = int.from_bytes(payload[4:6], "big")
    blob = payload[6:]
    if len(blob) != length:
        raise SalityDecodeError("urlpack length mismatch")
    return sequence, blob
