"""GameOver Zeus wire protocol: message structures and codec.

Message layout (after decryption)::

    offset  size  field
    0       1     random byte        (randomized per message)
    1       1     TTL                (randomized when unused)
    2       1     LOP                (length of trailing random padding)
    3       1     message type
    4       20    session ID         (random per request/response pair)
    24      20    source bot ID
    44      n     payload            (type-specific)
    44+n    LOP   random padding

The randomized fields are exactly the ones in-the-wild crawlers got
wrong (paper Table 3): constrained random bytes / TTLs / LOPs, reused
session IDs, low-entropy source IDs, non-random padding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Optional, Tuple

from repro.botnets.zeus import crypto
from repro.net import transport
from repro.net.transport import Endpoint, intern_endpoint
from repro.sim.rng import random_bytes

HEADER_LEN = 44
ID_LEN = 20
PEER_ENTRY_LEN = ID_LEN + 4 + 2  # id + IPv4 + port
MAX_PEERS_PER_RESPONSE = 10
MAX_LOP = 0x30  # padding length is bounded; larger values are irrational


class MessageType(IntEnum):
    """Zeus P2P message types (synthetic numbering, faithful roles)."""

    VERSION_REQUEST = 0x00
    VERSION_REPLY = 0x01
    PEER_LIST_REQUEST = 0x02
    PEER_LIST_REPLY = 0x03
    DATA_REQUEST = 0x04      # binary/config update exchange
    DATA_REPLY = 0x05
    PROXY_REQUEST = 0x06     # proxy-bot (data drop) list exchange
    PROXY_REPLY = 0x07


_VALID_TYPES = {int(t) for t in MessageType}


class ZeusDecodeError(ValueError):
    """Raised when bytes do not form a rational Zeus message.

    A wrongly-keyed (invalid-encryption) message surfaces as this
    error at the receiver.
    """


@dataclass(slots=True)
class ZeusMessage:
    """A decoded (plaintext) Zeus message."""

    msg_type: int
    session_id: bytes
    source_id: bytes
    payload: bytes = b""
    random_byte: int = 0
    ttl: int = 0
    padding: bytes = b""

    def __post_init__(self) -> None:
        if len(self.session_id) != ID_LEN:
            raise ValueError(f"session id must be {ID_LEN} bytes")
        if len(self.source_id) != ID_LEN:
            raise ValueError(f"source id must be {ID_LEN} bytes")
        if not 0 <= self.random_byte <= 0xFF or not 0 <= self.ttl <= 0xFF:
            raise ValueError("header byte out of range")
        if len(self.padding) > 0xFF:
            raise ValueError("padding too long")


def random_id(rng: random.Random) -> bytes:
    """A fresh 20-byte identifier (bot ID / session ID)."""
    return rng.getrandbits(ID_LEN * 8).to_bytes(ID_LEN, "big")


def make_message(
    msg_type: int,
    source_id: bytes,
    rng: random.Random,
    payload: bytes = b"",
    session_id: Optional[bytes] = None,
) -> ZeusMessage:
    """Build a message with correctly randomized header fields.

    This is what a *real* bot emits: random lead byte, random TTL,
    random padding of random length, fresh session ID unless this is a
    reply echoing the request's session.
    """
    lop = rng.randrange(0, MAX_LOP)
    return ZeusMessage(
        msg_type=msg_type,
        session_id=session_id if session_id is not None else random_id(rng),
        source_id=source_id,
        payload=payload,
        random_byte=rng.randrange(256),
        ttl=rng.randrange(256),
        # The draw sequence is load-bearing for replay compatibility;
        # see repro.sim.rng.random_bytes.
        padding=random_bytes(rng, lop),
    )


def encode_message(message: ZeusMessage) -> bytes:
    """Serialize to plaintext wire bytes."""
    if message.msg_type not in _VALID_TYPES:
        raise ValueError(f"unknown message type: {message.msg_type}")
    header = bytes(
        (
            message.random_byte,
            message.ttl,
            len(message.padding),
            message.msg_type,
        )
    )
    return header + message.session_id + message.source_id + message.payload + message.padding


def decode_message(data: bytes) -> ZeusMessage:
    """Parse plaintext wire bytes; raise :class:`ZeusDecodeError` if
    the structure is irrational (short, unknown type, impossible LOP)."""
    if len(data) < HEADER_LEN:
        raise ZeusDecodeError(f"short message: {len(data)} bytes")
    random_byte, ttl, lop, msg_type = data[0], data[1], data[2], data[3]
    if msg_type not in _VALID_TYPES:
        raise ZeusDecodeError(f"unknown message type: {msg_type:#x}")
    if lop > MAX_LOP:
        raise ZeusDecodeError(f"irrational LOP: {lop}")
    if HEADER_LEN + lop > len(data):
        raise ZeusDecodeError(f"LOP {lop} exceeds message body")
    session_id = data[4:24]
    source_id = data[24:44]
    payload_end = len(data) - lop
    payload = data[HEADER_LEN:payload_end]
    message = ZeusMessage(
        msg_type=msg_type,
        session_id=session_id,
        source_id=source_id,
        payload=payload,
        random_byte=random_byte,
        ttl=ttl,
        padding=data[payload_end:],
    )
    _validate_payload(message)
    return message


def _validate_payload(message: ZeusMessage) -> None:
    """Type-specific structural checks (the receiver's sanity tests)."""
    mtype, payload = message.msg_type, message.payload
    if mtype == MessageType.PEER_LIST_REQUEST:
        if len(payload) != ID_LEN:
            raise ZeusDecodeError("peer list request needs a 20-byte lookup key")
    elif mtype in (MessageType.PEER_LIST_REPLY, MessageType.PROXY_REPLY):
        if not payload:
            raise ZeusDecodeError("peer list reply needs a count byte")
        count = payload[0]
        if count > MAX_PEERS_PER_RESPONSE * 2:
            raise ZeusDecodeError(f"irrational peer count: {count}")
        if len(payload) != 1 + count * PEER_ENTRY_LEN:
            raise ZeusDecodeError("peer list reply length mismatch")
    elif mtype == MessageType.VERSION_REPLY:
        if len(payload) != 6:
            raise ZeusDecodeError("version reply needs version+port")
    elif mtype == MessageType.DATA_REQUEST:
        if len(payload) != 1:
            raise ZeusDecodeError("data request needs a resource byte")
    elif mtype == MessageType.DATA_REPLY:
        if len(payload) < 5:
            raise ZeusDecodeError("data reply too short")


# -- payload builders/parsers -------------------------------------------------


def encode_peer_entries(entries: List[Tuple[bytes, Endpoint]]) -> bytes:
    """Payload for PEER_LIST_REPLY / PROXY_REPLY: count + packed entries."""
    if len(entries) > 0xFF:
        raise ValueError("too many entries")
    parts = [bytes((len(entries),))]
    for bot_id, endpoint in entries:
        if len(bot_id) != ID_LEN:
            raise ValueError("peer id must be 20 bytes")
        parts.append(bot_id)
        parts.append(endpoint.ip.to_bytes(4, "big"))
        parts.append(endpoint.port.to_bytes(2, "big"))
    return b"".join(parts)


def decode_peer_entries(payload: bytes) -> List[Tuple[bytes, Endpoint]]:
    """Parse a PEER_LIST_REPLY / PROXY_REPLY payload; endpoints are
    interned (:func:`repro.net.transport.intern_endpoint`)."""
    if not payload:
        raise ZeusDecodeError("empty peer entries payload")
    count = payload[0]
    expected = 1 + count * PEER_ENTRY_LEN
    if len(payload) != expected:
        raise ZeusDecodeError("peer entries length mismatch")
    entries = []
    offset = 1
    # Hits are looked up inline (this is the recon hot path); only a
    # miss pays the helper call.
    interned = transport._endpoint_intern
    from_bytes = int.from_bytes
    for _ in range(count):
        bot_id = payload[offset : offset + ID_LEN]
        ip = from_bytes(payload[offset + ID_LEN : offset + ID_LEN + 4], "big")
        port = from_bytes(payload[offset + ID_LEN + 4 : offset + ID_LEN + 6], "big")
        if port == 0:
            raise ZeusDecodeError("zero port in peer entry")
        endpoint = interned.get((ip, port))
        if endpoint is None:
            endpoint = intern_endpoint(ip, port)
        entries.append((bot_id, endpoint))
        offset += PEER_ENTRY_LEN
    return entries


def encode_version_reply(version: int, port: int) -> bytes:
    return version.to_bytes(4, "big") + port.to_bytes(2, "big")


def decode_version_reply(payload: bytes) -> Tuple[int, int]:
    if len(payload) != 6:
        raise ZeusDecodeError("bad version reply payload")
    return int.from_bytes(payload[:4], "big"), int.from_bytes(payload[4:], "big")


def encode_data_reply(resource: int, blob: bytes) -> bytes:
    return bytes((resource,)) + len(blob).to_bytes(4, "big") + blob


def decode_data_reply(payload: bytes) -> Tuple[int, bytes]:
    if len(payload) < 5:
        raise ZeusDecodeError("bad data reply payload")
    resource = payload[0]
    length = int.from_bytes(payload[1:5], "big")
    blob = payload[5:]
    if len(blob) != length:
        raise ZeusDecodeError("data reply length mismatch")
    return resource, blob


# -- XOR proximity metric ------------------------------------------------------


def xor_distance(a: bytes, b: bytes) -> int:
    """The Kademlia-style XOR metric Zeus uses to select returned peers."""
    if len(a) != len(b):
        raise ValueError("ids must be the same length")
    return int.from_bytes(a, "big") ^ int.from_bytes(b, "big")


def select_closest(
    lookup_key: bytes,
    candidates: List[Tuple[bytes, Endpoint]],
    limit: int = MAX_PEERS_PER_RESPONSE,
) -> List[Tuple[bytes, Endpoint]]:
    """The ``limit`` entries closest to ``lookup_key`` by XOR metric.

    Normal bots set ``lookup_key`` to the requester's own ID, so a
    given requester keeps seeing the same neighborhood -- the paper's
    "clustering" deterrence measure (Table 1).  Crawlers that randomize
    the key to widen coverage produce the "abnormal lookup" defect.
    """
    key_int = int.from_bytes(lookup_key, "big")
    from_bytes = int.from_bytes
    return sorted(
        candidates, key=lambda item: key_int ^ from_bytes(item[0], "big")
    )[:limit]


# -- encryption shims ----------------------------------------------------------


def encrypt_message(message: ZeusMessage, recipient_id: bytes) -> bytes:
    """Encode then encrypt for ``recipient_id``."""
    return crypto.zeus_encrypt(recipient_id, encode_message(message))


def decrypt_message(data: bytes, own_id: bytes) -> ZeusMessage:
    """Decrypt with our own ID and decode; :class:`ZeusDecodeError`
    signals an undecryptable (wrongly keyed, corrupt or oversized)
    message."""
    if len(data) > crypto.MAX_MESSAGE_LEN:
        raise ZeusDecodeError(f"oversized message: {len(data)} bytes")
    return decode_message(crypto.zeus_decrypt(own_id, data))
