"""Crawler defect profiles and defect-faithful message forgers.

Section 4.1 of the paper classifies the shortcomings of in-the-wild
crawlers into range anomalies, entropy anomalies, invalid encryption,
protocol-logic anomalies, and request-frequency anomalies.  A
:class:`ZeusDefectProfile` / :class:`SalityDefectProfile` records which
of those defects one crawler exhibits (one profile per column of
Tables 2/3), and the forger classes construct wire messages that
actually *show* those defects, so the anomaly detectors in
:mod:`repro.core.anomaly` have real bytes to find them in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.botnets.sality import protocol as sality_protocol
from repro.botnets.sality.protocol import SalityMessage
from repro.botnets.zeus import protocol as zeus_protocol
from repro.botnets.zeus.protocol import MessageType, ZeusMessage
from repro.sim.rng import random_bytes


@dataclass(frozen=True)
class ZeusDefectProfile:
    """Which Table 3 defects one Zeus crawler exhibits.

    ``coverage`` is the fraction of the sensor population the crawler
    reached in the paper's measurement (the Table 3 bottom row), used
    by the workload generators to scale each crawler's reach.
    """

    name: str
    rnd_range: bool = False        # static/constrained random byte
    ttl_range: bool = False        # static/constrained TTL
    lop_range: bool = False        # constrained padding length
    session_range: bool = False    # static or small-set session IDs
    session_entropy: bool = False  # low-entropy session IDs
    random_source: bool = False    # fresh random source ID per message
    source_entropy: bool = False   # ASCII/low-entropy source ID
    padding_entropy: bool = False  # non-random padding bytes
    abnormal_lookup: bool = False  # randomized lookup key
    hard_hitter: bool = False      # rapid repeated peer-list requests
    protocol_logic: bool = False   # peer-list requests only
    encryption: bool = False       # occasionally wrong per-bot keys
    coverage: float = 1.0

    def defect_names(self) -> List[str]:
        """The active defect flags, in Table 3 row order."""
        rows = (
            "rnd_range", "ttl_range", "lop_range", "session_range",
            "session_entropy", "random_source", "source_entropy",
            "padding_entropy", "abnormal_lookup", "hard_hitter",
            "protocol_logic", "encryption",
        )
        return [row for row in rows if getattr(self, row)]


@dataclass(frozen=True)
class SalityDefectProfile:
    """Which Table 2 defects one Sality crawler exhibits."""

    name: str
    random_id: bool = False        # bot ID changes between messages
    version: bool = False          # wrong minor version number
    lop_range: bool = False        # fixed/constrained padding length
    port_range: bool = False       # fixed source port
    hard_hitter: bool = False      # rapid repeated peer-list requests
    protocol_logic: bool = False   # repeated PLRs, no URL packs
    encryption: bool = False       # malformed encryption (unused in the
    #   wild: the paper found none; kept for completeness)
    coverage: float = 1.0

    def defect_names(self) -> List[str]:
        rows = (
            "random_id", "version", "lop_range", "port_range",
            "hard_hitter", "protocol_logic", "encryption",
        )
        return [row for row in rows if getattr(self, row)]


# A "clean" profile: what a protocol-adherent stealthy crawler emits.
CLEAN_ZEUS = ZeusDefectProfile(name="clean")
CLEAN_SALITY = SalityDefectProfile(name="clean")

# Low-entropy source IDs seen in the wild carried company names in
# ASCII (Section 4.1.2); the forger reproduces the pattern.
_ASCII_ID_PREFIX = b"ACME-MALWARE-LAB-"


class ZeusForger:
    """Builds Zeus messages exhibiting a given defect profile.

    A clean profile yields byte-for-byte normal bot behaviour; every
    enabled defect perturbs exactly the fields Section 4.1 describes.
    """

    def __init__(self, profile: ZeusDefectProfile, rng: random.Random) -> None:
        self.profile = profile
        self.rng = rng
        self.base_source_id = self._make_source_id()
        self._session_pool = [zeus_protocol.random_id(rng) for _ in range(3)]
        self._message_counter = 0
        self._last_recipient_id: Optional[bytes] = None

    def _make_source_id(self) -> bytes:
        if self.profile.source_entropy:
            suffix = str(self.rng.randrange(100)).zfill(2).encode()
            raw = _ASCII_ID_PREFIX + suffix
            return raw.ljust(zeus_protocol.ID_LEN, b"\x00")[: zeus_protocol.ID_LEN]
        return zeus_protocol.random_id(self.rng)

    def source_id(self) -> bytes:
        if self.profile.random_source:
            # Fresh random ID per message: the ">1000 source IDs per
            # IP" anomaly.
            return zeus_protocol.random_id(self.rng)
        return self.base_source_id

    def session_id(self) -> bytes:
        if self.profile.session_entropy:
            raw = b"SESSION-%08d" % self._message_counter
            return raw.ljust(zeus_protocol.ID_LEN, b"\x20")[: zeus_protocol.ID_LEN]
        if self.profile.session_range:
            return self.rng.choice(self._session_pool)
        return zeus_protocol.random_id(self.rng)

    def lookup_key(self, target_id: bytes) -> bytes:
        if self.profile.abnormal_lookup:
            return zeus_protocol.random_id(self.rng)
        return target_id  # normal semantics: the remote peer's ID

    def _header_fields(self) -> Tuple[int, int, bytes]:
        rnd = 0x00 if self.profile.rnd_range else self.rng.randrange(256)
        ttl = 0x40 if self.profile.ttl_range else self.rng.randrange(256)
        if self.profile.lop_range:
            lop = 0  # padding stripped to save bandwidth
        else:
            lop = self.rng.randrange(0, zeus_protocol.MAX_LOP)
        if self.profile.padding_entropy:
            padding = b"\x00" * lop
        else:
            padding = random_bytes(self.rng, lop)
        return rnd, ttl, padding

    def build(
        self,
        msg_type: int,
        payload: bytes = b"",
        session_id: Optional[bytes] = None,
    ) -> ZeusMessage:
        self._message_counter += 1
        rnd, ttl, padding = self._header_fields()
        return ZeusMessage(
            msg_type=msg_type,
            session_id=session_id if session_id is not None else self.session_id(),
            source_id=self.source_id(),
            payload=payload,
            random_byte=rnd,
            ttl=ttl,
            padding=padding,
        )

    def encryption_key(self, recipient_id: bytes) -> bytes:
        """The key this crawler uses towards ``recipient_id``.

        With the encryption defect, the crawler sporadically loses
        track of per-bot IDs and reuses the *previous* target's key
        (Section 4.1.3: "crawlers ... do not correctly keep track of
        the identifier of each bot they find").
        """
        key = recipient_id
        if (
            self.profile.encryption
            and self._last_recipient_id is not None
            and self._last_recipient_id != recipient_id
            and self.rng.random() < 0.3
        ):
            key = self._last_recipient_id
        self._last_recipient_id = recipient_id
        return key

    def encrypt(self, message: ZeusMessage, recipient_id: bytes) -> bytes:
        return zeus_protocol.encrypt_message(message, self.encryption_key(recipient_id))


class SalityForger:
    """Builds Sality packets exhibiting a given defect profile."""

    # In-the-wild crawlers used a stale minor version (Table 2: only 2
    # of 11 used a valid one).
    STALE_MINOR_VERSION = 4

    def __init__(self, profile: SalityDefectProfile, rng: random.Random) -> None:
        self.profile = profile
        self.rng = rng
        self.base_bot_id = rng.getrandbits(32)

    def bot_id(self) -> int:
        if self.profile.random_id:
            return self.rng.getrandbits(32)
        return self.base_bot_id

    def minor_version(self) -> int:
        if self.profile.version:
            return self.STALE_MINOR_VERSION
        return sality_protocol.CURRENT_MINOR_VERSION

    def padding(self) -> bytes:
        if self.profile.lop_range:
            return b""  # fixed zero-length padding
        length = self.rng.randrange(0, sality_protocol.MAX_PADDING + 1)
        return random_bytes(self.rng, length)

    def build(
        self,
        command: int,
        payload: bytes = b"",
        nonce: Optional[int] = None,
    ) -> SalityMessage:
        return SalityMessage(
            command=command,
            bot_id=self.bot_id(),
            nonce=nonce if nonce is not None else self.rng.getrandbits(32),
            payload=payload,
            minor_version=self.minor_version(),
            padding=self.padding(),
        )

    def encode(self, message: SalityMessage) -> bytes:
        wire = sality_protocol.encode_packet(message)
        if self.profile.encryption and self.rng.random() < 0.3:
            # Garble the encrypted body (wrong key material).
            body = bytearray(wire)
            body[4] ^= 0xA5
            wire = bytes(body)
        return wire
