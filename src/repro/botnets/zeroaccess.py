"""ZeroAccess behavioural model: fixed port + peer-list flux.

Two Table 1/5 properties of ZeroAccess get a working implementation
here rather than a feature flag:

* **Fixed port** (Table 5): every bot listens on the version's single
  well-known port, which is what makes ZeroAccess the canonical target
  for Internet-wide scanning (it was enumerated with ZMap in practice).
* **Flux** (Table 1, Section 3.1): bots continuously *push* unsolicited
  peer-list updates to their neighbours and continuously *verify* their
  entries with getL keepalives.  Verified peers stay fresh and keep
  circulating; an entry that never answers -- an injected sensor that
  stopped announcing -- ages out and is evicted: "ZeroAccess prevents
  injection of persistent links to sensors by pushing a continuous
  flux of peer list updates, constantly overwriting the full peer list
  of each routable bot."

The wire format is synthetic and minimal (magic, type, sender id,
packed peer entries); ZeroAccess's real newer protocol is a fixed-key
XOR over a similar structure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.botnets.base import BotNode, PeerEntry, PeerList
from repro.net.transport import Endpoint, Message, Transport
from repro.sim.clock import MINUTE
from repro.sim.scheduler import Scheduler

FIXED_PORT = 16471
MAGIC = b"ZA30"
MSG_GETL = 0x01   # request peers / keepalive (the scannable probe)
MSG_RETL = 0x02   # peer-list response
MSG_PUSH = 0x03   # unsolicited flux update
ENTRY_LEN = 4 + 4  # bot id + IPv4 (the protocol is IP-centric)
HEADER_LEN = 4 + 1 + 4 + 1  # magic + type + sender id + count


class ZeroAccessDecodeError(ValueError):
    """Bytes do not form a rational ZeroAccess packet."""


def encode_packet(msg_type: int, sender_id: int, entries: List[Tuple[int, int]]) -> bytes:
    """``entries``: (bot id, ip) pairs; the port is always FIXED_PORT."""
    if len(entries) > 0xFF:
        raise ValueError("too many entries")
    body = bytearray(MAGIC)
    body.append(msg_type)
    body += sender_id.to_bytes(4, "big")
    body.append(len(entries))
    for bot_id, ip in entries:
        body += bot_id.to_bytes(4, "big")
        body += ip.to_bytes(4, "big")
    return bytes(body)


def decode_packet(data: bytes) -> Tuple[int, int, List[Tuple[int, int]]]:
    """Returns (msg type, sender id, entries)."""
    if len(data) < HEADER_LEN or data[:4] != MAGIC:
        raise ZeroAccessDecodeError("bad magic")
    msg_type = data[4]
    if msg_type not in (MSG_GETL, MSG_RETL, MSG_PUSH):
        raise ZeroAccessDecodeError(f"unknown type: {msg_type:#x}")
    sender_id = int.from_bytes(data[5:9], "big")
    count = data[9]
    if len(data) != HEADER_LEN + count * ENTRY_LEN:
        raise ZeroAccessDecodeError("length mismatch")
    entries = []
    offset = HEADER_LEN
    for _ in range(count):
        bot_id = int.from_bytes(data[offset : offset + 4], "big")
        ip = int.from_bytes(data[offset + 4 : offset + 8], "big")
        entries.append((bot_id, ip))
        offset += ENTRY_LEN
    return msg_type, sender_id, entries


@dataclass
class ZeroAccessConfig:
    peer_list_capacity: int = 256
    entries_per_message: int = 16
    cycle_interval: float = 15 * MINUTE
    push_fanout: int = 4
    verify_per_cycle: int = 4
    evict_after_failures: int = 3
    # Pushed (hearsay) entries are backdated by this much: a peer we
    # never verified ourselves must not outrank peers that answered us.
    push_entry_age: float = 30 * MINUTE


class ZeroAccessBot(BotNode):
    """A minimal flux-pushing, keepalive-verifying ZeroAccess bot."""

    def __init__(
        self,
        node_id: str,
        bot_id: bytes,
        endpoint: Endpoint,
        transport: Transport,
        scheduler: Scheduler,
        rng: random.Random,
        routable: bool = True,
        config: Optional[ZeroAccessConfig] = None,
    ) -> None:
        self.config = config if config is not None else ZeroAccessConfig()
        if endpoint.port != FIXED_PORT:
            raise ValueError(f"ZeroAccess listens on {FIXED_PORT}, not {endpoint.port}")
        super().__init__(
            node_id=node_id,
            bot_id=bot_id,
            endpoint=endpoint,
            transport=transport,
            scheduler=scheduler,
            rng=rng,
            routable=routable,
            cycle_interval=self.config.cycle_interval,
        )
        self.peer_list = PeerList(
            capacity=self.config.peer_list_capacity, ip_filter_prefix=32
        )
        self.pushes_received = 0
        self.undecodable = 0

    @property
    def int_id(self) -> int:
        return int.from_bytes(self.bot_id, "big")

    def seed_peers(self, peers: List[Tuple[bytes, Endpoint]]) -> None:
        own = self.bot_id
        self.peer_list.seed([row for row in peers if row[0] != own], self.scheduler.now)

    def _freshest_entries(self) -> List[Tuple[int, int]]:
        entries = sorted(self.peer_list.entries(), key=lambda e: -e.last_seen)
        return [
            (int.from_bytes(entry.bot_id, "big"), entry.endpoint.ip)
            for entry in entries[: self.config.entries_per_message]
        ]

    def run_cycle(self) -> None:
        """The flux: verify stale entries, push fresh ones."""
        entries = self.peer_list.entries()
        if not entries:
            return
        # Keepalive verification: probe the stalest entries; anything
        # that keeps failing is evicted (a sensor that stopped
        # answering, a dead bot).  Failures are counted at send time
        # and cleared by any decodable traffic from the peer.
        stalest = sorted(entries, key=lambda e: e.last_seen)
        for entry in stalest[: self.config.verify_per_cycle]:
            self.peer_list.record_failure(entry.bot_id, self.config.evict_after_failures)
            self.send(entry.endpoint, encode_packet(MSG_GETL, self.int_id, []))
        # Push our freshest entries to random neighbours.
        payload = encode_packet(MSG_PUSH, self.int_id, self._freshest_entries())
        survivors = self.peer_list.entries()
        fanout = min(self.config.push_fanout, len(survivors))
        for entry in self.rng.sample(survivors, fanout):
            self.send(entry.endpoint, payload)

    def handle_message(self, message: Message) -> None:
        try:
            msg_type, sender_id, entries = decode_packet(message.payload)
        except ZeroAccessDecodeError:
            self.undecodable += 1
            return
        now = self.scheduler.now
        sender_key = sender_id.to_bytes(4, "big")
        # Any rational traffic proves the sender alive: refresh it (and
        # learn it, as ZeroAccess bots learn contacts).
        if sender_key != self.bot_id:
            self.peer_list.add(
                PeerEntry(
                    bot_id=sender_key,
                    endpoint=Endpoint(message.src.ip, FIXED_PORT),
                    last_seen=now,
                )
            )
            self.peer_list.touch(sender_key, now)
        if msg_type == MSG_GETL:
            self.counters.requests_served += 1
            self.send(
                message.src, encode_packet(MSG_RETL, self.int_id, self._freshest_entries())
            )
            return
        if msg_type == MSG_PUSH:
            self.pushes_received += 1
        # RETL/PUSH entries are hearsay: merged, but backdated so they
        # never outrank peers this bot verified itself.
        hearsay_seen = now - self.config.push_entry_age
        for bot_id, ip in entries:
            key = bot_id.to_bytes(4, "big")
            if key != self.bot_id and key not in self.peer_list:
                self.peer_list.add(
                    PeerEntry(
                        bot_id=key,
                        endpoint=Endpoint(ip, FIXED_PORT),
                        last_seen=hearsay_seen,
                    )
                )
