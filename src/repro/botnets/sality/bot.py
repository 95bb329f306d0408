"""Sality v3 bot behaviour.

A Sality bot:

* keeps a peer list of up to 1000 entries, one per IP, each carrying a
  **goodcount** reputation;
* every ~40 minutes contacts a few peers: announcing itself (HELLO),
  exchanging single peer entries (PEER_REQUEST), and trading URL packs
  -- the message mixture crawlers fail to reproduce (Section 4.1.4);
* answers a peer-exchange request with *one* entry: its highest-
  goodcount peer above the propagation threshold, so unproven nodes
  (freshly injected sensors) are not propagated (Section 3.1);
* sends each exchange from a fresh random source port when routable
  (fixed-port senders exhibit the Table 2 "port range" defect);
* keeps its random integer bot ID stable for the whole session.

Like Zeus bots, Sality bots remember peer-list requesters for the
distributed crawler detector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.botnets.base import BotNode, PeerEntry, PeerList
from repro.botnets.state import PeerSlab, SlabPeerList
from repro.botnets.sality import protocol
from repro.botnets.sality.protocol import Command, SalityDecodeError, SalityMessage
from repro.net.transport import Endpoint, Message, Transport
from repro.sim.clock import MINUTE
from repro.sim.rng import random_bytes
from repro.sim.scheduler import Scheduler


@dataclass
class SalityConfig:
    """Protocol constants; defaults follow the paper."""

    peer_list_capacity: int = 1000
    cycle_interval: float = 40 * MINUTE
    contacts_per_cycle: int = 4
    announce_cycles: int = 2
    announce_fanout: int = 8
    urlpack_probability: float = 0.5
    goodcount_propagate_threshold: int = 2
    goodcount_evict_below: int = -3
    response_timeout: float = 60.0
    minor_version: int = protocol.CURRENT_MINOR_VERSION
    ephemeral_port_low: int = 10240
    ephemeral_port_high: int = 65535

    def __post_init__(self) -> None:
        if self.contacts_per_cycle < 1:
            raise ValueError("contacts_per_cycle must be >= 1")
        if not 0.0 <= self.urlpack_probability <= 1.0:
            raise ValueError("urlpack_probability must be in [0, 1]")


@dataclass(slots=True)
class _Pending:
    peer_key: bytes
    command: int
    sent_at: float
    reply_endpoint: Endpoint  # where we expect the reply (maybe ephemeral)


def _id_key(bot_id: int) -> bytes:
    return bot_id.to_bytes(4, "big")


class SalityBot(BotNode):
    """One emulated Sality v3 bot."""

    #: Inbound dispatch: raw wire command byte -> handler method name,
    #: one table per class, resolved with ``getattr`` per message (see
    #: ``ZeusBot._HANDLERS``).
    _HANDLERS = {
        int(Command.HELLO): "_on_hello",
        int(Command.PEER_REQUEST): "_on_peer_request",
        int(Command.PEER_RESPONSE): "_on_peer_response",
        int(Command.URLPACK_REQUEST): "_on_urlpack_request",
        int(Command.URLPACK_RESPONSE): "_on_urlpack_response",
    }

    __slots__ = (
        "config",
        "int_id",
        "peer_list",
        "_pending",
        "_plr_history",
        "undecodable",
        "urlpack_sequence",
        "urlpack_blob",
    )

    def __init__(
        self,
        node_id: str,
        bot_id: bytes,
        endpoint: Endpoint,
        transport: Transport,
        scheduler: Scheduler,
        rng: random.Random,
        routable: bool = True,
        config: Optional[SalityConfig] = None,
        slab: Optional[PeerSlab] = None,
    ) -> None:
        self.config = config if config is not None else SalityConfig()
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
        if len(bot_id) != 4:
            raise ValueError("Sality bot ids are 4-byte random integers")
        self.int_id = int.from_bytes(bot_id, "big")
        # A population's bots keep their lists on its shared slab;
        # sensors and standalone bots keep PeerList.
        if slab is None:
            self.peer_list = PeerList(self.config.peer_list_capacity, 32)
        else:
            self.peer_list = SlabPeerList(self.config.peer_list_capacity, 32, slab)
        self._pending: Dict[int, _Pending] = {}
        self._plr_history: List[Tuple[float, int]] = []
        self.undecodable = 0
        self.urlpack_sequence = 1
        self.urlpack_blob = random_bytes(self.rng, 32)

    # -- bootstrap / detection hooks ----------------------------------------

    def seed_peers(self, peers: List[Tuple[bytes, Endpoint]]) -> None:
        """Install a bootstrap peer list; seeded peers start reputed."""
        own = self.bot_id
        self.peer_list.seed(
            [row for row in peers if row[0] != own],
            self.scheduler.now,
            self.config.goodcount_propagate_threshold,
        )

    def peer_list_requesters(self, since: float, until: Optional[float] = None) -> List[Tuple[float, int]]:
        """(time, ip) of peer-exchange requests received in [since, until)."""
        return [
            (time, ip)
            for time, ip in self._plr_history
            if time >= since and (until is None or time < until)
        ]

    # -- periodic behaviour ---------------------------------------------------

    def run_cycle(self) -> None:
        now = self.scheduler.now
        self._expire_pending(now)
        entries = self.peer_list.entries()
        if not entries:
            return
        if self.counters.cycles <= self.config.announce_cycles:
            # Joining bots actively announce until enough peers know them.
            fanout = min(self.config.announce_fanout, len(entries))
            for entry in self.rng.sample(entries, fanout):
                self._send_request(entry, Command.HELLO, protocol.encode_hello(self.endpoint.port))
        count = min(self.config.contacts_per_cycle, len(entries))
        for entry in self.rng.sample(entries, count):
            # One peer-exchange request per neighbor per cycle, with URL
            # pack exchanges interspersed, as real bots do.
            if self.rng.random() < self.config.urlpack_probability:
                payload = self.urlpack_sequence.to_bytes(4, "big")
                self._send_request(entry, Command.URLPACK_REQUEST, payload)
            else:
                self._send_request(entry, Command.PEER_REQUEST, b"")

    def _expire_pending(self, now: float) -> None:
        expired = [
            nonce
            for nonce, pending in self._pending.items()
            if now - pending.sent_at > self.config.response_timeout
        ]
        for nonce in expired:
            pending = self._pending.pop(nonce)
            self._penalize(pending.peer_key)
            self._release_ephemeral(pending.reply_endpoint)

    def _penalize(self, peer_key: bytes) -> None:
        entry = self.peer_list.get(peer_key)
        if entry is None:
            return
        entry.goodcount -= 1
        if entry.goodcount <= self.config.goodcount_evict_below:
            self.peer_list.remove(peer_key)

    def _credit(self, peer_key: bytes) -> None:
        entry = self.peer_list.get(peer_key)
        if entry is not None:
            entry.goodcount += 1
            entry.last_seen = self.scheduler.now
            entry.failures = 0

    # -- source-port randomization ------------------------------------------

    def _exchange_endpoint(self) -> Endpoint:
        """A fresh random source port for one exchange (routable bots).

        NATed bots keep their gateway-mapped endpoint: the NAT rewrites
        source ports anyway.
        """
        if not self.routable:
            return self.endpoint
        for _ in range(16):
            port = self.rng.randrange(
                self.config.ephemeral_port_low, self.config.ephemeral_port_high + 1
            )
            candidate = Endpoint(self.endpoint.ip, port)
            if not self.transport.is_bound(candidate):
                self.transport.bind(candidate, self._on_message, routable=self.routable)
                return candidate
        return self.endpoint  # port space exhausted; fall back

    def _release_ephemeral(self, endpoint: Endpoint) -> None:
        if endpoint != self.endpoint:
            self.transport.unbind(endpoint)

    def _send_request(self, entry: PeerEntry, command: int, payload: bytes) -> None:
        message = protocol.make_message(
            command=command,
            bot_id=self.int_id,
            rng=self.rng,
            payload=payload,
            minor_version=self.config.minor_version,
        )
        source = self._exchange_endpoint()
        self._pending[message.nonce] = _Pending(
            peer_key=entry.bot_id,
            command=command,
            sent_at=self.scheduler.now,
            reply_endpoint=source,
        )
        self.counters.messages_out += 1
        self.transport.send(source, entry.endpoint, protocol.encode_packet(message))

    # -- inbound ---------------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        try:
            decoded = protocol.decode_packet(message.payload)
        except SalityDecodeError:
            self.undecodable += 1
            return
        name = self._HANDLERS.get(decoded.command)
        if name is not None:
            getattr(self, name)(decoded, message.src)

    def _reply(self, request: SalityMessage, src: Endpoint, command: int, payload: bytes) -> None:
        reply = protocol.make_message(
            command=command,
            bot_id=self.int_id,
            rng=self.rng,
            payload=payload,
            nonce=request.nonce,  # replies echo the nonce
            minor_version=self.config.minor_version,
        )
        self.counters.requests_served += 1
        self.send(src, protocol.encode_packet(reply))

    # requests ---------------------------------------------------------------

    def _on_hello(self, request: SalityMessage, src: Endpoint) -> None:
        peer_key = _id_key(request.bot_id)
        if request.nonce in self._pending:
            # Echo of our own announcement: credit the responder.
            pending = self._pending.pop(request.nonce)
            self._credit(pending.peer_key)
            self._release_ephemeral(pending.reply_endpoint)
            return
        advertised_port = protocol.decode_hello(request.payload)
        if peer_key != self.bot_id:
            self.peer_list.add(
                PeerEntry(
                    bot_id=peer_key,
                    endpoint=Endpoint(src.ip, advertised_port),
                    last_seen=self.scheduler.now,
                    goodcount=0,  # unproven until it answers our probes
                )
            )
        self._reply(request, src, Command.HELLO, protocol.encode_hello(self.endpoint.port))

    def _on_peer_request(self, request: SalityMessage, src: Endpoint) -> None:
        self._plr_history.append((self.scheduler.now, src.ip))
        candidates = self.peer_list.propagation_candidates(
            self.config.goodcount_propagate_threshold, src.ip, _id_key(request.bot_id)
        )
        if candidates:
            # One entry per response, chosen with goodcount-weighted
            # probability: well-reputed peers are named again and
            # again, poorly-known ones only surface across many
            # requests.  This reputation skew plus the single-entry
            # limit is why Sality crawlers must hammer each bot to
            # cover its peer list (Section 4.1.5).
            weights = [(1 + max(0, goodcount)) ** 2 for _, _, goodcount in candidates]
            bot_id, endpoint, _ = self.rng.choices(candidates, weights=weights, k=1)[0]
            payload = protocol.encode_peer_entry(int.from_bytes(bot_id, "big"), endpoint)
        else:
            payload = b""
        self._reply(request, src, Command.PEER_RESPONSE, payload)

    def _on_urlpack_request(self, request: SalityMessage, src: Endpoint) -> None:
        payload = protocol.encode_urlpack(self.urlpack_sequence, self.urlpack_blob)
        self._reply(request, src, Command.URLPACK_RESPONSE, payload)

    # replies -----------------------------------------------------------------

    def _match_pending(self, reply: SalityMessage, expected: int) -> Optional[_Pending]:
        pending = self._pending.get(reply.nonce)
        if pending is None or pending.command != expected:
            return None
        del self._pending[reply.nonce]
        self._credit(pending.peer_key)
        self._release_ephemeral(pending.reply_endpoint)
        return pending

    def _on_peer_response(self, reply: SalityMessage, src: Endpoint) -> None:
        if self._match_pending(reply, Command.PEER_REQUEST) is None:
            return
        try:
            entry = protocol.decode_peer_entry(reply.payload)
        except SalityDecodeError:
            return
        if entry is None:
            return
        peer_id, endpoint = entry
        peer_key = _id_key(peer_id)
        if peer_key != self.bot_id:
            self.peer_list.add(
                PeerEntry(bot_id=peer_key, endpoint=endpoint, last_seen=self.scheduler.now, goodcount=0)
            )

    def _on_urlpack_response(self, reply: SalityMessage, src: Endpoint) -> None:
        if self._match_pending(reply, Command.URLPACK_REQUEST) is None:
            return
        try:
            sequence, blob = protocol.decode_urlpack(reply.payload)
        except SalityDecodeError:
            return
        if sequence > self.urlpack_sequence:
            self.urlpack_sequence = sequence
            self.urlpack_blob = blob

    def stop(self) -> None:
        """Going offline releases every ephemeral exchange port."""
        for pending in self._pending.values():
            self._release_ephemeral(pending.reply_endpoint)
        self._pending.clear()
        super().stop()
