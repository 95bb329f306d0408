"""GameOver Zeus bot behaviour.

A Zeus bot:

* keeps a peer list of up to 150 entries (typically ~50), at most one
  per /20 subnet;
* every ~30 minutes (the suspend cycle) verifies a few of its stalest
  peers with version requests, evicting peers that miss 5 probes, and
  tops up its peer list with *one peer-list request per neighbor* when
  short on peers;
* answers peer-list requests with the ≤10 stored entries XOR-closest
  to the request's lookup key, and learns the requester (push);
* answers version / proxy-list / update (data) requests -- the message
  types in-the-wild sensors failed to implement (Section 4.2);
* encrypts every outgoing message under the recipient's bot ID and
  drops inbound messages that do not decrypt under its own ID;
* enforces both blacklisting mechanisms of Section 3.2.

Bots additionally remember which IPs requested their peer list and
when (:meth:`ZeusBot.peer_list_requesters`); the distributed crawler
detector aggregates exactly this history (Section 4.3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.botnets.antirecon import AutoBlacklister, DisinformationPolicy, StaticBlacklist
from repro.botnets.base import BotNode, PeerEntry, PeerList
from repro.botnets.state import PeerSlab, SlabPeerList
from repro.botnets.zeus import protocol
from repro.botnets.zeus.protocol import MessageType, ZeusDecodeError, ZeusMessage
from repro.net.transport import Endpoint, Message, Transport
from repro.sim.clock import MINUTE
from repro.sim.rng import random_bytes
from repro.sim.scheduler import Scheduler

DEFAULT_VERSION = 0x00030204  # "3.2.4" packed; bots compare numerically


@dataclass
class ZeusConfig:
    """Protocol constants; defaults follow the paper (Sections 3-6)."""

    peer_list_capacity: int = 150
    subnet_filter_prefix: int = 20
    peers_per_response: int = 10
    cycle_interval: float = 30 * MINUTE
    verify_per_cycle: int = 5
    plr_per_cycle: int = 2
    # Peer exchange is continuous in GameOver Zeus -- it is how new
    # peers (and injected sensors) propagate: each cycle a bot asks a
    # few random neighbors for peers even when its list is full.
    maintenance_plr_per_cycle: int = 1
    needed_peers: int = 30
    evict_after_failures: int = 5
    response_timeout: float = 60.0
    port_low: int = 1024
    port_high: int = 10000
    version: int = DEFAULT_VERSION
    auto_blacklist_window: float = 60.0
    auto_blacklist_max_requests: int = 6
    auto_blacklist_enabled: bool = True
    proxy_list_size: int = 4

    def __post_init__(self) -> None:
        if not 0 < self.port_low <= self.port_high <= 65535:
            raise ValueError("bad port range")
        if self.peers_per_response < 1:
            raise ValueError("peers_per_response must be >= 1")


@dataclass(slots=True)
class _Pending:
    peer_id: bytes
    msg_type: int
    sent_at: float


class ZeusBot(BotNode):
    """One emulated GameOver Zeus bot."""

    #: Inbound dispatch: raw wire type byte -> handler method name.  One
    #: table per class, resolved with ``getattr`` per message, so the
    #: overrides of sensors and sinkholes apply and no bot carries its
    #: own dict of bound methods.
    _HANDLERS = {
        int(MessageType.VERSION_REQUEST): "_on_version_request",
        int(MessageType.VERSION_REPLY): "_on_version_reply",
        int(MessageType.PEER_LIST_REQUEST): "_on_peer_list_request",
        int(MessageType.PEER_LIST_REPLY): "_on_peer_list_reply",
        int(MessageType.PROXY_REQUEST): "_on_proxy_request",
        int(MessageType.DATA_REQUEST): "_on_data_request",
        int(MessageType.DATA_REPLY): "_on_data_reply",
        int(MessageType.PROXY_REPLY): "_on_proxy_reply",
    }

    __slots__ = (
        "config",
        "peer_list",
        "proxy_list",
        "static_blacklist",
        "auto_blacklister",
        "disinformation",
        "_pending",
        "_plr_history",
        "undecryptable",
        "blacklist_drops",
        "config_blob",
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
        config: Optional[ZeusConfig] = None,
        static_blacklist: Optional[StaticBlacklist] = None,
        disinformation: Optional[DisinformationPolicy] = None,
        slab: Optional[PeerSlab] = None,
    ) -> None:
        self.config = config if config is not None else ZeusConfig()
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
        # A population's bots keep their lists on its shared slab;
        # sensors, sinkholes and standalone bots keep PeerList.
        if slab is None:
            self.peer_list = PeerList(
                self.config.peer_list_capacity, self.config.subnet_filter_prefix
            )
        else:
            self.peer_list = SlabPeerList(
                self.config.peer_list_capacity, self.config.subnet_filter_prefix, slab
            )
        self.proxy_list: List[Tuple[bytes, Endpoint]] = []
        self.static_blacklist = static_blacklist if static_blacklist is not None else StaticBlacklist()
        self.auto_blacklister = AutoBlacklister(
            window=self.config.auto_blacklist_window,
            max_requests=self.config.auto_blacklist_max_requests,
        )
        self.disinformation = disinformation
        self._pending: Dict[bytes, _Pending] = {}
        # (time, source ip) per peer-list request -- the detector's input.
        self._plr_history: List[Tuple[float, int]] = []
        self.undecryptable = 0
        self.blacklist_drops = 0
        self.config_blob = random_bytes(self.rng, 64)

    # -- bootstrap ---------------------------------------------------------

    def seed_peers(self, peers: List[Tuple[bytes, Endpoint]]) -> None:
        """Install a bootstrap peer list (what a dropper ships with)."""
        own = self.bot_id
        self.peer_list.seed([row for row in peers if row[0] != own], self.scheduler.now)

    # -- detection-algorithm input ------------------------------------------

    def peer_list_requesters(self, since: float, until: Optional[float] = None) -> List[Tuple[float, int]]:
        """(time, ip) of peer-list requests received in [since, until)."""
        return [
            (time, ip)
            for time, ip in self._plr_history
            if time >= since and (until is None or time < until)
        ]

    # -- periodic behaviour ---------------------------------------------------

    def run_cycle(self) -> None:
        now = self.scheduler.now
        self._expire_pending(now)
        # (bot_id, endpoint, failures) tuples sorted by last_seen; the
        # slab backend builds this straight from its columns.
        view = self.peer_list.maintenance_view()
        for peer_id, endpoint, _ in view[: self.config.verify_per_cycle]:
            self._send_request(peer_id, endpoint, MessageType.VERSION_REQUEST, b"")
        plr_budget = self.config.maintenance_plr_per_cycle
        if len(self.peer_list) < self.config.needed_peers:
            plr_budget += self.config.plr_per_cycle
        candidates = [item for item in view if item[2] == 0] or view
        count = min(plr_budget, len(candidates))
        for peer_id, endpoint, _ in self.rng.sample(candidates, count):
            # Normal semantics: lookup key is the remote peer's ID.
            self._send_request(peer_id, endpoint, MessageType.PEER_LIST_REQUEST, peer_id)

    def _expire_pending(self, now: float) -> None:
        expired = [
            sid
            for sid, pending in self._pending.items()
            if now - pending.sent_at > self.config.response_timeout
        ]
        for sid in expired:
            pending = self._pending.pop(sid)
            self.peer_list.record_failure(pending.peer_id, self.config.evict_after_failures)

    def _send_request(self, peer_id: bytes, endpoint: Endpoint, msg_type: int, payload: bytes) -> None:
        message = protocol.make_message(
            msg_type=msg_type, source_id=self.bot_id, rng=self.rng, payload=payload
        )
        self._pending[message.session_id] = _Pending(
            peer_id=peer_id, msg_type=msg_type, sent_at=self.scheduler.now
        )
        self.send(endpoint, protocol.encrypt_message(message, peer_id))

    # -- inbound ---------------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        if self.static_blacklist.is_blocked(message.src.ip):
            self.blacklist_drops += 1
            return
        try:
            decoded = protocol.decrypt_message(message.payload, self.bot_id)
        except ZeusDecodeError:
            self.undecryptable += 1
            return
        if self.auto_blacklister.is_blocked(message.src.ip):
            self.blacklist_drops += 1
            return
        name = self._HANDLERS.get(decoded.msg_type)
        if name is not None:
            getattr(self, name)(decoded, message.src)

    def _reply(self, request: ZeusMessage, src: Endpoint, msg_type: int, payload: bytes) -> None:
        reply = protocol.make_message(
            msg_type=msg_type,
            source_id=self.bot_id,
            rng=self.rng,
            payload=payload,
            session_id=request.session_id,  # replies echo the session
        )
        self.counters.requests_served += 1
        self.send(src, protocol.encrypt_message(reply, request.source_id))

    # requests from peers ------------------------------------------------------

    def _on_version_request(self, request: ZeusMessage, src: Endpoint) -> None:
        self.peer_list.touch(request.source_id, self.scheduler.now)
        payload = protocol.encode_version_reply(self.config.version, self.endpoint.port)
        self._reply(request, src, MessageType.VERSION_REPLY, payload)

    def _on_peer_list_request(self, request: ZeusMessage, src: Endpoint) -> None:
        now = self.scheduler.now
        if self.config.auto_blacklist_enabled and self.auto_blacklister.record(src.ip, now):
            self.blacklist_drops += 1
            return
        self._plr_history.append((now, src.ip))
        # Push mechanism: the requester advertises itself -- unless it
        # claims our own ID, which would file us under its address.
        if request.source_id != self.bot_id:
            self.peer_list.add(PeerEntry(bot_id=request.source_id, endpoint=src, last_seen=now))
        # XOR-nearest selection, delegated to the peer list so the slab
        # backend can rank on its precomputed id integers.
        selected = self.peer_list.closest(
            request.payload, request.source_id, self.config.peers_per_response
        )
        if self.disinformation is not None:
            selected = self.disinformation.pollute(selected)
        self._reply(request, src, MessageType.PEER_LIST_REPLY, protocol.encode_peer_entries(selected))

    def _on_proxy_request(self, request: ZeusMessage, src: Endpoint) -> None:
        self._reply(
            request, src, MessageType.PROXY_REPLY, protocol.encode_peer_entries(self.proxy_list)
        )

    def _on_data_request(self, request: ZeusMessage, src: Endpoint) -> None:
        resource = request.payload[0]
        self._reply(
            request,
            src,
            MessageType.DATA_REPLY,
            protocol.encode_data_reply(resource, self.config_blob),
        )

    # replies to our requests -----------------------------------------------------

    def _pop_pending(self, reply: ZeusMessage, expected: int) -> Optional[_Pending]:
        pending = self._pending.get(reply.session_id)
        if pending is None or pending.msg_type != expected:
            return None  # unsolicited or stale reply; ignore
        del self._pending[reply.session_id]
        self.peer_list.touch(pending.peer_id, self.scheduler.now)
        return pending

    def _on_version_reply(self, reply: ZeusMessage, src: Endpoint) -> None:
        self._pop_pending(reply, MessageType.VERSION_REQUEST)

    def _on_peer_list_reply(self, reply: ZeusMessage, src: Endpoint) -> None:
        if self._pop_pending(reply, MessageType.PEER_LIST_REQUEST) is None:
            return
        now = self.scheduler.now
        try:
            entries = protocol.decode_peer_entries(reply.payload)
        except ZeusDecodeError:
            return
        for bot_id, endpoint in entries:
            if bot_id != self.bot_id:
                self.peer_list.add(PeerEntry(bot_id=bot_id, endpoint=endpoint, last_seen=now))

    def _on_proxy_reply(self, reply: ZeusMessage, src: Endpoint) -> None:
        self._pop_pending(reply, MessageType.PROXY_REQUEST)

    def _on_data_reply(self, reply: ZeusMessage, src: Endpoint) -> None:
        self._pop_pending(reply, MessageType.DATA_REQUEST)
