"""Generic P2P bot machinery shared by every emulated family.

Every P2P botnet in the paper's corpus maintains, per bot, a *peer
list* of (bot id, address) entries, refreshed through periodic peer
list exchanges, with unresponsive peers evicted.  The family-specific
subclasses (:mod:`repro.botnets.zeus`, :mod:`repro.botnets.sality`)
supply wire formats, peer-selection metrics, cycle timing, and
anti-recon behaviour on top of this base.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.net.address import subnet_key
from repro.net.transport import Endpoint, Message, Transport
from repro.sim.scheduler import Scheduler, Timer


@dataclass(slots=True)
class PeerEntry:
    """One peer-list entry: protocol identity plus network address."""

    bot_id: bytes
    endpoint: Endpoint
    last_seen: float = 0.0
    failures: int = 0
    goodcount: int = 0  # Sality reputation; unused by other families


class PeerList:
    """Capacity-bounded peer list with an optional per-subnet IP filter.

    ``ip_filter_prefix`` implements the deterrence measures of paper
    Table 1: 32 keeps at most one entry per IP (Sality, ZeroAccess,
    Hlux, Waledac), 20 keeps one per /20 subnet (GameOver Zeus), and
    ``None`` disables the filter (Storm).
    """

    def __init__(self, capacity: int, ip_filter_prefix: Optional[int] = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if ip_filter_prefix is not None and not 0 < ip_filter_prefix <= 32:
            raise ValueError(f"bad ip_filter_prefix: {ip_filter_prefix}")
        self.capacity = capacity
        self.ip_filter_prefix = ip_filter_prefix
        self._entries: Dict[bytes, PeerEntry] = {}
        # Subnet-occupancy index for O(1) filter checks.  add() keeps
        # at most one entry per subnet, so a plain dict suffices.
        self._subnets: Optional[Dict[int, PeerEntry]] = (
            {} if ip_filter_prefix is not None else None
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, bot_id: bytes) -> bool:
        return bot_id in self._entries

    def __iter__(self) -> Iterator[PeerEntry]:
        return iter(list(self._entries.values()))

    def get(self, bot_id: bytes) -> Optional[PeerEntry]:
        return self._entries.get(bot_id)

    def entries(self) -> List[PeerEntry]:
        return list(self._entries.values())

    def ids(self) -> Set[bytes]:
        return set(self._entries)

    def ips(self) -> Set[int]:
        return {entry.endpoint.ip for entry in self._entries.values()}

    def maintenance_view(self) -> List[Tuple[bytes, Endpoint, int]]:
        """(bot_id, endpoint, failures) tuples sorted by last_seen.

        The shape bot maintenance cycles consume: a stable sort over
        insertion order, snapshotted as plain tuples so the slab
        backend can produce the identical view without materializing
        entry objects.
        """
        ordered = sorted(self._entries.values(), key=lambda e: e.last_seen)
        return [(e.bot_id, e.endpoint, e.failures) for e in ordered]

    def closest(self, lookup_key: bytes, exclude_id: bytes, limit: int) -> List[Tuple[bytes, Endpoint]]:
        """The ``limit`` (bot_id, endpoint) pairs XOR-closest to
        ``lookup_key``, excluding ``exclude_id`` (the requester).

        Selection semantics are exactly
        :func:`repro.botnets.zeus.protocol.select_closest` over this
        list's entries; the slab backend overrides this with a
        column-level implementation."""
        key_int = int.from_bytes(lookup_key, "big")
        from_bytes = int.from_bytes
        pairs = [
            (entry.bot_id, entry.endpoint)
            for entry in self._entries.values()
            if entry.bot_id != exclude_id
        ]
        pairs.sort(key=lambda item: key_int ^ from_bytes(item[0], "big"))
        return pairs[:limit]

    def propagation_candidates(
        self, min_goodcount: int, exclude_ip: int, exclude_id: bytes
    ) -> List[Tuple[bytes, Endpoint, int]]:
        """(bot_id, endpoint, goodcount) rows, in insertion order, of
        the entries with goodcount >= ``min_goodcount`` that are neither
        at ``exclude_ip`` nor ``exclude_id`` (the requester).

        The peers a Sality bot may name in a peer-exchange reply; the
        slab backend overrides this with a column-level scan."""
        return [
            (entry.bot_id, entry.endpoint, entry.goodcount)
            for entry in self._entries.values()
            if entry.goodcount >= min_goodcount
            and entry.endpoint.ip != exclude_ip
            and entry.bot_id != exclude_id
        ]

    def _subnet_conflict(self, candidate: PeerEntry) -> Optional[PeerEntry]:
        if self._subnets is None:
            return None
        occupant = self._subnets.get(
            subnet_key(candidate.endpoint.ip, self.ip_filter_prefix)
        )
        if occupant is None or occupant.bot_id == candidate.bot_id:
            return None
        return occupant

    def _index_add(self, entry: PeerEntry) -> None:
        if self._subnets is not None:
            self._subnets[subnet_key(entry.endpoint.ip, self.ip_filter_prefix)] = entry

    def _index_drop(self, entry: PeerEntry) -> None:
        if self._subnets is not None:
            self._subnets.pop(subnet_key(entry.endpoint.ip, self.ip_filter_prefix), None)

    def add(self, entry: PeerEntry) -> bool:
        """Insert or refresh ``entry``.

        Returns True if the entry is present afterwards.  Rules, in
        order: an existing entry with the same bot id is refreshed
        in-place (address updates follow IP churn); the subnet filter
        rejects a *different* bot in an occupied subnet; at capacity the
        stalest entry is evicted iff the newcomer is fresher.
        """
        existing = self._entries.get(entry.bot_id)
        if existing is not None:
            # An address update must still respect the subnet filter:
            # moving into an occupied subnet is rejected (the entry
            # stays alive at its old address).
            if existing.endpoint != entry.endpoint:
                if self._subnet_conflict(entry) is not None:
                    existing.last_seen = max(existing.last_seen, entry.last_seen)
                    return True
                self._index_drop(existing)
                existing.endpoint = entry.endpoint
                self._index_add(existing)
            else:
                existing.endpoint = entry.endpoint
            existing.last_seen = max(existing.last_seen, entry.last_seen)
            return True
        if self._subnet_conflict(entry) is not None:
            return False
        if len(self._entries) >= self.capacity:
            stalest = min(self._entries.values(), key=lambda e: e.last_seen)
            if stalest.last_seen >= entry.last_seen:
                return False
            del self._entries[stalest.bot_id]
            self._index_drop(stalest)
        self._entries[entry.bot_id] = entry
        self._index_add(entry)
        return True

    def seed(self, rows: Iterable[Tuple[bytes, Endpoint]], last_seen: float, goodcount: int = 0) -> None:
        """Add each ``(bot_id, endpoint)`` row in order, as
        ``add(PeerEntry(bot_id, endpoint, last_seen, 0, goodcount))``:
        how a bootstrap list is installed."""
        add = self.add
        for bot_id, endpoint in rows:
            add(PeerEntry(bot_id, endpoint, last_seen, 0, goodcount))

    def remove(self, bot_id: bytes) -> bool:
        entry = self._entries.pop(bot_id, None)
        if entry is None:
            return False
        self._index_drop(entry)
        return True

    def touch(self, bot_id: bytes, now: float) -> None:
        """Mark a peer responsive: refresh last_seen, clear failures."""
        entry = self._entries.get(bot_id)
        if entry is not None:
            entry.last_seen = now
            entry.failures = 0

    def record_failure(self, bot_id: bytes, evict_after: int) -> bool:
        """Count an unanswered probe; evict after ``evict_after`` misses.

        Returns True if the peer was evicted.  This is the eviction
        mechanism that forces sensors to implement enough protocol to
        keep answering probes (Section 2.2).
        """
        entry = self._entries.get(bot_id)
        if entry is None:
            return False
        entry.failures += 1
        if entry.failures >= evict_after:
            del self._entries[bot_id]
            self._index_drop(entry)
            return True
        return False


@dataclass(slots=True)
class BotCounters:
    """Per-bot traffic counters used by tests and coverage metrics."""

    messages_in: int = 0
    messages_out: int = 0
    requests_served: int = 0
    cycles: int = 0


class BotNode:
    """Base class for protocol bots, sensors, and crawler endpoints.

    Subclasses implement :meth:`handle_message` (inbound dispatch) and
    :meth:`run_cycle` (the periodic active behaviour between suspend
    periods).  The base class owns binding, the cycle timer, and
    counters.

    Hot classes are slotted; subclasses that need ad-hoc attributes
    (sensors, crawlers, test spies) simply omit ``__slots__`` and get a
    normal instance dict on top.
    """

    __slots__ = (
        "node_id",
        "bot_id",
        "endpoint",
        "transport",
        "scheduler",
        "rng",
        "routable",
        "cycle_interval",
        "cycle_jitter",
        "counters",
        "gossip_suppressed",
        "_cycle_timer",
        "_online",
        "_state",
        "_index",
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
        cycle_interval: float = 1800.0,
        cycle_jitter: float = 0.1,
    ) -> None:
        self.node_id = node_id
        self.bot_id = bot_id
        self.endpoint = endpoint
        self.transport = transport
        self.scheduler = scheduler
        self.rng = rng
        self.routable = routable
        self.cycle_interval = cycle_interval
        self.cycle_jitter = cycle_jitter
        self.counters = BotCounters()
        self._online = False
        self._state = None  # PopulationState, when adopted (SoA backend)
        self._index = -1
        # Gossip suppression (the "mute" node fault): the node stays
        # bound and keeps answering, but its periodic active behaviour
        # is skipped -- a leader that silently stops participating.
        self.gossip_suppressed = False
        self._cycle_timer: Optional[Timer] = None

    # -- population state -------------------------------------------------

    @property
    def online(self) -> bool:
        return self._online

    @online.setter
    def online(self, value: bool) -> None:
        self._online = value
        state = self._state
        if state is not None:
            state.online[self._index] = 1 if value else 0

    def attach_state(self, state, index: int) -> None:
        """Bind this bot to a :class:`~repro.botnets.state.PopulationState`
        slot; the state's online column mirrors this bot from then on."""
        self._state = state
        self._index = index
        state.online[index] = 1 if self._online else 0

    # -- lifecycle -------------------------------------------------------

    def start(self, first_cycle_delay: Optional[float] = None) -> None:
        """Bind the endpoint and begin the suspend/request cycle."""
        if self.online:
            return
        self.transport.bind(self.endpoint, self._on_message, routable=self.routable)
        self.online = True
        if first_cycle_delay is None:
            # Stagger initial cycles uniformly so the population does
            # not fire in lock-step.
            first_cycle_delay = self.rng.uniform(0, self.cycle_interval)
        self._cycle_timer = self.scheduler.call_every(first_cycle_delay, self._cycle)

    def stop(self) -> None:
        if not self.online:
            return
        self.online = False
        self.transport.unbind(self.endpoint)
        if self._cycle_timer is not None:
            self._cycle_timer.cancel()
            self._cycle_timer = None

    def rebind(self, new_endpoint: Endpoint) -> None:
        """Move to a new address (IP churn) without losing state."""
        if self.online:
            self.transport.rebind(self.endpoint, new_endpoint)
        self.endpoint = new_endpoint

    # -- messaging --------------------------------------------------------

    def send(self, dst: Endpoint, payload: bytes) -> bool:
        self.counters.messages_out += 1
        return self.transport.send(self.endpoint, dst, payload)

    def _on_message(self, message: Message) -> None:
        self.counters.messages_in += 1
        self.handle_message(message)

    def handle_message(self, message: Message) -> None:
        raise NotImplementedError

    # -- periodic behaviour -------------------------------------------------

    def _cycle(self) -> Optional[float]:
        """One repeating-timer occurrence; returns the next delay.

        Scheduled via :meth:`Scheduler.call_every`, so one Timer handle
        covers the bot's whole lifetime instead of a fresh closure per
        cycle.  Going offline ends the cycle by returning None.
        """
        if not self.online:
            return None
        if not self.gossip_suppressed:
            self.counters.cycles += 1
            self.run_cycle()
        jitter = self.rng.uniform(1 - self.cycle_jitter, 1 + self.cycle_jitter)
        return self.cycle_interval * jitter

    def run_cycle(self) -> None:
        raise NotImplementedError
