"""Struct-of-arrays population state.

Object-per-peer storage dominates memory once populations reach paper
scale (Section 5 crawls cover 5k-200k bots, each holding up to 1000
peer entries).  This module keeps the hot per-peer scalars in flat
parallel arrays instead:

* :class:`PeerSlab` -- one population-wide arena of peer-entry columns
  (id, endpoint, last_seen, failures, goodcount) with a free-slot list,
  shared by every bot's peer list;
* :class:`SlabPeerList` -- a drop-in replacement for
  :class:`repro.botnets.base.PeerList` whose per-bot state is just an
  insertion-ordered ``{bot_id: slot}`` dict plus a subnet index;
* :class:`SlabPeerEntry` -- a two-word flyweight view over one slot,
  duck-typed like :class:`repro.botnets.base.PeerEntry`;
* :class:`PopulationState` -- the per-population registry tying node
  indices to an online-flag bytearray and the shared slab.

A population's Zeus and Sality bots build their ``SlabPeerList`` on the
state's slab directly (sensors, sinkholes and standalone bots keep the
object-backed ``PeerList``); the bootstrap fills each list with one
:meth:`SlabPeerList.seed` call.

Behaviour is bit-for-bit identical to the object backend: iteration
order is dict insertion order, eviction picks the first-encountered
stalest entry, and the subnet filter keeps at most one entry per
masked prefix.  ``tests/botnets/test_state_properties.py`` checks the
two backends against each other operation by operation.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.botnets.base import PeerEntry
from repro.net.address import subnet_key
from repro.net.transport import Endpoint

#: Cap on :attr:`PeerSlab.subnet_keys`.  A population has a few
#: thousand networks (1,261 /20s at 20k Zeus bots); the cap only bites
#: when junk peers spray addresses, and then the table is cleared
#: wholesale and refills, as ``repro.net.transport``'s endpoint intern
#: table is.
SUBNET_KEYS_MAX = 1 << 17


class PeerSlab:
    """Arena of peer-entry columns shared by a population's peer lists.

    Slots are recycled through a free list, so steady-state churn in
    peer lists allocates no new storage.  Columns grow by appending,
    i.e. geometrically via list/array over-allocation.

    ``id_table`` holds one ``(bot_id, id_int)`` row per population bot,
    filled by :meth:`PopulationState.adopt`.  :meth:`alloc` stores a
    known bot's row objects instead of the caller's, so every slot
    naming that bot, in any bot's peer list, shares one ``bytes`` and
    one ``int`` (a decoded peer entry is a fresh slice each time).  IDs
    outside the population -- sensors, crawlers, junk -- keep private
    copies and never enter the table, so it stays one row per bot.

    ``subnet_keys`` interns the subnet keys that the peer lists' filter
    indexes store (:meth:`intern_subnet`): ``ip & mask`` makes a fresh
    ``int`` per call, so without it every slot held its own key object,
    while a population has only a few thousand networks.
    """

    __slots__ = (
        "ids", "id_ints", "endpoints", "last_seen", "failures", "goodcount", "id_table",
        "subnet_keys", "_free",
    )

    def __init__(self) -> None:
        self.ids: List[bytes] = []
        # Big-endian integer form of each id, precomputed so XOR-metric
        # peer selection never re-parses the 20-byte ids.
        self.id_ints: List[int] = []
        self.endpoints: list = []
        self.last_seen = array("d")
        self.failures = array("i")
        self.goodcount = array("i")
        self.id_table: Dict[bytes, Tuple[bytes, int]] = {}
        self.subnet_keys: Dict[int, int] = {}
        self._free: List[int] = []

    def __len__(self) -> int:
        return len(self.ids) - len(self._free)

    @property
    def capacity(self) -> int:
        """Total slots ever allocated (live + free)."""
        return len(self.ids)

    def alloc(self, bot_id: bytes, endpoint, last_seen: float, failures: int, goodcount: int) -> int:
        row = self.id_table.get(bot_id)
        if row is None:
            id_int = int.from_bytes(bot_id, "big")
        else:
            bot_id, id_int = row
        free = self._free
        if free:
            slot = free.pop()
            self.ids[slot] = bot_id
            self.id_ints[slot] = id_int
            self.endpoints[slot] = endpoint
            self.last_seen[slot] = last_seen
            self.failures[slot] = failures
            self.goodcount[slot] = goodcount
            return slot
        slot = len(self.ids)
        self.ids.append(bot_id)
        self.id_ints.append(id_int)
        self.endpoints.append(endpoint)
        self.last_seen.append(last_seen)
        self.failures.append(failures)
        self.goodcount.append(goodcount)
        return slot

    def intern_subnet(self, key: int) -> int:
        """The table's one ``int`` equal to ``key``, entered on first
        use; past :data:`SUBNET_KEYS_MAX` keys the table starts over."""
        table = self.subnet_keys
        shared = table.get(key)
        if shared is None:
            if len(table) >= SUBNET_KEYS_MAX:
                table.clear()
            table[key] = shared = key
        return shared

    def release(self, slot: int) -> None:
        # Drop object refs so freed peers do not pin ids/endpoints.
        self.ids[slot] = b""
        self.id_ints[slot] = 0
        self.endpoints[slot] = None
        self._free.append(slot)


class SlabPeerEntry:
    """Flyweight view of one slab slot; duck-typed like ``PeerEntry``."""

    __slots__ = ("_slab", "_slot")

    def __init__(self, slab: PeerSlab, slot: int) -> None:
        self._slab = slab
        self._slot = slot

    @property
    def bot_id(self) -> bytes:
        return self._slab.ids[self._slot]

    @property
    def endpoint(self):
        return self._slab.endpoints[self._slot]

    @endpoint.setter
    def endpoint(self, value) -> None:
        self._slab.endpoints[self._slot] = value

    @property
    def last_seen(self) -> float:
        return self._slab.last_seen[self._slot]

    @last_seen.setter
    def last_seen(self, value: float) -> None:
        self._slab.last_seen[self._slot] = value

    @property
    def failures(self) -> int:
        return self._slab.failures[self._slot]

    @failures.setter
    def failures(self, value: int) -> None:
        self._slab.failures[self._slot] = value

    @property
    def goodcount(self) -> int:
        return self._slab.goodcount[self._slot]

    @goodcount.setter
    def goodcount(self, value: int) -> None:
        self._slab.goodcount[self._slot] = value

    def __repr__(self) -> str:  # debugging aid
        return (
            f"SlabPeerEntry(bot_id={self.bot_id!r}, endpoint={self.endpoint}, "
            f"last_seen={self.last_seen}, failures={self.failures}, "
            f"goodcount={self.goodcount})"
        )


class SlabPeerList:
    """Slab-backed peer list; API- and behaviour-compatible with
    :class:`repro.botnets.base.PeerList`.

    Per-bot state is one insertion-ordered ``{bot_id: slot}`` dict (the
    iteration-order contract every family relies on) plus the optional
    ``{subnet_key: slot}`` filter index.  Both dicts hold the same slot
    ``int`` object, and the index keys come from the slab's
    ``subnet_keys`` table, so all slots in one network share one key.
    """

    __slots__ = ("capacity", "ip_filter_prefix", "_slab", "_slots", "_subnets")

    def __init__(self, capacity: int, ip_filter_prefix: Optional[int], slab: PeerSlab) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if ip_filter_prefix is not None and not 0 < ip_filter_prefix <= 32:
            raise ValueError(f"bad ip_filter_prefix: {ip_filter_prefix}")
        self.capacity = capacity
        self.ip_filter_prefix = ip_filter_prefix
        self._slab = slab
        self._slots: Dict[bytes, int] = {}
        self._subnets: Optional[Dict[int, int]] = (
            {} if ip_filter_prefix is not None else None
        )

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, bot_id: bytes) -> bool:
        return bot_id in self._slots

    def __iter__(self) -> Iterator[SlabPeerEntry]:
        return iter(self.entries())

    def get(self, bot_id: bytes) -> Optional[SlabPeerEntry]:
        slot = self._slots.get(bot_id)
        if slot is None:
            return None
        return SlabPeerEntry(self._slab, slot)

    def entries(self) -> List[SlabPeerEntry]:
        slab = self._slab
        return [SlabPeerEntry(slab, slot) for slot in self._slots.values()]

    def ids(self) -> Set[bytes]:
        return set(self._slots)

    def ips(self) -> Set[int]:
        endpoints = self._slab.endpoints
        return {endpoints[slot].ip for slot in self._slots.values()}

    def maintenance_view(self) -> list:
        """(bot_id, endpoint, failures) tuples sorted by last_seen.

        Same ordering contract as ``PeerList.maintenance_view``: stable
        sort over insertion order, so same-time entries keep their
        relative positions.  Built straight from the slab columns --
        no flyweights on the cycle hot path.
        """
        slab = self._slab
        last_seen = slab.last_seen
        order = sorted(self._slots.values(), key=last_seen.__getitem__)
        ids = slab.ids
        endpoints = slab.endpoints
        failures = slab.failures
        return [(ids[slot], endpoints[slot], failures[slot]) for slot in order]

    def closest(self, lookup_key: bytes, exclude_id: bytes, limit: int) -> list:
        """The ``limit`` (bot_id, endpoint) pairs XOR-closest to
        ``lookup_key``, excluding ``exclude_id``.

        Matches ``PeerList.closest`` / ``protocol.select_closest``
        exactly; distances come from the slab's precomputed id
        integers instead of per-call ``int.from_bytes``.
        """
        key_int = int.from_bytes(lookup_key, "big")
        slab = self._slab
        ids = slab.ids
        id_ints = slab.id_ints
        ranked = sorted(
            [
                (key_int ^ id_ints[slot], slot)
                for bot_id, slot in self._slots.items()
                if bot_id != exclude_id
            ]
        )
        endpoints = slab.endpoints
        return [(ids[slot], endpoints[slot]) for _, slot in ranked[:limit]]

    def propagation_candidates(self, min_goodcount: int, exclude_ip: int, exclude_id: bytes) -> list:
        """(bot_id, endpoint, goodcount) rows, in insertion order, of
        the entries with goodcount >= ``min_goodcount`` that are neither
        at ``exclude_ip`` nor ``exclude_id``.

        Matches ``PeerList.propagation_candidates``; read straight from
        the slab columns, so a Sality reply builds no flyweights.
        """
        slab = self._slab
        goodcount = slab.goodcount
        endpoints = slab.endpoints
        return [
            (bot_id, endpoint, count)
            for bot_id, slot in self._slots.items()
            if (count := goodcount[slot]) >= min_goodcount
            and (endpoint := endpoints[slot]).ip != exclude_ip
            and bot_id != exclude_id
        ]

    def _conflict_slot(self, bot_id: bytes, ip: int) -> Optional[int]:
        if self._subnets is None:
            return None
        occupant = self._subnets.get(subnet_key(ip, self.ip_filter_prefix))
        if occupant is None or self._slab.ids[occupant] == bot_id:
            return None
        return occupant

    def _index_add(self, slot: int, ip: int) -> None:
        if self._subnets is not None:
            key = self._slab.intern_subnet(subnet_key(ip, self.ip_filter_prefix))
            self._subnets[key] = slot

    def _index_drop(self, ip: int) -> None:
        if self._subnets is not None:
            self._subnets.pop(subnet_key(ip, self.ip_filter_prefix), None)

    def add(self, entry) -> bool:
        """Insert or refresh; same rules (and tie-breaks) as PeerList."""
        slab = self._slab
        bot_id = entry.bot_id
        slot = self._slots.get(bot_id)
        if slot is not None:
            old_endpoint = slab.endpoints[slot]
            new_endpoint = entry.endpoint
            if old_endpoint != new_endpoint:
                if self._conflict_slot(bot_id, new_endpoint.ip) is not None:
                    # Address update into an occupied subnet: rejected,
                    # the entry stays alive at its old address.
                    if entry.last_seen > slab.last_seen[slot]:
                        slab.last_seen[slot] = entry.last_seen
                    return True
                self._index_drop(old_endpoint.ip)
                slab.endpoints[slot] = new_endpoint
                self._index_add(slot, new_endpoint.ip)
            if entry.last_seen > slab.last_seen[slot]:
                slab.last_seen[slot] = entry.last_seen
            return True
        if self._conflict_slot(bot_id, entry.endpoint.ip) is not None:
            return False
        if len(self._slots) >= self.capacity:
            last_seen = slab.last_seen
            stalest_id = None
            stalest_slot = -1
            stalest_seen = float("inf")
            for candidate_id, candidate_slot in self._slots.items():
                seen = last_seen[candidate_slot]
                if seen < stalest_seen:  # strict: keep first-encountered
                    stalest_seen = seen
                    stalest_id = candidate_id
                    stalest_slot = candidate_slot
            if stalest_seen >= entry.last_seen:
                return False
            del self._slots[stalest_id]
            self._index_drop(slab.endpoints[stalest_slot].ip)
            slab.release(stalest_slot)
        slot = slab.alloc(bot_id, entry.endpoint, entry.last_seen, entry.failures, entry.goodcount)
        # Key by the slab's stored id: a population bot's shared object.
        self._slots[slab.ids[slot]] = slot
        self._index_add(slot, entry.endpoint.ip)
        return True

    def seed(self, rows: Iterable[Tuple[bytes, Endpoint]], last_seen: float, goodcount: int = 0) -> None:
        """Add each ``(bot_id, endpoint)`` row in order, as
        ``add(PeerEntry(bot_id, endpoint, last_seen, 0, goodcount))``:
        how a bootstrap list is installed (same as ``PeerList.seed``)."""
        add = self.add
        for bot_id, endpoint in rows:
            add(PeerEntry(bot_id, endpoint, last_seen, 0, goodcount))

    def remove(self, bot_id: bytes) -> bool:
        slot = self._slots.pop(bot_id, None)
        if slot is None:
            return False
        self._index_drop(self._slab.endpoints[slot].ip)
        self._slab.release(slot)
        return True

    def touch(self, bot_id: bytes, now: float) -> None:
        slot = self._slots.get(bot_id)
        if slot is not None:
            slab = self._slab
            slab.last_seen[slot] = now
            slab.failures[slot] = 0

    def record_failure(self, bot_id: bytes, evict_after: int) -> bool:
        slot = self._slots.get(bot_id)
        if slot is None:
            return False
        slab = self._slab
        failures = slab.failures[slot] + 1
        slab.failures[slot] = failures
        if failures >= evict_after:
            del self._slots[bot_id]
            self._index_drop(slab.endpoints[slot].ip)
            slab.release(slot)
            return True
        return False


class PopulationState:
    """SoA registry for one population: node indices, online flags, and
    the shared peer slab with its population ID table.

    ``online`` mirrors each bot's online flag (bots write through to it
    from :attr:`repro.botnets.base.BotNode.online`), so population-wide
    liveness scans are a single bytearray pass instead of an attribute
    walk over every bot object.  :meth:`adopt` enters each bot's ID in
    ``slab.id_table``, so peer slots naming it share the bot's own ID
    object.  The bots' peer lists are built on ``slab`` by their
    network's ``make_bot``.
    """

    __slots__ = ("node_ids", "index_of", "online", "slab")

    def __init__(self) -> None:
        self.node_ids: List[str] = []
        self.index_of: Dict[str, int] = {}
        self.online = bytearray()
        self.slab = PeerSlab()

    def __len__(self) -> int:
        return len(self.node_ids)

    def register(self, node_id: str) -> int:
        if node_id in self.index_of:
            raise ValueError(f"node already registered: {node_id}")
        index = len(self.node_ids)
        self.node_ids.append(node_id)
        self.index_of[node_id] = index
        self.online.append(0)
        return index

    def online_count(self) -> int:
        return sum(self.online)

    def adopt(self, bot) -> None:
        """Attach a freshly built bot to this state: register the node
        and enter its ID in the slab's ID table."""
        index = self.register(bot.node_id)
        bot.attach_state(self, index)
        bot_id = bot.bot_id
        self.slab.id_table[bot_id] = (bot_id, int.from_bytes(bot_id, "big"))

    def stats(self) -> Dict[str, int]:
        """Occupancy numbers for bench memory line items."""
        return {
            "nodes": len(self.node_ids),
            "online": self.online_count(),
            "peer_slots_live": len(self.slab),
            "peer_slots_allocated": self.slab.capacity,
        }
