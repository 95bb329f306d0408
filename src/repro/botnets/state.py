"""Struct-of-arrays population state.

Object-per-peer storage dominates memory once populations reach paper
scale (Section 5 crawls cover 5k-200k bots, each holding up to 1000
peer entries).  This module keeps the hot per-peer scalars in flat
columns instead:

* :class:`SlabPeerList` -- a drop-in replacement for
  :class:`repro.botnets.base.PeerList` that owns one column per field
  (ID ints, endpoints, subnet keys, last_seen, failures, goodcount)
  and indexes them with one insertion-ordered ``{bot_id: slot}`` dict;
* :class:`SlabPeerEntry` -- a flyweight view over one list slot,
  duck-typed like :class:`repro.botnets.base.PeerEntry`;
* :class:`PeerSlab` -- what a population's lists share: its ID table,
  its subnet-key intern table and a count of live slots;
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

#: Key-column value of a freed slot.  Subnet keys are ``ip & mask``,
#: never negative, so the filter's ``key in keys`` scan skips holes.
_HOLE = -1


class PeerSlab:
    """What a population's peer lists share: ID and subnet-key objects,
    and a count of their live slots.

    ``id_table`` holds one ``(bot_id, id_int)`` row per population bot,
    filled by :meth:`PopulationState.adopt`.  :meth:`SlabPeerList.add`
    stores a known bot's row objects instead of the caller's, so every
    slot naming that bot, in any bot's peer list, shares one ``bytes``
    and one ``int`` (a decoded peer entry is a fresh slice each time).
    IDs outside the population -- sensors, crawlers, junk -- keep
    private copies and never enter the table, so it stays one row per
    bot.

    ``subnet_keys`` interns the subnet keys that the lists' key columns
    store (:meth:`intern_subnet`): ``ip & mask`` makes a fresh ``int``
    per call, so without it every slot held its own key object, while a
    population has only a few thousand networks.
    """

    __slots__ = ("id_table", "subnet_keys", "live")

    def __init__(self) -> None:
        self.id_table: Dict[bytes, Tuple[bytes, int]] = {}
        self.subnet_keys: Dict[int, int] = {}
        self.live = 0

    def __len__(self) -> int:
        return self.live

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


class SlabPeerEntry:
    """View of one peer-list slot, duck-typed like ``PeerEntry``.

    Valid until its entry leaves the list: the slot may then hold
    another peer."""

    __slots__ = ("_list", "_slot", "bot_id")

    def __init__(self, peer_list: "SlabPeerList", slot: int, bot_id: bytes) -> None:
        self._list = peer_list
        self._slot = slot
        self.bot_id = bot_id

    @property
    def endpoint(self):
        return self._list._endpoints[self._slot]

    @property
    def last_seen(self) -> float:
        return self._list._last_seen[self._slot]

    @last_seen.setter
    def last_seen(self, value: float) -> None:
        self._list._last_seen[self._slot] = value

    @property
    def failures(self) -> int:
        return self._list._failures[self._slot]

    @failures.setter
    def failures(self, value: int) -> None:
        self._list._failures[self._slot] = value

    @property
    def goodcount(self) -> int:
        return self._list._goodcount[self._slot]

    @goodcount.setter
    def goodcount(self, value: int) -> None:
        self._list._goodcount[self._slot] = value

    def __repr__(self) -> str:  # debugging aid
        return (
            f"SlabPeerEntry(bot_id={self.bot_id!r}, endpoint={self.endpoint}, "
            f"last_seen={self.last_seen}, failures={self.failures}, "
            f"goodcount={self.goodcount})"
        )


class SlabPeerList:
    """Column-backed peer list; API- and behaviour-compatible with
    :class:`repro.botnets.base.PeerList`.

    The list owns its columns, and one insertion-ordered
    ``{bot_id: slot}`` dict (the iteration-order contract every family
    relies on) maps each peer to its slot.  A slot is always below
    ``capacity``: columns grow only while no slot is free, and a full
    list's newcomer takes the evicted entry's slot.  So a Zeus list's
    slots (capacity 150) are all CPython's cached small ints.

    The subnet filter keeps one interned key per slot in ``_keys``
    (holes hold :data:`_HOLE`), and tests a newcomer with a C-level
    ``key in keys`` scan: only new IDs and address changes pay for it.
    A freed slot is reused through ``_free``, made on the first removal.
    """

    __slots__ = (
        "capacity", "ip_filter_prefix", "_slab", "_index", "_id_ints", "_endpoints", "_keys",
        "_last_seen", "_failures", "_goodcount", "_free",
    )

    def __init__(self, capacity: int, ip_filter_prefix: Optional[int], slab: PeerSlab) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if ip_filter_prefix is not None and not 0 < ip_filter_prefix <= 32:
            raise ValueError(f"bad ip_filter_prefix: {ip_filter_prefix}")
        self.capacity = capacity
        self.ip_filter_prefix = ip_filter_prefix
        self._slab = slab
        self._index: Dict[bytes, int] = {}
        # Big-endian integer form of each id, so XOR-metric peer
        # selection never re-parses the 20-byte ids.
        self._id_ints: List[int] = []
        self._endpoints: List[Optional[Endpoint]] = []
        self._keys: Optional[List[int]] = [] if ip_filter_prefix is not None else None
        self._last_seen = array("d")
        self._failures = array("i")
        self._goodcount = array("i")
        self._free: Optional[List[int]] = None

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, bot_id: bytes) -> bool:
        return bot_id in self._index

    def __iter__(self) -> Iterator[SlabPeerEntry]:
        return iter(self.entries())

    def get(self, bot_id: bytes) -> Optional[SlabPeerEntry]:
        slot = self._index.get(bot_id)
        if slot is None:
            return None
        return SlabPeerEntry(self, slot, bot_id)

    def entries(self) -> List[SlabPeerEntry]:
        return [SlabPeerEntry(self, slot, bot_id) for bot_id, slot in self._index.items()]

    def ids(self) -> Set[bytes]:
        return set(self._index)

    def ips(self) -> Set[int]:
        endpoints = self._endpoints
        return {endpoints[slot].ip for slot in self._index.values()}

    def maintenance_view(self) -> list:
        """(bot_id, endpoint, failures) tuples sorted by last_seen.

        Same ordering contract as ``PeerList.maintenance_view``: stable
        sort over insertion order, so same-time entries keep their
        relative positions.  Built straight from the columns -- no
        flyweights on the cycle hot path.
        """
        last_seen = self._last_seen
        order = sorted(self._index.items(), key=lambda item: last_seen[item[1]])
        endpoints = self._endpoints
        failures = self._failures
        return [(bot_id, endpoints[slot], failures[slot]) for bot_id, slot in order]

    def closest(self, lookup_key: bytes, exclude_id: bytes, limit: int) -> list:
        """The ``limit`` (bot_id, endpoint) pairs XOR-closest to
        ``lookup_key``, excluding ``exclude_id``.

        Matches ``PeerList.closest`` / ``protocol.select_closest``
        exactly; distances come from the precomputed id integers
        instead of per-call ``int.from_bytes``.
        """
        key_int = int.from_bytes(lookup_key, "big")
        id_ints = self._id_ints
        endpoints = self._endpoints
        ranked = sorted(
            [
                (key_int ^ id_ints[slot], bot_id, slot)
                for bot_id, slot in self._index.items()
                if bot_id != exclude_id
            ]
        )
        return [(bot_id, endpoints[slot]) for _, bot_id, slot in ranked[:limit]]

    def propagation_candidates(self, min_goodcount: int, exclude_ip: int, exclude_id: bytes) -> list:
        """(bot_id, endpoint, goodcount) rows, in insertion order, of
        the entries with goodcount >= ``min_goodcount`` that are neither
        at ``exclude_ip`` nor ``exclude_id``.

        Matches ``PeerList.propagation_candidates``; read straight from
        the columns, so a Sality reply builds no flyweights.
        """
        goodcount = self._goodcount
        endpoints = self._endpoints
        return [
            (bot_id, endpoint, count)
            for bot_id, slot in self._index.items()
            if (count := goodcount[slot]) >= min_goodcount
            and (endpoint := endpoints[slot]).ip != exclude_ip
            and bot_id != exclude_id
        ]

    def add(self, entry) -> bool:
        """Insert or refresh; same rules (and tie-breaks) as PeerList."""
        bot_id = entry.bot_id
        endpoint = entry.endpoint
        index = self._index
        last_seen = self._last_seen
        slab = self._slab
        slot = index.get(bot_id)
        if slot is not None:
            if self._endpoints[slot] != endpoint:
                self._readdress(slot, endpoint)
            if entry.last_seen > last_seen[slot]:
                last_seen[slot] = entry.last_seen
            return True
        keys = self._keys
        if keys is not None:
            key = subnet_key(endpoint.ip, self.ip_filter_prefix)
            if key in keys:
                return False
        if len(index) >= self.capacity:
            # A full list has no holes, so the column minimum is the
            # stalest entry's; ties go to the first in insertion order.
            stalest_seen = min(last_seen)
            if stalest_seen >= entry.last_seen:
                return False
            for stalest_id, slot in index.items():
                if last_seen[slot] == stalest_seen:
                    break
            del index[stalest_id]
        else:
            slab.live += 1
            if self._free:
                slot = self._free.pop()
        row = slab.id_table.get(bot_id)
        if row is None:
            id_int = int.from_bytes(bot_id, "big")
        else:
            # Key by a population bot's shared objects.
            bot_id, id_int = row
        if keys is not None:
            key = slab.intern_subnet(key)
        if slot is None:
            # No free slot: every column grows by one.
            index[bot_id] = len(self._endpoints)
            self._id_ints.append(id_int)
            self._endpoints.append(endpoint)
            if keys is not None:
                keys.append(key)
            last_seen.append(entry.last_seen)
            self._failures.append(entry.failures)
            self._goodcount.append(entry.goodcount)
            return True
        index[bot_id] = slot
        self._id_ints[slot] = id_int
        self._endpoints[slot] = endpoint
        if keys is not None:
            keys[slot] = key
        last_seen[slot] = entry.last_seen
        self._failures[slot] = entry.failures
        self._goodcount[slot] = entry.goodcount
        return True

    def _readdress(self, slot: int, endpoint: Endpoint) -> None:
        """Move ``slot`` to ``endpoint``, unless another entry holds its
        subnet: then the entry stays alive at its old address."""
        keys = self._keys
        if keys is not None:
            key = subnet_key(endpoint.ip, self.ip_filter_prefix)
            if key != keys[slot]:
                if key in keys:
                    return
                keys[slot] = self._slab.intern_subnet(key)
        self._endpoints[slot] = endpoint

    def seed(self, rows: Iterable[Tuple[bytes, Endpoint]], last_seen: float, goodcount: int = 0) -> None:
        """Add each ``(bot_id, endpoint)`` row in order, as
        ``add(PeerEntry(bot_id, endpoint, last_seen, 0, goodcount))``:
        how a bootstrap list is installed (same as ``PeerList.seed``)."""
        add = self.add
        for bot_id, endpoint in rows:
            add(PeerEntry(bot_id, endpoint, last_seen, 0, goodcount))

    def _release(self, slot: int) -> None:
        """Free the slot of an entry just dropped from the index."""
        # Drop object refs so freed peers do not pin ids/endpoints.
        self._id_ints[slot] = 0
        self._endpoints[slot] = None
        if self._keys is not None:
            self._keys[slot] = _HOLE
        if self._free is None:
            self._free = [slot]
        else:
            self._free.append(slot)
        self._slab.live -= 1

    def remove(self, bot_id: bytes) -> bool:
        slot = self._index.pop(bot_id, None)
        if slot is None:
            return False
        self._release(slot)
        return True

    def touch(self, bot_id: bytes, now: float) -> None:
        slot = self._index.get(bot_id)
        if slot is not None:
            self._last_seen[slot] = now
            self._failures[slot] = 0

    def record_failure(self, bot_id: bytes, evict_after: int) -> bool:
        slot = self._index.get(bot_id)
        if slot is None:
            return False
        failures = self._failures[slot] + 1
        self._failures[slot] = failures
        if failures >= evict_after:
            del self._index[bot_id]
            self._release(slot)
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
        }
