"""Property-based equivalence tests for the struct-of-arrays
population core.

The hot-path refactor swapped per-entry objects for slab columns; the
whole point of the slab is that no caller can tell.  Random operation
sequences applied to the object-backed ``PeerList`` (the reference,
and still the sensors' peer list) and to ``SlabPeerList`` produce
identical return values and identical views.

Plus the scheduler tie-break property the batched dispatch loop must
preserve: same-timestamp events fire in insertion order, however far
ahead of them other entries wait in the heap.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.botnets import state
from repro.botnets.base import PeerEntry, PeerList
from repro.botnets.state import PeerSlab, SlabPeerList
from repro.net.transport import Endpoint
from repro.sim.clock import HOUR, MINUTE
from repro.sim.scheduler import Scheduler

# A deliberately tiny id/address space so random sequences hit the
# interesting collisions: same bot re-added, same subnet contested,
# capacity evictions, failures on missing ids.
ids = st.binary(min_size=20, max_size=20).map(lambda b: b[:2] * 10)
endpoints = st.builds(
    Endpoint,
    ip=st.integers(min_value=1, max_value=0xFFFF).map(lambda ip: ip << 8),
    port=st.integers(min_value=1024, max_value=1030),
)
times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=32)
goodcounts = st.integers(min_value=-3, max_value=3)
# Counters an added entry carries: mostly zero, as the families' are.
failure_counts = st.sampled_from([0, 0, 1, 3])
# Bootstrap rows: up to 12 (bot_id, endpoint) pairs, twice a list's
# capacity, drawn from the same tiny spaces.
seed_rows = st.lists(st.tuples(ids, endpoints), max_size=12)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), ids, endpoints, times),
        st.tuples(st.just("add"), ids, endpoints, times, failure_counts, goodcounts),
        st.tuples(st.just("seed"), seed_rows, times, goodcounts),
        st.tuples(st.just("remove"), ids),
        st.tuples(st.just("touch"), ids, times),
        st.tuples(st.just("record_failure"), ids, st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("closest"), ids, ids, st.integers(min_value=1, max_value=8)),
        st.tuples(st.just("goodcount"), ids, goodcounts),
        st.tuples(st.just("write"), ids, st.just("last_seen"), times),
        st.tuples(st.just("write"), ids, st.just("failures"), st.integers(min_value=0, max_value=3)),
        st.tuples(
            st.just("propagation_candidates"),
            st.integers(min_value=-2, max_value=3),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
        ),
    ),
    max_size=60,
)


def _apply(peer_list, op):
    """Run one op against either backend; returns a comparable result."""
    kind = op[0]
    if kind == "add":
        # Optional trailing (failures, goodcount) for the new entry.
        _, bot_id, endpoint, last_seen, *counters = op
        return peer_list.add(PeerEntry(bot_id, endpoint, last_seen, *counters))
    if kind == "seed":
        return peer_list.seed(op[1], op[2], op[3])
    if kind == "remove":
        return peer_list.remove(op[1])
    if kind == "touch":
        peer_list.touch(op[1], op[2])
        return None
    if kind == "record_failure":
        return peer_list.record_failure(op[1], op[2])
    if kind == "closest":
        return peer_list.closest(op[1], op[2], op[3])
    if kind == "goodcount":
        # Sality's reputation writes go through the entry view.
        entry = peer_list.get(op[1])
        if entry is not None:
            entry.goodcount += op[2]
        return None
    if kind == "write":
        # Any writable field, through the entry view (Sality's _credit).
        entry = peer_list.get(op[1])
        if entry is not None:
            setattr(entry, op[2], op[3])
        return None
    if kind == "propagation_candidates":
        # The excluded requester's IP and id are an entry's, by position
        # (past the end: nobody's), so the exclusions actually bite.
        rows = [(e.endpoint.ip, e.bot_id) for e in peer_list.entries()]
        exclude_ip = rows[op[2]][0] if op[2] < len(rows) else 0
        exclude_id = rows[op[3]][1] if op[3] < len(rows) else b""
        return peer_list.propagation_candidates(op[1], exclude_ip, exclude_id)
    raise AssertionError(kind)


def _check_columns(peer_list):
    """A slab list's counter columns are absent or as long as the others."""
    length = len(peer_list._endpoints)
    for column in (peer_list._failures, peer_list._goodcount):
        assert column is None or len(column) == length


def _snapshot(peer_list):
    """Everything observable about a peer list, in one comparable value."""
    return (
        len(peer_list),
        [
            (e.bot_id, e.endpoint, e.last_seen, e.failures, e.goodcount)
            for e in peer_list.entries()
        ],
        peer_list.maintenance_view(),
        peer_list.ids(),
        peer_list.ips(),
    )


# -- lists at the families' capacities -------------------------------------
#
# Bootstrap rows fill a list to within a few slots of its capacity: row
# k is peer ``_peer(k)`` at ``_address(k)``, a subnet of its own.  Ops
# name peers and subnets by small ints, k >= 0 for row k's and k < 0 for
# ones outside the rows.  Times are whole numbers, so eviction meets
# ties on equal last_seen.


def _peer(k):
    n = k if k >= 0 else 5000 - k
    return n.to_bytes(2, "big") * 10


def _address(net, host=1, port=4000):
    """Host 2 shares host 1's /20 but not its /32."""
    n = net if net >= 0 else 5000 - net
    return Endpoint((10 << 24) | (n << 12) | host, port)


peers = st.integers(min_value=-6, max_value=10).map(_peer)
addresses = st.builds(
    _address,
    st.integers(min_value=-6, max_value=10),
    st.sampled_from([1, 2]),
    st.sampled_from([4000, 4001]),
)
ticks = st.integers(min_value=0, max_value=4).map(float)
counts = st.integers(min_value=0, max_value=4)

family_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), peers, addresses, ticks),
        st.tuples(st.just("add"), peers, addresses, ticks, counts, counts),
        st.tuples(st.just("remove"), peers),
        st.tuples(st.just("touch"), peers, ticks),
        st.tuples(st.just("record_failure"), peers, st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("write"), peers, st.just("last_seen"), ticks),
        st.tuples(st.just("write"), peers, st.sampled_from(["failures", "goodcount"]), counts),
        st.tuples(st.just("closest"), peers, peers, st.integers(min_value=1, max_value=12)),
        st.tuples(
            st.just("propagation_candidates"),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
        ),
    ),
    max_size=80,
)


def _net(n):
    """Peer n's ID and an address in a /20 of its own."""
    return bytes([n]) * 20, Endpoint(n << 20, 4000)


class TestPeerListBackendEquivalence:
    @pytest.mark.parametrize("prefix", [None, 20, 32])
    @given(ops=operations)
    @example(  # zero writes leave the columns absent; nonzero ones create them
        ops=[
            ("add", *_net(1), 1.0),
            ("write", _net(1)[0], "failures", 0),
            ("goodcount", _net(1)[0], 0),
            ("touch", _net(1)[0], 2.0),
            ("propagation_candidates", 1, 7, 7),
            ("propagation_candidates", 0, 7, 7),
            ("add", *_net(2), 2.0, 0, 0),
            ("goodcount", _net(2)[0], -1),
            ("write", _net(1)[0], "failures", 2),
            ("touch", _net(1)[0], 3.0),
            ("record_failure", _net(2)[0], 4),
            ("write", _net(2)[0], "goodcount", 0),
        ],
    )
    @example(  # columns created at a reused slot, then grown by an append
        ops=[
            ("add", *_net(1), 1.0),
            ("add", *_net(2), 1.0),
            ("remove", _net(1)[0]),
            ("add", *_net(3), 2.0, 1, 2),
            ("add", *_net(4), 2.0),
            ("remove", _net(3)[0]),
            ("add", *_net(5), 3.0),
        ],
    )
    @example(  # columns created at an evicted slot of a full list; a reused slot's zeros overwrite
        ops=[("add", *_net(n), float(n)) for n in range(1, 7)]
        + [
            ("add", *_net(7), 9.0, 0, 3),
            ("record_failure", _net(2)[0], 4),
            ("add", *_net(8), 9.0, 2, 0),
            ("remove", _net(7)[0]),
            ("add", *_net(9), 9.0),
        ],
    )
    @settings(max_examples=60, deadline=None)
    def test_same_ops_same_results(self, prefix, ops):
        """Both backends agree on every op result and every view."""
        objects = PeerList(capacity=6, ip_filter_prefix=prefix)
        slab = SlabPeerList(capacity=6, ip_filter_prefix=prefix, slab=PeerSlab())
        for op in ops:
            assert _apply(objects, op) == _apply(slab, op)
            assert _snapshot(objects) == _snapshot(slab)
            _check_columns(slab)

    @given(ops=operations)
    @settings(max_examples=40, deadline=None)
    def test_shared_slab_lists_stay_independent(self, ops):
        """Many lists share one slab; ops on one never leak into another."""
        slab = PeerSlab()
        active = SlabPeerList(capacity=6, ip_filter_prefix=20, slab=slab)
        bystander = SlabPeerList(capacity=6, ip_filter_prefix=20, slab=slab)
        _apply(
            bystander,
            ("add", b"\xAA" * 20, Endpoint(0x0A000001, 4000), 1.0),
        )
        before = _snapshot(bystander)
        for op in ops:
            _apply(active, op)
        assert _snapshot(bystander) == before

    @pytest.mark.parametrize("capacity, prefix", [(150, 20), (1000, 32)], ids=["zeus", "sality"])
    @given(gap=st.integers(min_value=0, max_value=3), start=ticks, goodcount=counts, ops=family_operations)
    @example(  # a freed slot is reused by a peer that iterates last
        gap=2, start=1.0, goodcount=0,
        ops=[("remove", _peer(0)), ("add", _peer(-1), _address(-1), 2.0), ("touch", _peer(1), 3.0)],
    )
    @example(  # eviction tie: the first stalest in insertion order goes, not the lowest slot
        gap=0, start=1.0, goodcount=0,
        ops=[
            ("remove", _peer(2)),
            ("add", _peer(-1), _address(-1), 1.0),
            ("touch", _peer(0), 2.0),
            ("touch", _peer(1), 2.0),
            ("add", _peer(-2), _address(-2), 3.0),
            ("add", _peer(-3), _address(-3), 3.0),
            ("add", _peer(-4), _address(-4), 1.0),
        ],
    )
    @example(  # address updates: within a subnet, into an occupied one, back, into a freed one
        gap=1, start=1.0, goodcount=1,
        ops=[
            ("add", _peer(3), _address(3, host=2), 2.0),
            ("add", _peer(3), _address(4), 3.0),
            ("add", _peer(3), _address(3, port=4001), 3.0),
            ("remove", _peer(5)),
            ("add", _peer(3), _address(5), 4.0),
            ("add", _peer(-1), _address(3), 4.0),
            ("add", _peer(-2), _address(5), 4.0),
            ("propagation_candidates", 0, 3, 0),
        ],
    )
    @example(  # counter columns created at a reused slot and written by a view
        gap=1, start=1.0, goodcount=0,
        ops=[
            ("remove", _peer(0)),
            ("add", _peer(-1), _address(-1), 2.0, 2, 1),
            ("write", _peer(3), "failures", 0),
            ("touch", _peer(-1), 3.0),
            ("propagation_candidates", 1, 7, 7),
        ],
    )
    @example(  # counter columns created at an evicted slot
        gap=0, start=1.0, goodcount=0,
        ops=[
            ("add", _peer(-1), _address(-1), 2.0, 0, 3),
            ("record_failure", _peer(-1), 3),
            ("add", _peer(-2), _address(-2), 2.0, 1, 0),
            ("touch", _peer(-2), 3.0),
        ],
    )
    @example(  # writes through get() views, read back by every view
        gap=0, start=2.0, goodcount=0,
        ops=[
            ("write", _peer(1), "last_seen", 0.0),
            ("write", _peer(2), "goodcount", 2),
            ("propagation_candidates", 2, 0, 1),
            ("write", _peer(4), "failures", 2),
            ("record_failure", _peer(4), 3),
            ("write", _peer(6), "last_seen", 1.0),
            ("add", _peer(-1), _address(-1), 1.0),
            ("closest", _peer(7), _peer(8), 12),
        ],
    )
    @settings(max_examples=40, deadline=None)
    def test_family_capacities_same_results(self, capacity, prefix, gap, start, goodcount, ops):
        """Both backends agree on lists at Zeus's (150, /20) and
        Sality's (1,000, /32) capacity and filter, bootstrapped to within
        ``gap`` slots of full."""
        rows = [(_peer(k), _address(k)) for k in range(capacity - gap)]
        objects = PeerList(capacity=capacity, ip_filter_prefix=prefix)
        slab = SlabPeerList(capacity=capacity, ip_filter_prefix=prefix, slab=PeerSlab())
        objects.seed(rows, start, goodcount)
        slab.seed(rows, start, goodcount)
        assert _snapshot(objects) == _snapshot(slab)
        for op in ops:
            assert _apply(objects, op) == _apply(slab, op)
            assert _snapshot(objects) == _snapshot(slab)
            assert len(slab._slab) == len(slab)
            _check_columns(slab)


A, B, C, D = (bytes([n]) * 20 for n in (0xA1, 0xB2, 0xC3, 0xD4))
# NET_1 and NET_1_OTHER share a /20, not an IP.
NET_1 = Endpoint(0x0A000100, 4000)
NET_1_OTHER = Endpoint(0x0A000200, 4001)
NET_2 = Endpoint(0x0B000100, 4000)


def _held_list(backend, capacity, prefix, freed):
    """A list for ``TestSeed``.  At the families' capacities it holds
    bootstrap rows up to six slots short of full, row k last seen at
    ``k // 2`` (stale, and tied in pairs); a slab list also holds
    ``freed`` free slots, so new rows take recycled slots first."""
    if backend == "objects":
        peer_list = PeerList(capacity=capacity, ip_filter_prefix=prefix)
        fillers = []
    else:
        peer_list = SlabPeerList(capacity=capacity, ip_filter_prefix=prefix, slab=PeerSlab())
        fillers = [bytes([0xF0 + index]) * 20 for index in range(freed)]
    for index, bot_id in enumerate(fillers):
        peer_list.add(PeerEntry(bot_id=bot_id, endpoint=Endpoint((0xF0 + index) << 24, 4000), last_seen=0.0))
    for k in range(capacity - 6):
        peer_list.add(PeerEntry(_peer(k), _address(k), float(k // 2)))
    for bot_id in fillers:
        peer_list.remove(bot_id)
    return peer_list


class TestSeed:
    """``seed(rows, t, g)`` is ``add(PeerEntry(id, ep, t, 0, g))`` per
    row, in order, on both backends, and on the slab it writes the
    same slots and columns: at capacity 6, and at Zeus's (150, /20) and
    Sality's (1,000, /32), where one call can reuse free slots, append
    and evict several times."""

    @pytest.mark.parametrize("backend", ["objects", "slab"])
    @pytest.mark.parametrize(
        "capacity, prefix",
        [
            pytest.param(6, None, id="None"),
            pytest.param(6, 20, id="20"),
            pytest.param(6, 32, id="32"),
            pytest.param(150, 20, id="zeus"),
            pytest.param(1000, 32, id="sality"),
        ],
    )
    @given(
        held=st.lists(st.tuples(ids, endpoints, times), max_size=8),
        rows=seed_rows,
        last_seen=times,
        goodcount=goodcounts,
        freed=st.integers(min_value=0, max_value=4),
    )
    @example(  # empty list
        held=[], rows=[(A, NET_1), (B, NET_2)], last_seen=1.0, goodcount=2, freed=0
    )
    @example(  # a held entry refreshed
        held=[(C, NET_2, 5.0)], rows=[(A, NET_1), (C, NET_2)], last_seen=1.0, goodcount=0, freed=1
    )
    @example(  # repeated IDs
        held=[], rows=[(A, NET_1), (A, NET_2), (A, NET_1)], last_seen=1.0, goodcount=0, freed=0
    )
    @example(  # contested subnets
        held=[(C, NET_1, 5.0)], rows=[(A, NET_1_OTHER), (B, NET_1)], last_seen=9.0, goodcount=0, freed=2
    )
    @example(  # past capacity: rows 7 to 9 each evict a staler entry, D is refused
        held=[(bytes([n]) * 20, Endpoint(n << 20, 4000), float(n)) for n in range(1, 5)],
        rows=[(bytes([n]) * 20, Endpoint(n << 20, 4000)) for n in range(5, 10)] + [(D, NET_2)],
        last_seen=3.5,
        goodcount=1,
        freed=3,
    )
    @example(  # held entries take the free slots and fill the list; every row then evicts
        held=[(bytes([n]) * 20, Endpoint(n << 20, 4000), 9.0) for n in range(1, 7)],
        rows=[(bytes([n]) * 20, Endpoint(n << 20, 4000)) for n in range(7, 12)],
        last_seen=50.0,
        goodcount=1,
        freed=2,
    )
    @example(  # rows reuse the free slots held entries left, append, then evict
        held=[(C, NET_2, 9.0)],
        rows=[(bytes([n]) * 20, Endpoint(n << 20, 4000)) for n in range(1, 13)],
        last_seen=40.0,
        goodcount=2,
        freed=4,
    )
    @example(  # subnet key 0 (0.0.0.0/20): B shares A's /20, not its IP
        held=[],
        rows=[(A, Endpoint(0x00000A00, 4000)), (B, Endpoint(0x00000B00, 4000)), (C, NET_1)],
        last_seen=1.0,
        goodcount=0,
        freed=1,
    )
    @settings(max_examples=60, deadline=None)
    def test_seed_is_add_per_row(self, backend, capacity, prefix, held, rows, last_seen, goodcount, freed):
        seeded = _held_list(backend, capacity, prefix, freed)
        reference = _held_list(backend, capacity, prefix, freed)
        for peer_list in (seeded, reference):
            for bot_id, endpoint, seen in held:
                peer_list.add(PeerEntry(bot_id=bot_id, endpoint=endpoint, last_seen=seen))
        seeded.seed(rows, last_seen, goodcount)
        for bot_id, endpoint in rows:
            reference.add(PeerEntry(bot_id, endpoint, last_seen, 0, goodcount))
        assert _snapshot(seeded) == _snapshot(reference)
        if backend == "slab":
            # Same slots, in the same order, and every column equal,
            # holes and free list included.
            assert list(seeded._index.items()) == list(reference._index.items())
            for column in ("_id_ints", "_endpoints", "_keys", "_last_seen", "_failures", "_goodcount", "_free"):
                assert getattr(seeded, column) == getattr(reference, column)
            assert len(seeded._slab) == len(reference._slab) == len(seeded)

    def test_slots_and_subnets_share_slot_ints(self):
        """Every slot stays below capacity, through bootstrap, eviction
        and removals, so a Zeus list's slots are CPython's cached small
        ints; every stored subnet key is the slab table's object, and a
        hole's key is the sentinel."""
        slab = PeerSlab()
        peer_list = SlabPeerList(capacity=150, ip_filter_prefix=20, slab=slab)
        peer_list.seed([(n.to_bytes(20, "big"), Endpoint(n << 12, 4000)) for n in range(1, 200)], 1.0)
        for n in range(1, 40, 3):
            peer_list.remove(n.to_bytes(20, "big"))
        for n in range(300, 340):
            peer_list.add(PeerEntry(bot_id=n.to_bytes(20, "big"), endpoint=Endpoint(n << 12, 4000), last_seen=2.0))
        assert len(peer_list) == 150
        assert len(peer_list._keys) == 150
        for bot_id, slot in peer_list._index.items():
            assert 0 <= slot < 150
            assert slot is int(str(slot))  # the cached small int
            assert peer_list._id_ints[slot] == int.from_bytes(bot_id, "big")
        for slot, key in enumerate(peer_list._keys):
            if peer_list._endpoints[slot] is None:
                assert key == state._HOLE
            else:
                assert key == peer_list._endpoints[slot].ip & 0xFFFFF000
                assert slab.subnet_keys[key] is key
        assert len(slab) == 150

    def test_subnet_key_table_is_bounded(self, monkeypatch):
        """Past its cap the table starts over; filtering is unchanged."""
        monkeypatch.setattr(state, "SUBNET_KEYS_MAX", 4)
        slab = PeerSlab()
        peer_list = SlabPeerList(capacity=20, ip_filter_prefix=32, slab=slab)
        reference = PeerList(capacity=20, ip_filter_prefix=32)
        rows = [(bytes([n]) * 20, Endpoint(0x0A000000 + n % 7, 4000)) for n in range(1, 15)]
        peer_list.seed(rows[:7], 1.0)
        reference.seed(rows[:7], 1.0)
        assert len(slab.subnet_keys) <= 4
        for bot_id, endpoint in rows[7:]:
            entry = PeerEntry(bot_id=bot_id, endpoint=endpoint, last_seen=2.0)
            assert peer_list.add(entry) == reference.add(entry)
            assert len(slab.subnet_keys) <= 4
        assert _snapshot(peer_list) == _snapshot(reference)


class TestSchedulerBatchTieBreak:
    @given(
        order=st.permutations(list(range(12))),
        stamp=st.floats(min_value=0.0, max_value=10 * MINUTE, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_timestamp_fires_in_insertion_order(self, order, stamp):
        """Batched dispatch keeps the (time, sequence) contract: events
        scheduled for one instant run in scheduling order, however the
        heap shuffles them internally."""
        scheduler = Scheduler()
        fired = []
        for tag in order:
            scheduler.call_at(stamp, fired.append, tag)
        # Interleave a near and a day-scale horizon so the heap holds
        # later entries while the batch drains.
        scheduler.call_at(stamp + 1.0, fired.append, "later")
        scheduler.call_later(stamp + 2 * HOUR, fired.append, "far")
        scheduler.run_until(stamp)
        assert fired == list(order)

    @given(
        stamps=st.lists(
            st.sampled_from([0.0, 1.0, 1.0, 2.5, 2.5, 7200.0]), min_size=1, max_size=24
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_dispatch_is_stable_sort_by_time(self, stamps):
        """Across mixed horizons, dispatch order == stable sort of the
        schedule calls by timestamp."""
        scheduler = Scheduler()
        fired = []
        for index, stamp in enumerate(stamps):
            scheduler.call_at(stamp, fired.append, (stamp, index))
        scheduler.run_until(max(stamps))
        expected = sorted(
            [(stamp, index) for index, stamp in enumerate(stamps)],
            key=lambda item: item[0],
        )
        assert fired == expected
