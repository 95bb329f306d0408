"""Property-based equivalence tests for the struct-of-arrays
population core.

The hot-path refactor swapped per-entry objects for slab columns; the
whole point of the slab is that no caller can tell.  Random operation
sequences applied to the object-backed ``PeerList`` (the reference,
and still the sensors' peer list) and to ``SlabPeerList`` produce
identical return values and identical views.

Plus the scheduler tie-break property the batched dispatch loop must
preserve: same-timestamp events fire in insertion order, regardless of
which store (due heap, timer wheel, far heap) they pass through.
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
# Bootstrap rows: up to 12 (bot_id, endpoint) pairs, twice a list's
# capacity, drawn from the same tiny spaces.
seed_rows = st.lists(st.tuples(ids, endpoints), max_size=12)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), ids, endpoints, times),
        st.tuples(st.just("seed"), seed_rows, times, goodcounts),
        st.tuples(st.just("remove"), ids),
        st.tuples(st.just("touch"), ids, times),
        st.tuples(st.just("record_failure"), ids, st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("closest"), ids, ids, st.integers(min_value=1, max_value=8)),
        st.tuples(st.just("goodcount"), ids, goodcounts),
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
        _, bot_id, endpoint, last_seen = op
        return peer_list.add(
            PeerEntry(bot_id=bot_id, endpoint=endpoint, last_seen=last_seen)
        )
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
    if kind == "propagation_candidates":
        # The excluded requester's IP and id are an entry's, by position
        # (past the end: nobody's), so the exclusions actually bite.
        rows = [(e.endpoint.ip, e.bot_id) for e in peer_list.entries()]
        exclude_ip = rows[op[2]][0] if op[2] < len(rows) else 0
        exclude_id = rows[op[3]][1] if op[3] < len(rows) else b""
        return peer_list.propagation_candidates(op[1], exclude_ip, exclude_id)
    raise AssertionError(kind)


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


class TestPeerListBackendEquivalence:
    @pytest.mark.parametrize("prefix", [None, 20, 32])
    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_same_ops_same_results(self, prefix, ops):
        """Both backends agree on every op result and every view."""
        objects = PeerList(capacity=6, ip_filter_prefix=prefix)
        slab = SlabPeerList(capacity=6, ip_filter_prefix=prefix, slab=PeerSlab())
        for op in ops:
            assert _apply(objects, op) == _apply(slab, op)
            assert _snapshot(objects) == _snapshot(slab)

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


A, B, C, D = (bytes([n]) * 20 for n in (0xA1, 0xB2, 0xC3, 0xD4))
# NET_1 and NET_1_OTHER share a /20, not an IP.
NET_1 = Endpoint(0x0A000100, 4000)
NET_1_OTHER = Endpoint(0x0A000200, 4001)
NET_2 = Endpoint(0x0B000100, 4000)


def _slab_list(prefix, freed):
    """A capacity-6 slab list whose slab holds ``freed`` free slots, so
    new rows take recycled slots first."""
    slab = PeerSlab()
    churned = SlabPeerList(capacity=8, ip_filter_prefix=None, slab=slab)
    for index in range(freed):
        churned.add(PeerEntry(bot_id=bytes([index]) * 20, endpoint=NET_2, last_seen=0.0))
    for index in range(freed):
        churned.remove(bytes([index]) * 20)
    return SlabPeerList(capacity=6, ip_filter_prefix=prefix, slab=slab)


class TestSeed:
    """``seed(rows, t, g)`` is ``add(PeerEntry(id, ep, t, 0, g))`` per
    row, in order, on both backends, and on the slab it takes the
    same slots."""

    @pytest.mark.parametrize("backend", ["objects", "slab"])
    @pytest.mark.parametrize("prefix", [None, 20, 32])
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
    @settings(max_examples=60, deadline=None)
    def test_seed_is_add_per_row(self, backend, prefix, held, rows, last_seen, goodcount, freed):
        if backend == "objects":
            seeded = PeerList(capacity=6, ip_filter_prefix=prefix)
            reference = PeerList(capacity=6, ip_filter_prefix=prefix)
        else:
            seeded = _slab_list(prefix, freed=freed)
            reference = _slab_list(prefix, freed=freed)
        for peer_list in (seeded, reference):
            for bot_id, endpoint, seen in held:
                peer_list.add(PeerEntry(bot_id=bot_id, endpoint=endpoint, last_seen=seen))
        seeded.seed(rows, last_seen, goodcount)
        for bot_id, endpoint in rows:
            reference.add(PeerEntry(bot_id, endpoint, last_seen, 0, goodcount))
        assert _snapshot(seeded) == _snapshot(reference)
        if backend == "slab":
            assert seeded._slots == reference._slots  # same slots, same order
            assert seeded._subnets == reference._subnets
            assert seeded._slab._free == reference._slab._free
            assert seeded._slab.capacity == reference._slab.capacity
            for column in ("ids", "id_ints", "endpoints", "last_seen", "failures", "goodcount"):
                values, expected = getattr(seeded._slab, column), getattr(reference._slab, column)
                assert [values[slot] for slot in seeded._slots.values()] == [
                    expected[slot] for slot in reference._slots.values()
                ]

    def test_slots_and_subnets_share_slot_ints(self):
        """Past the small-int cache, each slot int is one object held by
        both dicts, and every subnet key is the slab table's object."""
        slab = PeerSlab()
        filler = SlabPeerList(capacity=300, ip_filter_prefix=None, slab=slab)
        filler.seed([(n.to_bytes(20, "big"), NET_2) for n in range(300)], 0.0)
        peer_list = SlabPeerList(capacity=150, ip_filter_prefix=20, slab=slab)
        peer_list.seed([(n.to_bytes(20, "big"), Endpoint(n << 12, 4000)) for n in range(1, 100)], 1.0)
        peer_list.add(PeerEntry(bot_id=b"\xEE" * 20, endpoint=Endpoint(200 << 12, 4000), last_seen=2.0))
        assert len(peer_list) == 100
        for key, slot in peer_list._subnets.items():
            assert slot > 256
            assert peer_list._slots[slab.ids[slot]] is slot
            assert slab.subnet_keys[key] is key

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
        stores shuffle them internally."""
        scheduler = Scheduler()
        fired = []
        for tag in order:
            scheduler.call_at(stamp, fired.append, tag)
        # Interleave other horizons so the wheel and far heap both hold
        # entries while the batch drains.
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
