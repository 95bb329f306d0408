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
from hypothesis import given, settings
from hypothesis import strategies as st

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

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), ids, endpoints, times),
        st.tuples(st.just("remove"), ids),
        st.tuples(st.just("touch"), ids, times),
        st.tuples(st.just("record_failure"), ids, st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("closest"), ids, ids, st.integers(min_value=1, max_value=8)),
        st.tuples(st.just("goodcount"), ids, st.integers(min_value=-3, max_value=3)),
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
