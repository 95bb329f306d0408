"""Unit tests for the generic bot machinery (peer lists, BotNode)."""

import random

import pytest

from repro.botnets.base import BotNode, PeerEntry, PeerList
from repro.net.address import parse_ip
from repro.net.transport import Endpoint, Transport, TransportConfig
from repro.sim.scheduler import Scheduler


def entry(ip: str, bot_id: bytes, last_seen: float = 0.0, port: int = 5000) -> PeerEntry:
    return PeerEntry(bot_id=bot_id, endpoint=Endpoint(parse_ip(ip), port), last_seen=last_seen)


class TestPeerList:
    def test_add_and_get(self):
        pl = PeerList(capacity=10)
        assert pl.add(entry("25.0.0.1", b"A"))
        assert len(pl) == 1
        assert pl.get(b"A").endpoint.ip == parse_ip("25.0.0.1")

    def test_refresh_updates_address_and_time(self):
        pl = PeerList(capacity=10)
        pl.add(entry("25.0.0.1", b"A", last_seen=1.0))
        pl.add(entry("25.0.0.99", b"A", last_seen=5.0))
        assert len(pl) == 1
        got = pl.get(b"A")
        assert got.endpoint.ip == parse_ip("25.0.0.99")
        assert got.last_seen == 5.0

    def test_refresh_never_moves_last_seen_backwards(self):
        pl = PeerList(capacity=10)
        pl.add(entry("25.0.0.1", b"A", last_seen=9.0))
        pl.add(entry("25.0.0.1", b"A", last_seen=2.0))
        assert pl.get(b"A").last_seen == 9.0

    def test_capacity_evicts_stalest_for_fresher(self):
        pl = PeerList(capacity=2)
        pl.add(entry("25.0.0.1", b"A", last_seen=1.0))
        pl.add(entry("25.0.0.2", b"B", last_seen=2.0))
        assert pl.add(entry("25.0.0.3", b"C", last_seen=3.0))
        assert b"A" not in pl
        assert len(pl) == 2

    def test_capacity_rejects_staler_newcomer(self):
        pl = PeerList(capacity=1)
        pl.add(entry("25.0.0.1", b"A", last_seen=5.0))
        assert not pl.add(entry("25.0.0.2", b"B", last_seen=1.0))
        assert b"A" in pl

    def test_per_ip_filter(self):
        """Sality-style: one entry per IP (Table 1)."""
        pl = PeerList(capacity=10, ip_filter_prefix=32)
        pl.add(entry("25.0.0.1", b"A"))
        assert not pl.add(entry("25.0.0.1", b"B", port=6000))
        assert pl.add(entry("25.0.0.2", b"B"))

    def test_slash20_filter(self):
        """Zeus-style: one entry per /20 subnet (Section 3.1)."""
        pl = PeerList(capacity=10, ip_filter_prefix=20)
        pl.add(entry("25.0.0.1", b"A"))
        assert not pl.add(entry("25.0.15.254", b"B"))  # same /20
        assert pl.add(entry("25.0.16.1", b"C"))  # next /20

    def test_filter_allows_refresh_of_same_bot(self):
        pl = PeerList(capacity=10, ip_filter_prefix=20)
        pl.add(entry("25.0.0.1", b"A"))
        assert pl.add(entry("25.0.0.2", b"A", last_seen=1.0))

    def test_touch_clears_failures(self):
        pl = PeerList(capacity=10)
        pl.add(entry("25.0.0.1", b"A"))
        pl.record_failure(b"A", evict_after=5)
        pl.touch(b"A", now=10.0)
        got = pl.get(b"A")
        assert got.failures == 0
        assert got.last_seen == 10.0

    def test_eviction_after_repeated_failures(self):
        pl = PeerList(capacity=10)
        pl.add(entry("25.0.0.1", b"A"))
        for _ in range(4):
            assert not pl.record_failure(b"A", evict_after=5)
        assert pl.record_failure(b"A", evict_after=5)
        assert b"A" not in pl

    def test_record_failure_unknown_peer(self):
        assert not PeerList(capacity=2).record_failure(b"Z", evict_after=1)

    def test_ids_and_ips(self):
        pl = PeerList(capacity=10)
        pl.add(entry("25.0.0.1", b"A"))
        pl.add(entry("25.0.0.2", b"B"))
        assert pl.ids() == {b"A", b"B"}
        assert pl.ips() == {parse_ip("25.0.0.1"), parse_ip("25.0.0.2")}

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            PeerList(capacity=0)
        with pytest.raises(ValueError):
            PeerList(capacity=1, ip_filter_prefix=0)


class TestPropagationCandidates:
    """The rows a Sality reply draws from, on both peer-list backends."""

    @pytest.fixture(params=["objects", "slab"])
    def peer_list(self, request):
        from repro.botnets.state import PeerSlab, SlabPeerList

        if request.param == "objects":
            pl = PeerList(capacity=10, ip_filter_prefix=32)
        else:
            pl = SlabPeerList(capacity=10, ip_filter_prefix=32, slab=PeerSlab())
        for index, goodcount in enumerate([3, 1, 2, 5, 2]):
            pl.add(
                PeerEntry(
                    bot_id=bytes([65 + index]),
                    endpoint=Endpoint(parse_ip(f"25.0.0.{index + 1}"), 5000),
                    goodcount=goodcount,
                )
            )
        return pl

    def test_threshold_inclusive_in_insertion_order(self, peer_list):
        rows = peer_list.propagation_candidates(2, 0, b"")
        assert [(bot_id, goodcount) for bot_id, _, goodcount in rows] == [
            (b"A", 3), (b"C", 2), (b"D", 5), (b"E", 2),
        ]
        assert rows[0][1] == Endpoint(parse_ip("25.0.0.1"), 5000)

    def test_excludes_requester_ip_and_id_separately(self, peer_list):
        rows = peer_list.propagation_candidates(2, parse_ip("25.0.0.3"), b"D")
        assert [bot_id for bot_id, _, _ in rows] == [b"A", b"E"]

    def test_reflects_goodcount_writes(self, peer_list):
        peer_list.get(b"B").goodcount += 1
        peer_list.get(b"D").goodcount = -1
        rows = peer_list.propagation_candidates(2, 0, b"")
        assert [bot_id for bot_id, _, _ in rows] == [b"A", b"B", b"C", b"E"]


class EchoBot(BotNode):
    """Minimal concrete bot for exercising the base-class plumbing."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.received = []
        self.cycles_run = 0

    def handle_message(self, message):
        self.received.append(message.payload)

    def run_cycle(self):
        self.cycles_run += 1


def make_bot(sched=None, port=5000, interval=100.0):
    sched = sched if sched is not None else Scheduler()
    transport = Transport(
        sched, random.Random(0), config=TransportConfig(loss_rate=0.0)
    )
    bot = EchoBot(
        node_id="bot-0",
        bot_id=b"\x01" * 20,
        endpoint=Endpoint(parse_ip("25.0.0.1"), port),
        transport=transport,
        scheduler=sched,
        rng=random.Random(1),
        cycle_interval=interval,
    )
    return sched, transport, bot


class TestBotNode:
    def test_start_binds_and_cycles(self):
        sched, transport, bot = make_bot()
        bot.start()
        assert transport.is_bound(bot.endpoint)
        sched.run_until(1000.0)
        assert bot.cycles_run >= 9
        assert bot.counters.cycles == bot.cycles_run

    def test_stop_unbinds_and_stops_cycling(self):
        sched, transport, bot = make_bot()
        bot.start()
        sched.run_until(250.0)
        before = bot.cycles_run
        bot.stop()
        sched.run_until(1000.0)
        assert bot.cycles_run == before
        assert not transport.is_bound(bot.endpoint)

    def test_start_twice_is_noop(self):
        sched, transport, bot = make_bot()
        bot.start()
        bot.start()
        assert transport.is_bound(bot.endpoint)

    def test_send_and_receive(self):
        sched, transport, bot = make_bot()
        bot.start()
        other = Endpoint(parse_ip("25.0.0.2"), 5001)
        transport.bind(other, lambda m: None)
        transport.send(other, bot.endpoint, b"ping")
        sched.run_until(1.0)
        assert bot.received == [b"ping"]
        assert bot.counters.messages_in == 1

    def test_rebind_moves_endpoint(self):
        sched, transport, bot = make_bot()
        bot.start()
        new = Endpoint(parse_ip("25.0.0.50"), 5000)
        bot.rebind(new)
        assert bot.endpoint == new
        assert transport.is_bound(new)

    def test_offline_rebind_defers_binding(self):
        sched, transport, bot = make_bot()
        new = Endpoint(parse_ip("25.0.0.50"), 5000)
        bot.rebind(new)
        assert not transport.is_bound(new)
        bot.start()
        assert transport.is_bound(new)
