"""Behavioural tests for Sality bots on a tiny simulated network."""

import random

import pytest

from repro.botnets.sality import protocol
from repro.botnets.sality.bot import SalityBot, SalityConfig
from repro.botnets.sality.protocol import Command
from repro.net.address import parse_ip
from repro.net.transport import Endpoint, Transport, TransportConfig
from repro.sim.clock import HOUR
from repro.sim.scheduler import Scheduler


def make_world():
    sched = Scheduler()
    transport = Transport(sched, random.Random(0), config=TransportConfig(loss_rate=0.0))
    return sched, transport


def make_bot(sched, transport, index, config=None, routable=True, cls=None):
    rng = random.Random(200 + index)
    if cls is None:
        cls = SalityBot
    return cls(
        node_id=f"bot-{index}",
        bot_id=rng.getrandbits(32).to_bytes(4, "big"),
        endpoint=Endpoint(parse_ip(f"25.{index}.0.1"), 3000 + index),
        transport=transport,
        scheduler=sched,
        rng=rng,
        routable=routable,
        config=config if config is not None else SalityConfig(),
    )


class CaptureBot(SalityBot):
    """SalityBot that records raw inbound messages.

    SalityBot itself uses ``__slots__``, so tests spy via this subclass
    instead of patching ``handle_message`` on instances.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.captured = []

    def handle_message(self, message):
        self.captured.append(message)
        super().handle_message(message)


def send_request(transport, sched, src_bot, dst_bot, command, payload=b"", capture=None):
    message = protocol.make_message(command, src_bot.int_id, src_bot.rng, payload=payload)
    seen = len(src_bot.captured) if capture is not None else 0
    transport.send(src_bot.endpoint, dst_bot.endpoint, protocol.encode_packet(message))
    sched.run_until(sched.now + 5.0)
    if capture is not None:
        capture.extend(src_bot.captured[seen:])


class TestConstruction:
    def test_bot_id_must_be_four_bytes(self):
        sched, transport = make_world()
        with pytest.raises(ValueError):
            SalityBot(
                node_id="x",
                bot_id=b"\x01" * 20,
                endpoint=Endpoint(parse_ip("25.0.0.1"), 3000),
                transport=transport,
                scheduler=sched,
                rng=random.Random(0),
            )


class TestPeerExchange:
    def test_hello_adds_sender_with_zero_goodcount(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        a.start()
        b.start()
        send_request(
            transport, sched, a, b, Command.HELLO, protocol.encode_hello(a.endpoint.port)
        )
        entry = b.peer_list.get(a.bot_id)
        assert entry is not None
        assert entry.goodcount == 0
        assert entry.endpoint == a.endpoint

    def test_peer_request_returns_single_reputed_peer(self):
        sched, transport = make_world()
        hub = make_bot(sched, transport, 0)
        reputed = make_bot(sched, transport, 1)
        requester = make_bot(sched, transport, 2, cls=CaptureBot)
        hub.seed_peers([(reputed.bot_id, reputed.endpoint)])  # seeded => reputed
        for bot in (hub, reputed, requester):
            bot.start()
        got = []
        send_request(transport, sched, requester, hub, Command.PEER_REQUEST, capture=got)
        assert got
        reply = protocol.decode_packet(got[-1].payload)
        assert reply.command == Command.PEER_RESPONSE
        entry = protocol.decode_peer_entry(reply.payload)
        assert entry == (reputed.int_id, reputed.endpoint)

    def test_unreputed_peers_not_propagated(self):
        """The goodcount scheme withholds unproven nodes (Section 3.1)."""
        sched, transport = make_world()
        hub = make_bot(sched, transport, 0)
        unproven = make_bot(sched, transport, 1)
        requester = make_bot(sched, transport, 2, cls=CaptureBot)
        for bot in (hub, unproven, requester):
            bot.start()
        # unproven announces itself (goodcount 0) ...
        send_request(
            transport, sched, unproven, hub, Command.HELLO,
            protocol.encode_hello(unproven.endpoint.port),
        )
        assert hub.peer_list.get(unproven.bot_id).goodcount == 0
        # ... and is not returned to requesters.
        got = []
        send_request(transport, sched, requester, hub, Command.PEER_REQUEST, capture=got)
        reply = protocol.decode_packet(got[-1].payload)
        assert protocol.decode_peer_entry(reply.payload) is None

    def test_goodcount_rises_for_responsive_peers(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        a.seed_peers([(b.bot_id, b.endpoint)])
        start_goodcount = a.peer_list.get(b.bot_id).goodcount
        a.start()
        b.start()
        sched.run_until(12 * HOUR)
        assert a.peer_list.get(b.bot_id).goodcount > start_goodcount

    def test_unresponsive_peer_loses_goodcount_and_is_evicted(self):
        sched, transport = make_world()
        config = SalityConfig(contacts_per_cycle=4, goodcount_evict_below=-3)
        a = make_bot(sched, transport, 0, config=config)
        b = make_bot(sched, transport, 1)
        a.seed_peers([(b.bot_id, b.endpoint)])
        a.start()  # b never starts
        sched.run_until(24 * HOUR)
        assert b.bot_id not in a.peer_list

    def test_plr_history_recorded(self):
        sched, transport = make_world()
        hub = make_bot(sched, transport, 0)
        requester = make_bot(sched, transport, 1)
        hub.start()
        requester.start()
        send_request(transport, sched, requester, hub, Command.PEER_REQUEST)
        history = hub.peer_list_requesters(since=0.0)
        assert len(history) == 1
        assert history[0][1] == requester.endpoint.ip


class TestUrlPacks:
    def test_urlpack_served_and_adopted(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        b.urlpack_sequence = 9
        b.urlpack_blob = b"fresh-pack"
        a.seed_peers([(b.bot_id, b.endpoint)])
        a.start()
        b.start()
        sched.run_until(24 * HOUR)
        assert a.urlpack_sequence == 9
        assert a.urlpack_blob == b"fresh-pack"

    def test_older_pack_not_adopted(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        a.urlpack_sequence = 20
        a.urlpack_blob = b"newer"
        b.urlpack_sequence = 3
        a.seed_peers([(b.bot_id, b.endpoint)])
        a.start()
        b.start()
        sched.run_until(24 * HOUR)
        assert a.urlpack_sequence == 20
        assert a.urlpack_blob == b"newer"


class TestSourcePorts:
    def test_routable_bot_randomizes_source_ports(self):
        """Ordinary bots use a fresh source port per exchange; a fixed
        port is the Table 2 "port range" crawler defect."""
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        a.seed_peers([(b.bot_id, b.endpoint)])
        seen_ports = set()
        transport.add_tap(
            lambda m, ok: seen_ports.add(m.src.port) if m.src.ip == a.endpoint.ip else None
        )
        a.start()
        b.start()
        sched.run_until(24 * HOUR)
        assert len(seen_ports) > 3

    def test_natted_bot_keeps_mapped_endpoint(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0, routable=False)
        b = make_bot(sched, transport, 1)
        a.seed_peers([(b.bot_id, b.endpoint)])
        seen_ports = set()
        transport.add_tap(
            lambda m, ok: seen_ports.add(m.src.port) if m.src.ip == a.endpoint.ip else None
        )
        a.start()
        b.start()
        sched.run_until(12 * HOUR)
        assert seen_ports == {a.endpoint.port}

    def test_stop_releases_ephemeral_ports(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        a.seed_peers([(b.bot_id, b.endpoint)])
        a.start()  # b offline: pendings accumulate
        sched.run_until(2 * HOUR)
        a.stop()
        # Only possibly b's endpoint remains; all of a's are gone.
        assert not any(
            transport.is_bound(Endpoint(a.endpoint.ip, port)) for port in range(10240, 10340)
        )
        assert not transport.is_bound(a.endpoint)


class TestRobustness:
    def test_garbage_packet_counted_and_dropped(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        a.start()
        b.start()
        transport.send(a.endpoint, b.endpoint, b"\x00" * 40)
        sched.run_until(5.0)
        assert b.undecodable == 1

    def test_oversized_datagram_counted_and_run_continues(self):
        """A datagram longer than any Sality packet is undecodable; it
        must not abort the run, and the next request is still served."""
        sched, transport = make_world()
        a = make_bot(sched, transport, 0, cls=CaptureBot)
        b = make_bot(sched, transport, 1)
        a.start()
        b.start()
        transport.send(a.endpoint, b.endpoint, bytes(5000))  # > MAX_MESSAGE_LEN
        replies = []
        send_request(transport, sched, a, b, Command.URLPACK_REQUEST, b"\x00\x00\x00\x01", replies)
        assert b.undecodable == 1
        assert b.counters.requests_served == 1
        assert len(replies) == 1

    def test_zero_port_hello_counted_and_run_continues(self):
        """A HELLO advertising port 0 is undecodable: it must not abort
        the run (the bot cannot file an endpoint with port 0), and the
        next request is still served."""
        sched, transport = make_world()
        a = make_bot(sched, transport, 0, cls=CaptureBot)
        b = make_bot(sched, transport, 1)
        a.start()
        b.start()
        replies = []
        send_request(transport, sched, a, b, Command.HELLO, protocol.encode_hello(0), replies)
        assert b.undecodable == 1
        assert len(b.peer_list) == 0
        send_request(transport, sched, a, b, Command.URLPACK_REQUEST, b"\x00\x00\x00\x01", replies)
        assert b.counters.requests_served == 1
        assert len(replies) == 1

    def test_unsolicited_response_ignored(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        a.start()
        b.start()
        payload = protocol.encode_peer_entry(123, Endpoint(parse_ip("27.0.0.1"), 7000))
        send_request(transport, sched, a, b, Command.PEER_RESPONSE, payload)
        assert len(b.peer_list) == 0
