"""Behavioural tests for Zeus bots on a tiny simulated network."""

import random

import pytest

from repro.botnets.zeus import protocol
from repro.botnets.zeus.bot import ZeusBot, ZeusConfig
from repro.botnets.zeus.protocol import MessageType
from repro.core.sensor import ZeusSensor
from repro.net.address import parse_ip
from repro.net.transport import Endpoint, Transport, TransportConfig
from repro.sim.clock import HOUR, MINUTE
from repro.sim.scheduler import Scheduler


def make_world(loss_rate=0.0):
    sched = Scheduler()
    transport = Transport(
        sched, random.Random(0), config=TransportConfig(loss_rate=loss_rate)
    )
    return sched, transport


class CaptureBot(ZeusBot):
    """ZeusBot that records raw inbound messages.

    ZeusBot itself uses ``__slots__``, so tests spy via this subclass
    instead of patching ``handle_message`` on instances.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.captured = []

    def handle_message(self, message):
        self.captured.append(message)
        super().handle_message(message)


def make_bot(sched, transport, index, config=None, routable=True, cls=ZeusBot, **kwargs):
    rng = random.Random(100 + index)
    return cls(
        node_id=f"bot-{index}",
        bot_id=protocol.random_id(rng),
        # Distinct /20 per bot, or the Zeus subnet filter collapses them.
        endpoint=Endpoint(parse_ip(f"25.{index}.0.1"), 3000 + index),
        transport=transport,
        scheduler=sched,
        rng=rng,
        routable=routable,
        config=config if config is not None else ZeusConfig(),
        **kwargs,
    )


def link(a, b):
    """Make a know b."""
    a.seed_peers([(b.bot_id, b.endpoint)])


class TestPeerExchange:
    def test_version_probe_keeps_peers_fresh(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        link(a, b)
        a.start()
        b.start()
        sched.run_until(3 * HOUR)
        entry = a.peer_list.get(b.bot_id)
        assert entry is not None
        assert entry.failures == 0
        assert entry.last_seen > 0

    def test_unresponsive_peer_evicted(self):
        sched, transport = make_world()
        config = ZeusConfig(verify_per_cycle=5, evict_after_failures=5)
        a = make_bot(sched, transport, 0, config=config)
        b = make_bot(sched, transport, 1)
        link(a, b)
        a.start()  # b never starts: all probes time out
        sched.run_until(8 * HOUR)
        assert b.bot_id not in a.peer_list

    def test_peer_list_request_returns_closest_peers(self):
        sched, transport = make_world()
        bots = [
            make_bot(sched, transport, i, cls=CaptureBot if i == 1 else ZeusBot)
            for i in range(12)
        ]
        hub = bots[0]
        for other in bots[1:]:
            link(hub, other)
        for bot in bots:
            bot.start()

        # Craft a peer-list request from bot 1 to the hub.
        requester = bots[1]
        got = requester.captured
        message = protocol.make_message(
            MessageType.PEER_LIST_REQUEST,
            requester.bot_id,
            requester.rng,
            payload=requester.bot_id,
        )
        requester.transport.send(
            requester.endpoint, hub.endpoint, protocol.encrypt_message(message, hub.bot_id)
        )
        sched.run_until(10.0)
        assert len(got) == 1
        reply = protocol.decrypt_message(got[0].payload, requester.bot_id)
        assert reply.msg_type == MessageType.PEER_LIST_REPLY
        entries = protocol.decode_peer_entries(reply.payload)
        assert 1 <= len(entries) <= 10
        assert all(bot_id != requester.bot_id for bot_id, _ in entries)

    def test_requester_learned_by_push(self):
        """PLR handling adds the requester to the peer list (push)."""
        sched, transport = make_world()
        hub = make_bot(sched, transport, 0)
        newcomer = make_bot(sched, transport, 1)
        link(newcomer, hub)
        hub.start()
        newcomer.start()
        message = protocol.make_message(
            MessageType.PEER_LIST_REQUEST,
            newcomer.bot_id,
            newcomer.rng,
            payload=newcomer.bot_id,
        )
        transport.send(
            newcomer.endpoint, hub.endpoint, protocol.encrypt_message(message, hub.bot_id)
        )
        sched.run_until(5.0)
        assert newcomer.bot_id in hub.peer_list

    def test_peer_discovery_grows_lists(self):
        """Bots short on peers discover new ones through exchanges."""
        sched, transport = make_world()
        config = ZeusConfig(needed_peers=30, plr_per_cycle=3)
        bots = [make_bot(sched, transport, i, config=config) for i in range(20)]
        # Ring topology: each knows only 2 neighbours initially.
        for i, bot in enumerate(bots):
            link(bot, bots[(i + 1) % 20])
            link(bot, bots[(i + 2) % 20])
        for bot in bots:
            bot.start()
        before = sum(len(bot.peer_list) for bot in bots)
        sched.run_until(12 * HOUR)
        after = sum(len(bot.peer_list) for bot in bots)
        assert after > before

    def test_plr_history_recorded(self):
        sched, transport = make_world()
        hub = make_bot(sched, transport, 0)
        other = make_bot(sched, transport, 1)
        link(other, hub)
        hub.start()
        other.start()
        message = protocol.make_message(
            MessageType.PEER_LIST_REQUEST, other.bot_id, other.rng, payload=other.bot_id
        )
        transport.send(other.endpoint, hub.endpoint, protocol.encrypt_message(message, hub.bot_id))
        sched.run_until(5.0)
        history = hub.peer_list_requesters(since=0.0)
        assert len(history) == 1
        assert history[0][1] == other.endpoint.ip


class TestProtocolServices:
    def send_and_capture(self, sched, transport, src_bot, dst_bot, msg_type, payload):
        got = src_bot.captured
        message = protocol.make_message(msg_type, src_bot.bot_id, src_bot.rng, payload=payload)
        transport.send(
            src_bot.endpoint, dst_bot.endpoint, protocol.encrypt_message(message, dst_bot.bot_id)
        )
        sched.run_until(sched.now + 5.0)
        assert got, "no reply received"
        return protocol.decrypt_message(got[-1].payload, src_bot.bot_id)

    def test_proxy_request_served(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0, cls=CaptureBot)
        b = make_bot(sched, transport, 1)
        proxy = (protocol.random_id(random.Random(5)), Endpoint(parse_ip("26.0.0.1"), 7000))
        b.proxy_list = [proxy]
        a.start()
        b.start()
        reply = self.send_and_capture(sched, transport, a, b, MessageType.PROXY_REQUEST, b"")
        assert reply.msg_type == MessageType.PROXY_REPLY
        assert protocol.decode_peer_entries(reply.payload) == [proxy]

    def test_data_request_served(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0, cls=CaptureBot)
        b = make_bot(sched, transport, 1)
        a.start()
        b.start()
        reply = self.send_and_capture(sched, transport, a, b, MessageType.DATA_REQUEST, b"\x01")
        assert reply.msg_type == MessageType.DATA_REPLY
        resource, blob = protocol.decode_data_reply(reply.payload)
        assert resource == 1
        assert blob == b.config_blob

    def test_version_request_served(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0, cls=CaptureBot)
        b = make_bot(sched, transport, 1)
        a.start()
        b.start()
        reply = self.send_and_capture(sched, transport, a, b, MessageType.VERSION_REQUEST, b"")
        version, port = protocol.decode_version_reply(reply.payload)
        assert version == b.config.version
        assert port == b.endpoint.port


class TestDefences:
    def test_wrongly_keyed_message_dropped(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        a.start()
        b.start()
        message = protocol.make_message(MessageType.VERSION_REQUEST, a.bot_id, a.rng)
        wrong_key = protocol.random_id(random.Random(77))
        transport.send(a.endpoint, b.endpoint, protocol.encrypt_message(message, wrong_key))
        sched.run_until(5.0)
        assert b.undecryptable == 1
        assert b.counters.requests_served == 0

    @pytest.mark.parametrize("receiver", ["bot", "sensor"])
    def test_oversized_datagram_counted_and_run_continues(self, receiver):
        """A datagram longer than any Zeus message is undecryptable; it
        must not abort the run, and the next request is still served."""
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        if receiver == "bot":
            b = make_bot(sched, transport, 1)
        else:
            rng = random.Random(101)
            b = ZeusSensor(
                node_id="sensor-1",
                bot_id=protocol.random_id(rng),
                endpoint=Endpoint(parse_ip("25.1.0.1"), 3001),
                transport=transport,
                scheduler=sched,
                rng=rng,
            )
        a.start()
        b.start()
        transport.send(a.endpoint, b.endpoint, bytes(5000))  # > MAX_MESSAGE_LEN
        message = protocol.make_message(MessageType.VERSION_REQUEST, a.bot_id, a.rng)
        transport.send(a.endpoint, b.endpoint, protocol.encrypt_message(message, b.bot_id))
        sched.run_until(5.0)
        assert b.undecryptable == 1
        assert b.counters.requests_served == 1

    def test_static_blacklist_blocks(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        b.static_blacklist.add(a.endpoint.ip)
        a.start()
        b.start()
        message = protocol.make_message(MessageType.VERSION_REQUEST, a.bot_id, a.rng)
        transport.send(a.endpoint, b.endpoint, protocol.encrypt_message(message, b.bot_id))
        sched.run_until(5.0)
        assert b.blacklist_drops == 1
        assert b.counters.requests_served == 0

    def test_auto_blacklist_blocks_hard_hitter(self):
        """Rapid-fire PLRs trip the automatic blacklisting (Section 3.2)."""
        sched, transport = make_world()
        config = ZeusConfig(auto_blacklist_window=60.0, auto_blacklist_max_requests=3)
        hub = make_bot(sched, transport, 0, config=config)
        crawler = make_bot(sched, transport, 1)
        hub.start()
        crawler.start()

        def fire():
            message = protocol.make_message(
                MessageType.PEER_LIST_REQUEST, crawler.bot_id, crawler.rng, payload=hub.bot_id
            )
            transport.send(
                crawler.endpoint, hub.endpoint, protocol.encrypt_message(message, hub.bot_id)
            )

        for i in range(10):
            sched.call_at(float(i), fire)
        sched.run_until(60.0)
        assert hub.auto_blacklister.is_blocked(crawler.endpoint.ip)
        assert len(hub.peer_list_requesters(since=0.0)) <= 4

    def test_slow_requester_not_blacklisted(self):
        sched, transport = make_world()
        config = ZeusConfig(auto_blacklist_window=60.0, auto_blacklist_max_requests=3)
        hub = make_bot(sched, transport, 0, config=config)
        slow = make_bot(sched, transport, 1)
        hub.start()
        slow.start()

        def fire():
            message = protocol.make_message(
                MessageType.PEER_LIST_REQUEST, slow.bot_id, slow.rng, payload=hub.bot_id
            )
            transport.send(
                slow.endpoint, hub.endpoint, protocol.encrypt_message(message, hub.bot_id)
            )

        for i in range(10):
            sched.call_at(i * 30 * MINUTE, fire)
        sched.run_until(6 * HOUR)
        assert not hub.auto_blacklister.is_blocked(slow.endpoint.ip)
        # The scripted 10 requests all land (plus the bot's own normal
        # cycle-driven requests once it learns the hub).
        assert len(hub.peer_list_requesters(since=0.0)) >= 10
