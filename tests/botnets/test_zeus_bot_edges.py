"""Edge-case tests for Zeus bot message handling."""

import random

import pytest

from repro.botnets.base import PeerEntry
from repro.botnets.zeus import protocol
from repro.botnets.zeus.bot import ZeusBot, ZeusConfig
from repro.botnets.zeus.protocol import MessageType
from repro.net.address import parse_ip
from repro.net.transport import Endpoint, Transport, TransportConfig
from repro.sim.clock import HOUR
from repro.sim.scheduler import Scheduler


def make_world():
    sched = Scheduler()
    transport = Transport(sched, random.Random(0), config=TransportConfig(loss_rate=0.0))
    return sched, transport


def make_bot(sched, transport, index, **kwargs):
    rng = random.Random(300 + index)
    return ZeusBot(
        node_id=f"bot-{index}",
        bot_id=protocol.random_id(rng),
        endpoint=Endpoint(parse_ip(f"25.{index}.0.1"), 3000 + index),
        transport=transport,
        scheduler=sched,
        rng=rng,
        **kwargs,
    )


def send(transport, src_bot, dst_bot, message):
    transport.send(
        src_bot.endpoint, dst_bot.endpoint, protocol.encrypt_message(message, dst_bot.bot_id)
    )


class TestUnsolicitedReplies:
    def test_unsolicited_peer_list_reply_ignored(self):
        """Peer-list replies with unknown session IDs must not poison
        the peer list (replay/poisoning protection)."""
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        a.start()
        b.start()
        junk_entries = [
            (protocol.random_id(random.Random(i)), Endpoint(parse_ip("27.0.0.1") + i, 4000))
            for i in range(5)
        ]
        reply = protocol.make_message(
            MessageType.PEER_LIST_REPLY,
            a.bot_id,
            a.rng,
            payload=protocol.encode_peer_entries(junk_entries),
        )
        send(transport, a, b, reply)
        sched.run_until(10.0)
        assert len(b.peer_list) == 0

    def test_mismatched_reply_type_ignored(self):
        """A reply whose session belongs to a different request type is
        dropped (no type confusion)."""
        sched, transport = make_world()
        a = make_bot(sched, transport, 0, config=ZeusConfig(verify_per_cycle=1))
        b = make_bot(sched, transport, 1)
        a.seed_peers([(b.bot_id, b.endpoint)])
        a.start()
        b.start()
        sched.run_until(0.5)  # before any cycle fires
        # Forge a session: a sends VERSION_REQUEST; we answer with a
        # PEER_LIST_REPLY under the same session.
        a.run_cycle()  # sends version request to b
        session = next(
            sid
            for sid, pending in a._pending.items()
            if pending.msg_type == MessageType.VERSION_REQUEST
        )
        reply = protocol.make_message(
            MessageType.PEER_LIST_REPLY,
            b.bot_id,
            b.rng,
            payload=protocol.encode_peer_entries(
                [(protocol.random_id(random.Random(7)), Endpoint(parse_ip("27.0.0.9"), 4000))]
            ),
            session_id=session,
        )
        send(transport, b, a, reply)
        sched.run_until(5.0)
        assert not any(
            entry.endpoint.ip == parse_ip("27.0.0.9") for entry in a.peer_list
        )

    def test_own_id_never_added_from_replies(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        a.seed_peers([(b.bot_id, b.endpoint)])
        a.start()
        b.start()
        # b maliciously advertises a's own identity back to it.
        b.peer_list.add(PeerEntry(bot_id=a.bot_id, endpoint=a.endpoint, last_seen=1.0))
        sched.run_until(6 * HOUR)
        assert a.bot_id not in a.peer_list

    def test_own_id_never_pushed_by_requests(self):
        """A peer-list request naming the receiver as its source is
        answered, but does not file the receiver under the sender's
        address."""
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        a.start()
        b.start()
        request = protocol.make_message(
            MessageType.PEER_LIST_REQUEST, a.bot_id, b.rng, payload=a.bot_id
        )
        send(transport, b, a, request)
        sched.run_until(10.0)
        assert a.counters.requests_served == 1
        assert a.bot_id not in a.peer_list
        assert len(a.peer_list) == 0


class TestProxyAndData:
    def test_proxy_reply_resolves_pending(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        a.seed_peers([(b.bot_id, b.endpoint)])
        a.start()
        b.start()
        entry = a.peer_list.get(b.bot_id)
        a._send_request(entry.bot_id, entry.endpoint, MessageType.PROXY_REQUEST, b"")
        assert len(a._pending) == 1
        sched.run_until(10.0)
        assert len(a._pending) == 0

    def test_data_reply_resolves_pending(self):
        sched, transport = make_world()
        a = make_bot(sched, transport, 0)
        b = make_bot(sched, transport, 1)
        a.seed_peers([(b.bot_id, b.endpoint)])
        a.start()
        b.start()
        entry = a.peer_list.get(b.bot_id)
        a._send_request(entry.bot_id, entry.endpoint, MessageType.DATA_REQUEST, b"\x01")
        sched.run_until(10.0)
        assert len(a._pending) == 0

    def test_pending_expires_and_penalizes(self):
        sched, transport = make_world()
        config = ZeusConfig(response_timeout=30.0, evict_after_failures=2)
        a = make_bot(sched, transport, 0, config=config)
        ghost_id = protocol.random_id(random.Random(9))
        a.seed_peers([(ghost_id, Endpoint(parse_ip("27.0.0.1"), 4000))])
        a.start()
        entry = a.peer_list.get(ghost_id)
        a._send_request(entry.bot_id, entry.endpoint, MessageType.VERSION_REQUEST, b"")
        sched.run_until(HOUR)
        a._expire_pending(sched.now)
        assert a.peer_list.get(ghost_id) is None or a.peer_list.get(ghost_id).failures > 0


class TestRequesterPush:
    def test_push_respects_slash20_filter(self):
        """A requester from an occupied /20 is not added twice."""
        sched, transport = make_world()
        hub = make_bot(sched, transport, 0)
        first = make_bot(sched, transport, 1)
        hub.start()
        first.start()
        # Two distinct bot IDs sharing first's /20.
        imposter_rng = random.Random(11)
        imposter_id = protocol.random_id(imposter_rng)
        imposter_endpoint = Endpoint(first.endpoint.ip + 1, 3999)
        transport.bind(imposter_endpoint, lambda m: None)
        for source_id, endpoint in ((first.bot_id, first.endpoint), (imposter_id, imposter_endpoint)):
            message = protocol.make_message(
                MessageType.PEER_LIST_REQUEST, source_id, imposter_rng, payload=hub.bot_id
            )
            transport.send(endpoint, hub.endpoint, protocol.encrypt_message(message, hub.bot_id))
        sched.run_until(10.0)
        in_subnet = [
            entry for entry in hub.peer_list
            if entry.endpoint.ip >> 12 == first.endpoint.ip >> 12
        ]
        assert len(in_subnet) == 1
