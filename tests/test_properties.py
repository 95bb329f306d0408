"""Property-based tests (hypothesis) on core data structures and
protocol invariants."""

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.botnets import zeroaccess
from repro.botnets.graph import ConnectivityGraph
from repro.botnets.base import PeerEntry, PeerList
from repro.botnets.sality import protocol as sality_protocol
from repro.botnets.sality.bot import SalityBot, SalityConfig
from repro.botnets.state import PeerSlab
from repro.botnets.zeus import protocol as zeus_protocol
from repro.botnets.zeus.bot import ZeusBot, ZeusConfig
from repro.botnets.zeus.crypto import (
    MAX_MESSAGE_LEN,
    KeystreamCache,
    libcrypto_rc4,
    visual_decode,
    visual_encode,
    zeus_decrypt,
    zeus_encrypt,
)
from repro.core.anomaly.entropy import printable_ratio, shannon_entropy
from repro.core.detection.aggregation import MemberReport, aggregate_group, required_reporters
from repro.core.detection.groups import group_of, sample_bit_positions
from repro.core.detection.voting import LeaderVote, retrieve_from_leaders, tally_votes
from repro.net.address import MAX_IP, format_ip, parse_ip, prefix_mask, subnet_key
from repro.net.transport import Endpoint, Transport, TransportConfig
from repro.sim.scheduler import Scheduler
from tests.botnets.test_zeus_crypto import _textbook_rc4

ips = st.integers(min_value=0, max_value=MAX_IP)
ports = st.integers(min_value=1, max_value=65535)
ids20 = st.binary(min_size=20, max_size=20)
ids4 = st.binary(min_size=4, max_size=4)
uint32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


def _zeus_payload_for(msg_type):
    if msg_type == zeus_protocol.MessageType.PEER_LIST_REQUEST:
        return b"\x05" * 20
    if msg_type in (
        zeus_protocol.MessageType.PEER_LIST_REPLY,
        zeus_protocol.MessageType.PROXY_REPLY,
    ):
        return zeus_protocol.encode_peer_entries([])
    if msg_type == zeus_protocol.MessageType.VERSION_REPLY:
        return zeus_protocol.encode_version_reply(1, 2)
    if msg_type == zeus_protocol.MessageType.DATA_REQUEST:
        return b"\x01"
    if msg_type == zeus_protocol.MessageType.DATA_REPLY:
        return zeus_protocol.encode_data_reply(1, b"x")
    return b""


zeus_messages = st.builds(
    lambda msg_type, session, source, rnd, ttl, padding: zeus_protocol.ZeusMessage(
        msg_type=int(msg_type),
        session_id=session,
        source_id=source,
        payload=_zeus_payload_for(msg_type),
        random_byte=rnd,
        ttl=ttl,
        padding=padding,
    ),
    st.sampled_from(sorted(zeus_protocol.MessageType)),
    ids20,
    ids20,
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
    st.binary(max_size=zeus_protocol.MAX_LOP - 1),
)
endpoints = st.builds(Endpoint, ips, ports)
zeus_peer_entries = st.lists(st.tuples(ids20, endpoints), max_size=20)
sality_messages = st.builds(
    lambda bot_id, nonce, minor, padding: sality_protocol.SalityMessage(
        command=int(sality_protocol.Command.PEER_REQUEST),
        bot_id=bot_id,
        nonce=nonce,
        payload=b"",
        minor_version=minor,
        padding=padding,
    ),
    uint32,
    uint32,
    st.integers(min_value=0, max_value=255),
    st.binary(max_size=sality_protocol.MAX_PADDING),
)
zeroaccess_packets = st.builds(
    zeroaccess.encode_packet,
    st.sampled_from([zeroaccess.MSG_GETL, zeroaccess.MSG_RETL, zeroaccess.MSG_PUSH]),
    uint32,
    st.lists(st.tuples(uint32, ips), max_size=20),
)


class TestAddressProperties:
    @given(ips)
    def test_parse_format_roundtrip(self, ip):
        assert parse_ip(format_ip(ip)) == ip

    @given(ips, st.integers(min_value=0, max_value=32))
    def test_subnet_key_idempotent(self, ip, prefix):
        key = subnet_key(ip, prefix)
        assert subnet_key(key, prefix) == key

    @given(ips, st.integers(min_value=0, max_value=32), st.integers(min_value=0, max_value=32))
    def test_subnet_key_nesting(self, ip, a, b):
        """A shorter prefix's key absorbs a longer prefix's key."""
        short, long_ = min(a, b), max(a, b)
        assert subnet_key(subnet_key(ip, long_), short) == subnet_key(ip, short)

    @given(ips, st.integers(min_value=0, max_value=32))
    def test_key_preserves_masked_bits(self, ip, prefix):
        assert subnet_key(ip, prefix) == ip & prefix_mask(prefix)


class TestCryptoProperties:
    @given(st.binary(max_size=512))
    def test_visual_roundtrip(self, data):
        assert visual_decode(visual_encode(data)) == data

    @given(ids20, st.binary(max_size=512))
    def test_zeus_encrypt_roundtrip(self, key, plaintext):
        assert zeus_decrypt(key, zeus_encrypt(key, plaintext)) == plaintext

    @given(ids20, st.binary(min_size=1, max_size=256))
    def test_keystream_xor_involution(self, key, data):
        cache = KeystreamCache()
        assert cache.xor(key, cache.xor(key, data)) == data

    @given(ids20, ids20, st.binary(min_size=8, max_size=256))
    def test_distinct_keys_distinct_ciphertexts(self, key_a, key_b, plaintext):
        assume(key_a != key_b)
        assert zeus_encrypt(key_a, plaintext) != zeus_encrypt(key_b, plaintext)

    @given(
        st.binary(min_size=1, max_size=256),
        st.integers(min_value=0, max_value=MAX_MESSAGE_LEN),
    )
    @example(key=b"\x00", length=MAX_MESSAGE_LEN)
    def test_libcrypto_kernel_matches_textbook_rc4(self, key, length):
        kernel = libcrypto_rc4()
        if kernel is None:
            pytest.skip("libcrypto's RC4 kernel did not load on this platform")
        assert kernel(key, length) == _textbook_rc4(key, length)


class TestZeusCodecProperties:
    @given(zeus_messages)
    def test_encode_decode_roundtrip(self, message):
        decoded = zeus_protocol.decode_message(zeus_protocol.encode_message(message))
        assert decoded == message

    @given(zeus_peer_entries)
    def test_peer_entries_roundtrip(self, entries):
        payload = zeus_protocol.encode_peer_entries(entries)
        assert zeus_protocol.decode_peer_entries(payload) == entries

    @given(ids20, ids20)
    def test_xor_distance_metric(self, a, b):
        assert zeus_protocol.xor_distance(a, b) == zeus_protocol.xor_distance(b, a)
        assert zeus_protocol.xor_distance(a, a) == 0
        if a != b:
            assert zeus_protocol.xor_distance(a, b) > 0


class TestSalityCodecProperties:
    @given(sality_messages)
    def test_packet_roundtrip(self, message):
        wire = sality_protocol.encode_packet(message)
        assert sality_protocol.decode_packet(wire) == message

    @given(uint32, ips, ports)
    def test_peer_entry_roundtrip(self, bot_id, ip, port):
        payload = sality_protocol.encode_peer_entry(bot_id, Endpoint(ip, port))
        assert sality_protocol.decode_peer_entry(payload) == (bot_id, Endpoint(ip, port))


@st.composite
def hostile(draw, valid):
    """A valid encoding, then truncated, bit-flipped or extended --
    sometimes past ``MAX_MESSAGE_LEN``, the longest datagram a codec
    decrypts."""
    data = draw(valid)
    mutation = draw(st.sampled_from(["truncate", "flip", "extend", "oversize"]))
    if mutation == "truncate":
        return data[: draw(st.integers(min_value=0, max_value=max(len(data) - 1, 0)))]
    if mutation == "flip" and data:
        flipped = bytearray(data)
        bits = st.integers(min_value=0, max_value=len(data) * 8 - 1)
        for bit in draw(st.lists(bits, min_size=1, max_size=8)):
            flipped[bit // 8] ^= 1 << (bit % 8)
        return bytes(flipped)
    if mutation == "oversize":
        total = draw(st.integers(min_value=MAX_MESSAGE_LEN - 1, max_value=MAX_MESSAGE_LEN + 64))
        return data + bytes([draw(st.integers(0, 255))]) * max(1, total - len(data))
    return data + draw(st.binary(min_size=1, max_size=64))


def _decodes_or_names_error(decode, data, error):
    """``decode(data)`` returns, or raises ``error`` -- nothing else."""
    try:
        decode(data)
    except error:
        pass


class TestDecoderRobustness:
    """Every decoder that reads attacker-controlled bytes returns a
    value or raises its codec's named error, and nothing else."""

    @given(zeus_messages, ids20, st.data())
    def test_zeus_decrypt_message(self, message, own_id, data):
        wire = data.draw(hostile(st.just(zeus_protocol.encrypt_message(message, own_id))))
        _decodes_or_names_error(
            lambda raw: zeus_protocol.decrypt_message(raw, own_id),
            wire,
            zeus_protocol.ZeusDecodeError,
        )

    @given(hostile(zeus_peer_entries.map(zeus_protocol.encode_peer_entries)))
    def test_zeus_decode_peer_entries(self, payload):
        _decodes_or_names_error(
            zeus_protocol.decode_peer_entries, payload, zeus_protocol.ZeusDecodeError
        )

    @given(hostile(sality_messages.map(sality_protocol.encode_packet)))
    @example(bytes(4 + MAX_MESSAGE_LEN + 1))  # one byte past the nonce + body limit
    def test_sality_decode_packet(self, wire):
        _decodes_or_names_error(
            sality_protocol.decode_packet, wire, sality_protocol.SalityDecodeError
        )

    @given(hostile(st.builds(sality_protocol.encode_peer_entry, uint32, endpoints)))
    def test_sality_decode_peer_entry(self, payload):
        _decodes_or_names_error(
            sality_protocol.decode_peer_entry, payload, sality_protocol.SalityDecodeError
        )

    @given(hostile(zeroaccess_packets))
    def test_zeroaccess_decode_packet(self, wire):
        _decodes_or_names_error(
            zeroaccess.decode_packet, wire, zeroaccess.ZeroAccessDecodeError
        )


# -- hostile but decodable input to bot handlers -------------------------------

#: Bound attacker endpoints with the extreme ports 1 and 65535: the
#: first two share an IP and the first three a /20, which starts empty.
#: The victim's seeded neighbours live at the last three (three more
#: /20s), so the attackers also speak from their neighbours' addresses.
HOSTILE_ENDPOINTS = [
    Endpoint(parse_ip("60.0.0.1"), 1),
    Endpoint(parse_ip("60.0.0.1"), 65535),
    Endpoint(parse_ip("60.0.15.255"), 65535),
    Endpoint(parse_ip("60.0.16.1"), 1),
    Endpoint(parse_ip("61.0.0.1"), 65535),
    Endpoint(parse_ip("62.0.0.1"), 1),
]
NEIGHBOUR_AT = (3, 4, 5)
#: Index into a victim's ID pool: 0 is its own ID, 1-3 its neighbours,
#: 4-5 two attacker IDs, so every draw is a repeat of a few IDs.
pool_ids = st.integers(min_value=0, max_value=5)
hostile_at = st.integers(min_value=0, max_value=len(HOSTILE_ENDPOINTS) - 1)
#: Index into the victim's pending sessions or nonces; None, or past the
#: end, picks a fresh value instead.
pending_picks = st.one_of(st.none(), st.integers(min_value=0, max_value=2))
pauses = st.sampled_from([0.5, 5.0, 90.0, 400.0])


def _hostile_world(slab):
    scheduler = Scheduler()
    transport = Transport(scheduler, random.Random(0), config=TransportConfig(loss_rate=0.0))
    for endpoint in HOSTILE_ENDPOINTS:
        transport.bind(endpoint, lambda message: None)
    return scheduler, transport, (PeerSlab() if slab else None)


def _assert_list_sane(bot):
    """The bot's own ID is absent, the list is within capacity, and it
    holds at most one entry per filter subnet."""
    peer_list = bot.peer_list
    assert bot.bot_id not in peer_list
    assert len(peer_list) <= peer_list.capacity
    keys = [subnet_key(entry.endpoint.ip, peer_list.ip_filter_prefix) for entry in peer_list]
    assert len(keys) == len(set(keys))


def _pick_pending(pending, pick, fresh):
    keys = list(pending)
    return fresh if pick is None or pick >= len(keys) else keys[pick]


def _run_hostile(scheduler, victim, deliveries):
    """Start ``victim`` with a cycle due at once, then deliver each
    ``(src, wire, pause)`` and run for ``pause`` seconds, checking the
    victim's list after every step."""
    victim.start(first_cycle_delay=1.0)
    scheduler.run_until(2.0)  # the first cycle's requests are pending
    for src, build_wire, pause in deliveries:
        victim.transport.send(src, victim.endpoint, build_wire())
        scheduler.run_until(scheduler.now + pause)
        _assert_list_sane(victim)


zeus_hostile_ops = st.lists(
    st.tuples(
        hostile_at,
        st.sampled_from(sorted(zeus_protocol.MessageType)),
        pool_ids,  # source ID
        pending_picks,  # session ID
        pool_ids,  # lookup key
        st.lists(st.tuples(pool_ids, hostile_at), max_size=zeus_protocol.MAX_PEERS_PER_RESPONSE),
        st.sampled_from([1, 65535]),  # advertised port
        pauses,
    ),
    min_size=1,
    max_size=25,
)
sality_hostile_ops = st.lists(
    st.tuples(
        hostile_at,
        st.sampled_from(sorted(sality_protocol.Command)),
        pool_ids,  # sender bot ID
        pending_picks,  # nonce
        st.one_of(st.none(), st.tuples(pool_ids, hostile_at)),  # peer entry
        st.sampled_from([0, 1, 65535]),  # advertised port
        pauses,
    ),
    min_size=1,
    max_size=25,
)


class TestHostileHandlers:
    """Bot handlers fed well-formed messages from bound attacker
    endpoints: the bot's own ID, its neighbours' IDs, repeated IDs,
    extreme ports, /20 and IP collisions, and replayed pending sessions
    or nonces.  Nothing escapes the run, and the peer list keeps its
    invariants."""

    @given(st.integers(min_value=1, max_value=6), st.booleans(), zeus_hostile_ops)
    @settings(deadline=None)
    # A peer-list request naming the victim as its source.
    @example(3, False, [(1, zeus_protocol.MessageType.PEER_LIST_REQUEST, 0, None, 0, [], 1, 5.0)])
    def test_zeus_bot(self, capacity, slab, ops):
        scheduler, transport, peer_slab = _hostile_world(slab)
        rng = random.Random(11)
        ids = [zeus_protocol.random_id(rng) for _ in range(6)]
        victim = ZeusBot(
            "victim", ids[0], Endpoint(parse_ip("25.0.0.1"), 3000), transport, scheduler,
            random.Random(12), config=ZeusConfig(peer_list_capacity=capacity), slab=peer_slab,
        )
        victim.seed_peers([(ids[1 + k], HOSTILE_ENDPOINTS[at]) for k, at in enumerate(NEIGHBOUR_AT)])
        fresh_session = zeus_protocol.random_id(rng)
        kinds = zeus_protocol.MessageType

        def wire(msg_type, source, pick, key, entries, port):
            def build():
                if msg_type in (kinds.PEER_LIST_REPLY, kinds.PROXY_REPLY):
                    payload = zeus_protocol.encode_peer_entries(
                        [(ids[i], HOSTILE_ENDPOINTS[at]) for i, at in entries]
                    )
                else:
                    payload = {
                        kinds.PEER_LIST_REQUEST: ids[key],
                        kinds.VERSION_REPLY: zeus_protocol.encode_version_reply(1, port),
                        kinds.DATA_REQUEST: b"\x01",
                        kinds.DATA_REPLY: zeus_protocol.encode_data_reply(1, b"x"),
                    }.get(msg_type, b"")
                session = _pick_pending(victim._pending, pick, fresh_session)
                message = zeus_protocol.ZeusMessage(int(msg_type), session, ids[source], payload)
                return zeus_protocol.encrypt_message(message, victim.bot_id)

            return build

        _run_hostile(
            scheduler,
            victim,
            [(HOSTILE_ENDPOINTS[at], wire(*op), pause) for at, *op, pause in ops],
        )

    @given(st.integers(min_value=1, max_value=6), st.booleans(), sality_hostile_ops)
    @settings(deadline=None)
    # A HELLO advertising port 0.
    @example(3, False, [(1, sality_protocol.Command.HELLO, 4, None, None, 0, 5.0)])
    def test_sality_bot(self, capacity, slab, ops):
        scheduler, transport, peer_slab = _hostile_world(slab)
        rng = random.Random(21)
        ids = [rng.getrandbits(32) for _ in range(6)]
        victim = SalityBot(
            "victim", ids[0].to_bytes(4, "big"), Endpoint(parse_ip("25.0.0.1"), 3000), transport,
            scheduler, random.Random(22), config=SalityConfig(peer_list_capacity=capacity),
            slab=peer_slab,
        )
        victim.seed_peers(
            [(ids[1 + k].to_bytes(4, "big"), HOSTILE_ENDPOINTS[at]) for k, at in enumerate(NEIGHBOUR_AT)]
        )
        commands = sality_protocol.Command

        def wire(command, sender, pick, entry, port):
            def build():
                if command == commands.PEER_RESPONSE:
                    payload = b"" if entry is None else sality_protocol.encode_peer_entry(
                        ids[entry[0]], HOSTILE_ENDPOINTS[entry[1]]
                    )
                else:
                    payload = {
                        commands.HELLO: sality_protocol.encode_hello(port),
                        commands.URLPACK_REQUEST: (7).to_bytes(4, "big"),
                        # The port draw doubles as the pack's sequence number.
                        commands.URLPACK_RESPONSE: sality_protocol.encode_urlpack(port, b"blob"),
                    }.get(command, b"")
                nonce = _pick_pending(victim._pending, pick, 0xFFFFFFFF)
                message = sality_protocol.SalityMessage(int(command), ids[sender], nonce, payload)
                return sality_protocol.encode_packet(message)

            return build

        _run_hostile(
            scheduler,
            victim,
            [(HOSTILE_ENDPOINTS[at], wire(*op), pause) for at, *op, pause in ops],
        )


class TestGraphProperties:
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=60,
        )
    )
    def test_degree_sum_invariant(self, operations):
        """sum(out) == sum(in) == |E| under any add/remove sequence."""
        graph = ConnectivityGraph()
        for add, a, b in operations:
            if a == b:
                continue
            if add:
                graph.add_edge(f"n{a}", f"n{b}")
            else:
                graph.remove_edge(f"n{a}", f"n{b}")
        edges = graph.check_degree_sum()
        assert edges == graph.edge_count
        assert edges == sum(graph.out_degree(n) for n in graph.nodes)


class TestPeerListProperties:
    @given(
        st.integers(min_value=1, max_value=10),
        st.lists(st.tuples(ids4, ips, st.floats(min_value=0, max_value=1000)), max_size=60),
    )
    def test_capacity_never_exceeded(self, capacity, additions):
        peer_list = PeerList(capacity=capacity)
        for bot_id, ip, last_seen in additions:
            peer_list.add(PeerEntry(bot_id=bot_id, endpoint=Endpoint(ip, 1000), last_seen=last_seen))
        assert len(peer_list) <= capacity

    @given(st.lists(st.tuples(ids4, ips, st.floats(min_value=0, max_value=1000)), max_size=60))
    def test_subnet_filter_invariant(self, additions):
        """At most one entry per /20 with the Zeus filter."""
        peer_list = PeerList(capacity=100, ip_filter_prefix=20)
        for bot_id, ip, last_seen in additions:
            peer_list.add(PeerEntry(bot_id=bot_id, endpoint=Endpoint(ip, 1000), last_seen=last_seen))
        keys = [subnet_key(entry.endpoint.ip, 20) for entry in peer_list]
        assert len(keys) == len(set(keys))


class TestSchedulerProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1000), max_size=50))
    def test_dispatch_order_is_time_order(self, times):
        scheduler = Scheduler()
        fired = []
        for time in times:
            scheduler.call_at(time, lambda t=time: fired.append(t))
        scheduler.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)


class TestEntropyProperties:
    @given(st.binary(max_size=2048))
    def test_entropy_bounds(self, data):
        entropy = shannon_entropy(data)
        assert 0.0 <= entropy <= 8.0 + 1e-9

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=1, max_value=500))
    def test_constant_data_zero_entropy(self, byte, length):
        assert shannon_entropy(bytes([byte] * length)) == 0.0

    @given(st.binary(max_size=512))
    def test_printable_ratio_bounds(self, data):
        assert 0.0 <= printable_ratio(data) <= 1.0


class TestDetectionProperties:
    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.001, max_value=1.0))
    def test_required_reporters_bounds(self, group_size, threshold):
        required = required_reporters(group_size, threshold)
        assert required >= 1
        if group_size:
            assert required <= group_size + 1

    @given(st.binary(min_size=20, max_size=20), st.integers(min_value=0, max_value=8))
    def test_group_of_in_range(self, bot_id, g):
        positions = sample_bit_positions(g, random.Random(0))
        assert 0 <= group_of(bot_id, positions) < 2 ** g

    @given(
        st.lists(st.frozensets(st.integers(min_value=0, max_value=30), max_size=6), max_size=10),
        st.floats(min_value=0.1, max_value=0.9),
    )
    def test_tally_votes_subset_of_union(self, key_sets, majority):
        votes = [LeaderVote(group_index=i, keys=keys) for i, keys in enumerate(key_sets)]
        result = tally_votes(votes, majority_fraction=majority)
        union = set().union(*key_sets) if key_sets else set()
        assert result <= union

    @given(
        st.lists(st.sets(st.integers(min_value=0, max_value=30), max_size=6), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=10),
    )
    def test_retrieval_subset_of_union(self, leader_lists, sample_size):
        result = retrieve_from_leaders(leader_lists, sample_size, random.Random(0))
        assert result <= set().union(*leader_lists)

    @given(
        st.lists(
            st.lists(st.tuples(st.floats(min_value=0, max_value=100), ips), max_size=8),
            min_size=1,
            max_size=20,
        ),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_aggregation_flags_subset_of_reported(self, member_requests, threshold):
        reports = [
            MemberReport(node_id=f"m{i}", requests=tuple(reqs))
            for i, reqs in enumerate(member_requests)
        ]
        verdict = aggregate_group(0, reports, threshold, since=0.0, until=200.0)
        reported = {ip for reqs in member_requests for _, ip in reqs}
        assert verdict.suspicious <= reported
        # Flagged keys meet the reporter threshold by construction.
        for key in verdict.suspicious:
            assert verdict.reporter_counts[key] >= verdict.threshold_count
