"""Unit tests for the Sality wire protocol codec."""

import random

import pytest

from repro.botnets.sality import protocol
from repro.botnets.sality.protocol import (
    Command,
    SalityDecodeError,
    SalityMessage,
    decode_packet,
    encode_packet,
)
from repro.botnets.zeus import protocol as zeus_protocol
from repro.net import transport
from repro.net.address import parse_ip
from repro.net.transport import Endpoint


def fresh(command=Command.PEER_REQUEST, payload=b"", minor=protocol.CURRENT_MINOR_VERSION, seed=1):
    return protocol.make_message(
        command, bot_id=0xDEADBEEF, rng=random.Random(seed), payload=payload, minor_version=minor
    )


class TestCodec:
    def test_roundtrip(self):
        message = fresh()
        assert decode_packet(encode_packet(message)) == message

    def test_roundtrip_hello(self):
        message = fresh(Command.HELLO, protocol.encode_hello(4000))
        decoded = decode_packet(encode_packet(message))
        assert protocol.decode_hello(decoded.payload) == 4000

    def test_packet_is_encrypted(self):
        message = fresh(Command.HELLO, protocol.encode_hello(4000))
        wire = encode_packet(message)
        # Plaintext header bytes (major=3, command) must not be visible.
        assert wire[4] != protocol.MAJOR_VERSION or wire[6] != Command.HELLO

    def test_zero_port_hello_rejected(self):
        with pytest.raises(SalityDecodeError):
            decode_packet(encode_packet(fresh(Command.HELLO, protocol.encode_hello(0))))

    def test_short_packet_rejected(self):
        with pytest.raises(SalityDecodeError):
            decode_packet(b"\x00" * 8)

    def test_corrupted_packet_rejected(self):
        wire = bytearray(encode_packet(fresh()))
        wire[4] ^= 0xFF  # flips the (encrypted) major version byte
        with pytest.raises(SalityDecodeError):
            decode_packet(bytes(wire))

    def test_wrong_minor_version_decodes(self):
        """Minor version mismatches are tolerated on decode -- they are
        an anomaly *signal*, not a protocol failure (Table 2)."""
        message = fresh(minor=1)
        assert decode_packet(encode_packet(message)).minor_version == 1

    def test_nonce_tamper_rejected(self):
        wire = bytearray(encode_packet(fresh()))
        wire[0] ^= 0x01  # clear-nonce prefix no longer matches body
        with pytest.raises(SalityDecodeError):
            decode_packet(bytes(wire))

    def test_unknown_command_rejected(self):
        message = SalityMessage(command=Command.PEER_REQUEST, bot_id=1, nonce=2)
        wire = bytearray(protocol._encode_plain(message))
        wire[2] = 0x77
        nonce_bytes = (2).to_bytes(4, "big")
        body = protocol._keystreams.xor(protocol.NETWORK_KEY + nonce_bytes, bytes(wire))
        with pytest.raises(SalityDecodeError):
            decode_packet(nonce_bytes + body)

    def test_padding_randomized(self):
        rng = random.Random(5)
        lengths = {
            len(protocol.make_message(Command.PEER_REQUEST, 1, rng).padding)
            for _ in range(50)
        }
        assert len(lengths) > 5


class TestPayloads:
    def test_peer_entry_roundtrip(self):
        endpoint = Endpoint(parse_ip("25.0.0.1"), 7000)
        payload = protocol.encode_peer_entry(0xABCD, endpoint)
        assert protocol.decode_peer_entry(payload) == (0xABCD, endpoint)

    def test_empty_peer_response(self):
        assert protocol.decode_peer_entry(b"") is None

    def test_bad_peer_entry_length(self):
        with pytest.raises(SalityDecodeError):
            protocol.decode_peer_entry(b"\x00" * 5)

    def test_zero_port_rejected(self):
        payload = protocol.encode_peer_entry(1, Endpoint(parse_ip("25.0.0.1"), 7000))
        with pytest.raises(SalityDecodeError):
            protocol.decode_peer_entry(payload[:-2] + b"\x00\x00")

    def test_peer_entries_share_interned_endpoints(self):
        """Both codecs decode an address through one intern table: one
        Endpoint object per (ip, port), whichever family named it."""
        endpoint = Endpoint(parse_ip("25.0.0.9"), 7001)
        payload = protocol.encode_peer_entry(0xABCD, endpoint)
        _, first = protocol.decode_peer_entry(payload)
        _, second = protocol.decode_peer_entry(payload)
        assert first == endpoint and second is first
        zeus_payload = zeus_protocol.encode_peer_entries([(b"\x07" * 20, endpoint)])
        assert zeus_protocol.decode_peer_entries(zeus_payload)[0][1] is first

    def test_endpoint_intern_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(transport, "_endpoint_intern", {})
        monkeypatch.setattr(transport, "_ENDPOINT_INTERN_MAX", 4)
        for port in range(7000, 7010):
            endpoint = Endpoint(parse_ip("25.0.0.1"), port)
            payload = protocol.encode_peer_entry(port, endpoint)
            assert protocol.decode_peer_entry(payload) == (port, endpoint)
            assert len(transport._endpoint_intern) <= 4
            # A Zeus reply naming an unseen address twice: the first
            # entry misses the table, the second finds it there.
            fresh_endpoint = Endpoint(parse_ip("25.0.0.2"), port)
            zeus_payload = zeus_protocol.encode_peer_entries([(b"\x07" * 20, fresh_endpoint)] * 2)
            (_, first), (_, second) = zeus_protocol.decode_peer_entries(zeus_payload)
            assert first == fresh_endpoint and second is first
            assert len(transport._endpoint_intern) <= 4

    def test_urlpack_roundtrip(self):
        payload = protocol.encode_urlpack(7, b"urls...")
        assert protocol.decode_urlpack(payload) == (7, b"urls...")

    def test_urlpack_length_mismatch(self):
        payload = bytearray(protocol.encode_urlpack(7, b"blob"))
        payload[5] += 1
        with pytest.raises(SalityDecodeError):
            protocol.decode_urlpack(bytes(payload))

    def test_single_entry_constraint_enforced_by_codec(self):
        """A multi-entry response is structurally invalid: Sality only
        ever exchanges one peer per response (Section 4.1.5)."""
        endpoint = Endpoint(parse_ip("25.0.0.1"), 7000)
        two_entries = protocol.encode_peer_entry(1, endpoint) + protocol.encode_peer_entry(2, endpoint)
        message = SalityMessage(
            command=Command.PEER_RESPONSE, bot_id=1, nonce=2, payload=two_entries
        )
        with pytest.raises(SalityDecodeError):
            decode_packet(encode_packet(message))
