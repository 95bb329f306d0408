"""Unit tests for routability and NAT punch-holes."""

import pytest

from repro.net.address import parse_ip
from repro.net.nat import NatGateway, RoutabilityTable, build_nat_gateways

BOT = (parse_ip("198.51.100.5"), 4000)
NATTED = (parse_ip("203.0.113.9"), 40001)
OTHER_NATTED = (parse_ip("203.0.113.9"), 40002)
REMOTE_IP = parse_ip("192.0.2.77")


class TestRoutabilityTable:
    def test_unregistered_endpoint_unreachable(self):
        table = RoutabilityTable()
        assert not table.inbound_allowed(BOT, REMOTE_IP, now=0.0)

    def test_routable_endpoint_reachable(self):
        table = RoutabilityTable()
        table.register(BOT, routable=True)
        assert table.inbound_allowed(BOT, REMOTE_IP, now=0.0)

    def test_non_routable_blocked_without_hole(self):
        table = RoutabilityTable()
        table.register(NATTED, routable=False)
        assert not table.inbound_allowed(NATTED, REMOTE_IP, now=0.0)

    def test_outbound_opens_hole_for_that_remote_only(self):
        table = RoutabilityTable()
        table.register(NATTED, routable=False)
        table.note_outbound(NATTED, REMOTE_IP, now=0.0)
        assert table.inbound_allowed(NATTED, REMOTE_IP, now=1.0)
        assert not table.inbound_allowed(NATTED, parse_ip("8.8.8.8"), now=1.0)

    def test_hole_expires(self):
        table = RoutabilityTable(hole_ttl=10.0)
        table.register(NATTED, routable=False)
        table.note_outbound(NATTED, REMOTE_IP, now=0.0)
        assert table.inbound_allowed(NATTED, REMOTE_IP, now=9.9)
        assert not table.inbound_allowed(NATTED, REMOTE_IP, now=10.1)

    def test_outbound_refreshes_hole(self):
        table = RoutabilityTable(hole_ttl=10.0)
        table.register(NATTED, routable=False)
        table.note_outbound(NATTED, REMOTE_IP, now=0.0)
        table.note_outbound(NATTED, REMOTE_IP, now=8.0)
        assert table.inbound_allowed(NATTED, REMOTE_IP, now=15.0)

    def test_routable_endpoint_opens_no_holes(self):
        table = RoutabilityTable()
        table.register(BOT, routable=True)
        table.note_outbound(BOT, REMOTE_IP, now=0.0)
        assert table.open_holes(BOT, now=1.0) == set()

    def test_unregister_clears_holes(self):
        table = RoutabilityTable()
        table.register(NATTED, routable=False)
        table.note_outbound(NATTED, REMOTE_IP, now=0.0)
        table.unregister(NATTED)
        table.register(NATTED, routable=False)
        assert not table.inbound_allowed(NATTED, REMOTE_IP, now=1.0)

    def test_open_holes_listing(self):
        table = RoutabilityTable()
        table.register(NATTED, routable=False)
        table.note_outbound(NATTED, REMOTE_IP, now=0.0)
        table.note_outbound(NATTED, parse_ip("8.8.4.4"), now=0.0)
        assert table.open_holes(NATTED, now=1.0) == {REMOTE_IP, parse_ip("8.8.4.4")}

    def test_open_holes_per_endpoint_and_unexpired(self):
        table = RoutabilityTable(hole_ttl=10.0)
        table.register(NATTED, routable=False)
        table.register(OTHER_NATTED, routable=False)
        table.note_outbound(NATTED, REMOTE_IP, now=0.0)
        table.note_outbound(NATTED, parse_ip("8.8.4.4"), now=5.0)
        table.note_outbound(OTHER_NATTED, parse_ip("8.8.8.8"), now=0.0)
        assert table.open_holes(NATTED, now=10.0) == {REMOTE_IP, parse_ip("8.8.4.4")}
        assert table.open_holes(NATTED, now=12.0) == {parse_ip("8.8.4.4")}
        assert table.open_holes(OTHER_NATTED, now=1.0) == {parse_ip("8.8.8.8")}
        assert table.open_holes(BOT, now=1.0) == set()

    def test_unregister_drops_only_its_own_holes(self):
        table = RoutabilityTable()
        table.register(NATTED, routable=False)
        table.register(OTHER_NATTED, routable=False)
        table.note_outbound(NATTED, REMOTE_IP, now=0.0)
        table.note_outbound(OTHER_NATTED, REMOTE_IP, now=0.0)
        table.note_outbound(OTHER_NATTED, parse_ip("8.8.8.8"), now=0.0)
        table.unregister(NATTED)
        assert not table.is_registered(NATTED)
        assert table.inbound_allowed(OTHER_NATTED, REMOTE_IP, now=1.0)
        assert table.open_holes(OTHER_NATTED, now=1.0) == {REMOTE_IP, parse_ip("8.8.8.8")}
        _assert_count_consistent(table, expected=2)
        table.unregister(NATTED)  # twice is harmless
        _assert_count_consistent(table, expected=2)

    def test_unregister_routable_endpoint_keeps_holes(self):
        table = RoutabilityTable()
        table.register(BOT, routable=True)
        table.register(NATTED, routable=False)
        table.note_outbound(NATTED, REMOTE_IP, now=0.0)
        table.unregister(BOT)
        assert table.open_holes(NATTED, now=1.0) == {REMOTE_IP}
        _assert_count_consistent(table, expected=1)


def _assert_count_consistent(table, expected):
    """The live hole count equals the holes actually stored, and no
    endpoint keeps an empty hole map."""
    stored = sum(len(holes) for holes in table._holes.values())
    assert table._hole_count == stored == expected
    assert all(table._holes.values())


class TestHoleCount:
    def test_refresh_does_not_double_count(self):
        table = RoutabilityTable()
        table.register(NATTED, routable=False)
        table.note_outbound(NATTED, REMOTE_IP, now=0.0)
        table.note_outbound(NATTED, REMOTE_IP, now=5.0)
        _assert_count_consistent(table, expected=1)

    def test_expiry_on_check_decrements(self):
        table = RoutabilityTable(hole_ttl=10.0)
        table.register(NATTED, routable=False)
        table.note_outbound(NATTED, REMOTE_IP, now=0.0)
        table.note_outbound(NATTED, parse_ip("8.8.4.4"), now=5.0)
        assert not table.inbound_allowed(NATTED, REMOTE_IP, now=11.0)
        _assert_count_consistent(table, expected=1)
        assert not table.inbound_allowed(NATTED, parse_ip("8.8.4.4"), now=16.0)
        _assert_count_consistent(table, expected=0)
        assert NATTED not in table._holes

    def test_sweep_reclaims_expired_and_rearms(self):
        table = RoutabilityTable(hole_ttl=10.0)
        sweep_min = RoutabilityTable.SWEEP_MIN
        natted = [(parse_ip("203.0.113.9"), 40000 + index) for index in range(4)]
        for endpoint in natted:
            table.register(endpoint, routable=False)
        # Fill to one short of the trigger with holes that will expire.
        for index in range(sweep_min - 1):
            table.note_outbound(natted[index % 3], REMOTE_IP + index, now=0.0)
        _assert_count_consistent(table, expected=sweep_min - 1)
        # The insert that reaches the trigger sweeps every expired hole.
        table.note_outbound(natted[3], REMOTE_IP, now=20.0)
        _assert_count_consistent(table, expected=1)
        assert list(table._holes) == [natted[3]]
        assert table._sweep_at == sweep_min
        assert table.open_holes(natted[3], now=21.0) == {REMOTE_IP}

    def test_sweep_keeps_live_holes(self):
        table = RoutabilityTable(hole_ttl=10.0)
        sweep_min = RoutabilityTable.SWEEP_MIN
        table.register(NATTED, routable=False)
        table.register(OTHER_NATTED, routable=False)
        for index in range(sweep_min // 2):
            table.note_outbound(NATTED, REMOTE_IP + index, now=0.0)
        for index in range(sweep_min // 2):
            table.note_outbound(OTHER_NATTED, REMOTE_IP + index, now=15.0)
        # The last insert hit the trigger at now=15: NATTED's holes expired.
        _assert_count_consistent(table, expected=sweep_min // 2)
        assert NATTED not in table._holes
        assert len(table.open_holes(OTHER_NATTED, now=16.0)) == sweep_min // 2

    def test_table_stays_bounded_under_expired_holes(self):
        """A long run of short-lived holes never grows the table past
        the sweep floor."""
        table = RoutabilityTable(hole_ttl=1.0)
        endpoints = [(parse_ip("203.0.113.9"), 40000 + index) for index in range(50)]
        for endpoint in endpoints:
            table.register(endpoint, routable=False)
        peak = 0
        for step in range(40_000):
            now = float(step // 100)  # each hole is expired two seconds on
            table.note_outbound(endpoints[step % 50], REMOTE_IP + step, now=now)
            peak = max(peak, table._hole_count)
        assert peak <= RoutabilityTable.SWEEP_MIN
        stored = sum(len(holes) for holes in table._holes.values())
        assert table._hole_count == stored <= RoutabilityTable.SWEEP_MIN


class TestNatGateway:
    def test_hosts_share_ip_with_distinct_ports(self):
        gw = NatGateway(public_ip=parse_ip("203.0.113.9"))
        a = gw.map_host()
        b = gw.map_host()
        assert a[0] == b[0] == parse_ip("203.0.113.9")
        assert a[1] != b[1]
        assert gw.occupancy == 2

    def test_port_exhaustion(self):
        gw = NatGateway(public_ip=parse_ip("203.0.113.9"), base_port=65535)
        gw.map_host()
        with pytest.raises(RuntimeError):
            gw.map_host()

    def test_build_nat_gateways(self):
        ips = [parse_ip("203.0.113.1"), parse_ip("203.0.113.2")]
        gws = build_nat_gateways(ips, [3, 1])
        assert [g.occupancy for g in gws] == [3, 1]

    def test_build_nat_gateways_misaligned_rejected(self):
        with pytest.raises(ValueError):
            build_nat_gateways([parse_ip("203.0.113.1")], [1, 2])
