"""Tests for active anti-recon attacks (Section 3)."""

import random

import pytest

from repro.botnets.antirecon import (
    AutoBlacklister,
    DisinformationPolicy,
    RetaliationTracker,
    ShadowNode,
    StaticBlacklist,
)
from repro.net.address import Subnet, is_reserved, parse_ip
from repro.net.transport import Endpoint

IP = parse_ip("198.51.100.9")


class TestStaticBlacklist:
    def test_add_and_block(self):
        bl = StaticBlacklist()
        bl.add(IP)
        assert bl.is_blocked(IP)
        assert not bl.is_blocked(IP + 1)
        assert bl.hits == 1

    def test_update_merges(self):
        bl = StaticBlacklist({IP})
        bl.update({IP + 1, IP + 2})
        assert len(bl) == 3

    def test_entries_visible(self):
        """Hardcoded blacklists ship in binaries, hence are public --
        blocked IPs burn for analysis on *other* botnets too."""
        bl = StaticBlacklist({IP})
        assert IP in bl.entries


class TestAutoBlacklister:
    def test_burst_trips_threshold(self):
        abl = AutoBlacklister(window=60.0, max_requests=3)
        for t in range(3):
            assert not abl.record(IP, float(t))
        assert abl.record(IP, 3.0)
        assert abl.is_blocked(IP)

    def test_spread_requests_stay_clean(self):
        abl = AutoBlacklister(window=60.0, max_requests=3)
        for i in range(50):
            assert not abl.record(IP, i * 30.0)
        assert not abl.is_blocked(IP)

    def test_block_is_permanent(self):
        abl = AutoBlacklister(window=60.0, max_requests=1)
        abl.record(IP, 0.0)
        abl.record(IP, 0.1)
        assert abl.record(IP, 99999.0)

    def test_nat_sharing_survives_threshold(self):
        """Several NATed bots on one IP at normal rates stay under the
        (deliberately lenient) threshold."""
        abl = AutoBlacklister(window=60.0, max_requests=6)
        # 4 bots, one request each per 30-min cycle => 4 requests/window max
        for cycle in range(48):
            for bot in range(4):
                assert not abl.record(IP, cycle * 1800.0 + bot * 2.0)

    def test_block_in_one_leaves_others_clean(self):
        """Instances share one empty ``blocked`` until their first block,
        which gives that instance a set of its own."""
        blocking = AutoBlacklister(window=60.0, max_requests=1)
        bystander = AutoBlacklister(window=60.0, max_requests=1)
        assert blocking.blocked is bystander.blocked
        blocking.record(IP, 0.0)
        assert blocking.record(IP, 0.1)
        assert blocking.is_blocked(IP)
        assert blocking.blocked == {IP}
        assert not bystander.is_blocked(IP)
        assert not bystander.record(IP, 0.2)
        assert not AutoBlacklister._NONE_BLOCKED
        assert bystander.blocked is AutoBlacklister._NONE_BLOCKED
        assert bystander.record(IP, 0.3)
        assert blocking.blocked is not bystander.blocked
        assert not AutoBlacklister._NONE_BLOCKED

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoBlacklister(window=0)
        with pytest.raises(ValueError):
            AutoBlacklister(max_requests=0)


class TestDisinformation:
    def entries(self, count=10):
        return [
            (bytes([i]) * 20, Endpoint(parse_ip("25.0.0.1") + i, 2000))
            for i in range(count)
        ]

    def test_pollution_replaces_fraction(self):
        policy = DisinformationPolicy(random.Random(0), junk_ratio=0.5)
        polluted = policy.pollute(self.entries())
        junk = [e for e in polluted if e[1].ip in policy.junk_space]
        assert len(junk) == 5
        assert policy.forged_entries == 5

    def test_zero_ratio_is_noop(self):
        policy = DisinformationPolicy(random.Random(0), junk_ratio=0.0)
        entries = self.entries()
        assert policy.pollute(entries) == entries

    def test_empty_list_passthrough(self):
        policy = DisinformationPolicy(random.Random(0), junk_ratio=0.5)
        assert policy.pollute([]) == []

    def test_shadow_nodes_used_when_available(self):
        shadow = ShadowNode(bot_id=b"\xee" * 20, endpoint=Endpoint(parse_ip("27.9.9.9"), 1234))
        policy = DisinformationPolicy(
            random.Random(1), junk_ratio=1.0, shadow_nodes=[shadow]
        )
        polluted = policy.pollute(self.entries(20))
        assert any(entry == (shadow.bot_id, shadow.endpoint) for entry in polluted)

    def test_custom_junk_space(self):
        space = Subnet.parse("100.100.0.0/24")
        policy = DisinformationPolicy(random.Random(0), junk_ratio=1.0, junk_space=space)
        polluted = policy.pollute(self.entries())
        assert all(entry[1].ip in space for entry in polluted)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            DisinformationPolicy(random.Random(0), junk_ratio=1.5)


class TestRetaliation:
    def test_launch_and_window(self):
        tracker = RetaliationTracker(attack_duration=100.0)
        tracker.launch(time=10.0, target_ip=IP)
        assert not tracker.under_attack(IP, 5.0)
        assert tracker.under_attack(IP, 10.0)
        assert tracker.under_attack(IP, 109.9)
        assert not tracker.under_attack(IP, 110.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RetaliationTracker().launch(0.0, IP, kind="emp")

    def test_targets(self):
        tracker = RetaliationTracker()
        tracker.launch(0.0, IP)
        tracker.launch(5.0, IP + 1, kind="infiltration", magnitude=0)
        assert tracker.targets() == {IP, IP + 1}

    def test_describe(self):
        event = RetaliationTracker().launch(0.0, IP)
        assert "ddos" in event.describe()
        assert "198.51.100.9" in event.describe()
