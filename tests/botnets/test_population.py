"""Tests for population-builder address layout (hotspots, dense
neighborhoods, NAT grouping), bootstrap peer picks, and the state bots
share instead of copying (peer IDs, handler tables, proxy list)."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.botnets.antirecon import DisinformationPolicy
from repro.botnets.base import PeerList
from repro.botnets.population import PopulationBuilder, PopulationConfig
from repro.botnets.sality.bot import SalityBot
from repro.botnets.sality.network import SalityNetwork, SalityNetworkConfig
from repro.botnets.sality.protocol import Command
from repro.botnets.zeus.bot import ZeusBot
from repro.botnets.zeus.network import ZeusNetwork, ZeusNetworkConfig
from repro.botnets.zeus.protocol import MessageType
from repro.core.sensor import SalitySensor, ZeusSensor
from repro.core.sinkhole import SinkholeNode
from repro.botnets.state import SUBNET_KEYS_MAX, SlabPeerList
from repro.net.address import Subnet, parse_ip, subnet_key
from repro.net.transport import Endpoint, Transport
from repro.sim.clock import HOUR
from repro.sim.scheduler import Scheduler


def build(**overrides):
    defaults = dict(population=120, routable_fraction=0.5, bootstrap_peers=8, master_seed=4)
    defaults.update(overrides)
    net = ZeusNetwork(ZeusNetworkConfig(**defaults))
    net.build()
    return net


class TestDenseNeighborhoods:
    def test_each_neighborhood_fully_populated(self):
        net = build(dense_neighborhoods=3, bots_per_dense_neighborhood=8)
        assert len(net.dense_neighborhood_keys) == 3
        for key in net.dense_neighborhood_keys:
            members = [
                bot for bot in net.routable_bots if subnet_key(bot.endpoint.ip, 19) == key
            ]
            assert len(members) == 8
            halves = {subnet_key(bot.endpoint.ip, 20) for bot in members}
            assert len(halves) == 2  # split across both /20 halves

    def test_odd_bot_count_split(self):
        net = build(dense_neighborhoods=1, bots_per_dense_neighborhood=7)
        key = net.dense_neighborhood_keys[0]
        members = [
            bot for bot in net.routable_bots if subnet_key(bot.endpoint.ip, 19) == key
        ]
        assert len(members) == 7

    def test_no_neighborhoods_by_default(self):
        net = build()
        assert net.dense_neighborhood_keys == []

    def test_addresses_unique_where_required(self):
        net = build(dense_neighborhoods=4)
        routable_ips = [bot.endpoint.ip for bot in net.routable_bots]
        assert len(routable_ips) == len(set(routable_ips))
        endpoints = [bot.endpoint for bot in net.bots.values()]
        assert len(endpoints) == len(set(endpoints))  # NAT shares IPs, not ports

    def test_validation(self):
        config = PopulationConfig(dense_neighborhoods=2)
        assert config.bots_per_dense_neighborhood == 8


class TestAddressLayout:
    def test_routable_ips_inside_configured_blocks(self):
        net = build()
        blocks = [Subnet.parse(b) for b in net.config.routable_blocks]
        for bot in net.routable_bots:
            assert any(bot.endpoint.ip in block for block in blocks)

    def test_nat_ips_inside_nat_blocks(self):
        net = build()
        blocks = [Subnet.parse(b) for b in net.config.nat_blocks]
        for bot in net.non_routable_bots:
            assert any(bot.endpoint.ip in block for block in blocks)

    def test_hotspots_create_shared_slash24s(self):
        net = build(population=400, routable_fraction=0.5, subnet_hotspot_fraction=0.3)
        counts = {}
        for bot in net.routable_bots:
            key = subnet_key(bot.endpoint.ip, 24)
            counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) >= 2  # at least one multi-infection /24

    def test_zero_hotspot_fraction_spreads_bots(self):
        net = build(population=200, routable_fraction=0.5, subnet_hotspot_fraction=0.0)
        counts = {}
        for bot in net.routable_bots:
            key = subnet_key(bot.endpoint.ip, 24)
            counts[key] = counts.get(key, 0) + 1
        # Random draws over three /12 blocks: collisions are possible
        # but shared /24s must be rare without hotspotting.
        shared = sum(1 for c in counts.values() if c > 1)
        assert shared <= len(net.routable_bots) * 0.1

    def test_gateway_occupancy_bounded(self):
        net = build(population=300, routable_fraction=0.2, max_bots_per_gateway=3)
        assert all(1 <= g.occupancy <= 3 for g in net.gateways)


def _reference_picks(builder, rng, routable):
    """The quadratic bootstrap both families used to run: a fresh
    candidate list per bot, sampled directly."""
    per_bot = min(builder.config.bootstrap_peers, len(routable))
    for bot in builder.bots.values():
        candidates = [peer for peer in routable if peer is not bot]
        picks = rng.sample(candidates, min(per_bot, len(candidates)))
        yield bot, [(peer.bot_id, peer.endpoint) for peer in picks]


class TestBootstrapPicks:
    @given(
        population=st.integers(min_value=1, max_value=300),
        share=st.floats(min_value=0.001, max_value=1.0),
        bootstrap_peers=st.integers(min_value=1, max_value=60),
        layout_seed=st.integers(min_value=0, max_value=2**32 - 1),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # random.sample keeps a pool list while the population is at most
    # its set size (21 for k <= 5, 85 for k <= 21) and a set of chosen
    # indices above it.  One routable bot has no candidate peer; with
    # two, each still draws (randbelow(1) consumes bits).
    @example(population=12, share=1.0, bootstrap_peers=3, layout_seed=0, seed=1)  # pool
    @example(population=200, share=0.5, bootstrap_peers=3, layout_seed=0, seed=1)  # set
    @example(population=300, share=1.0, bootstrap_peers=15, layout_seed=5, seed=2)  # set
    @example(population=40, share=0.001, bootstrap_peers=8, layout_seed=3, seed=4)  # one
    @example(population=5, share=0.4, bootstrap_peers=8, layout_seed=3, seed=4)  # two
    @example(population=1, share=1.0, bootstrap_peers=8, layout_seed=0, seed=4)  # alone
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_sample(self, population, share, bootstrap_peers, layout_seed, seed):
        """Every bot gets exactly the reference's peers, and the stream
        ends in the reference's state."""
        routable_count = max(1, round(population * share))
        flags = [index < routable_count for index in range(population)]
        random.Random(layout_seed).shuffle(flags)
        builder = PopulationBuilder(PopulationConfig(bootstrap_peers=bootstrap_peers))
        builder.bots = {
            f"bot-{index:06d}": SimpleNamespace(routable=flag, bot_id=b"%06d" % index, endpoint=index)
            for index, flag in enumerate(flags)
        }
        routable = builder.routable_bots
        rng, reference_rng = random.Random(seed), random.Random(seed)
        picks = list(builder.bootstrap_picks(rng, routable))
        expected = list(_reference_picks(builder, reference_rng, routable))
        assert len(picks) == population
        for (bot, peers), (reference_bot, reference_peers) in zip(picks, expected):
            assert bot is reference_bot
            assert peers == reference_peers
            assert all(bot_id != bot.bot_id for bot_id, _ in peers)
        assert rng.getstate() == reference_rng.getstate()

    @pytest.mark.parametrize(
        "network, config",
        [(ZeusNetwork, ZeusNetworkConfig), (SalityNetwork, SalityNetworkConfig)],
    )
    def test_family_bootstrap_unchanged(self, monkeypatch, network, config):
        """A built population seeds the same peer lists (and Zeus the
        same proxies) as the reference bootstrap."""

        def fingerprint(net):
            peers = {
                bot.node_id: [entry.bot_id for entry in bot.peer_list]
                for bot in net.bots.values()
            }
            return peers, getattr(net, "proxies", None)

        params = dict(population=150, routable_fraction=0.4, bootstrap_peers=12, master_seed=9)
        fast = network(config(**params))
        fast.build()
        monkeypatch.setattr(PopulationBuilder, "bootstrap_picks", _reference_picks)
        slow = network(config(**params))
        slow.build()
        assert fingerprint(fast) == fingerprint(slow)


class TestSharedPeerIds:
    """Peer-list entries naming a population bot store that bot's own ID
    objects, as index key and ID int; the ID table holds one row per bot
    and nothing else."""

    @pytest.mark.parametrize(
        "network, config, junk",
        [(ZeusNetwork, ZeusNetworkConfig, True), (SalityNetwork, SalityNetworkConfig, False)],
        ids=["zeus-with-junk", "sality"],
    )
    def test_slots_share_population_ids(self, network, config, junk):
        params = dict(population=60, routable_fraction=0.5, bootstrap_peers=8, master_seed=3)
        if junk:
            params["disinformation"] = DisinformationPolicy(random.Random(5), junk_ratio=0.3)
        net = network(config(**params))
        net.build()
        net.start_all()
        net.run_for(HOUR)  # replies decode fresh ID slices into the lists
        slab = net.state.slab
        table = slab.id_table
        assert len(table) == len(net.bots)
        for bot in net.bots.values():
            row = table[bot.bot_id]
            assert row[0] is bot.bot_id
            assert row[1] == int.from_bytes(bot.bot_id, "big")
        shared = outside = 0
        for bot in net.bots.values():
            peer_list = bot.peer_list
            for key, slot in peer_list._index.items():
                assert peer_list._id_ints[slot] == int.from_bytes(key, "big")
                owner = net.bots_by_bot_id.get(key)
                if owner is None:
                    outside += 1
                    assert key not in table
                    continue
                shared += 1
                assert key is owner.bot_id
                assert peer_list._id_ints[slot] is table[key][1]
        assert shared > len(net.bots)
        if junk:
            assert outside > 0  # the junk entries really arrived


class TestSlabPeerLists:
    """A population's bots build their lists on its slab, the lists'
    key columns share one key object per network, and every slot is
    below its list's capacity."""

    @pytest.mark.parametrize(
        "network, config, junk",
        [(ZeusNetwork, ZeusNetworkConfig, True), (SalityNetwork, SalityNetworkConfig, False)],
        ids=["zeus-with-junk", "sality"],
    )
    def test_lists_share_subnet_keys_and_slots(self, network, config, junk):
        params = dict(population=60, routable_fraction=0.5, bootstrap_peers=8, master_seed=3)
        if junk:
            params["disinformation"] = DisinformationPolicy(random.Random(5), junk_ratio=0.3)
        net = network(config(**params))
        net.build()
        net.start_all()
        net.run_for(HOUR)
        slab = net.state.slab
        table = slab.subnet_keys
        assert 0 < len(table) <= SUBNET_KEYS_MAX
        keys = {}
        entries = 0
        for bot in net.bots.values():
            peer_list = bot.peer_list
            assert type(peer_list) is SlabPeerList
            assert peer_list._slab is slab
            assert len(peer_list._keys) <= peer_list.capacity
            for slot in peer_list._index.values():
                entries += 1
                assert slot < peer_list.capacity
                key = peer_list._keys[slot]
                assert key == subnet_key(peer_list._endpoints[slot].ip, peer_list.ip_filter_prefix)
                assert keys.setdefault(key, key) is key  # one object per network
                assert table[key] is key
        assert entries == len(slab) > len(net.bots) > len(keys)

    @pytest.mark.parametrize(
        "network, config, unused, used",
        [
            (ZeusNetwork, ZeusNetworkConfig, "_goodcount", "_failures"),
            (SalityNetwork, SalityNetworkConfig, "_failures", "_goodcount"),
        ],
        ids=["zeus", "sality"],
    )
    def test_lists_hold_only_their_family_counters(self, network, config, unused, used):
        """Zeus never stores a goodcount and Sality never a failure
        count, so neither family's lists create that column; a present
        column is as long as the list's other columns."""
        net = network(config(population=60, routable_fraction=0.5, bootstrap_peers=8, master_seed=3))
        net.build()
        net.start_all()
        net.run_for(HOUR)
        holding = 0
        for bot in net.bots.values():
            peer_list = bot.peer_list
            assert getattr(peer_list, unused) is None
            column = getattr(peer_list, used)
            if column is not None:
                holding += 1
                assert len(column) == len(peer_list._endpoints)
        assert holding > 0  # some Zeus probes went unanswered
        if network is SalityNetwork:
            assert holding == len(net.bots)  # seeded peers start reputed

    @pytest.mark.parametrize(
        "network, config",
        [(ZeusNetwork, ZeusNetworkConfig), (SalityNetwork, SalityNetworkConfig)],
    )
    def test_seed_peers_skips_own_id(self, network, config):
        net = network(config(population=20, routable_fraction=0.5, bootstrap_peers=4, master_seed=1))
        net.build()
        bot = next(iter(net.bots.values()))
        stranger = (b"\x5a" * len(bot.bot_id), Endpoint(parse_ip("99.1.0.1"), 4000))
        bot.seed_peers([(bot.bot_id, Endpoint(parse_ip("99.2.0.1"), 4000)), stranger])
        assert bot.bot_id not in bot.peer_list
        assert stranger[0] in bot.peer_list

    def test_standalone_bots_and_sensors_keep_peer_list(self):
        scheduler = Scheduler()
        transport = Transport(scheduler, random.Random(0))
        common = dict(transport=transport, scheduler=scheduler, rng=random.Random(1))
        bots = [
            ZeusBot("zeus", b"\x01" * 20, Endpoint(parse_ip("25.0.0.1"), 2000), **common),
            ZeusSensor("sensor", b"\x02" * 20, Endpoint(parse_ip("45.0.0.1"), 2000), **common),
            SalityBot("sality", b"\x03" * 4, Endpoint(parse_ip("25.0.0.2"), 2000), **common),
        ]
        for bot in bots:
            assert type(bot.peer_list) is PeerList


class TestSharedHandlers:
    @pytest.mark.parametrize(
        "cls", [ZeusBot, SalityBot, ZeusSensor, SalitySensor, SinkholeNode]
    )
    def test_every_handler_name_resolves(self, cls):
        for name in cls._HANDLERS.values():
            assert callable(getattr(cls, name))

    def test_tables_cover_every_wire_byte(self):
        assert sorted(ZeusBot._HANDLERS) == sorted(int(t) for t in MessageType)
        assert len(ZeusBot._HANDLERS) == 8
        assert sorted(SalityBot._HANDLERS) == sorted(int(c) for c in Command)
        assert len(SalityBot._HANDLERS) == 5

    def test_zeus_bots_share_one_proxy_list(self):
        net = build(population=40)
        lists = {id(bot.proxy_list) for bot in net.bots.values()}
        assert len(lists) == 1
        assert next(iter(net.bots.values())).proxy_list == net.proxies
