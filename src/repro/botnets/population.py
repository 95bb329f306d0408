"""Shared population scaffolding for family-specific networks.

Builds the world a botnet lives in: a scheduler + transport, public
address space carved into subnets (with *hotspot* subnets holding
multiple infections -- the cause of /19 aggregation false positives in
Section 6.1.2), NAT gateways sharing one public IP among several bots
(the cause of t=1% false positives in Table 4), and optional churn.

Family networks (:class:`repro.botnets.zeus.network.ZeusNetwork`,
:class:`repro.botnets.sality.network.SalityNetwork`) subclass
:class:`PopulationBuilder` and supply bot construction + bootstrap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.botnets.base import BotNode
from repro.botnets.graph import ConnectivityGraph
from repro.botnets.state import PopulationState
from repro.faults.injector import FaultyTransport
from repro.faults.plan import FaultPlan
from repro.net.address import AddressPool, Subnet, prefix_of
from repro.net.churn import ChurnConfig, ChurnProcess, DiurnalModel
from repro.net.nat import NatGateway
from repro.net.transport import Endpoint, Transport, TransportConfig
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.topo import Topology, TopologyConfig, default_blocks, parse_topology


@dataclass
class PopulationConfig:
    """Knobs shared by every family network."""

    population: int = 1000
    routable_fraction: float = 0.25
    bootstrap_peers: int = 15
    master_seed: int = 0
    # Address layout.  Defaults avoid all reserved space.
    routable_blocks: Tuple[str, ...] = ("25.0.0.0/12", "26.0.0.0/12", "27.0.0.0/12")
    nat_blocks: Tuple[str, ...] = ("60.0.0.0/12", "61.0.0.0/12")
    # Fraction of routable bots allocated inside an already-infected /24
    # (creates light subnet clustering).
    subnet_hotspot_fraction: float = 0.10
    # Number of dense /19 neighborhoods, each holding
    # ``bots_per_dense_neighborhood`` routable bots split evenly across
    # the /19's two /20 halves.  These are the organic multi-infection
    # subnets that cause detector false positives once aggregation
    # widens from /20 to /19 (paper Section 6.1.2).
    dense_neighborhoods: int = 0
    bots_per_dense_neighborhood: int = 8
    # NATed bots per gateway: 1..max (uniform); >1 creates shared-IP
    # aliasing, the NAT false positives of Table 4.
    max_bots_per_gateway: int = 4
    # Churn (None disables; the paper's core 24h experiments measure a
    # fixed window precisely to sidestep churn).
    churn: Optional[ChurnConfig] = None
    transport: TransportConfig = field(default_factory=TransportConfig)
    # Scheduled transport faults (chaos experiments).  None/empty keeps
    # the plain Transport so healthy runs replay byte-for-byte.
    fault_plan: Optional[FaultPlan] = None
    # Topology-aware internet layer (repro.topo).  None keeps the flat
    # uniform-latency model and replays byte-identically to older runs;
    # a spec string ("synth:7", "asrel:path.as-rel2") or TopologyConfig
    # routes latency over an AS graph and enables AS-aware faults.
    topology: Optional[TopologyConfig] = None
    # Extra CIDR blocks the topology labels beyond bot space (scenario
    # infrastructure: sensors, crawlers).  Ignored when topology is None.
    topology_extra_blocks: Tuple[str, ...] = ("45.0.0.0/10", "99.0.0.0/12")

    def __post_init__(self) -> None:
        self.topology = parse_topology(self.topology)
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if not 0.0 < self.routable_fraction <= 1.0:
            raise ValueError("routable_fraction must be in (0, 1]")
        if self.max_bots_per_gateway < 1:
            raise ValueError("max_bots_per_gateway must be >= 1")
        if not 0.0 <= self.subnet_hotspot_fraction <= 1.0:
            raise ValueError("subnet_hotspot_fraction must be in [0, 1]")


class PopulationBuilder:
    """World + population assembly; family networks subclass this."""

    def __init__(self, config: PopulationConfig) -> None:
        self.config = config
        self.rngs = RngRegistry(config.master_seed)
        self.scheduler = Scheduler()
        self.topology: Optional[Topology] = None
        latency_model = None
        if config.topology is not None:
            # The allocator only labels the existing blocks; address
            # allocation below is untouched, so the population layout
            # is identical to a flat build with the same seed.
            self.topology = Topology.build(
                config.topology,
                default_blocks(
                    config.routable_blocks,
                    config.nat_blocks,
                    config.topology_extra_blocks,
                ),
            )
            # Jitter draws on a dedicated stream, never "transport".
            latency_model = self.topology.latency_model(
                self.rngs.stream("topo-jitter")
            )
        # Both transports recycle delivered Messages: no handler the
        # builder binds retains one, and a handler bound from outside
        # must copy what it keeps.
        if config.fault_plan is not None and not config.fault_plan.empty:
            # Fault draws come from their own stream so the base
            # transport's draws stay aligned with fault-free runs.
            self.transport: Transport = FaultyTransport(
                self.scheduler,
                self.rngs.stream("transport"),
                plan=config.fault_plan,
                fault_rng=self.rngs.stream("faults"),
                config=config.transport,
                recycle_messages=True,
                latency_model=latency_model,
                topology=self.topology,
            )
        else:
            self.transport = Transport(
                self.scheduler,
                self.rngs.stream("transport"),
                config=config.transport,
                recycle_messages=True,
                latency_model=latency_model,
            )
        self.state = PopulationState()
        net_rng = self.rngs.stream("addresses")
        self.routable_pool = AddressPool(
            [Subnet.parse(block) for block in config.routable_blocks], net_rng
        )
        self.nat_pool = AddressPool(
            [Subnet.parse(block) for block in config.nat_blocks], net_rng
        )
        self.bots: Dict[str, BotNode] = {}
        self.bots_by_bot_id: Dict[bytes, BotNode] = {}
        self.gateways: List[NatGateway] = []
        self.churn: Optional[ChurnProcess] = None
        self._hotspots: List[Subnet] = []
        self._open_gateway: Optional[NatGateway] = None
        self._open_gateway_slots = 0
        self._preallocated: List[int] = []
        self.dense_neighborhood_keys: List[int] = []

    # -- family hooks ------------------------------------------------------

    def make_bot(self, node_id: str, endpoint: Endpoint, routable: bool, rng: random.Random) -> BotNode:
        """Construct one (unstarted) bot.  Family-specific."""
        raise NotImplementedError

    def bootstrap(self) -> None:
        """Seed initial peer lists.  Family-specific."""
        raise NotImplementedError

    def bootstrap_picks(
        self, rng: random.Random, routable: Sequence[BotNode]
    ) -> Iterator[Tuple[BotNode, List[Tuple[bytes, Endpoint]]]]:
        """Each bot with the ``(bot_id, endpoint)`` rows of its
        bootstrap peers, drawn from ``rng``.  Each routable bot's row is
        built once and shared by every bot that picks it.

        A bot's peers are ``rng.sample(candidates, k)`` over
        ``candidates = [p for p in routable if p is not bot]``, with
        ``k = min(bootstrap_peers, len(routable), len(candidates))``.
        ``random.sample`` picks by index, so this samples ``range(n)``
        and steps over the bot's own position instead: the same draws
        and the same peers, in O(k) per bot rather than a candidate
        list the size of the routable population.
        """
        rows = [(bot.bot_id, bot.endpoint) for bot in routable]
        n = len(routable)
        per_bot = min(self.config.bootstrap_peers, n)
        position = {id(bot): index for index, bot in enumerate(routable)}
        for bot in self.bots.values():
            own = position.get(id(bot))
            if own is None:
                picks = rng.sample(range(n), per_bot)
                yield bot, [rows[index] for index in picks]
            else:
                picks = rng.sample(range(n - 1), min(per_bot, n - 1))
                yield bot, [rows[index if index < own else index + 1] for index in picks]

    # -- assembly ------------------------------------------------------------

    def _preallocate_dense_neighborhoods(self) -> None:
        """Reserve addresses for the configured dense /19s up front."""
        rng = self.rngs.stream("addresses")
        blocks = [Subnet.parse(block) for block in self.config.routable_blocks]
        per_half = self.config.bots_per_dense_neighborhood // 2
        remainder = self.config.bots_per_dense_neighborhood - per_half
        for _ in range(self.config.dense_neighborhoods):
            block = rng.choice(blocks)
            base = prefix_of(block.random_ip(rng), 19)
            self.dense_neighborhood_keys.append(base.network)
            low, high = base.subdivide(20)
            for _ in range(per_half):
                self._preallocated.append(self.routable_pool.allocate(within=low))
            for _ in range(remainder):
                self._preallocated.append(self.routable_pool.allocate(within=high))
        rng.shuffle(self._preallocated)

    def allocate_routable_ip(self) -> int:
        """A public IP, sometimes clustered into a hotspot /24."""
        if self._preallocated:
            return self._preallocated.pop()
        rng = self.rngs.stream("addresses")
        if self._hotspots and rng.random() < self.config.subnet_hotspot_fraction:
            hotspot = rng.choice(self._hotspots)
            try:
                return self.routable_pool.allocate(within=hotspot)
            except RuntimeError:
                pass  # hotspot full; fall through to a fresh allocation
        ip = self.routable_pool.allocate()
        self._hotspots.append(prefix_of(ip, 24))
        if len(self._hotspots) > 64:
            self._hotspots.pop(0)
        return ip

    def allocate_nat_endpoint(self) -> Endpoint:
        """A gateway-mapped endpoint; gateways hold 1..max bots each."""
        rng = self.rngs.stream("addresses")
        if self._open_gateway is None or self._open_gateway_slots == 0:
            gateway = NatGateway(public_ip=self.nat_pool.allocate())
            self.gateways.append(gateway)
            self._open_gateway = gateway
            self._open_gateway_slots = rng.randrange(1, self.config.max_bots_per_gateway + 1)
        self._open_gateway_slots -= 1
        ip, port = self._open_gateway.map_host()
        return Endpoint(ip, port)

    def build(self) -> None:
        """Create the full population (unstarted bots)."""
        if self.bots:
            raise RuntimeError("population already built")
        if self.config.dense_neighborhoods:
            self._preallocate_dense_neighborhoods()
        layout_rng = self.rngs.stream("layout")
        routable_count = max(1, round(self.config.population * self.config.routable_fraction))
        for index in range(self.config.population):
            routable = index < routable_count
            node_id = f"bot-{index:06d}"
            bot_rng = self.rngs.fork(node_id).stream("bot")
            if routable:
                endpoint = Endpoint(self.allocate_routable_ip(), self.listening_port(bot_rng))
            else:
                endpoint = self.allocate_nat_endpoint()
            bot = self.make_bot(node_id, endpoint, routable, bot_rng)
            self.state.adopt(bot)
            self.bots[node_id] = bot
            self.bots_by_bot_id[bot.bot_id] = bot
        self.bootstrap()
        if self.config.churn is not None:
            self._wire_churn()

    def listening_port(self, rng: random.Random) -> int:
        """Listening port for a routable bot; family networks override
        to enforce the family's port range (Table 5)."""
        return rng.randrange(1024, 65536)

    def _wire_churn(self) -> None:
        self.churn = ChurnProcess(
            self.scheduler,
            self.rngs.stream("churn"),
            self.config.churn,
            on_up=lambda node_id: self.bots[node_id].start(),
            on_down=lambda node_id: self.bots[node_id].stop(),
        )
        for node_id in self.bots:
            self.churn.add_node(node_id, online=True)

    # -- operation -------------------------------------------------------------

    def start_all(self) -> None:
        for bot in self.bots.values():
            bot.start()

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Advance the simulation by ``duration`` seconds."""
        return self.scheduler.run_until(self.scheduler.now + duration, max_events=max_events)

    # -- views ---------------------------------------------------------------

    @property
    def routable_bots(self) -> List[BotNode]:
        return [bot for bot in self.bots.values() if bot.routable]

    @property
    def non_routable_bots(self) -> List[BotNode]:
        return [bot for bot in self.bots.values() if not bot.routable]

    def all_bot_ips(self) -> Dict[int, List[str]]:
        """ip -> node ids (NATed bots share IPs)."""
        out: Dict[int, List[str]] = {}
        for bot in self.bots.values():
            out.setdefault(bot.endpoint.ip, []).append(bot.node_id)
        return out

    def connectivity_graph(self) -> ConnectivityGraph:
        """The current digraph G = (V, E): an edge a->b means b is in
        a's peer list.  Peers that map to no known bot (sensors,
        crawlers, junk) become nodes named by their endpoint."""
        graph = ConnectivityGraph()
        for bot in self.bots.values():
            graph.add_node(bot.node_id)
        for bot in self.bots.values():
            peer_list = getattr(bot, "peer_list", None)
            if peer_list is None:
                continue
            for entry in peer_list:
                target = self.bots_by_bot_id.get(entry.bot_id)
                name = target.node_id if target is not None else f"ext:{entry.endpoint}"
                if name != bot.node_id:
                    graph.add_edge(bot.node_id, name)
        return graph
