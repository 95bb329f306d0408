"""GameOver Zeus population builder."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.botnets.antirecon import DisinformationPolicy, StaticBlacklist
from repro.botnets.population import PopulationBuilder, PopulationConfig
from repro.botnets.zeus.bot import ZeusBot, ZeusConfig
from repro.botnets.zeus.protocol import random_id
from repro.net.transport import Endpoint


@dataclass
class ZeusNetworkConfig(PopulationConfig):
    """Population knobs plus the Zeus protocol configuration.

    ``shared_blacklist`` models the hardcoded list shipped inside every
    bot binary: one object, visible to (and enforced by) all bots.
    """

    zeus: ZeusConfig = field(default_factory=ZeusConfig)
    proxy_bots: int = 4
    disinformation: Optional[DisinformationPolicy] = None


class ZeusNetwork(PopulationBuilder):
    """A simulated GameOver Zeus botnet."""

    def __init__(self, config: Optional[ZeusNetworkConfig] = None) -> None:
        self.zconfig = config if config is not None else ZeusNetworkConfig()
        super().__init__(self.zconfig)
        self.shared_blacklist = StaticBlacklist()
        self._proxies: List[Tuple[bytes, Endpoint]] = []

    def listening_port(self, rng: random.Random) -> int:
        """Zeus bots listen on 1024-10000 (Section 7)."""
        return rng.randrange(self.zconfig.zeus.port_low, self.zconfig.zeus.port_high + 1)

    def make_bot(self, node_id: str, endpoint: Endpoint, routable: bool, rng: random.Random) -> ZeusBot:
        return ZeusBot(
            node_id=node_id,
            bot_id=random_id(rng),
            endpoint=endpoint,
            transport=self.transport,
            scheduler=self.scheduler,
            rng=rng,
            routable=routable,
            config=self.zconfig.zeus,
            static_blacklist=self.shared_blacklist,
            disinformation=self.zconfig.disinformation,
            slab=self.state.slab,
        )

    def bootstrap(self) -> None:
        """Seed every bot with routable peers, and elect proxy bots.

        Every bot (routable or not) ships with a bootstrap list of
        routable peers, as a real dropper does.  A handful of routable
        bots additionally serve as the proxy (data-drop) layer that
        sensors are expected to report when probed (Section 4.2).  Bots
        only read their proxy list, so all of them share one.
        """
        rng = self.rngs.stream("bootstrap")
        routable = self.routable_bots
        if not routable:
            raise RuntimeError("Zeus needs at least one routable bot")
        self._proxies = [
            (bot.bot_id, bot.endpoint)
            for bot in rng.sample(routable, min(self.zconfig.proxy_bots, len(routable)))
        ]
        for bot, seeds in self.bootstrap_picks(rng, routable):
            bot.seed_peers(seeds)
            bot.proxy_list = self._proxies

    @property
    def proxies(self) -> List[Tuple[bytes, Endpoint]]:
        return list(self._proxies)

    def bootstrap_sample(self, count: int, seed: int = 0) -> List[Tuple[bytes, Endpoint]]:
        """A bootstrap peer list for a recon tool, as would be ripped
        from a bot sample: ``count`` random routable peers."""
        rng = random.Random(seed)
        routable = [bot for bot in self.bots.values() if bot.routable]
        picks = rng.sample(routable, min(count, len(routable)))
        return [(bot.bot_id, bot.endpoint) for bot in picks]
