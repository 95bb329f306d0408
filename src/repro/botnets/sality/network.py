"""Sality v3 population builder."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.botnets.population import PopulationBuilder, PopulationConfig
from repro.botnets.sality.bot import SalityBot, SalityConfig
from repro.net.transport import Endpoint


@dataclass
class SalityNetworkConfig(PopulationConfig):
    """Population knobs plus the Sality protocol configuration."""

    sality: SalityConfig = field(default_factory=SalityConfig)


class SalityNetwork(PopulationBuilder):
    """A simulated Sality v3 botnet."""

    def __init__(self, config: Optional[SalityNetworkConfig] = None) -> None:
        self.sconfig = config if config is not None else SalityNetworkConfig()
        super().__init__(self.sconfig)

    def make_bot(self, node_id: str, endpoint: Endpoint, routable: bool, rng: random.Random) -> SalityBot:
        return SalityBot(
            node_id=node_id,
            bot_id=rng.getrandbits(32).to_bytes(4, "big"),
            endpoint=endpoint,
            transport=self.transport,
            scheduler=self.scheduler,
            rng=rng,
            routable=routable,
            config=self.sconfig.sality,
            slab=self.state.slab,
        )

    def bootstrap(self) -> None:
        """Seed every bot with well-reputed routable peers."""
        rng = self.rngs.stream("bootstrap")
        routable = self.routable_bots
        if not routable:
            raise RuntimeError("Sality needs at least one routable bot")
        for bot, seeds in self.bootstrap_picks(rng, routable):
            bot.seed_peers(seeds)

    def bootstrap_sample(self, count: int, seed: int = 0) -> List[Tuple[bytes, Endpoint]]:
        """A bootstrap peer list for a recon tool (as ripped from a
        bot sample)."""
        rng = random.Random(seed)
        routable = [bot for bot in self.bots.values() if bot.routable]
        picks = rng.sample(routable, min(count, len(routable)))
        return [(bot.bot_id, bot.endpoint) for bot in picks]
