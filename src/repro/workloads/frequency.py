"""Figure 4's request-frequency crawls (Section 5.2).

Three crawlers run side by side against one botnet: an aggressive one,
one adhering to half the family's suspend cycle and one adhering to the
full cycle (Zeus 30 minutes, Sality 40).  Coverage is compared at a
checkpoint a whole number of suspend cycles into the measurement
window: by then the aggressive crawl has converged, while a fully
adherent crawler has completed exactly that many request rounds
(EXPERIMENTS.md: at simulator scale every crawl eventually saturates
the population, so the effect shows before saturation).

:func:`run_frequency_crawls` is the one setup of these crawls; the
Fig 4 benchmark and the small golden both call it.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.tables import render_series_figure
from repro.core.crawler import SalityCrawler, ZeusCrawler
from repro.core.defects import SalityDefectProfile, ZeusDefectProfile
from repro.core.stealth import StealthPolicy
from repro.net.address import parse_ip
from repro.net.transport import Endpoint
from repro.sim.clock import HOUR, MINUTE
from repro.workloads.population import sality_config, zeus_config
from repro.workloads.scenarios import build_sality_scenario, build_zeus_scenario

#: Each family's suspend cycle.
SUSPEND_CYCLE = {"zeus": 30 * MINUTE, "sality": 40 * MINUTE}


def frequency_policies(family: str) -> Dict[str, StealthPolicy]:
    """The aggressive, half-cycle and full-cycle policies of ``family``.

    Even the aggressive Zeus crawler is rate limited (~15 s per target)
    to stay under automatic blacklisting (Section 6.2.2); Sality has no
    such blacklisting, so its aggressive crawler bursts freely.
    Suspend-adherent crawlers also pick up new targets only on their
    cycle schedule (``initial_contact_delay``), not instantly.
    """
    cycle = SUSPEND_CYCLE[family]
    if family == "zeus":
        aggressive = StealthPolicy(per_target_interval=15.0, requests_per_target=96)
        half_requests, full_requests = 16, 8
    else:
        aggressive = StealthPolicy(per_target_interval=6 * MINUTE, requests_per_target=240)
        half_requests, full_requests = 72, 36
    return {
        "aggressive": aggressive,
        "half": StealthPolicy(
            per_target_interval=cycle / 2,
            requests_per_target=half_requests,
            initial_contact_delay=cycle / 2,
        ),
        "full": StealthPolicy(
            per_target_interval=cycle,
            requests_per_target=full_requests,
            initial_contact_delay=cycle,
        ),
    }


def run_frequency_crawls(
    family: str,
    scale: str = "medium",
    master_seed: int = 0,
    sensor_count: int = 8,
    announce_hours: float = 2.0,
    hours: float = 4.0,
) -> Tuple[object, Dict[str, object]]:
    """Build a ``family`` scenario, start its three frequency crawlers
    and run ``hours`` past the announcement.

    Returns the scenario and the crawlers by label (``aggressive``,
    ``half``, ``full``).
    """
    if family == "zeus":
        scenario = build_zeus_scenario(
            zeus_config(scale, master_seed=master_seed),
            sensor_count=sensor_count,
            announce_hours=announce_hours,
        )
        crawler_cls, profile_cls, tag, bootstrap_seed = ZeusCrawler, ZeusDefectProfile, "zfc", 70
    elif family == "sality":
        scenario = build_sality_scenario(
            sality_config(scale, master_seed=master_seed),
            sensor_count=sensor_count,
            announce_hours=announce_hours,
        )
        crawler_cls, profile_cls, tag, bootstrap_seed = SalityCrawler, SalityDefectProfile, "sfc", 80
    else:
        raise ValueError(f"unknown family: {family!r}")
    net = scenario.net
    crawlers = {}
    for index, (label, policy) in enumerate(frequency_policies(family).items()):
        crawler = crawler_cls(
            name=label,
            endpoint=Endpoint(parse_ip(f"99.{index}.0.1"), 7000),
            transport=net.transport,
            scheduler=net.scheduler,
            rng=net.rngs.fork(f"{tag}-{label}").stream("crawl"),
            policy=policy,
            profile=profile_cls(name=label),
        )
        crawler.start(net.bootstrap_sample(3, seed=bootstrap_seed + index))
        crawlers[label] = crawler
    scenario.run_for(hours * HOUR)
    return scenario, crawlers


def cycle_checkpoint(scenario, family: str, cycles: float) -> float:
    """The comparison instant: ``cycles`` suspend cycles into the
    measurement window."""
    return scenario.measurement_start + SUSPEND_CYCLE[family] * cycles


def relative_at(crawlers, when: float) -> Dict[str, float]:
    """Each crawler's distinct IPs by ``when``, relative to the
    aggressive crawler's."""
    base = max(1, crawlers["aggressive"].report.ips_found_by(when))
    return {
        label: crawler.report.ips_found_by(when) / base
        for label, crawler in crawlers.items()
    }


def render_frequency_figure(title: str, scenario, crawlers, family: str, cycles: float) -> str:
    """The coverage curves in 15-minute buckets, then the relative
    coverage at the ``cycles`` checkpoint."""
    until = scenario.net.scheduler.now
    series = {
        label: crawler.report.coverage_series(until=until, bucket=15 * MINUTE)
        for label, crawler in crawlers.items()
    }
    checkpoint = cycle_checkpoint(scenario, family, cycles)
    relative = relative_at(crawlers, checkpoint)
    offset = checkpoint - scenario.measurement_start
    return render_series_figure(title, series) + (
        f"\n\nrelative coverage at the +{offset / MINUTE:.0f} min checkpoint "
        f"({cycles:g} suspend cycles): "
        + "  ".join(f"{label}={value * 100:.0f}%" for label, value in relative.items())
    )
