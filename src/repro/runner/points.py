"""Library of registered point functions for the paper's sweeps.

Two families of work are fanned out here:

* **Detection cells** (Figure 2 / Table 4 style): every cell replays
  *the same* logged capture under one (threshold, contact-ratio)
  configuration -- the paper's Section 6.1 methodology, which pins
  measured differences on the parameters rather than churn.  The
  capture is deterministic given its ``capture_seed`` parameter, so
  each host process rebuilds it once and memoizes it; cells then
  shard freely.

* **Ratio crawls** (Figure 3 / Table 4 C-row style): every point runs
  a full simulation with one ratio-limited crawler.  All points share
  one ``capture_seed``, so every crawl faces a *bit-identical* botnet
  (same churn, same topology) -- the sharded equivalent of the paper
  running all crawls "in parallel ... to ensure that performance
  differences did not result from churn", with the added isolation
  that crawls cannot perturb each other through shared peer lists.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Mapping, Set, Tuple

from repro.core.crawler import SalityCrawler, ZeusCrawler
from repro.core.defects import SalityDefectProfile, ZeusDefectProfile
from repro.core.detection import DetectionConfig, SensorLogDataset
from repro.core.detection.offline import evaluate_detection
from repro.core.stealth import StealthPolicy
from repro.runner.registry import register_point
from repro.sim.clock import HOUR
from repro.workloads.crawler_profiles import ZEUS_CRAWLERS
from repro.workloads.population import sality_config, zeus_config
from repro.workloads.scenarios import (
    build_sality_scenario,
    build_zeus_scenario,
    crawler_endpoint,
    launch_zeus_fleet,
)

# -- shared capture, memoized per process ---------------------------------

#: (capture kind, canonical params) -> (dataset, ground-truth crawler IPs).
#: Per-process: each host pays one capture build, then serves every
#: detection cell sharded to it from memory.
_CAPTURE_CACHE: Dict[Tuple[Any, ...], Tuple[SensorLogDataset, Set[int]]] = {}

_CAPTURE_KEYS = (
    "scale",
    "capture_seed",
    "sensors",
    "announce_hours",
    "measure_hours",
    "fleet_size",
    "truth_min_coverage",
)


def _zeus_capture(params: Mapping[str, Any]) -> Tuple[SensorLogDataset, Set[int]]:
    key = ("zeus",) + tuple(params[k] for k in _CAPTURE_KEYS) + (
        params.get("topology"),
    )
    cached = _CAPTURE_CACHE.get(key)
    if cached is not None:
        return cached
    config = zeus_config(
        params["scale"],
        master_seed=params["capture_seed"],
        topology=params.get("topology"),
    )
    scenario = build_zeus_scenario(
        config,
        sensor_count=params["sensors"],
        announce_hours=params["announce_hours"],
    )
    profiles = ZEUS_CRAWLERS[: params["fleet_size"]]
    launch_zeus_fleet(scenario, profiles)
    scenario.run_for(params["measure_hours"] * HOUR)
    dataset = SensorLogDataset.from_zeus_sensors(
        scenario.sensors, since=scenario.measurement_start
    )
    truth = {
        crawler.endpoint.ip
        for crawler in scenario.crawlers
        if crawler.profile.coverage >= params["truth_min_coverage"]
    }
    _CAPTURE_CACHE[key] = (dataset, truth)
    return dataset, truth


def clear_capture_cache() -> None:
    """Drop memoized captures (tests use this to measure rebuilds)."""
    _CAPTURE_CACHE.clear()


@register_point("zeus-detection-cell")
def zeus_detection_cell(params: Mapping[str, Any], seed: int) -> Mapping[str, Any]:
    """One Figure 2 / Table 4 cell: detector accuracy at one
    (threshold, contact ratio) over the shared capture.

    Grouping randomness comes from ``detection_seed`` -- one value for
    the whole sweep, so cells differ only in their parameters (the
    benchmark's ``detection_grid`` does the same).  The per-point
    ``seed`` is the fallback when a sweep wants independent grouping.
    """
    dataset, truth = _zeus_capture(params)
    config = DetectionConfig(
        group_bits=params["group_bits"],
        threshold=params["threshold"],
        aggregation_prefix=params.get("aggregation_prefix", 32),
    )
    result = evaluate_detection(
        dataset,
        truth,
        config,
        random.Random(params.get("detection_seed", seed)),
        contact_ratio=params["ratio"],
    )
    return {
        "threshold": params["threshold"],
        "ratio": params["ratio"],
        "detection_rate": result.detection_rate,
        "false_positives": result.false_positives,
        "detected": len(result.detected_crawlers),
        "truth": len(truth),
    }


# -- per-point ratio crawls -----------------------------------------------


def _series_as_lists(series) -> list:
    return [[float(time), int(count)] for time, count in series]


@register_point("zeus-ratio-crawl")
def zeus_ratio_crawl(params: Mapping[str, Any], seed: int) -> Mapping[str, Any]:
    """One Figure 3a point: a 1/ratio-limited Zeus crawl against the
    sweep's shared-seed botnet."""
    scenario = build_zeus_scenario(
        zeus_config(
            params["scale"],
            master_seed=params["capture_seed"],
            topology=params.get("topology"),
        ),
        sensor_count=params["sensors"],
        announce_hours=params["announce_hours"],
    )
    net = scenario.net
    ratio = params["ratio"]
    crawler = ZeusCrawler(
        name=f"ratio-1/{ratio}",
        endpoint=crawler_endpoint(0),
        transport=net.transport,
        scheduler=net.scheduler,
        rng=random.Random(seed),
        policy=StealthPolicy(
            contact_ratio=ratio,
            per_target_interval=params.get("per_target_interval", 15.0),
            requests_per_target=params.get("requests_per_target", 4),
        ),
        profile=ZeusDefectProfile(name=f"r{ratio}"),
    )
    crawler.start(net.bootstrap_sample(params.get("bootstrap", 10), seed=params["capture_seed"]))
    scenario.run_for(params["hours"] * HOUR)
    report = crawler.report
    until = net.scheduler.now
    return {
        "ratio": ratio,
        "distinct_ips": report.distinct_ips,
        "requests_sent": report.requests_sent,
        "series": _series_as_lists(
            report.coverage_series(until=until, bucket=params.get("bucket", 2 * HOUR))
        ),
    }


@register_point("sality-ratio-crawl")
def sality_ratio_crawl(params: Mapping[str, Any], seed: int) -> Mapping[str, Any]:
    """One Figure 3b point: a 1/ratio-limited Sality crawl against the
    sweep's shared-seed botnet."""
    scenario = build_sality_scenario(
        sality_config(
            params["scale"],
            master_seed=params["capture_seed"],
            topology=params.get("topology"),
        ),
        sensor_count=params["sensors"],
        announce_hours=params["announce_hours"],
    )
    net = scenario.net
    ratio = params["ratio"]
    crawler = SalityCrawler(
        name=f"ratio-1/{ratio}",
        endpoint=crawler_endpoint(0),
        transport=net.transport,
        scheduler=net.scheduler,
        rng=random.Random(seed),
        policy=StealthPolicy(
            contact_ratio=ratio,
            per_target_interval=params.get("per_target_interval", 60.0),
            requests_per_target=params.get("requests_per_target", 40),
        ),
        profile=SalityDefectProfile(name=f"r{ratio}"),
    )
    crawler.start(net.bootstrap_sample(params.get("bootstrap", 10), seed=params["capture_seed"]))
    scenario.run_for(params["hours"] * HOUR)
    report = crawler.report
    until = net.scheduler.now
    return {
        "ratio": ratio,
        "distinct_ips": report.distinct_ips,
        "requests_sent": report.requests_sent,
        "series": _series_as_lists(
            report.coverage_series(until=until, bucket=params.get("bucket", 2 * HOUR))
        ),
    }


@register_point("echo")
def echo(params: Mapping[str, Any], seed: int) -> Mapping[str, Any]:
    """Diagnostic point: returns its inputs (CLI smoke tests)."""
    return {"seed": seed, **dict(params)}
