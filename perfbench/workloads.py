"""The benchmark's three workloads, assembled from public ``repro`` APIs.

A workload is two timed phases plus an output digest.  Each phase is a
generator over the workload state, a dict that starts as ``seed`` and
``size`` (the workload's entry in :data:`SIZES`); every ``yield`` ends
one chunk of the phase, and the code after the last ``yield`` is the
final chunk.  A chunk does the same work in every execution of a seed,
so ``run.py`` can compare executions chunk by chunk.

``setup(state)``
    Everything before the measured window opens: population build,
    bootstrap, recon-fleet injection and, on the recon workloads, the
    sensors' announce phase (the paper's warm-up before logging).  It
    adds ``net`` (the population builder), ``sensors``, ``crawlers`` and
    ``window_start`` to the state.
``run(state)``
    A fixed-length simulated window, in :data:`WINDOW_CHUNKS` equal
    steps (back-to-back ``run_for`` calls tile the timeline exactly),
    plus the workload's offline analysis.
``digest(state)``
    The simulated outputs, as plain JSON data, that each run hashes.

All three use the flat topology, no faults, no program tracing and the
serial executor.  Library functions are called through their modules
(``offline.detection_grid``) so that the wrappers of the traced run,
installed on those modules, see the calls.  ``SIZES`` has a ``"full"``
entry for the benchmark and a ``"tiny"`` one for the benchmark's own
tests.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterator, List, NamedTuple

from repro.botnets.zeus import network as zeus_network
from repro.core import crawler as crawler_mod
from repro.core.defects import SalityDefectProfile
from repro.core.detection import offline
from repro.core.stealth import StealthPolicy
from repro.net.churn import ChurnConfig
from repro.sim.clock import HOUR, MINUTE
from repro.sim.rng import derive_seed
from repro.workloads import scenarios
from repro.workloads.crawler_profiles import ZEUS_CRAWLERS
from repro.workloads.population import sality_config, zeus_config

State = Dict[str, Any]
Phase = Iterator[None]

#: Steps of each workload's measured window: chunks short enough that
#: some execution runs each one while the host is not slowed down, long
#: enough (a tenth to half a second) to hold thousands of callbacks.
WINDOW_CHUNKS = 16

#: Figure 2 / Table 4 detection grid: thresholds x contact ratios x
#: subnet aggregation prefixes.
FIG2_THRESHOLDS = (0.02, 0.05, 0.10)
FIG2_PREFIXES = (32, 24, 20)

#: The ``sality-ratio-crawl`` point's crawler policy (Figure 3b).
FIG3_RATIO = 2
FIG3_POLICY = dict(contact_ratio=FIG3_RATIO, per_target_interval=60.0, requests_per_target=40)

SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "fig2-zeus": {
        "full": dict(
            scale="medium", sensors=32, fleet=8, announce_hours=1.0, window_hours=2.0,
            ratios=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        ),
        "tiny": dict(
            scale="tiny", sensors=6, fleet=2, announce_hours=0.5, window_hours=0.5,
            ratios=(1, 4),
        ),
    },
    "fig3-sality": {
        "full": dict(scale="medium", sensors=8, announce_hours=1.0, window_hours=1.0),
        "tiny": dict(scale="tiny", sensors=2, announce_hours=0.5, window_hours=0.5),
    },
    "zeus-20k-churn": {
        "full": dict(population=20_000, window=4 * MINUTE),
        "tiny": dict(population=300, window=10 * MINUTE),
    },
}


class Workload(NamedTuple):
    name: str
    setup: Callable[[State], Phase]
    run: Callable[[State], Phase]
    digest: Callable[[State], Dict[str, Any]]
    check: Callable[[Dict[str, Any]], List[str]]


def _adopt(state: State, scenario: Any) -> None:
    state.update(
        net=scenario.net,
        sensors=scenario.sensors,
        crawlers=scenario.crawlers,
        window_start=scenario.measurement_start,
    )


def _window(net: Any, duration: float) -> Phase:
    """Run ``duration`` simulated seconds in :data:`WINDOW_CHUNKS` steps,
    yielding after each but the last."""
    step = duration / WINDOW_CHUNKS
    for index in range(WINDOW_CHUNKS):
        net.run_for(step)
        if index < WINDOW_CHUNKS - 1:
            yield


# -- fig2-zeus -------------------------------------------------------------


def _fig2_setup(state: State) -> Phase:
    size = state["size"]
    scenario = scenarios.build_zeus_scenario(
        zeus_config(size["scale"], master_seed=state["seed"]),
        sensor_count=size["sensors"],
        announce_hours=size["announce_hours"],
    )
    yield
    scenarios.launch_zeus_fleet(scenario, ZEUS_CRAWLERS[: size["fleet"]])
    _adopt(state, scenario)


def _fig2_run(state: State) -> Phase:
    size = state["size"]
    yield from _window(state["net"], size["window_hours"] * HOUR)
    yield
    dataset = offline.SensorLogDataset.from_zeus_sensors(
        state["sensors"], since=state["window_start"]
    )
    truth = {crawler.endpoint.ip for crawler in state["crawlers"]}
    detection_seed = derive_seed(state["seed"], "detection")
    state["dataset"] = dataset
    state["grids"] = {}
    for prefix in FIG2_PREFIXES:
        yield
        state["grids"][prefix] = offline.detection_grid(
            dataset,
            truth,
            thresholds=FIG2_THRESHOLDS,
            ratios=size["ratios"],
            rng_seed=detection_seed,
            group_bits=3,
            aggregation_prefix=prefix,
        )


def _fig2_digest(state: State) -> Dict[str, Any]:
    cells = [
        [prefix, threshold, ratio, result.detection_rate, result.false_positives]
        for prefix, grid in sorted(state["grids"].items())
        for (threshold, ratio), result in sorted(grid.items())
    ]
    return {
        "cells": cells,
        "sensor_requests": state["dataset"].request_count(),
        "crawler_ips": {crawler.name: crawler.report.distinct_ips for crawler in state["crawlers"]},
    }


def _fig2_check(digest: Dict[str, Any]) -> List[str]:
    problems = []
    if digest["sensor_requests"] <= 0:
        problems.append("sensors logged no peer-list requests")
    if not all(count > 0 for count in digest["crawler_ips"].values()):
        problems.append("a crawler discovered no IPs")
    for prefix, threshold, ratio, rate, false_positives in digest["cells"]:
        if not 0.0 <= rate <= 1.0 or false_positives < 0:
            problems.append(f"cell /{prefix} t={threshold} 1/{ratio} out of range")
    return problems


# -- fig3-sality -----------------------------------------------------------


def _fig3_setup(state: State) -> Phase:
    seed, size = state["seed"], state["size"]
    scenario = scenarios.build_sality_scenario(
        sality_config(size["scale"], master_seed=seed),
        sensor_count=size["sensors"],
        announce_hours=size["announce_hours"],
    )
    yield
    net = scenario.net
    crawler = crawler_mod.SalityCrawler(
        name=f"ratio-1/{FIG3_RATIO}",
        endpoint=scenarios.crawler_endpoint(0),
        transport=net.transport,
        scheduler=net.scheduler,
        rng=random.Random(derive_seed(seed, "crawler")),
        policy=StealthPolicy(**FIG3_POLICY),
        profile=SalityDefectProfile(name=f"r{FIG3_RATIO}"),
    )
    crawler.start(net.bootstrap_sample(10, seed=seed))
    scenario.crawlers.append(crawler)
    _adopt(state, scenario)


def _fig3_run(state: State) -> Phase:
    return _window(state["net"], state["size"]["window_hours"] * HOUR)


def _fig3_digest(state: State) -> Dict[str, Any]:
    report = state["crawlers"][0].report
    until = state["net"].scheduler.now
    return {
        "distinct_ips": report.distinct_ips,
        "requests_sent": report.requests_sent,
        "series": [[t, n] for t, n in report.coverage_series(until=until, bucket=HOUR)],
    }


def _fig3_check(digest: Dict[str, Any]) -> List[str]:
    if digest["distinct_ips"] <= 0 or digest["requests_sent"] <= 0:
        return ["the crawler sent no requests or found no IPs"]
    return []


# -- zeus-20k-churn --------------------------------------------------------


def _churn_setup(state: State) -> Phase:
    # The xlarge preset's routable share and bootstrap size.
    config = zeus_config(
        "xlarge",
        master_seed=state["seed"],
        population=state["size"]["population"],
        churn=ChurnConfig(),
    )
    net = zeus_network.ZeusNetwork(config)
    net.build()
    yield
    net.start_all()
    state.update(net=net, sensors=[], crawlers=[], window_start=net.scheduler.now)


def _churn_run(state: State) -> Phase:
    return _window(state["net"], state["size"]["window"])


def _churn_digest(state: State) -> Dict[str, Any]:
    net = state["net"]
    return {
        "transitions": net.churn.transitions,
        "online": net.churn.online_count(),
        "sent": net.transport.stats.sent,
        "delivered": net.transport.stats.delivered,
    }


def _churn_check(digest: Dict[str, Any]) -> List[str]:
    if digest["transitions"] <= 0:
        return ["churn made no transitions"]
    if not 0 < digest["delivered"] <= digest["sent"]:
        return ["transport delivered nothing, or more than it sent"]
    return []


WORKLOADS: Dict[str, Workload] = {
    "fig2-zeus": Workload("fig2-zeus", _fig2_setup, _fig2_run, _fig2_digest, _fig2_check),
    "fig3-sality": Workload("fig3-sality", _fig3_setup, _fig3_run, _fig3_digest, _fig3_check),
    "zeus-20k-churn": Workload(
        "zeus-20k-churn", _churn_setup, _churn_run, _churn_digest, _churn_check
    ),
}
