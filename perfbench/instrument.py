"""The traced run: wrappers around ``repro``'s public functions, and the
per-layer metric table they produce.

:func:`install` patches each function where its callers look it up (a
class attribute, or the module global a caller reads) with a
:class:`~tracing.SpanRecorder` wrapper, and :func:`layer_metrics` turns
the recorder's self times plus the program's public counters
(``Scheduler.stats()``, ``Transport.stats``, ``ChurnProcess.transitions``,
``PopulationState.stats()``, ``CrawlReport``, the sensors' request logs)
into the per-layer metrics.  Nothing here changes what the program
computes: the traced run must reproduce the untraced output hash.
"""

from __future__ import annotations

import resource
from typing import Any, Callable, Dict, List, Tuple

from repro.botnets import population as population_mod
from repro.botnets.base import BotNode
from repro.botnets.sality import protocol as sality_protocol
from repro.botnets.sality.bot import SalityBot
from repro.botnets.sality.network import SalityNetwork
from repro.botnets.state import SlabPeerList
from repro.botnets.zeus import crypto as zeus_crypto
from repro.botnets.zeus import protocol as zeus_protocol
from repro.botnets.zeus.bot import ZeusBot
from repro.botnets.zeus.network import ZeusNetwork
from repro.core.crawler import SalityCrawler, ZeusCrawler, _CrawlerBase
from repro.core.detection import coordinator, offline
from repro.core.detection.voting import LeaderVote
from repro.core.sensor import SalitySensor, ZeusSensor
from repro.net.churn import ChurnProcess
from repro.net.nat import RoutabilityTable
from repro.net.transport import Transport
from repro.sim.scheduler import Scheduler

from tracing import SpanRecorder

SENSORS = (ZeusSensor, SalitySensor)

#: Public ``SlabPeerList`` methods other than ``closest``.
PEERLIST_UPDATES = (
    "get", "entries", "ids", "ips", "maintenance_view", "add", "remove", "touch",
    "record_failure",
)
ROUTABILITY = (
    "register", "unregister", "is_registered", "is_routable", "note_outbound",
    "inbound_allowed", "open_holes",
)


def classify_callback(owner: type) -> str:
    """Layer of a dispatched callback, from its bound method's class."""
    if issubclass(owner, Transport):
        return "net.deliver"
    if issubclass(owner, ChurnProcess):
        return "churn.tick"
    if issubclass(owner, _CrawlerBase):
        return "crawler"
    if issubclass(owner, SENSORS):
        return "sensor"
    if issubclass(owner, BotNode):
        return "bot.cycle"
    return "other"


def _bot_or_sensor(bot_layer: str) -> Callable[[type], str]:
    return lambda owner: "sensor" if issubclass(owner, SENSORS) else bot_layer


def _rss_kb() -> int:
    with open("/proc/self/statm", "r", encoding="ascii") as stream:
        return int(stream.read().split()[1]) * (resource.getpagesize() // 1024)


class Instrumentation:
    """Installs the traced run's wrappers; :meth:`uninstall` restores
    every patched attribute."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.build_rss_kb: List[Tuple[int, int]] = []  # (RSS growth, bots)
        self._saved: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _span(self, owner: Any, name: str, layer: str) -> None:
        self._patch(owner, name, self.recorder.wrap(owner.__dict__[name], layer))

    def _routed(self, owner: type, name: str, route: Callable[[type], str]) -> None:
        self._patch(owner, name, self.recorder.wrap_routed(owner.__dict__[name], route))

    def _classmethod(self, owner: type, name: str, layer: str) -> None:
        func = owner.__dict__[name].__func__
        self._patch(owner, name, classmethod(self.recorder.wrap(func, layer)))

    def install(self) -> "Instrumentation":
        recorder = self.recorder
        # sim: run_until is the dispatching span; callbacks arrive through
        # the scheduler's profile seam.
        run_until = recorder.wrap(Scheduler.__dict__["run_until"], "sim")

        def profiled_run_until(scheduler: Scheduler, *args: Any, **kwargs: Any) -> int:
            scheduler.set_profile(recorder)
            return run_until(scheduler, *args, **kwargs)

        self._patch(Scheduler, "run_until", profiled_run_until)
        # net
        self._span(Transport, "send", "net.send")
        for name in ROUTABILITY:
            self._span(RoutabilityTable, name, "net.routability")
        # botnets: population build and bootstrap
        build = recorder.wrap(population_mod.PopulationBuilder.__dict__["build"], "population.build")

        def measured_build(builder: Any) -> None:
            before = _rss_kb()
            build(builder)
            self.build_rss_kb.append((_rss_kb() - before, len(builder.bots)))

        self._patch(population_mod.PopulationBuilder, "build", measured_build)
        self._span(ZeusNetwork, "bootstrap", "population.bootstrap")
        self._span(SalityNetwork, "bootstrap", "population.bootstrap")
        # botnets: codecs and crypto, patched as module globals
        self._span(zeus_protocol, "encrypt_message", "zeus.codec")
        self._span(zeus_protocol, "decrypt_message", "zeus.codec")
        self._span(zeus_crypto, "zeus_encrypt", "zeus.crypto")
        self._span(zeus_crypto, "zeus_decrypt", "zeus.crypto")
        self._span(sality_protocol, "encode_packet", "sality.codec")
        self._span(sality_protocol, "decode_packet", "sality.codec")
        # botnets: peer lists
        self._span(SlabPeerList, "closest", "peerlist.closest")
        for name in PEERLIST_UPDATES:
            self._span(SlabPeerList, name, "peerlist.update")
        # botnets: bot behaviour (sensors subclass the bots)
        self._span(ZeusBot, "run_cycle", "bot.cycle")
        self._span(SalityBot, "run_cycle", "bot.cycle")
        for cls in (ZeusBot, SalityBot, ZeusSensor, SalitySensor):
            self._routed(cls, "handle_message", _bot_or_sensor("bot.handle"))
        for cls, name in (
            (BotNode, "start"), (BotNode, "stop"), (SalityBot, "stop"),
            (ZeusSensor, "start"), (SalitySensor, "start"),
        ):
            self._routed(cls, name, _bot_or_sensor("bot.lifecycle"))
        # core: crawler handlers (their callbacks are classified)
        self._span(ZeusCrawler, "_on_message", "crawler")
        self._span(SalityCrawler, "_on_message", "crawler")
        # core: detection
        for name in ("detection_grid", "evaluate_detection", "simulate_contact_ratio", "run_round"):
            self._span(offline, name, "detect")
        self._classmethod(offline.SensorLogDataset, "from_zeus_sensors", "detect")
        self._span(coordinator, "aggregate_group", "detect.aggregate")
        self._span(coordinator, "tally_votes", "detect.vote")
        self._classmethod(LeaderVote, "from_verdict", "detect.vote")
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


#: Per-layer self-time metric -> the recorder layer it reads.
SELF_TIMES: Dict[str, str] = {
    "sim.self_s": "sim",
    "net.send_s": "net.send",
    "net.deliver_s": "net.deliver",
    "net.routability_s": "net.routability",
    "churn.tick_s": "churn.tick",
    "population.build_s": "population.build",
    "population.bootstrap_s": "population.bootstrap",
    "zeus.codec_s": "zeus.codec",
    "zeus.crypto_s": "zeus.crypto",
    "sality.codec_s": "sality.codec",
    "peerlist.closest_s": "peerlist.closest",
    "peerlist.update_s": "peerlist.update",
    "bot.cycle_s": "bot.cycle",
    "bot.handle_s": "bot.handle",
    "bot.lifecycle_s": "bot.lifecycle",
    "crawler.s": "crawler",
    "sensor.s": "sensor",
    "detect.s": "detect",
    "detect.aggregate_s": "detect.aggregate",
    "detect.vote_s": "detect.vote",
}


def layer_metrics(instrumentation: Instrumentation, state: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of one traced run except ``trace.overhead``,
    which needs the untraced runs (see ``run.py``)."""
    recorder = instrumentation.recorder
    net = state["net"]
    metrics: Dict[str, float] = {
        name: recorder.self_seconds(layer) for name, layer in SELF_TIMES.items()
    }
    sched = net.scheduler.stats()
    metrics["sim.dispatches"] = sched.dispatched
    metrics["sim.ns_per_dispatch"] = (
        metrics["sim.self_s"] / sched.dispatched * 1e9 if sched.dispatched else 0.0
    )
    metrics["sim.peak_pending"] = sched.peak_heap
    stats = net.transport.stats
    metrics["net.sent"] = stats.sent
    metrics["net.delivered_share"] = stats.delivered / stats.sent if stats.sent else 0.0
    metrics["net.dropped"] = (
        stats.dropped_loss + stats.dropped_unroutable + stats.dropped_unbound_dst
        + stats.rejected_unbound_src
    )
    metrics["churn.transitions"] = net.churn.transitions if net.churn is not None else 0
    growth = sum(kb for kb, _ in instrumentation.build_rss_kb)
    bots = sum(count for _, count in instrumentation.build_rss_kb)
    metrics["population.kb_per_bot"] = growth / bots if bots else 0.0
    metrics["slab.peer_slots_live"] = net.state.stats()["peer_slots_live"]
    metrics["zeus.crypto_calls"] = recorder.call_count("zeus.crypto")
    metrics["peerlist.closest_calls"] = recorder.call_count("peerlist.closest")
    metrics["bot.cycles"] = sum(bot.counters.cycles for bot in net.bots.values())
    reports = [crawler.report for crawler in state["crawlers"]]
    requests = sum(report.requests_sent for report in reports)
    metrics["crawler.requests"] = requests
    metrics["crawler.yield"] = (
        sum(report.distinct_ips for report in reports) / requests if requests else 0.0
    )
    metrics["crawler.expired"] = sum(
        report.requests_expired + report.targets_given_up for report in reports
    )
    since = state["window_start"]
    metrics["sensor.logged"] = sum(
        len(sensor.peer_list_request_log(since=since)) for sensor in state["sensors"]
    )
    metrics["detect.cells"] = sum(len(grid) for grid in state.get("grids", {}).values())
    metrics["trace.coverage"] = recorder.coverage()
    return metrics


#: Units of the per-layer metrics; run.py adds ``trace.overhead``.
UNITS: Dict[str, str] = {
    **{name: "s" for name in SELF_TIMES},
    "sim.dispatches": "count",
    "sim.ns_per_dispatch": "ns",
    "sim.peak_pending": "count",
    "net.sent": "count",
    "net.delivered_share": "ratio",
    "net.dropped": "count",
    "churn.transitions": "count",
    "population.kb_per_bot": "KiB",
    "slab.peer_slots_live": "count",
    "zeus.crypto_calls": "count",
    "peerlist.closest_calls": "count",
    "bot.cycles": "count",
    "crawler.requests": "count",
    "crawler.yield": "ratio",
    "crawler.expired": "count",
    "sensor.logged": "count",
    "detect.cells": "count",
    "trace.coverage": "ratio",
}
