"""Command-line interface: quick looks at the reproduction.

Usage::

    python -m repro table {1,5,6}     # print a qualitative table
    python -m repro crawl [options]   # crawl a simulated Zeus botnet
    python -m repro detect [options]  # crawl + distributed detection
    python -m repro sweep fig2 -w 4   # sharded parameter sweep

The heavyweight exhibits (Tables 2-4, Figures 2-4) are benchmark
targets -- see ``pytest benchmarks/ --benchmark-only`` -- because they
re-run the paper's 24-hour measurement windows.  ``repro sweep`` runs
scaled-down versions of the same scans, sharded across worker
processes with bit-identical results at any worker count.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional

from repro.analysis.tables import render_table1, render_table5, render_table6
from repro.core.anomaly import ZeusAnomalyAnalyzer
from repro.core.crawler import ZeusCrawler
from repro.core.defects import ZeusDefectProfile
from repro.core.detection import DetectionConfig, SensorLogDataset, evaluate_detection
from repro.core.stealth import StealthPolicy
from repro.net.address import format_ip, parse_ip
from repro.net.transport import Endpoint
from repro.obs import ObsSession, runtime
from repro.sim.clock import HOUR
from repro.workloads.population import SCALES, zeus_config
from repro.workloads.scenarios import build_zeus_scenario


def _cmd_table(args: argparse.Namespace) -> int:
    renderers = {1: render_table1, 5: render_table5, 6: render_table6}
    print(renderers[args.number]())
    return 0


def _obs_session(args: argparse.Namespace) -> ObsSession:
    """Build the observability session from the common CLI flags."""
    return ObsSession(
        trace_path=getattr(args, "trace", None),
        metrics_path=getattr(args, "metrics", None),
        flight_capacity=getattr(args, "flight_recorder", None),
        profile_path=getattr(args, "profile", None),
        telemetry_path=getattr(args, "telemetry", None),
        live=getattr(args, "live", False),
        telemetry_interval=getattr(args, "telemetry_interval", 1.0),
    )


def _report_obs(session: ObsSession) -> None:
    for line in session.written:
        print(line, file=sys.stderr)


def _build(args: argparse.Namespace, session: Optional[ObsSession] = None):
    with runtime.profiler().section("build", "scenario"):
        scenario = build_zeus_scenario(
            zeus_config(
                args.scale,
                master_seed=args.seed,
                topology=getattr(args, "topology", None),
            ),
            sensor_count=args.sensors,
            announce_hours=2.0,
        )
    if session is not None:
        session.attach_scheduler(scenario.net.scheduler)
    crawler = ZeusCrawler(
        name="cli-crawler",
        endpoint=Endpoint(parse_ip("99.0.0.1"), 7000),
        transport=scenario.net.transport,
        scheduler=scenario.net.scheduler,
        rng=random.Random(args.seed),
        policy=StealthPolicy(
            contact_ratio=args.contact_ratio,
            per_target_interval=15.0,
            requests_per_target=4,
        ),
        profile=ZeusDefectProfile(name="cli", hard_hitter=args.hard_hitter),
    )
    crawler.start(scenario.net.bootstrap_sample(8, seed=args.seed))
    scenario.run_for(args.hours * HOUR)
    return scenario, crawler


def _cmd_crawl(args: argparse.Namespace) -> int:
    session = _obs_session(args)
    with session:
        scenario, crawler = _build(args, session)
        net = scenario.net
        routable = {bot.endpoint.ip for bot in net.routable_bots}
        report = crawler.report
        print(f"population:        {len(net.bots)} bots ({len(routable)} routable)")
        print(f"requests sent:     {report.requests_sent}")
        print(f"distinct IPs:      {report.distinct_ips}")
        print(f"routable found:    {len(set(report.first_seen_ip) & routable)}/{len(routable)}")
        print(f"verified bots:     {len(report.verified_bots)}")
        print(f"edges collected:   {len(report.edges)}")
    _report_obs(session)
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    session = _obs_session(args)
    with session:
        scenario, crawler = _build(args, session)
        findings = ZeusAnomalyAnalyzer().analyze(scenario.sensors)
        for finding in findings:
            if finding.defects:
                print(
                    f"anomalous source {format_ip(finding.ip)}: "
                    f"coverage {finding.coverage * 100:.0f}%, "
                    f"defects: {', '.join(finding.defects)}"
                )
        dataset = SensorLogDataset.from_zeus_sensors(
            scenario.sensors, since=scenario.measurement_start
        )
        result = evaluate_detection(
            dataset,
            crawler_ips={crawler.endpoint.ip},
            config=DetectionConfig(group_bits=args.group_bits, threshold=args.threshold),
            rng=random.Random(args.seed),
        )
        verdict = "DETECTED" if result.detection_rate == 1.0 else "evaded"
        print(f"coverage-based detection: crawler {verdict} "
              f"({result.false_positives} false positives)")
    _report_obs(session)
    return 0


class _LiveFleetProgress:
    """Sweep progress wrapper for ``repro sweep --live``: re-renders
    the per-host fleet view (rate-limited on wall clock) whenever a
    host reports telemetry, passing every event through to the inner
    hook.  Purely observational -- it only reads dispatcher state."""

    def __init__(self, dispatcher, inner=None, interval_s: float = 1.0) -> None:
        import time

        self._dispatcher = dispatcher
        self._inner = inner
        self._interval = max(0.05, interval_s)
        self._clock = time.perf_counter
        self._last = 0.0

    def __call__(self, event) -> None:
        from repro.obs.telemetry import render_fleet
        from repro.runner.progress import HOST_TELEMETRY

        if self._inner is not None:
            self._inner(event)
        if event.kind != HOST_TELEMETRY:
            return
        now = self._clock()
        if now - self._last < self._interval:
            return
        self._last = now
        print(render_fleet(self._dispatcher.fleet_summary()), file=sys.stderr)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.runner import ConsoleProgress, SWEEPS, build_sweep, render_result, run_sweep

    if args.list:
        for name in sorted(SWEEPS):
            print(name)
        return 0
    if args.name is None:
        print("sweep: a sweep name is required (or --list)", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("sweep: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print("sweep: --max-retries must be >= 0", file=sys.stderr)
        return 2
    if args.hosts is not None and args.hosts < 1:
        print("sweep: --hosts must be >= 1", file=sys.stderr)
        return 2
    if args.hosts is not None and args.workers is not None:
        print("sweep: give --workers or --hosts, not both", file=sys.stderr)
        return 2
    # --workers N > 1 runs N subprocess hosts, --hosts N runs N
    # simulated in-process hosts; both go through the dispatcher.
    hosts = args.hosts if args.hosts is not None else (args.workers or 1)
    dispatched = args.hosts is not None or hosts > 1
    if not dispatched and (args.host_faults or args.host_fault_seed is not None):
        print(
            "sweep: --host-faults/--host-fault-seed need --workers N > 1 or --hosts N",
            file=sys.stderr,
        )
        return 2
    if args.chunk_size is not None and args.chunk_size < 1:
        print("sweep: --chunk-size must be >= 1", file=sys.stderr)
        return 2
    if args.live and not dispatched:
        print(
            "sweep: --live renders host telemetry and needs --workers N > 1 or --hosts N",
            file=sys.stderr,
        )
        return 2
    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.ratios:
        overrides["ratios"] = tuple(args.ratios)
    if args.topology is not None:
        overrides["topology"] = args.topology
    try:
        spec = build_sweep(args.name, root_seed=args.seed, **overrides)
    except KeyError as exc:
        print(f"sweep: {exc.args[0]}", file=sys.stderr)
        return 2
    progress = None if args.no_progress else ConsoleProgress()
    trace_progress = None
    dispatcher = None
    if args.trace and args.hosts is None:
        # A sweep has no simulated clock; the trace is the execution
        # timeline (one track per worker) synthesized from progress.
        from repro.obs import TraceProgress

        trace_progress = TraceProgress(inner=progress)
        progress = trace_progress
    capture_metrics = bool(args.metrics) or args.health
    if dispatched:
        from repro.runner.dispatch import (
            DispatchExecutor,
            HostFaultPlan,
            LocalHostPool,
            SubprocessHostPool,
            parse_host_faults,
            sample_fault_plan,
        )

        pool_class = LocalHostPool if args.hosts is not None else SubprocessHostPool
        try:
            if args.host_faults:
                fault_plan = parse_host_faults(args.host_faults)
            elif args.host_fault_seed is not None:
                # Draw only faults this pool can inject.
                fault_plan = sample_fault_plan(
                    args.host_fault_seed, hosts=hosts, kinds=pool_class.supported_faults
                )
            else:
                fault_plan = HostFaultPlan()
            with pool_class(hosts) as pool:
                dispatcher = DispatchExecutor(
                    pool=pool,
                    chunk_size=args.chunk_size,
                    max_retries=args.max_retries,
                    capture_metrics=capture_metrics,
                    fault_plan=fault_plan,
                )
                if args.live:
                    progress = _LiveFleetProgress(dispatcher, inner=progress)
                if fault_plan.faults:
                    print(f"host faults: {fault_plan.label()}", file=sys.stderr)
                result = dispatcher.run(spec, progress=progress)
        except ValueError as exc:
            print(f"sweep: {exc}", file=sys.stderr)
            return 2
    else:
        result = run_sweep(
            spec,
            max_retries=args.max_retries,
            progress=progress,
            capture_metrics=capture_metrics,
        )
    if args.trace:
        from repro.obs import write_jsonl

        # --hosts traces the per-host lease timeline keyed to
        # deterministic dispatcher steps (not wall time).
        events = (
            trace_progress.events() if trace_progress is not None else dispatcher.timeline()
        )
        count = write_jsonl(events, args.trace)
        print(f"trace: {count} events -> {args.trace}", file=sys.stderr)
    if args.metrics:
        from repro.obs import write_metrics

        if args.metrics == "-":
            write_metrics(result.merged_metrics(), sys.stdout)
        else:
            write_metrics(result.merged_metrics(), args.metrics)
            print(f"metrics -> {args.metrics}", file=sys.stderr)
    if args.json:
        print(json.dumps(result.values(), indent=2, sort_keys=True))
    else:
        print(render_result(result))
    if args.health:
        from repro.runner import render_sweep_health

        fleet = dispatcher.fleet_summary() if dispatcher is not None else None
        print()
        print(render_sweep_health(result, fleet=fleet))
    elif args.live and dispatcher is not None:
        from repro.obs.telemetry import render_fleet

        print(render_fleet(dispatcher.fleet_summary()), file=sys.stderr)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.workloads.chaos import (
        FAMILIES,
        run_chaos_matrix,
        render_degradation_report,
    )
    from repro.workloads.scenarios import CHAOS_KINDS

    if args.list:
        width = max(len(kind) for kind in CHAOS_KINDS)
        for kind, description in CHAOS_KINDS.items():
            print(f"{kind:<{width}}  {description}")
        return 0
    for kind in args.kinds:
        if kind not in CHAOS_KINDS:
            print(f"chaos: unknown kind {kind!r} (see --list)", file=sys.stderr)
            return 2
    for intensity in args.intensities:
        if not 0.0 <= intensity < 1.0:
            print("chaos: intensities must be in [0, 1)", file=sys.stderr)
            return 2
    if "as-cut" in args.kinds and not args.topology:
        print(
            "chaos: as-cut needs a topology (--topology synth:<seed>)",
            file=sys.stderr,
        )
        return 2
    session = _obs_session(args)
    with session:
        results = run_chaos_matrix(
            args.kinds,
            args.intensities,
            family=args.family,
            scale=args.scale,
            seed=args.seed,
            sensor_count=args.sensors,
            measure_hours=args.hours,
            topology=args.topology,
        )
        if args.json:
            print(json.dumps([r.to_dict() for r in results], indent=2, sort_keys=True))
        else:
            print(render_degradation_report(results))
    _report_obs(session)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import read_jsonl, render_events, render_summary, write_chrome_trace

    if args.action == "diff":
        if not args.file2:
            print("trace diff: two recordings are required", file=sys.stderr)
            return 2
        from repro.obs.analyze import diff_files, render_diff

        try:
            diff = diff_files(args.file, args.file2)
        except OSError as exc:
            print(f"trace: cannot read recording: {exc}", file=sys.stderr)
            return 2
        except (ValueError, KeyError) as exc:
            print(f"trace: not a trace recording: {exc!r}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
        else:
            print(render_diff(diff, label_a=args.file, label_b=args.file2))
        return 0 if diff.identical else 1
    try:
        events = read_jsonl(args.file)
    except OSError as exc:
        print(f"trace: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"trace: {args.file} is not a trace recording: {exc!r}", file=sys.stderr)
        return 2
    if args.action == "summary":
        print(render_summary(events))
        return 0
    if args.action == "analyze":
        from repro.obs.analyze import analyze_events, render_health

        snapshot = None
        if args.metrics_snapshot:
            try:
                with open(args.metrics_snapshot, "r", encoding="utf-8") as stream:
                    snapshot = json.load(stream)
            except (OSError, ValueError) as exc:
                print(f"trace: cannot read metrics snapshot: {exc}", file=sys.stderr)
                return 2
        report = analyze_events(events, snapshot)
        if args.json:
            print(report.to_json())
        else:
            print(render_health(report))
        return 0
    if args.action == "events":
        if args.cat:
            events = [e for e in events if e.cat == args.cat]
        if args.tail:
            events = events[-args.tail:]
        if events:
            print(render_events(events))
        return 0
    # convert
    output = args.output
    if output is None:
        stem = args.file[:-6] if args.file.endswith(".jsonl") else args.file
        output = stem + ".chrome.json"
    count = write_chrome_trace(events, output, time_scale=args.time_scale)
    print(f"chrome trace: {count} events -> {output}")
    print("open in https://ui.perfetto.dev or chrome://tracing", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.analyze import analyze_file, write_html_report

    try:
        report = analyze_file(args.file, metrics_path=args.metrics_snapshot)
    except OSError as exc:
        print(f"report: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"report: {args.file} is not a trace recording: {exc!r}", file=sys.stderr)
        return 2
    output = args.output
    if output is None:
        stem = args.file
        for suffix in (".jsonl.gz", ".jsonl"):
            if stem.endswith(suffix):
                stem = stem[: -len(suffix)]
                break
        output = stem + ".report.html"
    title = args.title or f"repro run health: {args.file}"
    write_html_report(report, output, title=title)
    print(f"health report -> {output}")
    return 0


def _cmd_topo(args: argparse.Namespace) -> int:
    from repro.botnets.population import PopulationConfig
    from repro.topo import Topology, default_blocks, parse_topology

    try:
        config = parse_topology(args.topology)
    except ValueError as exc:
        print(f"topo: {exc}", file=sys.stderr)
        return 2
    if config is None:
        print("topo: --topology is required (e.g. --topology synth:7)", file=sys.stderr)
        return 2
    base = PopulationConfig()
    topo = Topology.build(
        config,
        default_blocks(
            base.routable_blocks, base.nat_blocks, base.topology_extra_blocks
        ),
    )
    if args.action == "info":
        print(topo.describe())
        print("per-AS prefix allocation:")
        for line in topo.allocator.summary():
            print(f"  {line}")
        return 0
    # paths
    resolver = topo.resolver
    ases = topo.graph.ases
    if (args.src is None) != (args.dst is None):
        print("topo paths: --src and --dst go together", file=sys.stderr)
        return 2
    if args.src is not None:
        if args.src not in topo.graph or args.dst not in topo.graph:
            print("topo paths: unknown AS (see 'repro topo info')", file=sys.stderr)
            return 2
        pairs = [(args.src, args.dst)]
    else:
        rng = random.Random(args.seed)
        pairs = [(rng.choice(ases), rng.choice(ases)) for _ in range(args.count)]
    for src, dst in pairs:
        path = resolver.path(src, dst)
        if path is None:
            print(f"AS{src} -> AS{dst}: unreachable")
        else:
            rendered = " -> ".join(f"AS{asn}" for asn in path)
            print(f"AS{src} -> AS{dst}: {rendered} ({len(path) - 1} hops)")
    hits, misses = resolver.cache_stats()
    print(f"path cache: {hits} hits, {misses} misses", file=sys.stderr)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import iter_telemetry, render_snapshot

    if args.follow and args.file.endswith(".gz"):
        print("top: --follow needs a plain (non-.gz) telemetry file", file=sys.stderr)
        return 2
    if not args.follow:
        count = 0
        try:
            for snapshot in iter_telemetry(args.file):
                print(render_snapshot(snapshot))
                count += 1
        except OSError as exc:
            print(f"top: cannot read {args.file}: {exc}", file=sys.stderr)
            return 2
        if not count:
            print(f"top: no snapshots in {args.file}", file=sys.stderr)
            return 1
        return 0
    # Follow mode: tail the JSONL stream as the run appends to it.
    import time

    try:
        stream = open(args.file, "r", encoding="utf-8")
    except OSError as exc:
        print(f"top: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        while True:
            line = stream.readline()
            if not line:
                time.sleep(args.interval)
                continue
            if not line.endswith("\n"):
                # Partial line mid-write: rewind and retry once complete.
                stream.seek(stream.tell() - len(line))
                time.sleep(args.interval)
                continue
            try:
                print(render_snapshot(json.loads(line)))
            except ValueError:
                continue
    except KeyboardInterrupt:
        return 0
    finally:
        stream.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reliable Recon in Adversarial P2P Botnets (IMC 2015) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="print a qualitative table (1, 5, or 6)")
    table.add_argument("number", type=int, choices=(1, 5, 6))
    table.set_defaults(func=_cmd_table)

    def add_scenario_options(p):
        p.add_argument("--scale", choices=sorted(SCALES), default="tiny")
        p.add_argument("--sensors", type=int, default=16)
        p.add_argument("--hours", type=float, default=4.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--contact-ratio", type=int, default=1)
        p.add_argument("--hard-hitter", action="store_true")
        add_topology_option(p)

    def add_topology_option(p):
        p.add_argument(
            "--topology", metavar="SPEC", default=None,
            help="route latency over an AS topology: 'synth:<seed>[:<n_ases>]' "
                 "or 'asrel:<path>' (default: flat uniform latency)",
        )

    def add_obs_options(p, flight: bool = True):
        p.add_argument(
            "--trace", metavar="FILE", default=None,
            help="record trace events to FILE (JSONL; inspect with 'repro trace')",
        )
        p.add_argument(
            "--metrics", metavar="FILE", default=None,
            help="write a metrics snapshot to FILE as JSON ('-' for stdout)",
        )
        if flight:
            p.add_argument(
                "--flight-recorder", metavar="N", type=int, default=None,
                help="bound the recording to the last N events (ring buffer)",
            )
        p.add_argument(
            "--profile", metavar="FILE", default=None,
            help="write a subsystem wall-time profile to FILE (speedscope "
                 "JSON; use a .collapsed/.folded suffix for collapsed stacks)",
        )
        p.add_argument(
            "--telemetry", metavar="FILE", default=None,
            help="stream wall-clock telemetry snapshots to FILE (JSONL; "
                 "watch with 'repro top')",
        )
        p.add_argument(
            "--live", action="store_true",
            help="render a live telemetry status line on stderr while running",
        )
        p.add_argument(
            "--telemetry-interval", type=float, default=1.0, metavar="SEC",
            help="seconds between telemetry snapshots (default 1.0)",
        )

    crawl = sub.add_parser("crawl", help="crawl a simulated Zeus botnet")
    add_scenario_options(crawl)
    add_obs_options(crawl)
    crawl.set_defaults(func=_cmd_crawl)

    detect = sub.add_parser(
        "detect", help="crawl, then run anomaly analysis + distributed detection"
    )
    add_scenario_options(detect)
    add_obs_options(detect)
    detect.add_argument("--threshold", type=float, default=0.30)
    detect.add_argument("--group-bits", type=int, default=2)
    detect.set_defaults(func=_cmd_detect)

    sweep = sub.add_parser(
        "sweep",
        help="run a named parameter sweep, sharded across worker processes",
        description=(
            "Shard a paper sweep (e.g. fig2, fig3-zeus) across subprocess "
            "hosts.  Results are bit-identical for a given --seed at any "
            "--workers count: every point's RNG seed is derived from the "
            "root seed and the point's index, never from scheduling."
        ),
    )
    sweep.add_argument("name", nargs="?", help="sweep name (see --list)")
    sweep.add_argument("--list", action="store_true", help="list available sweeps")
    sweep.add_argument(
        "-w", "--workers", type=int, default=None,
        help="worker processes, run as dispatcher subprocess hosts "
             "(default 1: serial in-process execution)",
    )
    sweep.add_argument(
        "--seed", type=int, default=0,
        help="root seed; child seeds are derived per point index",
    )
    sweep.add_argument("--scale", choices=sorted(SCALES), default=None)
    sweep.add_argument(
        "--ratios", type=int, nargs="+", default=None,
        help="override the sweep's contact-ratio axis",
    )
    sweep.add_argument(
        "--max-retries", type=int, default=2,
        help="retry budget per point for failing points or lost hosts",
    )
    sweep.add_argument(
        "--hosts", type=int, default=None, metavar="N",
        help="dispatch the sweep across N simulated in-process hosts "
             "(deterministic, every host fault kind) instead of --workers' "
             "subprocess hosts; results stay byte-identical to a serial run",
    )
    sweep.add_argument(
        "--host-faults", metavar="PLAN", default=None,
        help="inject host faults at progress thresholds: comma list of "
             "kind:host@progress[xduration], e.g. 'kill:1@0.5' or "
             "'stall:0@0.25x6,partition:2@0.5x4'",
    )
    sweep.add_argument(
        "--host-fault-seed", type=int, default=None, metavar="SEED",
        help="draw a random host-fault plan from the dedicated "
             "dispatch-host-faults RNG stream (reproducible per seed)",
    )
    sweep.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="points per host lease (default: ~4 leases per host)",
    )
    sweep.add_argument("--json", action="store_true", help="emit raw records as JSON")
    sweep.add_argument(
        "--no-progress", action="store_true", help="suppress per-point progress lines"
    )
    sweep.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record the sweep execution timeline to FILE (one track per "
             "worker; dispatcher steps per host under --hosts)",
    )
    sweep.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="capture per-point metrics and write the merged snapshot to FILE "
             "('-' for stdout)",
    )
    sweep.add_argument(
        "--health", action="store_true",
        help="capture per-point metrics and print merged health indicators",
    )
    sweep.add_argument(
        "--live", action="store_true",
        help="dispatched sweeps: render a live per-host fleet view from "
             "host telemetry (needs --workers N > 1 or --hosts N)",
    )
    add_topology_option(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    chaos = sub.add_parser(
        "chaos",
        help="run a fault-injection matrix and print a degradation report",
        description=(
            "Run named chaos scenarios (burst loss, partitions, sensor "
            "outages, leader crashes, ...) at increasing intensities "
            "against a simulated botnet, and report how crawl coverage "
            "and detection quality degrade.  Identical seeds replay "
            "identical chaos, byte-for-byte."
        ),
    )
    chaos.add_argument(
        "--family", choices=("zeus", "sality"), default="zeus",
        help="botnet family to torment",
    )
    chaos.add_argument(
        "--kinds", nargs="+", default=["baseline", "burst-loss", "blackout"],
        metavar="KIND", help="chaos kinds to run (see --list)",
    )
    chaos.add_argument(
        "--intensities", type=float, nargs="+", default=[0.2],
        help="fault intensities in [0, 1), one matrix column each",
    )
    chaos.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    chaos.add_argument("--sensors", type=int, default=16)
    chaos.add_argument(
        "--hours", type=float, default=4.0, help="measurement window length"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--list", action="store_true", help="list chaos kinds")
    chaos.add_argument("--json", action="store_true", help="emit raw cells as JSON")
    add_topology_option(chaos)
    add_obs_options(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    topo = sub.add_parser(
        "topo",
        help="inspect an AS topology: graph summary, prefixes, paths",
        description=(
            "Build the AS topology a --topology spec names and inspect "
            "it: 'info' prints the graph shape and per-AS prefix "
            "allocation; 'paths' resolves valley-free routes between "
            "AS pairs (explicit --src/--dst, or a seeded sample)."
        ),
    )
    topo.add_argument("action", choices=("info", "paths"), help="what to show")
    add_topology_option(topo)
    topo.add_argument("--src", type=int, default=None, help="paths: source ASN")
    topo.add_argument("--dst", type=int, default=None, help="paths: destination ASN")
    topo.add_argument(
        "--count", type=int, default=8,
        help="paths: how many sampled pairs to resolve (default 8)",
    )
    topo.add_argument("--seed", type=int, default=0, help="paths: pair-sampling seed")
    topo.set_defaults(func=_cmd_topo)

    trace = sub.add_parser(
        "trace",
        help="inspect, analyze, diff, or convert a trace recording",
        description=(
            "Work with JSONL trace recordings produced by --trace "
            "(plain or .gz): summarize them, print events, derive a "
            "health report (analyze), compare two runs (diff), or "
            "convert to the Chrome trace-event format that "
            "https://ui.perfetto.dev loads."
        ),
    )
    trace.add_argument(
        "action", choices=("summary", "events", "analyze", "diff", "convert"),
        help="what to do with the recording",
    )
    trace.add_argument("file", help="trace recording (JSONL, .gz ok)")
    trace.add_argument(
        "file2", nargs="?", default=None,
        help="diff: the second recording to compare against",
    )
    trace.add_argument(
        "--cat", default=None, help="events: only show this category"
    )
    trace.add_argument(
        "--tail", type=int, default=None, help="events: only the last N"
    )
    trace.add_argument(
        "--json", action="store_true",
        help="analyze/diff: emit the report as JSON instead of text",
    )
    trace.add_argument(
        "--metrics-snapshot", metavar="FILE", default=None,
        help="analyze: join a --metrics snapshot into the report",
    )
    trace.add_argument(
        "-o", "--output", default=None,
        help="convert: output path (default: <file>.chrome.json)",
    )
    trace.add_argument(
        "--time-scale", type=float, default=1_000_000.0,
        help="convert: multiplier from event time units to microseconds "
             "(default treats times as seconds)",
    )
    trace.set_defaults(func=_cmd_trace)

    report = sub.add_parser(
        "report",
        help="render a recording as a self-contained HTML health report",
        description=(
            "Analyze a JSONL trace recording and write a single static "
            "HTML file (inline JSON + tiny JS, no dependencies) with "
            "coverage-convergence curves, the detection-round timeline, "
            "drop/fault breakdowns, and latency percentiles.  The "
            "embedded JSON is byte-identical to 'repro trace analyze "
            "--json'."
        ),
    )
    report.add_argument("file", help="trace recording (JSONL, .gz ok)")
    report.add_argument(
        "-o", "--output", default=None,
        help="output HTML path (default: <file>.report.html)",
    )
    report.add_argument(
        "--metrics-snapshot", metavar="FILE", default=None,
        help="join a --metrics snapshot into the report",
    )
    report.add_argument("--title", default=None, help="report title")
    report.set_defaults(func=_cmd_report)

    top = sub.add_parser(
        "top",
        help="render a telemetry stream as live status lines",
        description=(
            "Read the JSONL telemetry stream a run writes with "
            "--telemetry and print one status line per snapshot "
            "(events/sec, pending timers, RSS, path-cache hit rate).  "
            "With --follow, tail the file while the run is still "
            "writing it -- a 'top' for a running simulation."
        ),
    )
    top.add_argument("file", help="telemetry stream (JSONL; .gz ok without --follow)")
    top.add_argument(
        "--follow", action="store_true",
        help="keep reading as the file grows (Ctrl-C to stop)",
    )
    top.add_argument(
        "--interval", type=float, default=0.5, metavar="SEC",
        help="follow: poll interval in seconds (default 0.5)",
    )
    top.set_defaults(func=_cmd_top)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
