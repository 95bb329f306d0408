"""Attachable instrumentation: scheduler stats, session plumbing.

Most layers instrument themselves by capturing the ambient context at
construction (see :mod:`repro.obs.runtime`).  This module holds the
pieces that attach *onto* existing objects instead:

* :func:`instrument_scheduler` -- publishes scheduler stats as gauges
  (via a snapshot-time collector, zero per-event cost);
* :class:`TraceProgress` -- a sweep progress hook that renders the
  execution timeline (one track per worker) as trace events;
* :class:`ObsSession` -- the CLI-facing bundle: build tracer/registry
  from requested output paths, activate them around a run, write the
  files on exit (including after a failure -- that is the flight
  recorder's post-mortem job).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.obs import runtime
from repro.obs.events import COMPLETE, FlightRecorder, TraceEvent
from repro.obs.export import _open_recording, write_chrome_trace, write_jsonl, write_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    SubsystemProfiler,
    render_profile,
    write_collapsed,
    write_speedscope,
)
from repro.obs.telemetry import LiveRunView, TelemetryEmitter
from repro.obs.tracer import Tracer


def instrument_scheduler(scheduler, registry: MetricsRegistry, prefix: str = "sched") -> None:
    """Publish ``scheduler.stats()`` as gauges.

    The gauges are filled by a snapshot-time collector, so the
    scheduler's hot loop is untouched.  Per-callback wall time is the
    subsystem profiler's job (``--profile``, :mod:`repro.obs.profile`).
    """

    def collect(reg: MetricsRegistry) -> None:
        stats = scheduler.stats()
        reg.gauge(f"{prefix}.dispatched", "callbacks dispatched").set(stats.dispatched)
        reg.gauge(f"{prefix}.cancelled", "timers cancelled").set(stats.cancelled)
        reg.gauge(f"{prefix}.compactions", "heap compactions").set(stats.compactions)
        reg.gauge(f"{prefix}.peak_heap", "peak heap size").set(stats.peak_heap)
        reg.gauge(f"{prefix}.pending", "live timers at snapshot").set(stats.pending)

    registry.register_collector(collect)


class TraceProgress:
    """Sweep progress hook that records the execution timeline.

    Produces one ``X`` (complete) event per finished point on a track
    named after its worker, plus instants for retries, host faults and
    losses, and completion -- all keyed to *wall-clock seconds since
    sweep start* (``ProgressEvent.elapsed``), since a sweep has no
    simulated clock.  Convert with ``time_scale=1e6`` like any other recording;
    the resulting Perfetto view is the pool-utilization picture.

    Wraps an inner hook (e.g. ``ConsoleProgress``) so tracing a sweep
    does not cost the console output.
    """

    def __init__(self, inner: Optional[Callable[[Any], Any]] = None) -> None:
        self.inner = inner
        self._events: List[TraceEvent] = []

    def __call__(self, event: Any) -> None:
        if self.inner is not None:
            self.inner(event)
        if event.kind == "point-done" and event.record is not None:
            record = event.record
            start = max(0.0, event.elapsed - record.wall_time)
            self._events.append(
                TraceEvent(
                    start,
                    record.worker or "serial",
                    f"{record.point}[{record.index}]",
                    COMPLETE,
                    record.wall_time,
                    {"attempts": record.attempts, "seed": record.seed},
                )
            )
        elif event.kind == "point-retry" and event.point is not None:
            self._events.append(
                TraceEvent(
                    event.elapsed,
                    "runner",
                    "retry",
                    args={"point": event.point.index, "error": event.detail},
                )
            )
        elif event.kind in ("host-fault", "host-lost"):
            # Dispatcher lifecycle (see repro.runner.dispatch): plan
            # faults firing and hosts declared lost land on a shared
            # dispatch track; the dispatcher's own step-keyed timeline
            # carries the per-host lease spans.
            self._events.append(
                TraceEvent(
                    event.elapsed, "dispatch", event.kind, args={"detail": event.detail}
                )
            )
        elif event.kind == "sweep-done":
            self._events.append(
                TraceEvent(event.elapsed, "runner", "sweep-done", args={"summary": event.detail})
            )

    def events(self) -> List[TraceEvent]:
        return sorted(self._events, key=lambda e: (e.time, e.cat, e.name))


class ObsSession:
    """One observed CLI run: flags in, trace/metrics files out.

    ``trace_path``/``metrics_path`` of ``None`` leave that half
    disabled (the null implementations stay ambient, so the run pays
    nothing for it).  ``flight_capacity`` bounds the recording to the
    last N events instead of keeping everything.

    ``profile_path`` enables the subsystem profiler and writes its
    flamegraph on exit (speedscope JSON, or collapsed stacks for a
    ``.collapsed``/``.folded`` suffix); the subsystem breakdown joins
    the ``written`` lines.  ``telemetry_path``/``live``
    enable the wall-clock telemetry emitter, streaming snapshots as
    JSONL and/or rendering a live status line.  All of it obeys the
    package invariant: observation never perturbs the run.
    """

    def __init__(
        self,
        trace_path: Optional[str] = None,
        metrics_path: Optional[str] = None,
        flight_capacity: Optional[int] = None,
        profile_path: Optional[str] = None,
        telemetry_path: Optional[str] = None,
        live: bool = False,
        telemetry_interval: float = 1.0,
    ) -> None:
        self.trace_path = trace_path
        self.metrics_path = metrics_path
        self.profile_path = profile_path
        self.telemetry_path = telemetry_path
        self.tracer: Optional[Tracer] = None
        self.registry: Optional[MetricsRegistry] = None
        self.profiler: Optional[SubsystemProfiler] = None
        self.emitter: Optional[TelemetryEmitter] = None
        self.profile_tree = None
        self._telemetry_stream = None
        self._live_view: Optional[LiveRunView] = None
        if trace_path is not None:
            buffer = FlightRecorder(flight_capacity) if flight_capacity else None
            self.tracer = Tracer(buffer=buffer)
        if metrics_path is not None:
            self.registry = MetricsRegistry()
        if profile_path is not None:
            self.profiler = SubsystemProfiler()
        if telemetry_path is not None or live:
            if telemetry_path is not None:
                self._telemetry_stream = _open_recording(telemetry_path, "w")
            if live:
                self._live_view = LiveRunView()
            self.emitter = TelemetryEmitter(
                stream=self._telemetry_stream,
                interval_s=telemetry_interval,
                on_snapshot=self._live_view,
            )
        self.written: List[str] = []

    @property
    def active(self) -> bool:
        return (
            self.tracer is not None
            or self.registry is not None
            or self.profiler is not None
            or self.emitter is not None
        )

    def attach_scheduler(self, scheduler) -> None:
        """Wire a scenario's scheduler into the session's registry."""
        if self.registry is not None:
            instrument_scheduler(scheduler, self.registry)

    def __enter__(self) -> "ObsSession":
        runtime.activate(
            tracer=self.tracer,
            metrics=self.registry,
            profiler=self.profiler,
            telemetry=self.emitter,
        )
        if self.profiler is not None:
            self.profiler.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Outputs are written even when the run failed: a partial
        # trace is exactly what a post-mortem needs.
        runtime.deactivate()
        if self.profiler is not None:
            self.profiler.stop()
        if self.emitter is not None:
            self.emitter.finalize()
            if self._live_view is not None:
                self._live_view.close()
            if self._telemetry_stream is not None:
                self._telemetry_stream.close()
                self.written.append(
                    f"telemetry: {self.emitter.count} snapshots -> {self.telemetry_path}"
                )
        if self.tracer is not None and self.trace_path is not None:
            count = write_jsonl(self.tracer.events(), self.trace_path)
            self.written.append(f"trace: {count} events -> {self.trace_path}")
        if self.registry is not None and self.metrics_path is not None:
            if self.metrics_path == "-":
                import sys

                write_metrics(self.registry.snapshot(), sys.stdout)
            else:
                write_metrics(self.registry.snapshot(), self.metrics_path)
                self.written.append(f"metrics -> {self.metrics_path}")
        if self.profiler is not None:
            self.profile_tree = self.profiler.tree()
            if self.profile_path is not None:
                if self.profile_path.endswith((".collapsed", ".folded")):
                    write_collapsed(self.profile_tree, self.profile_path)
                else:
                    write_speedscope(self.profile_tree, self.profile_path)
                self.written.append(f"profile -> {self.profile_path}")
            self.written.append(render_profile(self.profile_tree))
