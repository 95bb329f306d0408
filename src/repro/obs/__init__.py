"""Observability: deterministic tracing, metrics, and flight recording.

Every simulation layer emits structured trace events (keyed to
*simulated* time) and labeled metrics through this package, under one
hard invariant: **observation never perturbs the run**.  Instrumented
code draws no randomness, schedules nothing, and reorders nothing, so
a run with tracing and metrics enabled produces byte-identical
exhibits to one without -- asserted by ``tests/obs`` against the
golden fig2/fig3 snapshots.

With observability off (the default), every hook is a falsy null stub
and instrumented hot paths pay a single truthiness check per event --
no dict or string work.  Enable it ambiently::

    from repro.obs import MetricsRegistry, Tracer, runtime

    with runtime.activated(tracer=Tracer(), metrics=MetricsRegistry()):
        ...build and run a scenario...

or from the CLI with ``--trace``/``--metrics`` on ``repro
crawl|detect|chaos|sweep``, then inspect/convert recordings with
``repro trace``.
"""

from repro.obs import analyze, profile, runtime
from repro.obs.events import COMPLETE, COUNTER, INSTANT, FlightRecorder, TraceEvent
from repro.obs.export import (
    chrome_trace,
    iter_dict_jsonl,
    iter_jsonl,
    metrics_json,
    read_jsonl,
    render_events,
    render_summary,
    write_chrome_trace,
    write_dict_jsonl,
    write_jsonl,
    write_metrics,
)
from repro.obs.profile import (
    NULL_PROFILER,
    NullProfiler,
    SubsystemProfiler,
    collapsed_stacks,
    render_profile,
    speedscope_document,
    write_collapsed,
    write_speedscope,
)
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    LiveRunView,
    TelemetryEmitter,
    iter_telemetry,
    read_telemetry,
    render_fleet,
    render_snapshot,
)
from repro.obs.instrument import (
    ObsSession,
    TraceProgress,
    instrument_scheduler,
)
from repro.obs.metrics import (
    NULL_METRIC,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetric,
    NullRegistry,
    merge_snapshots,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "analyze",
    "chrome_trace",
    "collapsed_stacks",
    "COMPLETE",
    "Counter",
    "COUNTER",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "INSTANT",
    "instrument_scheduler",
    "iter_dict_jsonl",
    "iter_jsonl",
    "iter_telemetry",
    "LiveRunView",
    "merge_snapshots",
    "metrics_json",
    "MetricsRegistry",
    "NULL_METRIC",
    "NULL_METRICS",
    "NULL_PROFILER",
    "NULL_TRACER",
    "NullMetric",
    "NullProfiler",
    "NullRegistry",
    "NullTracer",
    "ObsSession",
    "profile",
    "read_jsonl",
    "read_telemetry",
    "render_events",
    "render_fleet",
    "render_profile",
    "render_snapshot",
    "render_summary",
    "runtime",
    "speedscope_document",
    "SubsystemProfiler",
    "TELEMETRY_SCHEMA",
    "TelemetryEmitter",
    "TraceEvent",
    "TraceProgress",
    "Tracer",
    "write_chrome_trace",
    "write_collapsed",
    "write_dict_jsonl",
    "write_jsonl",
    "write_metrics",
    "write_speedscope",
]
