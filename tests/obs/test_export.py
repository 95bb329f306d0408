"""Unit tests for trace/metrics export and the instrument layer."""

import json

from repro.obs.events import COMPLETE, FlightRecorder, TraceEvent
from repro.obs.export import (
    chrome_trace,
    metrics_json,
    read_jsonl,
    render_events,
    render_summary,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from repro.obs.instrument import ObsSession, instrument_scheduler
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.scheduler import Scheduler


def _sample_events():
    return [
        TraceEvent(0.5, "net", "send", args={"src": "a"}),
        TraceEvent(1.0, "detect", "round", COMPLETE, 2.0, {"groups": 4}),
        TraceEvent(3.5, "net", "drop", args={"reason": "loss"}),
    ]


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert write_jsonl(_sample_events(), path) == 3
        events = read_jsonl(path)
        assert [e.to_dict() for e in events] == [e.to_dict() for e in _sample_events()]

    def test_gzip_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl.gz")
        assert write_jsonl(_sample_events(), path) == 3
        events = read_jsonl(path)
        assert [e.to_dict() for e in events] == [e.to_dict() for e in _sample_events()]

    def test_gzip_file_is_actually_compressed(self, tmp_path):
        path = str(tmp_path / "trace.jsonl.gz")
        write_jsonl(_sample_events(), path)
        with open(path, "rb") as stream:
            magic = stream.read(2)
        assert magic == b"\x1f\x8b"

    def test_gzip_and_plain_carry_identical_lines(self, tmp_path):
        import gzip

        plain = str(tmp_path / "trace.jsonl")
        gz = str(tmp_path / "trace.jsonl.gz")
        write_jsonl(_sample_events(), plain)
        write_jsonl(_sample_events(), gz)
        with open(plain, "rb") as stream:
            plain_bytes = stream.read()
        with gzip.open(gz, "rb") as stream:
            gz_bytes = stream.read()
        assert plain_bytes == gz_bytes

    def test_lines_are_independent_json(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(_sample_events(), path)
        with open(path) as stream:
            lines = [line for line in stream if line.strip()]
        assert len(lines) == 3
        for line in lines:
            json.loads(line)


class TestChromeTrace:
    def test_structure_is_perfetto_loadable(self):
        trace = chrome_trace(_sample_events())
        assert "traceEvents" in trace
        events = trace["traceEvents"]
        # Two categories -> two thread_name metadata events.
        metas = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == {"net", "detect"}
        real = [e for e in events if e["ph"] != "M"]
        assert len(real) == 3
        for entry in real:
            assert set(entry) >= {"name", "cat", "ph", "ts", "pid", "tid"}

    def test_seconds_become_microseconds(self):
        trace = chrome_trace(_sample_events())
        send = next(e for e in trace["traceEvents"] if e.get("name") == "send")
        assert send["ts"] == 0.5 * 1_000_000
        span = next(e for e in trace["traceEvents"] if e.get("name") == "round")
        assert span["dur"] == 2.0 * 1_000_000

    def test_categories_share_a_track(self):
        trace = chrome_trace(_sample_events())
        net = [e for e in trace["traceEvents"] if e.get("cat") == "net"]
        assert len({e["tid"] for e in net}) == 1

    def test_write_counts_real_events(self, tmp_path):
        path = str(tmp_path / "trace.chrome.json")
        assert write_chrome_trace(_sample_events(), path) == 3
        json.load(open(path))


class TestRenderers:
    def test_summary_counts(self):
        text = render_summary(_sample_events())
        assert "3 events" in text
        assert "net" in text and "detect" in text

    def test_summary_empty_is_friendly(self):
        text = render_summary([])
        assert "no events" in text
        assert "Traceback" not in text

    def test_summary_empty_accepts_any_iterable(self):
        assert "no events" in render_summary(iter(()))

    def test_summary_single_event(self):
        text = render_summary([TraceEvent(1.0, "net", "send")])
        assert "1 event" in text
        assert "1 events" not in text

    def test_render_events_lines(self):
        lines = render_events(_sample_events()).splitlines()
        assert len(lines) == 3
        assert "reason=loss" in lines[2]

    def test_metrics_json_stable(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        text = metrics_json(reg.snapshot())
        assert text.index('"a"') < text.index('"b"')

    def test_write_metrics_to_path(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        reg = MetricsRegistry()
        reg.counter("x").inc(2)
        write_metrics(reg.snapshot(), path)
        assert json.load(open(path))["x"]["values"][""] == 2


class TestInstrumentScheduler:
    def test_stats_surface_as_gauges(self):
        sched = Scheduler()
        registry = MetricsRegistry()
        instrument_scheduler(sched, registry)
        sched.call_later(1.0, lambda: None)
        sched.run()
        snap = registry.snapshot()
        assert snap["sched.dispatched"]["values"][""] == 1
        assert snap["sched.peak_heap"]["values"][""] == 1


class TestObsSession:
    def test_writes_outputs_on_exit(self, tmp_path):
        trace_path = str(tmp_path / "t.jsonl")
        metrics_path = str(tmp_path / "m.json")
        session = ObsSession(trace_path=trace_path, metrics_path=metrics_path)
        with session:
            from repro.obs import runtime

            runtime.tracer().instant(1.0, "test", "ping")
            runtime.metrics().counter("test.count").inc()
        assert len(read_jsonl(trace_path)) == 1
        assert json.load(open(metrics_path))["test.count"]["values"][""] == 1
        assert len(session.written) == 2

    def test_writes_partial_trace_on_failure(self, tmp_path):
        trace_path = str(tmp_path / "t.jsonl")
        session = ObsSession(trace_path=trace_path)
        try:
            with session:
                from repro.obs import runtime

                runtime.tracer().instant(1.0, "test", "before-crash")
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        events = read_jsonl(trace_path)
        assert [e.name for e in events] == ["before-crash"]

    def test_flight_capacity_bounds_recording(self, tmp_path):
        trace_path = str(tmp_path / "t.jsonl")
        session = ObsSession(trace_path=trace_path, flight_capacity=5)
        with session:
            from repro.obs import runtime

            for i in range(50):
                runtime.tracer().instant(float(i), "test", "tick")
        events = read_jsonl(trace_path)
        assert len(events) == 5
        assert events[-1].time == 49.0

    def test_inactive_session_is_free(self):
        session = ObsSession()
        assert not session.active
        with session:
            from repro.obs import runtime
            from repro.obs.metrics import NULL_METRICS
            from repro.obs.tracer import NULL_TRACER

            assert runtime.tracer() is NULL_TRACER
            assert runtime.metrics() is NULL_METRICS
        assert session.written == []
