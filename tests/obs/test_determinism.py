"""The observability hard invariant: tracing never perturbs a run.

Exhibits rendered with tracing and metrics fully enabled must be
byte-identical to the committed goldens (which were generated with
observability off).  If instrumentation ever draws randomness,
schedules an event, or reorders dispatch, these comparisons break.
"""

import pathlib
import random

import pytest

from repro.obs import runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "golden" / "goldens"


def _golden_text(name: str) -> str:
    path = GOLDEN_DIR / name
    if not path.exists():
        pytest.skip(f"golden {name} not generated yet")
    return path.read_text()


class TestGoldenExhibitsUnderTracing:
    def test_fig3_zeus_traced_matches_untraced_golden(self):
        from repro.runner import build_sweep, render_result, run_sweep

        spec = build_sweep(
            "fig3-zeus",
            root_seed=0,
            scale="tiny",
            sensors=4,
            announce_hours=1.0,
            hours=3.0,
            ratios=(1, 2, 4),
        )
        tracer = Tracer()
        with runtime.activated(tracer=tracer, metrics=MetricsRegistry()):
            result = run_sweep(spec, workers=1)
        assert render_result(result) + "\n" == _golden_text("fig3_zeus_small_sweep.txt")

    def test_fig3_sality_traced_matches_untraced_golden(self):
        import json

        from repro.runner import build_sweep, render_result, run_sweep

        spec = build_sweep(
            "fig3-sality",
            root_seed=0,
            scale="tiny",
            sensors=4,
            announce_hours=1.0,
            hours=3.0,
            ratios=(1, 2, 4),
        )
        with runtime.activated(tracer=Tracer(), metrics=MetricsRegistry()):
            result = run_sweep(spec, workers=1)
        assert render_result(result) + "\n" == _golden_text("fig3_sality_small_sweep.txt")
        text = json.dumps(result.values(), indent=2, sort_keys=True)
        assert text + "\n" == _golden_text("fig3_sality_small_values.json")

    def test_fig2_traced_matches_untraced_golden(self):
        import json

        from repro.runner import build_sweep, run_sweep
        from repro.runner.points import clear_capture_cache

        spec = build_sweep(
            "fig2",
            root_seed=0,
            scale="tiny",
            sensors=16,
            announce_hours=1.0,
            measure_hours=4.0,
            thresholds=(0.05, 0.10),
            ratios=(1, 2, 4),
            fleet_size=6,
        )
        # Force the shared capture to rebuild *under* instrumentation —
        # a cached capture from an earlier test would record no network
        # metrics and weaken the comparison.
        clear_capture_cache()
        with runtime.activated(tracer=Tracer(), metrics=MetricsRegistry()):
            # Metrics capture on top of ambient tracing: the snapshots
            # land in the records, the values must not move.
            result = run_sweep(spec, workers=1, capture_metrics=True)
        text = json.dumps(result.values(), indent=2, sort_keys=True)
        assert text + "\n" == _golden_text("fig2_small_values.json")
        # And the capture actually happened.
        assert all(record.metrics is not None for record in result.records)
        merged = result.merged_metrics()
        assert merged["net.sent"]["values"][""] > 0


class TestUnitLevelDeterminism:
    def _run_round(self):
        from repro.core.detection.coordinator import (
            DetectionConfig,
            ParticipantReport,
            run_round,
        )

        participants = [
            ParticipantReport(
                node_id=f"bot-{i}",
                requests=[(float(j), 0x7F000001 + (j % 3)) for j in range(6)],
                bot_id=bytes([i]) * 20,
            )
            for i in range(12)
        ]
        return run_round(
            participants, DetectionConfig(group_bits=2), random.Random(42), round_end=100.0
        )

    def test_detection_round_identical_with_tracing(self):
        baseline = self._run_round()
        with runtime.activated(tracer=Tracer(), metrics=MetricsRegistry()):
            traced = self._run_round()
        assert traced.classified == baseline.classified
        assert traced.bit_positions == baseline.bit_positions
        assert traced.leaders == baseline.leaders
        assert traced.confidence == baseline.confidence

    def _run_transport(self):
        from repro.net.transport import Endpoint, Transport, TransportConfig
        from repro.sim.scheduler import Scheduler

        sched = Scheduler()
        transport = Transport(
            sched,
            random.Random(7),
            config=TransportConfig(loss_rate=0.2, duplicate_rate=0.1, reorder_rate=0.1),
        )
        a, b = Endpoint(1, 1000), Endpoint(2, 1000)
        deliveries = []
        transport.bind(a, lambda m: None)
        transport.bind(b, lambda m: deliveries.append(m.delivered_at))
        for i in range(200):
            sched.call_later(float(i), transport.send, a, b, b"ping")
        sched.run()
        return deliveries, transport.stats

    def test_transport_identical_with_tracing(self):
        base_deliveries, base_stats = self._run_transport()
        with runtime.activated(tracer=Tracer(), metrics=MetricsRegistry()):
            traced_deliveries, traced_stats = self._run_transport()
        assert traced_deliveries == base_deliveries
        assert traced_stats == base_stats
