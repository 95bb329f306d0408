"""Dispatcher tests: serial equivalence under every fault kind, lease
accounting, budget enforcement, and the deterministic timeline.

Every scenario here is replayable: fault triggers are progress
fractions and heartbeats are counted in steps, so a test asserting "host
1 dies mid-run and its lease is recovered" passes or fails identically
on any machine."""

import json

import pytest

from repro.obs import MetricsRegistry, runtime as obs_runtime
from repro.runner.dispatch import (
    DispatchExecutor,
    HostFault,
    HostFaultPlan,
    LocalHostPool,
    chunk_leases,
    default_chunk_size,
    parse_host_faults,
    sample_fault_plan,
)
from repro.runner.dispatch.faultplan import KILL, PARTITION, STALL
from repro.runner.executors import SerialExecutor, SweepExecutionError
from repro.runner.progress import (
    HOST_FAULT,
    HOST_LOST,
    POINT_DONE,
    POINT_RETRY,
    SWEEP_DONE,
    SWEEP_START,
)
from repro.runner.sweep import SweepSpec, make_points


def _spec(n=12, root_seed=3, point="t-square"):
    return SweepSpec(
        name="d",
        root_seed=root_seed,
        points=make_points(root_seed, point, [{"x": i} for i in range(n)]),
    )


def _payload(result):
    """The byte-level determinism payload."""
    return json.dumps(result.values(), sort_keys=True)


class TestLeaseChunking:
    def test_round_robin_assignment(self):
        spec = _spec(n=7)
        grants = chunk_leases(spec.points, hosts=[0, 1, 2], chunk_size=2)
        assert [p.index for p in grants[0]] == [0, 1, 6]
        assert [p.index for p in grants[1]] == [2, 3]
        assert [p.index for p in grants[2]] == [4, 5]

    def test_every_point_granted_exactly_once(self):
        spec = _spec(n=23)
        grants = chunk_leases(spec.points, hosts=[0, 1, 2, 3], chunk_size=3)
        indices = sorted(p.index for leased in grants.values() for p in leased)
        assert indices == list(range(23))

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            chunk_leases((), [0], 0)

    def test_default_chunk_size_quarters_the_share(self):
        assert default_chunk_size(160, hosts=4) == 10
        assert default_chunk_size(3, hosts=8) == 1
        assert default_chunk_size(0, hosts=2) == 1


class TestSerialEquivalence:
    def test_plain_dispatch_matches_serial(self):
        spec = _spec()
        serial = SerialExecutor().run(spec)
        dispatched = DispatchExecutor(hosts=3).run(spec)
        assert _payload(dispatched) == _payload(serial)
        assert [r.seed for r in dispatched.records] == [
            r.seed for r in serial.records
        ]

    def test_single_host_matches_serial(self):
        spec = _spec(n=5)
        assert _payload(DispatchExecutor(hosts=1).run(spec)) == _payload(
            SerialExecutor().run(spec)
        )

    def test_kill_mid_run_matches_serial(self):
        spec = _spec()
        serial = SerialExecutor().run(spec)
        result = DispatchExecutor(
            hosts=3, fault_plan=parse_host_faults("kill:1@0.5")
        ).run(spec)
        assert _payload(result) == _payload(serial)
        assert result.metrics.hosts_lost == 1  # one host declared lost

    def test_stall_and_partition_match_serial(self):
        spec = _spec()
        serial = SerialExecutor().run(spec)
        plan = parse_host_faults("stall:0@0.2x6,partition:2@0.4x4")
        result = DispatchExecutor(hosts=3, fault_plan=plan, max_retries=4).run(spec)
        assert _payload(result) == _payload(serial)

    def test_short_stall_recovers_without_host_loss(self):
        spec = _spec()
        plan = parse_host_faults("stall:1@0.3x2")
        result = DispatchExecutor(hosts=3, fault_plan=plan, heartbeat_misses=4).run(spec)
        assert _payload(result) == _payload(SerialExecutor().run(spec))
        assert result.metrics.hosts_lost == 0  # stall < miss budget

    def test_long_stall_is_operationally_a_kill(self):
        spec = _spec()
        plan = parse_host_faults("stall:1@0.3x20")
        result = DispatchExecutor(hosts=3, fault_plan=plan, heartbeat_misses=3).run(spec)
        assert _payload(result) == _payload(SerialExecutor().run(spec))
        assert result.metrics.hosts_lost == 1

    def test_dispatch_is_deterministic_run_to_run(self):
        spec = _spec()
        plan = sample_fault_plan(11, hosts=3)
        a = DispatchExecutor(hosts=3, fault_plan=plan, max_retries=6).run(spec)
        b = DispatchExecutor(hosts=3, fault_plan=plan, max_retries=6).run(spec)
        assert _payload(a) == _payload(b)
        assert a.metrics.retries == b.metrics.retries
        assert a.metrics.hosts_lost == b.metrics.hosts_lost


class TestFailurePaths:
    def test_killing_every_host_rejected_up_front(self):
        plan = HostFaultPlan(
            faults=tuple(HostFault(KILL, host=h, at_progress=0.0) for h in range(2))
        )
        with pytest.raises(ValueError, match="kills every host"):
            DispatchExecutor(hosts=2, fault_plan=plan).run(_spec())

    def test_budget_exhaustion_surfaces_indices(self):
        spec = SweepSpec(
            name="doomed",
            root_seed=0,
            points=make_points(0, "t-always-fail", [{}]),
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            DispatchExecutor(hosts=2, max_retries=1).run(spec)
        assert excinfo.value.indices == (0,)

    def test_failing_point_retried_then_raises(self):
        from repro.runner.sweep import SweepPoint, point_seed

        spec = SweepSpec(
            name="mixed",
            root_seed=0,
            points=(
                SweepPoint(0, "t-square", {"x": 1}, point_seed(0, 0)),
                SweepPoint(1, "t-always-fail", {}, point_seed(0, 1)),
            ),
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            DispatchExecutor(hosts=2, max_retries=2).run(spec)
        assert excinfo.value.indices == (1,)

    def test_flaky_point_recovers_inside_dispatch(self, tmp_path):
        from repro.runner.sweep import SweepPoint, point_seed

        spec = SweepSpec(
            name="flaky",
            root_seed=0,
            points=(
                SweepPoint(
                    0, "t-flaky", {"x": 1, "marker": str(tmp_path / "m")},
                    point_seed(0, 0),
                ),
            ),
        )
        result = DispatchExecutor(hosts=2, max_retries=2).run(spec)
        assert result.values()[0]["recovered"] is True
        assert result.metrics.retries >= 1

    def test_losing_every_host_names_every_unfinished_point(self):
        spec = _spec()
        done = []

        def progress(event):
            if event.kind == POINT_DONE:
                done.append(event.record.index)

        plan = parse_host_faults("kill:0@0,stall:1@0.25x1000")
        with pytest.raises(SweepExecutionError, match="all hosts lost") as excinfo:
            DispatchExecutor(hosts=2, fault_plan=plan).run(spec, progress=progress)
        unfinished = sorted(set(range(len(spec))) - set(done))
        assert 0 < len(unfinished) < len(spec)
        assert list(excinfo.value.indices) == unfinished
        assert str(unfinished) in str(excinfo.value)

    def test_validation_of_knobs(self):
        with pytest.raises(ValueError):
            DispatchExecutor(hosts=2, max_retries=-1)
        with pytest.raises(ValueError):
            DispatchExecutor(hosts=2, heartbeat_misses=0)
        with pytest.raises(ValueError):
            DispatchExecutor(hosts=2, chunk_size=0)


class TestProgressAndTimeline:
    def test_progress_lifecycle_with_host_loss(self):
        events = []
        spec = _spec()
        DispatchExecutor(
            hosts=3, fault_plan=parse_host_faults("kill:1@0.5")
        ).run(spec, progress=events.append)
        kinds = [event.kind for event in events]
        assert kinds[0] == SWEEP_START
        assert kinds[-1] == SWEEP_DONE
        assert HOST_FAULT in kinds
        assert HOST_LOST in kinds
        assert kinds.count(POINT_DONE) == len(spec)
        lost = next(e for e in events if e.kind == HOST_LOST)
        assert "host 1" in lost.detail

    def test_timeline_tracks_hosts_and_recovery(self):
        spec = _spec()
        executor = DispatchExecutor(
            hosts=3, fault_plan=parse_host_faults("kill:1@0.5")
        )
        executor.run(spec)
        events = executor.timeline()
        cats = {event.cat for event in events}
        assert {"host:0", "host:1", "host:2", "dispatch"} <= cats
        names = [event.name for event in events]
        assert "fault-kill" in names
        assert "host-lost" in names
        assert "re-lease" in names
        spans = [e for e in events if e.ph == "X"]
        # Every point gets exactly one completed span.
        assert len(spans) == len(spec)

    def test_timeline_is_deterministic(self):
        spec = _spec()
        plan = parse_host_faults("kill:2@0.25,stall:0@0.5x5")
        runs = []
        for _ in range(2):
            executor = DispatchExecutor(hosts=3, fault_plan=plan, max_retries=4)
            executor.run(spec)
            runs.append(
                [(e.time, e.cat, e.name, e.ph) for e in executor.timeline()]
            )
        assert runs[0] == runs[1]

    def test_dispatch_metrics_counted(self):
        registry = MetricsRegistry()
        spec = _spec()
        with obs_runtime.activated(metrics=registry):
            DispatchExecutor(
                hosts=3, fault_plan=parse_host_faults("kill:1@0.5")
            ).run(spec)
        snapshot = registry.snapshot()
        assert snapshot["dispatch.acks"]["values"][""] == len(spec)
        assert snapshot["dispatch.hosts_lost"]["values"][""] == 1
        assert snapshot["dispatch.faults_injected"]["values"][""] == 1
        assert snapshot["dispatch.releases"]["values"][""] >= 1


class TestCaptureMetricsThroughDispatch:
    def test_per_point_snapshots_survive_host_loss(self):
        spec = _spec(n=6)
        result = DispatchExecutor(
            hosts=2,
            capture_metrics=True,
            fault_plan=parse_host_faults("kill:0@0.5"),
        ).run(spec)
        assert all(record.metrics is not None for record in result.records)


class TestExternalPool:
    def test_caller_owned_pool_not_closed(self):
        pool = LocalHostPool(2)
        spec = _spec(n=4)
        DispatchExecutor(pool=pool).run(spec)
        # Pool still serviceable: hosts answer idle heartbeats.
        assert all(pool.step(h) is not None for h in pool.host_ids())

    def test_partition_triggers_idle_resync(self):
        spec = _spec(n=8)
        plan = HostFaultPlan(
            faults=(HostFault(PARTITION, host=0, at_progress=0.0, duration=2),)
        )
        result = DispatchExecutor(
            hosts=2, fault_plan=plan, heartbeat_misses=5, max_retries=4
        ).run(spec)
        assert _payload(result) == _payload(SerialExecutor().run(spec))
        # The partitioned host executed work whose acks were lost; those
        # points were re-leased.
        assert result.metrics.retries >= 1
