"""Executor tests: the serial reference, retries, ``run_sweep``'s
choice of executor, and progress reporting.

The parallel path is the dispatcher; its retry, host-loss and crash
recovery tests live in ``tests/runner/dispatch/``.
"""

import pytest

from repro.runner.executors import SerialExecutor, SweepExecutionError, run_sweep
from repro.runner.progress import (
    HOST_FAULT,
    HOST_LOST,
    HOST_TELEMETRY,
    POINT_DONE,
    POINT_RETRY,
    SWEEP_DONE,
    SWEEP_START,
    ConsoleProgress,
    ProgressEvent,
)
from repro.runner.registry import register_point, registered_points, resolve_point
from repro.runner.sweep import SweepSpec, make_points


def _square_spec(n=6, root_seed=3):
    return SweepSpec(
        name="squares",
        root_seed=root_seed,
        points=make_points(root_seed, "t-square", [{"x": i} for i in range(n)]),
    )


def _echo_spec(n, root_seed=3):
    # The library's ``echo`` point: subprocess hosts can resolve it,
    # unlike the test-local ``t-square``.
    return SweepSpec(
        name="echo",
        root_seed=root_seed,
        points=make_points(root_seed, "echo", [{"x": i} for i in range(n)]),
    )


class TestRegistry:
    def test_resolve_known(self):
        assert resolve_point("t-square")({"x": 3}, 0)["square"] == 9

    def test_resolve_unknown(self):
        with pytest.raises(KeyError, match="unknown point function"):
            resolve_point("no-such-point")

    def test_reregistration_conflict_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_point("t-square")(lambda params, seed: {})

    def test_library_points_registered(self):
        names = registered_points()
        assert "zeus-detection-cell" in names
        assert "zeus-ratio-crawl" in names
        assert "sality-ratio-crawl" in names


class TestSerialExecutor:
    def test_runs_all_points_in_order(self):
        result = SerialExecutor().run(_square_spec())
        assert [v["square"] for v in result.values()] == [i * i for i in range(6)]
        assert result.metrics.points_completed == 6
        assert result.metrics.workers == 1

    def test_retry_then_success(self, tmp_path):
        spec = SweepSpec(
            name="flaky",
            root_seed=0,
            points=make_points(
                0, "t-flaky", [{"x": 1, "marker": str(tmp_path / "m1")}]
            ),
        )
        result = SerialExecutor(max_retries=2).run(spec)
        assert result.values()[0]["recovered"] is True
        assert result.metrics.retries == 1
        assert result.records[0].attempts == 2

    def test_retry_budget_exhausted(self):
        spec = SweepSpec(
            name="fail",
            root_seed=0,
            points=make_points(0, "t-always-fail", [{}]),
        )
        with pytest.raises(SweepExecutionError, match="after 3 attempts"):
            SerialExecutor(max_retries=2).run(spec)

    def test_zero_retries_allowed(self):
        spec = SweepSpec(
            name="fail", root_seed=0, points=make_points(0, "t-always-fail", [{}])
        )
        with pytest.raises(SweepExecutionError, match="after 1 attempts"):
            SerialExecutor(max_retries=0).run(spec)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            SerialExecutor(max_retries=-1)


class TestSweepExecutionErrorIndices:
    def test_serial_exhaustion_reports_index(self):
        spec = SweepSpec(
            name="fail",
            root_seed=0,
            points=make_points(0, "t-always-fail", [{}]),
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            SerialExecutor(max_retries=0).run(spec)
        assert excinfo.value.indices == (0,)

    def test_indices_default_empty(self):
        assert SweepExecutionError("boom").indices == ()


class TestRunSweep:
    def test_workers_one_uses_serial(self):
        result = run_sweep(_square_spec(), workers=1)
        assert result.metrics.workers == 1

    def test_workers_many_matches_serial(self):
        spec = _echo_spec(8)
        parallel = run_sweep(spec, workers=4)
        assert run_sweep(spec, workers=1).values() == parallel.values()
        assert parallel.metrics.workers == 4

    def test_test_local_point_unknown_to_subprocess_hosts(self):
        with pytest.raises(SweepExecutionError, match="unknown point function"):
            run_sweep(_square_spec(n=2), workers=2)

    def test_no_host_outlives_the_sweep(self, spawned_hosts):
        run_sweep(_echo_spec(4), workers=2)
        assert len(spawned_hosts) == 2
        assert all(proc.poll() is not None for proc in spawned_hosts)


class TestProgress:
    def test_event_lifecycle(self):
        events = []
        SerialExecutor().run(_square_spec(n=3), progress=events.append)
        kinds = [event.kind for event in events]
        assert kinds[0] == SWEEP_START
        assert kinds[-1] == SWEEP_DONE
        assert kinds.count(POINT_DONE) == 3
        done = [event for event in events if event.kind == POINT_DONE]
        assert [event.completed for event in done] == [1, 2, 3]
        assert all(event.total == 3 for event in events)

    def test_retry_event_emitted(self, tmp_path):
        events = []
        spec = SweepSpec(
            name="flaky",
            root_seed=0,
            points=make_points(
                0, "t-flaky", [{"x": 1, "marker": str(tmp_path / "p")}]
            ),
        )
        SerialExecutor().run(spec, progress=events.append)
        assert POINT_RETRY in [event.kind for event in events]

    def test_console_progress_writes_lines(self, tmp_path, capsys):
        import io

        stream = io.StringIO()
        hook = ConsoleProgress(stream=stream)
        SerialExecutor().run(_square_spec(n=2), progress=hook)
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("sweep: 2 points")
        assert any("[2/2]" in line for line in lines)
        assert lines[-1].startswith("sweep done")

    def test_console_progress_handles_all_kinds(self):
        import io

        stream = io.StringIO()
        hook = ConsoleProgress(stream=stream)
        hook(ProgressEvent(kind=HOST_FAULT, completed=0, total=1, detail="kill:1@0.5"))
        hook(ProgressEvent(kind=HOST_LOST, completed=0, total=1, detail="host 1"))
        hook(ProgressEvent(kind=HOST_TELEMETRY, completed=0, total=1, host=1))
        assert stream.getvalue().splitlines() == [
            "host fault injected: kill:1@0.5",
            "host lost: host 1",
        ]
