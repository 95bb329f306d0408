"""Subprocess transport and host worker tests.

The wire/worker loop is unit-tested over in-memory streams (cheap,
deterministic); a small number of tests cross a real process boundary
with the importable ``echo`` point, including a mid-run SIGKILL."""

import io
import json
import os

import pytest

import repro
from repro.runner.dispatch import wire
from repro.runner.dispatch.faultplan import KILL, STALL, HostFault
from repro.runner.dispatch.hostworker import serve
from repro.runner.dispatch.subproc import SubprocessHostPool, worker_env
from repro.runner.dispatch.transport import REPLY_RECORD
from repro.runner.dispatch.wire import WorkUnit
from repro.runner.executors import SerialExecutor
from repro.runner.progress import POINT_DONE
from repro.runner.sweep import SweepSpec, make_points, point_seed


def _echo_spec(n=6, root_seed=5):
    return SweepSpec(
        name="echo",
        root_seed=root_seed,
        points=make_points(root_seed, "echo", [{"x": i} for i in range(n)]),
    )


class TestWire:
    def test_work_unit_round_trip(self):
        unit = WorkUnit(
            point="echo", params={"x": 1}, seed=point_seed(0, 0),
            index=0, attempt=2, capture=True,
        )
        assert WorkUnit.from_wire(wire.decode(wire.encode(unit.to_wire()))) == unit

    def test_record_round_trip(self):
        from repro.runner.executors import _execute_point

        record = _execute_point(("echo", {"x": 3}, 9, 4, 1, False))
        restored = wire.record_from_wire(
            wire.decode(wire.encode(wire.record_to_wire(record)))
        )
        assert restored.index == 4
        assert restored.values == record.values
        assert restored.seed == 9

    def test_encode_is_canonical(self):
        a = wire.encode({"b": 1, "a": 2})
        b = wire.encode({"a": 2, "b": 1})
        assert a == b

    def test_decode_blank_is_none(self):
        assert wire.decode("   \n") is None

    def test_decode_rejects_non_messages(self):
        with pytest.raises(ValueError, match="wire message"):
            wire.decode("[1, 2, 3]")


class TestHostWorkerLoop:
    def _serve(self, *messages):
        stdin = io.StringIO(
            "".join(wire.encode(m) + "\n" for m in messages)
        )
        stdout = io.StringIO()
        serve(stdin=stdin, stdout=stdout)
        return [
            wire.decode(line)
            for line in stdout.getvalue().splitlines()
            if line.strip()
        ]

    def test_ping_pong(self):
        replies = self._serve({"op": wire.OP_PING})
        assert len(replies) == 1
        assert replies[0]["op"] == wire.OP_PONG
        # Pongs double as heartbeats carrying advisory host telemetry.
        assert replies[0]["telemetry"]["points_done"] == 0

    def test_run_returns_record(self):
        unit = WorkUnit(
            point="echo", params={"x": 7}, seed=11, index=3, attempt=1
        )
        replies = self._serve(unit.to_wire())
        assert replies[0]["op"] == wire.OP_RECORD
        assert replies[0]["values"] == {"seed": 11, "x": 7}
        assert replies[0]["index"] == 3

    def test_unknown_point_is_error_reply(self):
        unit = WorkUnit(
            point="no-such-point", params={}, seed=0, index=2, attempt=1
        )
        replies = self._serve(unit.to_wire())
        assert replies[0]["op"] == wire.OP_ERROR
        assert replies[0]["index"] == 2

    def test_bad_line_reported_not_fatal(self):
        stdin = io.StringIO('{"not": "a message"}\n' + wire.encode({"op": wire.OP_PING}) + "\n")
        stdout = io.StringIO()
        serve(stdin=stdin, stdout=stdout)
        replies = [wire.decode(l) for l in stdout.getvalue().splitlines()]
        assert replies[0]["op"] == wire.OP_ERROR
        assert replies[1]["op"] == wire.OP_PONG

    def test_exit_stops_loop(self):
        replies = self._serve({"op": wire.OP_EXIT}, {"op": wire.OP_PING})
        assert replies == []

    def test_unknown_op_is_error(self):
        replies = self._serve({"op": "teleport"})
        assert replies[0]["op"] == wire.OP_ERROR


class TestSubprocessPool:
    def test_host_count_validation(self):
        with pytest.raises(ValueError):
            SubprocessHostPool(0)

    def test_matches_serial(self):
        from repro.runner.dispatch import DispatchExecutor

        spec = _echo_spec()
        serial = SerialExecutor().run(spec)
        with SubprocessHostPool(hosts=2) as pool:
            result = DispatchExecutor(pool=pool).run(spec)
        assert json.dumps(result.values()) == json.dumps(serial.values())

    def test_kill_fault_recovers(self):
        from repro.runner.dispatch import DispatchExecutor, parse_host_faults

        spec = _echo_spec(n=8)
        serial = SerialExecutor().run(spec)
        with SubprocessHostPool(hosts=3) as pool:
            executor = DispatchExecutor(
                pool=pool, fault_plan=parse_host_faults("kill:1@0.5")
            )
            result = executor.run(spec)
        assert json.dumps(result.values()) == json.dumps(serial.values())
        assert result.metrics.hosts_lost == 1

    def test_step_feeds_every_idle_host_first(self):
        units = [
            WorkUnit(point="echo", params={"x": i}, seed=point_seed(5, i),
                     index=i, attempt=1)
            for i in range(2)
        ]
        with SubprocessHostPool(hosts=2) as pool:
            pool.submit(0, units[0])
            pool.submit(1, units[1])
            assert pool.step(0).kind == REPLY_RECORD
            # Host 1's unit went out before the wait on host 0.
            assert pool._hosts[1].in_flight == units[1]
            assert pool.step(1).record.index == 1

    def test_unsupported_fault_rejected_before_any_point(self):
        from repro.runner.dispatch import DispatchExecutor, parse_host_faults

        events = []
        with SubprocessHostPool(hosts=1) as pool:
            executor = DispatchExecutor(
                pool=pool, fault_plan=parse_host_faults("stall:0@0.5x3")
            )
            with pytest.raises(ValueError, match="supports only kill"):
                executor.run(_echo_spec(n=4), progress=events.append)
        assert POINT_DONE not in [event.kind for event in events]

    def test_stall_fault_unsupported(self):
        with SubprocessHostPool(hosts=1) as pool:
            with pytest.raises(ValueError, match="supports only"):
                pool.inject(HostFault(STALL, host=0, at_progress=0.0, duration=2))

    def test_kill_then_silence(self):
        with SubprocessHostPool(hosts=1) as pool:
            pool.inject(HostFault(KILL, host=0, at_progress=0.0))
            assert pool.step(0) is None


class TestWorkerEnv:
    def test_package_root_leads_pythonpath(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = worker_env()
        assert env["PYTHONPATH"].split(os.pathsep)[0] == root

    def test_existing_pythonpath_preserved(self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", "/some/other/dir")
        parts = worker_env()["PYTHONPATH"].split(os.pathsep)
        assert "/some/other/dir" in parts
        root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        assert parts[0] == root

    def test_no_duplicate_entries(self, monkeypatch):
        root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        monkeypatch.setenv("PYTHONPATH", root)
        parts = worker_env()["PYTHONPATH"].split(os.pathsep)
        assert parts.count(root) == 1

    def test_other_env_inherited(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_MARKER", "yes")
        assert worker_env()["REPRO_TEST_MARKER"] == "yes"

    def test_worker_resolves_package_without_ambient_pythonpath(self, monkeypatch):
        """The regression: a parent that imported repro via sys.path
        (no PYTHONPATH in its environment) must still spawn workers
        that can ``python -m`` the hostworker module."""
        monkeypatch.delenv("PYTHONPATH", raising=False)
        spec = _echo_spec(n=2)
        serial = SerialExecutor().run(spec)
        from repro.runner.dispatch import DispatchExecutor

        with SubprocessHostPool(hosts=1) as pool:
            result = DispatchExecutor(pool=pool).run(spec)
        assert json.dumps(result.values()) == json.dumps(serial.values())
