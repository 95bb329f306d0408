"""Integration tests: the paper's sweeps on the runner.

The headline guarantee -- an identical root seed produces
byte-identical aggregated output at any worker count -- is asserted
here on scaled-down Figure 2 and Figure 3 sweeps (the acceptance
criterion of the sharded-runner work).
"""

import json

import pytest

from repro.cli import main
from repro.runner import build_sweep, render_result, run_sweep
from repro.runner.aggregate import coverage_relative, fig2_grid
from repro.runner.sweeps import SWEEPS, fig2_sweep, fig3_zeus_sweep
from repro.sim.rng import derive_seed

#: Small-but-real sweep settings shared by the equality tests: tiny
#: population, short windows, trimmed axes.
FIG2_SMALL = dict(
    scale="tiny",
    sensors=12,
    announce_hours=1.0,
    measure_hours=3.0,
    thresholds=(0.05, 0.10),
    ratios=(1, 4),
    fleet_size=4,
)
FIG3_SMALL = dict(
    scale="tiny", sensors=4, announce_hours=1.0, hours=3.0, ratios=(1, 4)
)


class TestSweepSpecs:
    def test_fig2_spec_shape(self):
        spec = fig2_sweep(root_seed=5)
        assert spec.name == "fig2"
        assert len(spec) == 15  # 3 thresholds x 5 ratios
        assert spec.aggregator == "fig2"
        # Every cell shares one capture and one detection seed (the
        # paper's replay methodology) ...
        captures = {p.params["capture_seed"] for p in spec.points}
        detections = {p.params["detection_seed"] for p in spec.points}
        assert captures == {derive_seed(5, "fig2-capture")}
        assert detections == {derive_seed(5, "fig2-detection")}
        # ... while per-point child seeds are index-derived.
        assert len({p.seed for p in spec.points}) == len(spec)

    def test_fig3_spec_shape(self):
        spec = fig3_zeus_sweep(root_seed=5, ratios=(1, 2, 4))
        assert [p.params["ratio"] for p in spec.points] == [1, 2, 4]
        assert spec.aggregator == "fig3-zeus"

    def test_build_sweep_unknown_name(self):
        with pytest.raises(KeyError, match="unknown sweep"):
            build_sweep("no-such-sweep")

    def test_registry_covers_fig2_and_fig3(self):
        assert {"fig2", "fig3-zeus", "fig3-sality"} <= set(SWEEPS)

    def test_topology_absent_by_default(self):
        # Flat sweeps' params must not change shape when the topology
        # feature is off (params feed goldens and cache keys).
        for spec in (fig2_sweep(root_seed=5), fig3_zeus_sweep(root_seed=5)):
            assert all("topology" not in p.params for p in spec.points)

    def test_topology_threads_into_every_point(self):
        spec = fig2_sweep(root_seed=5, topology="synth:9")
        assert {p.params["topology"] for p in spec.points} == {"synth:9"}
        spec3 = fig3_zeus_sweep(root_seed=5, topology="synth:9")
        assert {p.params["topology"] for p in spec3.points} == {"synth:9"}


class TestFig2Determinism:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return run_sweep(fig2_sweep(root_seed=11, **FIG2_SMALL), workers=1)

    def test_parallel_matches_serial_byte_identical(self, serial_result):
        parallel = run_sweep(fig2_sweep(root_seed=11, **FIG2_SMALL), workers=2)
        # Deterministic payloads are identical record by record ...
        assert serial_result.values() == parallel.values()
        # ... and so are the rendered exhibit and the JSON encoding,
        # byte for byte.
        assert render_result(serial_result) == render_result(parallel)
        assert json.dumps(serial_result.values(), sort_keys=True) == json.dumps(
            parallel.values(), sort_keys=True
        )

    def test_rerun_is_bit_stable(self, serial_result):
        again = run_sweep(fig2_sweep(root_seed=11, **FIG2_SMALL), workers=1)
        assert serial_result.values() == again.values()

    def test_different_root_seed_changes_capture(self, serial_result):
        other = run_sweep(fig2_sweep(root_seed=12, **FIG2_SMALL), workers=1)
        assert serial_result.values() != other.values()

    def test_full_contact_detects_most_crawlers(self, serial_result):
        grid = fig2_grid(serial_result)
        for threshold in FIG2_SMALL["thresholds"]:
            assert grid[(threshold, 1)]["detection_rate"] >= grid[
                (threshold, FIG2_SMALL["ratios"][-1])
            ]["detection_rate"]


class TestFig3Determinism:
    def test_parallel_matches_serial(self):
        serial = run_sweep(fig3_zeus_sweep(root_seed=7, **FIG3_SMALL), workers=1)
        parallel = run_sweep(fig3_zeus_sweep(root_seed=7, **FIG3_SMALL), workers=2)
        assert serial.values() == parallel.values()
        assert render_result(serial) == render_result(parallel)
        relative = coverage_relative(serial)
        assert relative["1/1"] == 1.0
        assert relative["1/4"] <= 1.0


class TestSweepCli:
    def test_list(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "fig2" in out and "fig3-zeus" in out

    def test_missing_name_errors(self, capsys):
        assert main(["sweep"]) == 2

    def test_fig2_text_output_deterministic(self, capsys):
        argv = [
            "sweep", "fig2", "--seed", "4", "--ratios", "1", "2", "--no-progress"
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "Figure 2" in first
        assert first == second

    def test_workers_and_hosts_together_rejected(self, capsys):
        assert main(["sweep", "fig2", "--workers", "2", "--hosts", "2"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_host_transport_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "fig2", "--hosts", "2", "--host-transport", "subprocess"])
        assert excinfo.value.code == 2

    def test_workers_match_serial_and_leave_no_host_running(self, capsys, spawned_hosts):
        argv = [
            "sweep", "fig2", "--scale", "tiny", "--ratios", "1", "--json",
            "--no-progress",
        ]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert len(spawned_hosts) == 2
        assert all(proc.poll() is not None for proc in spawned_hosts)

    def test_unsupported_host_fault_exits_before_any_point(self, capsys, spawned_hosts):
        argv = [
            "sweep", "fig3-zeus", "--scale", "tiny", "--workers", "2",
            "--host-faults", "stall:0@0.5x3",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "supports only kill" in err
        assert "[1/" not in err
        assert all(proc.poll() is not None for proc in spawned_hosts)

    def test_host_fault_seed_draws_only_faults_the_workers_inject(self, capsys, spawned_hosts):
        """Seed 11 draws a partition for in-process hosts, which
        subprocess hosts cannot inject; for them it draws a kill."""
        argv = ["sweep", "fig3-zeus", "--scale", "tiny", "--seed", "0", "--json"]
        assert main(argv + ["--no-progress"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["-w", "2", "--host-fault-seed", "11"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        assert "host fault injected: kill:1@0.022" in captured.err
        assert "re-leasing" in captured.err
        assert all(proc.poll() is not None for proc in spawned_hosts)

    def test_json_output(self, capsys):
        argv = [
            "sweep", "fig3-zeus", "--seed", "4", "--ratios", "1",
            "--json", "--no-progress",
        ]
        assert main(argv) == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["ratio"] == 1
        assert records[0]["distinct_ips"] > 0
