"""run.py's report.  The report tests run each execution in-process at a
tiny size in place of a fresh interpreter at the benchmark's size."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import child
import run

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
#: No hash is recorded for this seed, so each tiny execution is checked
#: against the run's first one.
SEED = "99"


def tiny_child(workload, seed, traced, deadline):
    started = time.monotonic()
    result = child.execute(workload, seed, size="tiny", traced=traced)
    return dict(result, wall_s=time.monotonic() - started)


def report(monkeypatch, capsys, *args):
    monkeypatch.setattr(run, "run_child", tiny_child)
    # With no time to fill, one untraced execution runs (plus the traced one).
    assert run.main(["--seed", SEED, "--seconds", "0", *args]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# machine: nproc=")
    return json.loads(lines[-1])


def test_untraced_run_reports_the_end_to_end_metrics(monkeypatch, capsys):
    result = report(monkeypatch, capsys, "--workload", "fig3-sality")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        "setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB",
    }
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_reports_the_per_layer_metrics(monkeypatch, capsys):
    result = report(monkeypatch, capsys, "--workload", "zeus-20k-churn", "--trace", "1")
    assert result["correct"] and result["attempted"] == 2
    metrics = result["metrics"]
    assert "trace.overhead" in metrics and "setup_s" not in metrics
    assert metrics["churn.transitions"]["value"] > 0
    assert metrics["crawler.s"]["value"] == 0.0  # no recon on this workload


def test_fastest_chunks_sums_each_chunks_fastest_time():
    results = [{"run_laps": [1.0, 5.0, 2.0]}, {"run_laps": [3.0, 2.0, 2.5]}]
    assert run.fastest_chunks(results, "run_laps") == 1.0 + 2.0 + 2.0
    assert run.fastest_chunks(results[:1], "run_laps") == 8.0


def test_fastest_chunks_refuses_executions_of_different_shapes():
    with pytest.raises(ValueError):
        run.fastest_chunks([{"run_laps": [1.0, 2.0]}, {"run_laps": [1.0]}], "run_laps")


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2-zeus", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
