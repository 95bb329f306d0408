"""Output hashes at a tiny size: stable across runs, unchanged by tracing."""

import json
import os

import pytest

import child
import instrument
import run
import workloads
from repro.botnets.zeus import crypto as zeus_crypto
from repro.net.transport import Transport
from repro.sim.scheduler import Scheduler

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_output_hash_is_stable_across_runs(name):
    first = child.execute(name, seed=3, size="tiny")
    second = child.execute(name, seed=3, size="tiny")
    assert first["problems"] == []
    assert first["hash"] == second["hash"]
    assert first["setup_s"] > 0.0 and first["run_s"] > 0.0


def test_window_chunks_leave_the_outputs_unchanged(monkeypatch):
    chunked = child.execute("zeus-20k-churn", seed=3, size="tiny")
    assert len(chunked["run_laps"]) == workloads.WINDOW_CHUNKS
    assert chunked["run_s"] == sum(chunked["run_laps"])
    monkeypatch.setattr(workloads, "WINDOW_CHUNKS", 1)
    whole = child.execute("zeus-20k-churn", seed=3, size="tiny")
    assert len(whole["run_laps"]) == 1
    assert whole["hash"] == chunked["hash"]


def test_seed_changes_the_outputs():
    assert (
        child.execute("fig2-zeus", seed=3, size="tiny")["hash"]
        != child.execute("fig2-zeus", seed=4, size="tiny")["hash"]
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_leaves_the_hash_unchanged(name):
    untraced = child.execute(name, seed=5, size="tiny")
    originals = (Scheduler.run_until, Transport.send, zeus_crypto.zeus_encrypt)
    traced = child.execute(name, seed=5, size="tiny", traced=True)
    assert traced["hash"] == untraced["hash"]
    # The wrappers come off again once the traced run ends.
    assert (Scheduler.run_until, Transport.send, zeus_crypto.zeus_encrypt) == originals
    layers = traced["layers"]
    assert layers["trace.coverage"]["value"] >= 0.9
    assert layers["sim.dispatches"]["value"] > 0
    assert all(metric["value"] >= 0 for metric in layers.values())


def test_the_code_reports_what_the_benchmark_declares():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as stream:
        spec = json.load(stream)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    declared = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    produced = dict(instrument.UNITS, **{"trace.overhead": "ratio"})
    assert declared == produced
