"""Shared test point functions for the runner suite.

Registered at conftest import so every module in tests/runner/ (and
the in-process hosts of a ``LocalHostPool``) can resolve them by name.
Subprocess hosts cannot: they import only the library's points.
"""

import os
import subprocess

import pytest

from repro.runner.registry import register_point


@pytest.fixture
def spawned_hosts(monkeypatch):
    """Every process the test starts (the subprocess hosts among
    them), so a test can check that none is left running."""
    procs = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    return procs


@register_point("t-square")
def _square(params, seed):
    return {"x": params["x"], "square": params["x"] ** 2, "seed": seed}


@register_point("t-flaky")
def _flaky(params, seed):
    # Fails until its marker file exists; the first attempt creates it,
    # so attempt 2 succeeds.
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted")
        raise RuntimeError("flaky point: first attempt fails")
    return {"x": params["x"], "recovered": True}


@register_point("t-always-fail")
def _always_fail(params, seed):
    raise RuntimeError("this point never succeeds")
