"""Golden-output regression tests.

Each test renders an exhibit and compares it byte-for-byte against a
committed snapshot under ``tests/golden/goldens/``.  A formatting or
determinism regression anywhere in the pipeline (scenario build, sim,
detection, rendering) shows up as a golden diff.

To refresh snapshots after an *intentional* change::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/golden -q

then review the diff and commit the updated files.
"""

import os
import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def _check_golden(name: str, text: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("UPDATE_GOLDENS"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        pytest.skip(f"golden {name} regenerated")
    if not path.exists():
        raise AssertionError(
            f"missing golden {path}; run with UPDATE_GOLDENS=1 to create it"
        )
    assert text + "\n" == path.read_text(), (
        f"exhibit diverged from golden {name}; if the change is intended, "
        "regenerate with UPDATE_GOLDENS=1 and commit the diff"
    )


def test_table1_golden():
    from repro.analysis.tables import render_table1

    _check_golden("table1_antirecon.txt", render_table1())


@pytest.fixture(scope="module")
def fig2_small_result():
    """A small-population Figure 2 sweep, fully pinned by root seed 0."""
    from repro.runner import build_sweep, run_sweep

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
    return run_sweep(spec, workers=1)


def test_fig2_small_rendered_golden(fig2_small_result):
    from repro.runner import render_result

    _check_golden("fig2_small_sweep.txt", render_result(fig2_small_result))


def test_fig2_small_values_golden(fig2_small_result):
    import json

    text = json.dumps(fig2_small_result.values(), indent=2, sort_keys=True)
    _check_golden("fig2_small_values.json", text)


def test_fig2_small_dispatched_with_host_kill_matches_golden():
    """The same fig2 sweep dispatched across 3 simulated hosts -- one of
    which is killed at 50% progress -- must reproduce the committed
    golden bytes exactly.  Host placement, chunking, and failure
    recovery are not allowed to leak into the exhibit."""
    from repro.runner import (
        DispatchExecutor,
        build_sweep,
        parse_host_faults,
        render_result,
    )

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
    executor = DispatchExecutor(
        hosts=3, fault_plan=parse_host_faults("kill:1@0.5")
    )
    result = executor.run(spec)
    assert result.metrics.pool_restarts == 1  # the kill really happened
    _check_golden("fig2_small_sweep.txt", render_result(result))


def test_fig3_zeus_small_rendered_golden():
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
    result = run_sweep(spec, workers=1)
    _check_golden("fig3_zeus_small_sweep.txt", render_result(result))


@pytest.fixture(scope="module")
def fig3_sality_small_result():
    """A small-population Figure 3b sweep (Sality), fully pinned by root
    seed 0."""
    from repro.runner import build_sweep, run_sweep

    spec = build_sweep(
        "fig3-sality",
        root_seed=0,
        scale="tiny",
        sensors=4,
        announce_hours=1.0,
        hours=3.0,
        ratios=(1, 2, 4),
    )
    return run_sweep(spec, workers=1)


def test_fig3_sality_small_rendered_golden(fig3_sality_small_result):
    from repro.runner import render_result

    _check_golden("fig3_sality_small_sweep.txt", render_result(fig3_sality_small_result))


def test_fig3_sality_small_values_golden(fig3_sality_small_result):
    import json

    text = json.dumps(fig3_sality_small_result.values(), indent=2, sort_keys=True)
    _check_golden("fig3_sality_small_values.json", text)
