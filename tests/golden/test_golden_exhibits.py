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
    assert result.metrics.hosts_lost == 1  # the kill really happened
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


def _run_fig3_sality_small():
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


@pytest.fixture(scope="module")
def fig3_sality_small_result():
    return _run_fig3_sality_small()


def test_fig3_sality_small_rendered_golden(fig3_sality_small_result):
    from repro.runner import render_result

    _check_golden("fig3_sality_small_sweep.txt", render_result(fig3_sality_small_result))


def test_fig3_sality_small_rendered_golden_with_pure_python_rc4(monkeypatch):
    """The pure-Python RC4 fallback reproduces the Fig 3b golden end to
    end, from empty keystream caches."""
    from repro.botnets.sality import protocol as sality_protocol
    from repro.botnets.zeus import crypto
    from repro.runner import render_result

    monkeypatch.setattr(crypto, "_keystream", crypto.rc4_keystream)
    monkeypatch.setattr(crypto._shared_cache, "_cache", {})
    monkeypatch.setattr(sality_protocol, "_keystreams", crypto.KeystreamCache(max_entries=4096))
    _check_golden("fig3_sality_small_sweep.txt", render_result(_run_fig3_sality_small()))


def test_fig3_sality_small_values_golden(fig3_sality_small_result):
    import json

    text = json.dumps(fig3_sality_small_result.values(), indent=2, sort_keys=True)
    _check_golden("fig3_sality_small_values.json", text)


def fig4_small_exhibit():
    """Small-population Figure 4 crawls of both families (seeds 31 and
    32, as in the Fig 4 benchmark): the rendered figures and a values
    JSON of each crawler's report and the checkpoint ratios."""
    import json

    from repro.workloads.frequency import (
        cycle_checkpoint,
        relative_at,
        render_frequency_figure,
        run_frequency_crawls,
    )

    cycles = 2.0
    texts, values = [], {}
    for family, seed in (("zeus", 31), ("sality", 32)):
        scenario, crawlers = run_frequency_crawls(
            family, scale="small", master_seed=seed, sensor_count=4, announce_hours=1.0, hours=3.0
        )
        title = f"Figure 4 ({family}, small): bots crawled for varying request frequency"
        texts.append(render_frequency_figure(title, scenario, crawlers, family, cycles))
        values[family] = {
            "relative_at_checkpoint": relative_at(
                crawlers, cycle_checkpoint(scenario, family, cycles)
            ),
            "reports": {
                label: {
                    "distinct_ips": crawler.report.distinct_ips,
                    "distinct_bots": crawler.report.distinct_bots,
                    "verified_bots": len(crawler.report.verified_bots),
                    "edges": len(crawler.report.edges),
                    "requests_sent": crawler.report.requests_sent,
                    "responses_received": crawler.report.responses_received,
                    "requests_expired": crawler.report.requests_expired,
                    "targets_contacted": crawler.report.targets_contacted,
                    "targets_excluded": crawler.report.targets_excluded,
                    "targets_given_up": crawler.report.targets_given_up,
                }
                for label, crawler in crawlers.items()
            },
        }
    return "\n\n".join(texts), json.dumps(values, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def fig4_small_result():
    return fig4_small_exhibit()


def test_fig4_small_rendered_golden(fig4_small_result):
    _check_golden("fig4_small_frequency.txt", fig4_small_result[0])


def test_fig4_small_values_golden(fig4_small_result):
    import json

    _check_golden("fig4_small_values.json", fig4_small_result[1])
    # The paper's ordering holds at the two-cycle checkpoint.
    for family in ("zeus", "sality"):
        relative = json.loads(fig4_small_result[1])[family]["relative_at_checkpoint"]
        assert relative["aggressive"] >= relative["half"] >= relative["full"]
