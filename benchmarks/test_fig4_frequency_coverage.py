"""Figure 4: bots crawled for varying request frequency -- aggressive
vs. half-suspend-cycle vs. full-suspend-cycle crawls (Zeus 30-minute,
Sality 40-minute cycles).

Scale note (EXPERIMENTS.md): at simulator scale every crawl
eventually saturates the population, which the paper's 200k/900k-bot
networks never allow.  The frequency effect therefore shows in the
*pre-saturation* window: coverage ratios are measured at the moment
the aggressive crawl has effectively finished (first reaches 90% of
its final count) -- "when the fast crawl is done, how far behind are
the polite ones?".  There the Sality collapse (paper: 7-11%) and the
much milder Zeus degradation (paper: 74%) both reproduce.
"""

import pytest

from repro.workloads.frequency import (
    cycle_checkpoint,
    relative_at,
    render_frequency_figure,
    run_frequency_crawls,
)

RUN_HOURS = 4
CHECKPOINT_CYCLES = 2.0


@pytest.fixture(scope="module")
def zeus_frequency_crawls():
    return run_frequency_crawls(
        "zeus", scale="medium", master_seed=31, sensor_count=8, announce_hours=2.0, hours=RUN_HOURS
    )


@pytest.fixture(scope="module")
def sality_frequency_crawls():
    return run_frequency_crawls(
        "sality", scale="medium", master_seed=32, sensor_count=8, announce_hours=2.0, hours=RUN_HOURS
    )


def test_fig4a_zeus_frequency(benchmark, zeus_frequency_crawls, exhibit_writer):
    scenario, crawlers = zeus_frequency_crawls

    relative = benchmark(
        lambda: relative_at(crawlers, cycle_checkpoint(scenario, "zeus", CHECKPOINT_CYCLES))
    )
    exhibit_writer(
        "fig4a_zeus_frequency",
        render_frequency_figure(
            "Figure 4a: Zeus bots crawled for varying request frequency",
            scenario, crawlers, "zeus", CHECKPOINT_CYCLES,
        ),
    )
    # Ordering (with a small saturation-noise tolerance).
    assert relative["aggressive"] >= relative["half"] - 0.05
    assert relative["half"] >= relative["full"] - 0.05
    # Zeus degrades mildly: 10 peers per response and ~50-entry lists
    # make even a full-cycle crawl reasonably efficient (paper: 74%).
    assert relative["full"] >= 0.25


def test_fig4b_sality_frequency(benchmark, sality_frequency_crawls, exhibit_writer):
    scenario, crawlers = sality_frequency_crawls

    relative = benchmark(
        lambda: relative_at(crawlers, cycle_checkpoint(scenario, "sality", CHECKPOINT_CYCLES))
    )
    exhibit_writer(
        "fig4b_sality_frequency",
        render_frequency_figure(
            "Figure 4b: Sality bots crawled for varying request frequency",
            scenario, crawlers, "sality", CHECKPOINT_CYCLES,
        ),
    )
    assert relative["aggressive"] >= relative["half"] - 0.05
    assert relative["half"] >= relative["full"] - 0.05
    # The Sality collapse: single-entry responses starve slow crawls
    # (paper: 11% half, 7% full).
    assert relative["full"] <= 0.6


def test_fig4_sality_hit_harder_than_zeus(
    zeus_frequency_crawls, sality_frequency_crawls
):
    """The paper's cross-family contrast: frequency limiting is
    devastating for Sality (7% at full cycle), mild for Zeus (74%)."""
    zeus_scenario, zeus_crawlers = zeus_frequency_crawls
    sality_scenario, sality_crawlers = sality_frequency_crawls
    zeus_rel = relative_at(
        zeus_crawlers, cycle_checkpoint(zeus_scenario, "zeus", CHECKPOINT_CYCLES)
    )
    sality_rel = relative_at(
        sality_crawlers, cycle_checkpoint(sality_scenario, "sality", CHECKPOINT_CYCLES)
    )
    assert sality_rel["full"] < zeus_rel["full"]
