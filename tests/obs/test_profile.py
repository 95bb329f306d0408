"""Unit tests for the subsystem wall-time profiler and its exporters."""

import json

import pytest

from repro.obs.profile import (
    NULL_PROFILER,
    SubsystemProfiler,
    collapsed_stacks,
    render_profile,
    speedscope_document,
    write_collapsed,
    write_speedscope,
)
from repro.obs.profile.profiler import (
    KIND_CALL,
    UNATTRIBUTED,
    classify_module,
)


class _Component:
    """Stand-in for an instrumented component with a bound-method
    callback, defined under a module we control via __module__."""

    def callback(self):
        pass


_Component.callback.__module__ = "repro.net.transport"


class TestClassifyModule:
    def test_longest_prefix_wins(self):
        assert classify_module("repro.net.churn.model") == "churn"
        assert classify_module("repro.net.transport") == "net"
        assert classify_module("repro.core.crawler.zeus") == "crawler"
        assert classify_module("repro.core.anomaly") == "core"

    def test_unknown_modules_fall_back_to_other(self):
        assert classify_module("json.decoder") == "other"
        assert classify_module(None) == "other"

    def test_prefix_must_be_a_package_boundary(self):
        # repro.networking is not repro.net.*
        assert classify_module("repro.networking") == "other"


class TestNullProfiler:
    def test_falsy_and_inert(self):
        assert not NULL_PROFILER
        NULL_PROFILER.record(lambda: None, 1.0)
        NULL_PROFILER.note("kind")
        with NULL_PROFILER.section("sub", "site"):
            pass


class TestRecording:
    def test_bound_methods_intern_to_one_site(self):
        profiler = SubsystemProfiler()
        component = _Component()
        # Each attribute access creates a fresh bound method; the
        # profiler must key on __func__ so they all land in one cell.
        profiler.record(component.callback, 0.001)
        profiler.record(component.callback, 0.002)
        structure = profiler.structure()
        assert structure == {"net": {"_Component.callback": {KIND_CALL: 2}}}

    def test_note_labels_exactly_one_dispatch(self):
        profiler = SubsystemProfiler()
        component = _Component()
        profiler.note("deliver")
        profiler.record(component.callback, 0.001)
        profiler.record(component.callback, 0.001)
        kinds = profiler.structure()["net"]["_Component.callback"]
        assert kinds == {"deliver": 1, KIND_CALL: 1}

    def test_section_self_time_excludes_inner_callbacks(self):
        profiler = SubsystemProfiler()
        component = _Component()
        with profiler.section("build", "scenario"):
            # Callback time recorded inside the section must not be
            # double counted as section self time.
            profiler.record(component.callback, 10.0)
        tree = profiler.tree()
        section_wall = tree["subsystems"]["build"]["sites"]["scenario"]["wall_s"]
        assert section_wall < 1.0  # self time only, not the 10s callback
        assert tree["subsystems"]["net"]["wall_s"] == pytest.approx(10.0)

    def test_tree_shares_sum_to_one_over_window(self):
        import time

        profiler = SubsystemProfiler()
        profiler.start()
        time.sleep(0.02)  # real window, partly unattributed
        profiler.record(_Component().callback, 0.005)
        profiler.stop()
        tree = profiler.tree()
        assert UNATTRIBUTED in tree["subsystems"]
        total_share = sum(s["share"] for s in tree["subsystems"].values())
        assert total_share == pytest.approx(1.0, abs=0.01)


class TestDeterminism:
    def _profiled_run(self):
        """A tiny seeded transport run under an ambient profiler."""
        import random

        from repro.net.transport import Endpoint, Transport, TransportConfig
        from repro.obs import runtime
        from repro.sim.scheduler import Scheduler

        profiler = SubsystemProfiler()
        with runtime.activated(profiler=profiler):
            sched = Scheduler()
            transport = Transport(
                sched,
                random.Random(7),
                config=TransportConfig(loss_rate=0.2, duplicate_rate=0.1),
            )
            a, b = Endpoint(1, 1000), Endpoint(2, 1000)
            transport.bind(a, lambda m: None)
            transport.bind(b, lambda m: None)
            for i in range(300):
                sched.call_later(float(i), transport.send, a, b, b"ping")
            sched.run()
        return profiler

    def test_identical_seeded_runs_identical_structure(self):
        # The determinism contract: structure() is a pure function of
        # the dispatch sequence.  Timings differ run to run; counts
        # and site names may not.
        first = self._profiled_run().structure()
        second = self._profiled_run().structure()
        assert first == second
        assert first  # and the runs actually recorded something

    def test_profiled_crawl_structure_is_deterministic(self, profiled_crawls):
        """Two identically seeded profiled CLI crawls produce identical
        profile site trees, end to end."""
        first, second = (session.profiler.structure() for session in profiled_crawls)
        assert first == second
        assert "build" in first  # the scenario build is its own section


class TestDeliveryKinds:
    def test_profiled_zeus_hour_splits_deliver_and_drop(self):
        """Every delivery attempt takes one path and is labelled with
        its outcome: a profiled tiny Zeus hour splits
        ``Transport._deliver`` into exactly ``deliver`` and ``drop``,
        counted as the transport counts them."""
        from repro.botnets.zeus.network import ZeusNetwork
        from repro.obs import runtime
        from repro.sim.clock import HOUR
        from repro.workloads.population import zeus_config

        profiler = SubsystemProfiler()
        with runtime.activated(profiler=profiler):
            net = ZeusNetwork(zeus_config("tiny", master_seed=3))
            net.build()
            net.start_all()
            net.run_for(HOUR)
        stats = net.transport.stats
        kinds = profiler.structure()["net"]["Transport._deliver"]
        assert kinds == {
            "deliver": stats.delivered,
            "drop": stats.dropped_loss + stats.dropped_unroutable + stats.dropped_unbound_dst,
        }
        assert stats.delivered and stats.dropped_loss and stats.dropped_unroutable


class TestAttribution:
    def test_profiled_crawl_attribution_floor(self, profiled_crawls):
        """Callbacks plus the build section claim at least 90% of a
        profiled crawl's window; the rest is ``(unattributed)``."""
        for session in profiled_crawls:
            assert session.profile_tree["attributed_share"] >= 0.90


@pytest.fixture(scope="module")
def profiled_crawls(tmp_path_factory):
    """Two ``repro crawl --hours 1 --sensors 8 --seed 7 --profile ...``
    runs, driven through :class:`ObsSession` as the CLI drives them."""
    from repro.cli import _build, build_parser
    from repro.obs import ObsSession

    args = build_parser().parse_args(
        ["crawl", "--hours", "1", "--sensors", "8", "--seed", "7"]
    )
    sessions = []
    for run in range(2):
        path = tmp_path_factory.mktemp("profile") / f"crawl{run}.speedscope.json"
        session = ObsSession(profile_path=str(path))
        with session:
            _build(args, session)
        sessions.append(session)
    return sessions


@pytest.fixture
def small_tree():
    profiler = SubsystemProfiler()
    profiler.start()
    component = _Component()
    profiler.note("deliver")
    profiler.record(component.callback, 0.002)
    profiler.record(component.callback, 0.001)
    with profiler.section("build", "scenario"):
        pass
    profiler.stop()
    return profiler.tree()


class TestExport:
    def test_collapsed_stacks_format(self, small_tree):
        lines = collapsed_stacks(small_tree).splitlines()
        assert any(line.startswith("net;_Component.callback;deliver ") for line in lines)
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            assert len(stack.split(";")) == 3

    def test_speedscope_document_is_loadable_shape(self, small_tree):
        doc = speedscope_document(small_tree, name="test")
        assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"])
        frames = doc["shared"]["frames"]
        for sample in profile["samples"]:
            assert len(sample) == 3
            for index in sample:
                assert 0 <= index < len(frames)
        assert profile["endValue"] == sum(profile["weights"])

    def test_write_speedscope_and_collapsed(self, small_tree, tmp_path):
        ss = tmp_path / "p.speedscope.json"
        write_speedscope(small_tree, str(ss))
        loaded = json.loads(ss.read_text())
        assert loaded["profiles"][0]["unit"] == "microseconds"
        folded = tmp_path / "p.collapsed"
        write_collapsed(small_tree, str(folded))
        assert folded.read_text().strip()

    def test_breakdown_and_render(self, small_tree):
        text = render_profile(small_tree, title="unit")
        assert "unit" in text and "net" in text
