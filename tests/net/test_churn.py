"""Unit tests for churn models."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.churn import ChurnConfig, ChurnProcess, DiurnalModel, IpChurnProcess
from repro.sim.clock import DAY, HOUR
from repro.sim.scheduler import Scheduler


class TestDiurnalModel:
    def test_probability_in_bounds_all_day(self):
        model = DiurnalModel()
        for hour in range(25):
            p = model.online_probability(hour * HOUR)
            assert model.min_p <= p <= model.max_p

    def test_peak_at_peak_hour(self):
        model = DiurnalModel(peak_hour=20.0)
        peak = model.online_probability(20 * HOUR)
        trough = model.online_probability(8 * HOUR)
        assert peak > trough

    def test_period_is_one_day(self):
        model = DiurnalModel()
        assert model.online_probability(3 * HOUR) == pytest.approx(
            model.online_probability(3 * HOUR + DAY)
        )


class TestChurnProcess:
    def make(self, seed=0, **kwargs):
        sched = Scheduler()
        ups, downs = [], []
        proc = ChurnProcess(
            sched,
            random.Random(seed),
            ChurnConfig(**kwargs),
            on_up=ups.append,
            on_down=downs.append,
        )
        return sched, proc, ups, downs

    def test_nodes_flip_state_over_time(self):
        sched, proc, ups, downs = self.make(mean_session=HOUR, mean_offline=HOUR)
        for i in range(20):
            proc.add_node(f"bot-{i}")
        sched.run_until(DAY)
        assert proc.transitions > 0
        assert len(downs) > 0

    def test_duplicate_node_rejected(self):
        _, proc, _, _ = self.make()
        proc.add_node("bot-0")
        with pytest.raises(ValueError):
            proc.add_node("bot-0")

    def test_online_count_tracks_states(self):
        sched, proc, ups, downs = self.make(mean_session=HOUR, mean_offline=HOUR)
        for i in range(50):
            proc.add_node(f"bot-{i}", online=True)
        assert proc.online_count() == 50
        sched.run_until(2 * DAY)
        assert proc.online_count() == 50 - len(downs) + len(ups)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ChurnConfig(mean_session=0)

    def test_diurnal_bias_reduces_trough_population(self):
        """With a strong diurnal model, fewer bots are online at the trough."""
        diurnal = DiurnalModel(base=0.5, amplitude=0.45, peak_hour=20.0)
        sched = Scheduler()
        proc = ChurnProcess(
            sched,
            random.Random(7),
            ChurnConfig(mean_session=2 * HOUR, mean_offline=2 * HOUR, diurnal=diurnal),
            on_up=lambda n: None,
            on_down=lambda n: None,
        )
        for i in range(400):
            proc.add_node(f"bot-{i}")
        sched.run_until(8 * HOUR)  # trough (peak 20:00)
        trough = proc.online_count()
        sched.run_until(20 * HOUR)  # peak
        peak = proc.online_count()
        assert peak > trough


class TestIpChurn:
    def test_reassignments_fire(self):
        sched = Scheduler()
        seen = []
        churn = IpChurnProcess(sched, random.Random(0), seen.append, mean_lease=6 * HOUR)
        for i in range(10):
            churn.add_node(f"bot-{i}")
        sched.run_until(2 * DAY)
        assert churn.reassignments == len(seen) > 0

    def test_invalid_lease_rejected(self):
        with pytest.raises(ValueError):
            IpChurnProcess(Scheduler(), random.Random(0), lambda n: None, mean_lease=0)

    def test_duplicate_node_rejected(self):
        """A second add_node for one node would give it a second lease,
        and so twice the reassignment rate."""
        sched = Scheduler()
        seen = []
        churn = IpChurnProcess(sched, random.Random(0), seen.append, mean_lease=HOUR)
        churn.add_node("a")
        with pytest.raises(ValueError, match="already managed"):
            churn.add_node("a")
        churn.add_node("b")
        sched.run_until(30 * DAY)
        assert churn.reassignments == len(seen)
        counts = {node: seen.count(node) for node in ("a", "b")}
        assert 0.7 < counts["a"] / counts["b"] < 1.4


# -- equivalence with one scheduler timer per node ------------------------------


class TimerPerNodeChurn:
    """The scheme :class:`ChurnProcess` claims to match: every node
    owns a scheduler timer for its next flip."""

    def __init__(self, scheduler, rng, config, on_up, on_down):
        self.scheduler = scheduler
        self.rng = rng
        self.config = config
        self.on_up = on_up
        self.on_down = on_down
        self.up = {}

    def add_node(self, node_id, online=True):
        self.up[node_id] = online
        self._arm(node_id)

    def _arm(self, node_id):
        mean = self.config.mean_session if self.up[node_id] else self.config.mean_offline
        self.scheduler.call_later(max(1.0, self.rng.expovariate(1.0 / mean)), self._flip, node_id)

    def _flip(self, node_id):
        if self.up[node_id]:
            self.up[node_id] = False
            self.on_down(node_id)
        else:
            diurnal = self.config.diurnal
            if diurnal is not None:
                if self.rng.random() > diurnal.online_probability(self.scheduler.now):
                    self._arm(node_id)
                    return
            self.up[node_id] = True
            self.on_up(node_id)
        self._arm(node_id)


class TimerPerNodeIpChurn:
    """One scheduler timer per node for :class:`IpChurnProcess`."""

    def __init__(self, scheduler, rng, reassign, mean_lease):
        self.scheduler = scheduler
        self.rng = rng
        self.reassign = reassign
        self.mean_lease = mean_lease

    def add_node(self, node_id):
        delay = max(60.0, self.rng.expovariate(1.0 / self.mean_lease))
        self.scheduler.call_later(delay, self._expire, node_id)

    def _expire(self, node_id):
        self.reassign(node_id)
        self.add_node(node_id)


#: Holding-time means: below one second, most draws hit the 1 s floor
#: (IP churn: the 60 s floor), so nodes armed together flip together.
holding_means = st.sampled_from([0.05, 0.5, 3.0, 60.0, HOUR])
#: Nodes joining later: (pause before joining, online flags of the batch).
late_batches = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 1.0, 7.25, 600.0]), st.lists(st.booleans(), max_size=4)),
    max_size=4,
)


def _drive(add_node, scheduler, initial, batches, horizon):
    """``add_node(node_id, online)`` the initial nodes, then each batch
    after its pause, and run to ``horizon`` past the last batch."""
    for index, online in enumerate(initial):
        add_node(f"n{index}", online)
    for batch, (pause, flags) in enumerate(batches):
        scheduler.run_until(scheduler.now + pause)
        for index, online in enumerate(flags):
            add_node(f"late{batch}-{index}", online)
    scheduler.run_until(scheduler.now + horizon)


class TestMatchesTimerPerNode:
    @given(
        st.lists(st.booleans(), max_size=25),
        holding_means,
        holding_means,
        st.one_of(st.none(), st.builds(DiurnalModel, peak_hour=st.sampled_from([0.0, 8.0, 20.0]))),
        late_batches,
        st.sampled_from([2, 10, 40]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(deadline=None)
    def test_churn_flips(self, initial, mean_session, mean_offline, diurnal, batches, flips, seed):
        config = ChurnConfig(mean_session=mean_session, mean_offline=mean_offline, diurnal=diurnal)
        # Long enough for about ``flips`` sessions of the shorter kind.
        horizon = flips * max(1.0, min(mean_session, mean_offline))
        runs = []
        for cls in (ChurnProcess, TimerPerNodeChurn):
            scheduler, rng, flips = Scheduler(), random.Random(seed), []
            process = cls(
                scheduler,
                rng,
                config,
                on_up=lambda node, s=scheduler, f=flips: f.append((s.now, node, True)),
                on_down=lambda node, s=scheduler, f=flips: f.append((s.now, node, False)),
            )
            _drive(process.add_node, scheduler, initial, batches, horizon)
            runs.append((flips, rng.getstate()))
        assert runs[0] == runs[1]

    @given(
        st.integers(min_value=0, max_value=25),
        st.sampled_from([1.0, 30.0, HOUR, DAY]),
        late_batches,
        st.sampled_from([59.0, 2 * HOUR, DAY]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(deadline=None)
    def test_ip_reassignments(self, initial, mean_lease, batches, horizon, seed):
        runs = []
        for cls in (IpChurnProcess, TimerPerNodeIpChurn):
            scheduler, rng, leases = Scheduler(), random.Random(seed), []
            process = cls(
                scheduler,
                rng,
                lambda node, s=scheduler, f=leases: f.append((s.now, node)),
                mean_lease=mean_lease,
            )
            _drive(
                lambda node, online, p=process: p.add_node(node),
                scheduler,
                [True] * initial,
                batches,
                horizon,
            )
            runs.append((leases, rng.getstate()))
        assert runs[0] == runs[1]


def test_simulating_never_imports_numpy():
    """Importing ``repro`` and running tiny Zeus and Sality scenarios,
    with churn, loads no numpy."""
    script = """
import sys
import repro
from repro.net.churn import ChurnConfig
from repro.sim.clock import HOUR
from repro.workloads.population import sality_config, zeus_config
from repro.workloads.scenarios import build_sality_scenario, build_zeus_scenario
churn = ChurnConfig(mean_session=HOUR, mean_offline=HOUR)
build_zeus_scenario(zeus_config("tiny", churn=churn), sensor_count=2, announce_hours=0.5).run_for(HOUR)
build_sality_scenario(sality_config("tiny", churn=churn), sensor_count=2, announce_hours=0.5).run_for(HOUR)
assert "numpy" not in sys.modules, "numpy was imported"
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
