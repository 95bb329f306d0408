"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.sim.clock import HOUR
from repro.sim.scheduler import Scheduler


class TestScheduling:
    def test_call_at_runs_at_absolute_time(self):
        sched = Scheduler()
        fired = []
        sched.call_at(5.0, lambda: fired.append(sched.now))
        sched.run()
        assert fired == [5.0]

    def test_call_later_runs_relative_to_now(self):
        sched = Scheduler()
        fired = []
        sched.call_at(2.0, lambda: sched.call_later(3.0, lambda: fired.append(sched.now)))
        sched.run()
        assert fired == [5.0]

    def test_args_passed_through(self):
        sched = Scheduler()
        seen = []
        sched.call_later(1.0, lambda a, b: seen.append((a, b)), "x", 2)
        sched.run()
        assert seen == [("x", 2)]

    def test_past_scheduling_rejected(self):
        sched = Scheduler()
        sched.call_at(10.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError):
            sched.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Scheduler().call_later(-1.0, lambda: None)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteTimes:
    """NaN and the infinities never enter the heap: every entry point
    raises ValueError and leaves the scheduler as it was."""

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("method", ["call_at", "call_later", "call_every"])
    def test_rejected(self, method, value):
        sched = Scheduler()
        sched.call_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            getattr(sched, method)(value, lambda: None)
        assert sched.pending == 1
        assert sched.heap_size == 1

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_run_until_rejected(self, value):
        """A NaN limit would dispatch every pending event, and an
        infinite one would park the clock where nothing can be
        scheduled."""
        sched = Scheduler()
        sched.call_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            sched.run_until(value)
        assert sched.now == 0.0
        assert sched.pending == 1

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_repeat_delay_rejected(self, value):
        sched = Scheduler()
        fired = []

        def cycle():
            fired.append(sched.now)
            return value

        sched.call_every(1.0, cycle)
        sched.call_at(5.0, fired.append, "later")
        with pytest.raises(ValueError):
            sched.run()
        # The bad delay re-armed nothing and the clock never left the
        # dispatch that returned it.
        assert sched.now == 1.0
        assert sched.pending == 1
        assert sched.heap_size == 1
        sched.run()
        assert fired == [1.0, "later"]


class TestOrdering:
    def test_events_fire_in_time_order(self):
        sched = Scheduler()
        order = []
        sched.call_at(3.0, lambda: order.append(3))
        sched.call_at(1.0, lambda: order.append(1))
        sched.call_at(2.0, lambda: order.append(2))
        sched.run()
        assert order == [1, 2, 3]

    def test_ties_broken_by_insertion_order(self):
        sched = Scheduler()
        order = []
        for tag in ("a", "b", "c"):
            sched.call_at(1.0, order.append, tag)
        sched.run()
        assert order == ["a", "b", "c"]


class TestCancellation:
    def test_cancelled_timer_does_not_fire(self):
        sched = Scheduler()
        fired = []
        timer = sched.call_at(1.0, lambda: fired.append(1))
        timer.cancel()
        sched.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        sched = Scheduler()
        keep = sched.call_at(1.0, lambda: None)
        drop = sched.call_at(2.0, lambda: None)
        drop.cancel()
        assert sched.pending == 1
        assert keep is not drop

    def test_double_cancel_is_idempotent(self):
        sched = Scheduler()
        sched.call_at(1.0, lambda: None)
        drop = sched.call_at(2.0, lambda: None)
        drop.cancel()
        drop.cancel()
        assert sched.pending == 1

    def test_cancel_after_dispatch_is_noop(self):
        sched = Scheduler()
        timer = sched.call_at(1.0, lambda: None)
        sched.call_at(2.0, lambda: None)
        sched.run_until(1.0)
        timer.cancel()
        assert sched.pending == 1


class TestCompaction:
    def test_heap_bounded_under_cancel_churn(self):
        """Dead entries must not accumulate indefinitely (the old lazy
        scheme kept every cancelled timer until its time came up)."""
        sched = Scheduler()
        for _ in range(50):
            timers = [sched.call_at(1e9 + i, lambda: None) for i in range(1000)]
            for timer in timers:
                timer.cancel()
        assert sched.pending == 0
        # Without compaction the heap would hold all 50k dead entries;
        # with it, at most one batch survives between compaction runs.
        assert sched.heap_size <= 2000
        assert sched.compactions > 0

    def test_compaction_preserves_order_and_live_timers(self):
        sched = Scheduler(compaction_min=1)
        fired = []
        keep = [sched.call_at(10.0 + i, fired.append, i) for i in range(5)]
        drop = [sched.call_at(5.0, lambda: fired.append("dead")) for _ in range(20)]
        for timer in drop:
            timer.cancel()
        assert sched.compactions > 0
        sched.run()
        assert fired == [0, 1, 2, 3, 4]
        assert all(not timer.cancelled for timer in keep)

    def test_tie_break_survives_compaction(self):
        sched = Scheduler(compaction_min=1)
        fired = []
        for tag in ("a", "b", "c"):
            sched.call_at(1.0, fired.append, tag)
        for _ in range(10):
            sched.call_at(0.5, lambda: None).cancel()
        sched.run()
        assert fired == ["a", "b", "c"]

    def test_compaction_inside_a_callback(self):
        """A cancel that compacts mid-batch rebuilds the heap; the batch
        and every later window must read the rebuilt one."""
        sched = Scheduler(compaction_min=1)
        fired = []
        doomed = [sched.call_at(3.0, fired.append, "dead") for _ in range(8)]

        def cancel_all():
            fired.append("cancel")
            for timer in doomed:
                timer.cancel()
            sched.call_later(0.0, fired.append, "same-batch")
            sched.call_later(0.5, fired.append, "next")

        sched.call_at(1.0, cancel_all)
        sched.call_at(1.0, fired.append, "tie")
        sched.call_at(2.0, fired.append, "two")
        sched.run_until(1.0)
        assert sched.compactions > 0
        assert fired == ["cancel", "tie", "same-batch"]
        assert sched.pending == sched.heap_size == 2
        sched.run()
        assert fired == ["cancel", "tie", "same-batch", "next", "two"]
        assert sched.heap_size == 0

    @pytest.mark.parametrize(
        "compaction_min, live, dead",
        [(None, 1000, 999), (1, 10, 9)],
        ids=["default-min", "min-1"],
    )
    def test_dispatch_compacts_at_batch_boundary(self, compaction_min, live, dead):
        """Cancels that leave the dead just short of half the heap, then
        a window that dispatches all but one live timer: the batch
        boundary compacts, so the heap stays within the bound with no
        further cancel, and dispatch order is unchanged."""
        sched = Scheduler(compaction_min=compaction_min)
        minimum = Scheduler.COMPACTION_MIN if compaction_min is None else compaction_min
        fired = []
        for time in range(1, live + 1):
            sched.call_at(float(time), fired.append, time)
        for _ in range(dead):
            sched.call_at(5000.0, fired.append, "dead").cancel()
        assert sched.compactions == 0
        sched.run_until(float(live - 1))
        assert fired == list(range(1, live))
        assert sched.pending == 1
        assert sched.compactions > 0
        assert sched.heap_size <= 2 * sched.pending + minimum + 1
        sched.run()
        assert fired == list(range(1, live + 1))
        assert sched.heap_size == 0

    def test_small_heaps_not_compacted(self):
        sched = Scheduler()
        for _ in range(Scheduler.COMPACTION_MIN - 1):
            sched.call_at(1.0, lambda: None).cancel()
        assert sched.compactions == 0


class TestStats:
    def test_stats_snapshot_counters(self):
        sched = Scheduler(compaction_min=1)
        for i in range(5):
            sched.call_at(10.0 + i, lambda: None)
        for _ in range(20):
            sched.call_at(5.0, lambda: None).cancel()
        sched.run()
        stats = sched.stats()
        assert stats.dispatched == 5
        # cancelled is cumulative, unlike the internal dead-entry count
        # that compaction resets.
        assert stats.cancelled == 20
        assert stats.compactions == sched.compactions > 0
        assert stats.pending == 0

    def test_peak_heap_tracks_high_water_mark(self):
        sched = Scheduler()
        for i in range(7):
            sched.call_at(1.0 + i, lambda: None)
        sched.run()
        assert sched.stats().peak_heap == 7
        assert sched.stats().heap_size == 0

    def test_compaction_counted_in_stats_under_churn(self):
        sched = Scheduler()
        for _ in range(3):
            timers = [sched.call_at(1e9 + i, lambda: None) for i in range(1000)]
            for timer in timers:
                timer.cancel()
        stats = sched.stats()
        assert stats.compactions > 0
        assert stats.cancelled == 3000
        assert stats.heap_size <= 2000

    def test_profile_hook_records_each_dispatch(self):
        class _Profile:
            def __init__(self):
                self.samples = []

            def record(self, callback, seconds):
                self.samples.append((callback, seconds))

        sched = Scheduler()
        profile = _Profile()
        sched.set_profile(profile)
        sched.call_later(1.0, lambda: None)
        sched.call_later(2.0, lambda: None)
        sched.run()
        assert len(profile.samples) == 2
        assert all(seconds >= 0 for _, seconds in profile.samples)
        sched.set_profile(None)
        sched.call_later(3.0, lambda: None)
        sched.run()
        assert len(profile.samples) == 2


class TestRunUntil:
    def test_runs_only_due_events(self):
        sched = Scheduler()
        fired = []
        sched.call_at(1.0, lambda: fired.append(1))
        sched.call_at(5.0, lambda: fired.append(5))
        count = sched.run_until(2.0)
        assert count == 1
        assert fired == [1]
        assert sched.now == 2.0

    def test_event_exactly_at_boundary_included(self):
        sched = Scheduler()
        fired = []
        sched.call_at(2.0, lambda: fired.append(2))
        sched.run_until(2.0)
        assert fired == [2]

    def test_clock_lands_on_target_with_no_events(self):
        sched = Scheduler()
        sched.run_until(HOUR)
        assert sched.now == HOUR

    def test_consecutive_windows_tile(self):
        sched = Scheduler()
        fired = []
        for t in (0.5, 1.5, 2.5):
            sched.call_at(t, fired.append, t)
        sched.run_until(1.0)
        assert fired == [0.5]
        sched.run_until(2.0)
        assert fired == [0.5, 1.5]

    def test_runaway_loop_detected(self):
        for drive in (
            lambda sched: sched.run_until(1.0, max_events=100),
            lambda sched: sched.run(max_events=100),
        ):
            sched = Scheduler()

            def loop():
                sched.call_later(0.0, loop)

            sched.call_later(0.0, loop)
            with pytest.raises(RuntimeError):
                drive(sched)

    def test_dispatched_counter(self):
        sched = Scheduler()
        for t in (1.0, 2.0):
            sched.call_at(t, lambda: None)
        sched.run()
        assert sched.dispatched == 2
