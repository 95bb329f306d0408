"""Discrete-event scheduler: one binary heap of ``(time, sequence)`` keys.

This is the main loop of every simulation in the repository.  Callbacks
are scheduled at absolute or relative simulated times; ties are broken
by insertion order so runs are fully deterministic.

Every timer waits in one binary heap of ``(time, sequence, timer)``
entries.  Cancellation is lazy (see :class:`Timer`): a dead entry stays
in the heap until it reaches the top or a compaction drops it.

Dispatch is batched: ``run_until``/``run`` claim all entries sharing
the earliest timestamp in one pass, advancing the clock and checking
the window boundary once per batch instead of once per event, with no
separate peek step.  An entry scheduled at the batch's own time during
the batch fires in that batch, after the entries already there.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from repro.obs import runtime as obs
from repro.sim.clock import Clock

#: A scheduled entry as stored: (time, sequence, timer).  Sequence
#: numbers are unique, so entry comparison is total and never falls
#: through to comparing Timer objects.
_Entry = Tuple[float, int, "Timer"]

_INF = float("inf")


@dataclass(frozen=True)
class SchedulerStats:
    """A scheduler's lifetime counters (observability; see ``stats()``).

    ``cancelled`` is cumulative over the scheduler's life, unlike the
    internal dead-entry count that compaction resets.  ``peak_heap``
    and ``heap_size`` count physical heap entries, dead ones included.
    """

    dispatched: int
    cancelled: int
    compactions: int
    peak_heap: int
    pending: int
    heap_size: int


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    Cancellation is lazy: the stored entry stays in place and is
    skipped at dispatch time, which keeps ``cancel()`` O(1) -- but the
    callback and its arguments are released immediately so closures and
    bound methods do not linger until compaction.  The owning scheduler
    counts cancellations and compacts its heap once dead entries pile
    up, so heavy cancel churn cannot grow it without bound.

    A ``repeat`` timer (see :meth:`Scheduler.call_every`) is re-armed
    after each dispatch from its callback's return value; one handle
    covers every occurrence.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "repeat", "_scheduler")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        scheduler: Optional["Scheduler"] = None,
        repeat: bool = False,
    ):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.repeat = repeat
        self._scheduler = scheduler

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        # Release the closure right away; the dead entry itself is
        # reaped lazily.
        self.callback = None
        self.args = ()
        if self._scheduler is not None:
            self._scheduler._note_cancelled()
            self._scheduler = None


class Scheduler:
    """Discrete-event scheduler over a :class:`~repro.sim.clock.Clock`.

    Typical use::

        sched = Scheduler()
        sched.call_later(30.0, bot.wake)
        sched.call_every(60.0, bot.cycle)   # cycle() returns next delay
        sched.run_until(DAY)
    """

    #: Never compact below this many dead entries: tiny heaps are not
    #: worth the heapify, and the threshold keeps compaction amortized
    #: O(1) per cancellation.
    COMPACTION_MIN = 64

    def __init__(
        self, clock: Optional[Clock] = None, compaction_min: Optional[int] = None
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self._heap: List[_Entry] = []
        self._sequence = 0
        self._dispatched = 0
        self._cancelled = 0
        self._cancelled_total = 0
        self._compactions = 0
        self._peak_heap = 0
        self._compaction_min = (
            self.COMPACTION_MIN if compaction_min is None else compaction_min
        )
        # Optional observability hooks: anything with record(callback,
        # seconds).  None (the default) keeps dispatch branch-cheap.
        # Both are captured ambiently (see repro.obs.runtime): an
        # active subsystem profiler installs itself on the profile
        # seam; an active telemetry emitter is ticked per batch.
        profiler = obs.profiler()
        self._profile: Optional[Any] = profiler if profiler else None
        self._telemetry: Optional[Any] = obs.telemetry()

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events."""
        return len(self._heap) - self._cancelled

    @property
    def heap_size(self) -> int:
        """Physical heap entries, dead included (for tests)."""
        return len(self._heap)

    @property
    def compactions(self) -> int:
        """Times the heap has been compacted since construction."""
        return self._compactions

    def _note_cancelled(self) -> None:
        """A live entry was cancelled; compact if that made it due."""
        self._cancelled += 1
        self._cancelled_total += 1
        if self._compaction_due():
            self._compact()

    def _compaction_due(self) -> bool:
        """Dead entries make up half the heap and number at least the
        minimum threshold.  Checked on every cancel and after every
        dispatch batch."""
        return (
            self._cancelled >= self._compaction_min
            and self._cancelled * 2 >= len(self._heap)
        )

    def _compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant.

        Entries keep their (time, sequence) keys, so dispatch order --
        including insertion-order tie-breaking -- is unchanged.  The
        heap is a new list afterwards: ``cancel()`` can compact from
        inside a callback, so no loop may hold ``_heap`` across a
        dispatch.
        """
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapify(self._heap)
        self._cancelled = 0
        self._compactions += 1

    @property
    def dispatched(self) -> int:
        """Total callbacks dispatched since construction."""
        return self._dispatched

    def stats(self) -> SchedulerStats:
        """Lifetime counters as one immutable snapshot."""
        return SchedulerStats(
            dispatched=self._dispatched,
            cancelled=self._cancelled_total,
            compactions=self._compactions,
            peak_heap=self._peak_heap,
            pending=self.pending,
            heap_size=self.heap_size,
        )

    def set_profile(self, profile: Optional[Any]) -> None:
        """Install (or clear, with None) a callback wall-time profiler:
        any object with ``record(callback, seconds)``.  Profiling reads
        the host clock around each dispatch but never the simulated
        one, so it cannot perturb event order."""
        self._profile = profile

    def call_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        now = self.clock.now
        if not now <= time < _INF:
            if time < now:
                raise ValueError(f"cannot schedule in the past ({time:.6f} < {now:.6f})")
            raise ValueError(f"cannot schedule at a non-finite time: {time}")
        timer = Timer(time, callback, args, scheduler=self)
        self._push(time, timer)
        return timer

    def call_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self.clock.now + delay, callback, *args)

    def call_every(self, delay: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule a repeating callback without per-cycle Timer churn.

        ``callback(*args)`` first runs ``delay`` seconds from now; its
        return value is the delay until the next occurrence, or None to
        stop.  The single returned handle covers every occurrence and
        ``cancel()`` stops the cycle.
        """
        timer = Timer(self._after(delay), callback, args, scheduler=self, repeat=True)
        self._push(timer.time, timer)
        return timer

    def _after(self, delay: float) -> float:
        """``now + delay``; a negative or non-finite ``delay`` raises
        ValueError."""
        time = self.clock.now + delay
        if not (delay >= 0 and time < _INF):
            raise ValueError(f"delay must be finite and non-negative: {delay}")
        return time

    def _push(self, time: float, timer: Timer) -> None:
        sequence = self._sequence
        self._sequence = sequence + 1
        heap = self._heap
        heappush(heap, (time, sequence, timer))
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def _pop_entry(self, limit: float) -> Optional[_Entry]:
        """Pop the next live entry, or None if idle or it lies beyond
        ``limit``; an entry past ``limit`` stays in place."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2].cancelled:
                heappop(heap)
                self._cancelled -= 1
            elif entry[0] > limit:
                return None
            else:
                return heappop(heap)
        return None

    def _dispatch(self, timer: Timer) -> None:
        """Run one claimed timer, re-arming repeat timers."""
        self._dispatched += 1
        callback = timer.callback
        if self._profile is None:
            if timer.repeat:
                next_delay = callback(*timer.args)
                if next_delay is not None and not timer.cancelled:
                    self._rearm(timer, next_delay)
            else:
                callback(*timer.args)
        else:
            started = perf_counter()
            if timer.repeat:
                next_delay = callback(*timer.args)
                elapsed = perf_counter() - started
                if next_delay is not None and not timer.cancelled:
                    self._rearm(timer, next_delay)
            else:
                callback(*timer.args)
                elapsed = perf_counter() - started
            self._profile.record(callback, elapsed)

    def _rearm(self, timer: Timer, delay: float) -> None:
        timer.time = self._after(delay)
        timer._scheduler = self
        self._push(timer.time, timer)

    def _run(self, limit: float, max_events: Optional[int]) -> int:
        """The dispatch loop: run live entries due at or before
        ``limit``, one batch per distinct timestamp.  Returns the number
        dispatched; exceeding ``max_events`` raises RuntimeError."""
        dispatched = 0
        pop_entry = self._pop_entry
        dispatch = self._dispatch
        advance = self.clock.advance
        telemetry = self._telemetry
        compaction_min = self._compaction_min
        while True:
            entry = pop_entry(limit)
            if entry is None:
                return dispatched
            batch_time = entry[0]
            advance(batch_time)
            while True:
                timer = entry[2]
                # Dispatching detaches the handle: a late cancel() is a
                # no-op and must not skew the dead-entry count.
                timer._scheduler = None
                dispatch(timer)
                dispatched += 1
                if max_events is not None and dispatched > max_events:
                    caller = "run()" if limit == _INF else f"run_until({limit})"
                    raise RuntimeError(
                        f"{caller} exceeded max_events={max_events}; "
                        "likely a self-rescheduling loop with zero delay"
                    )
                entry = pop_entry(batch_time)
                if entry is None:
                    break
            if self._cancelled >= compaction_min and self._compaction_due():
                # Dispatching drains live entries only, so the dead
                # can come to dominate without another cancel.  The
                # first test spares the call while few entries are dead.
                self._compact()
            if telemetry is not None:
                # Once per batch, not per event: the emitter itself
                # rate-limits to a wall-clock cadence.
                telemetry.tick(self)

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run events up to and including simulated ``time``.

        The clock lands exactly on ``time`` afterwards even if the last
        event fired earlier, so back-to-back ``run_until`` calls tile a
        timeline cleanly.  Returns the number of events dispatched.
        ``max_events`` is a safety valve against runaway self-scheduling
        loops; exceeding it raises :class:`RuntimeError`.
        """
        if not -_INF < time < _INF:
            raise ValueError(f"cannot run until a non-finite time: {time}")
        dispatched = self._run(time, max_events)
        if time > self.clock.now:
            self.clock.advance(time)
        return dispatched

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until no live timers remain; the clock stays at the last
        event's time."""
        return self._run(_INF, max_events)
