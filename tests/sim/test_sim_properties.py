"""Property-based tests (hypothesis) for the simulation core: the
scheduler's ordering guarantees under arbitrary insert/cancel churn,
the scheduler against a sorted-list reference model, and the named-RNG
registry's determinism and isolation."""

import bisect
import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngRegistry, RngStream, derive_seed, random_bytes
from repro.sim.scheduler import Scheduler

# One scheduler operation: (insert? , time , cancel-target).  Cancel
# operations target a previously created timer by (wrapped) index.
ops = st.lists(
    st.tuples(
        st.booleans(),
        st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False),
        st.integers(min_value=0, max_value=200),
    ),
    max_size=200,
)


def _apply_ops(scheduler, operations, trace):
    """Replay an op sequence: inserts schedule a tracing callback,
    cancels hit an arbitrary earlier timer."""
    timers = []
    for index, (insert, time, target) in enumerate(operations):
        if insert or not timers:
            timers.append(
                scheduler.call_at(time, lambda i=index, t=time: trace.append((t, i)))
            )
        else:
            timers[target % len(timers)].cancel()
    return timers


class TestSchedulerOrderingProperties:
    @given(ops)
    def test_dispatch_order_is_total(self, operations):
        """Fired events come out in (time, insertion order): the order
        is total -- no two runs of the same schedule can disagree."""
        scheduler = Scheduler(compaction_min=4)
        trace = []
        _apply_ops(scheduler, operations, trace)
        scheduler.run()
        assert trace == sorted(trace)

    @given(ops)
    def test_identical_op_sequences_identical_traces(self, operations):
        traces = []
        for _ in range(2):
            scheduler = Scheduler(compaction_min=4)
            trace = []
            _apply_ops(scheduler, operations, trace)
            scheduler.run()
            traces.append(trace)
        assert traces[0] == traces[1]

    @given(ops)
    def test_compaction_transparent(self, operations):
        """An eagerly compacting scheduler and a never-compacting one
        dispatch exactly the same trace."""
        traces = []
        for compaction_min in (1, 10**9):
            scheduler = Scheduler(compaction_min=compaction_min)
            trace = []
            _apply_ops(scheduler, operations, trace)
            scheduler.run()
            traces.append(trace)
        assert traces[0] == traces[1]

    @given(ops)
    def test_cancelled_never_fire_live_always_fire(self, operations):
        scheduler = Scheduler(compaction_min=4)
        trace = []
        timers = _apply_ops(scheduler, operations, trace)
        live = sum(1 for timer in timers if not timer.cancelled)
        scheduler.run()
        assert len(trace) == live

    @given(ops, st.integers(min_value=1, max_value=64))
    def test_heap_stays_bounded(self, operations, compaction_min):
        """Physical heap size never exceeds live entries plus the
        compaction slack (2x live + threshold)."""
        scheduler = Scheduler(compaction_min=compaction_min)
        trace = []
        for index, (insert, time, target) in enumerate(operations):
            if insert or scheduler.pending == 0:
                scheduler.call_at(time, trace.append, index)
            # Cancel churn: drop a fresh far-future timer immediately.
            scheduler.call_at(time + 10_000.0, lambda: None).cancel()
            assert scheduler.heap_size <= 2 * scheduler.pending + compaction_min + 1


class _ReferenceTimer:
    __slots__ = ("callback", "args", "repeat", "cancelled")

    def __init__(self, callback, args, repeat):
        self.callback = callback
        self.args = args
        self.repeat = repeat
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ReferenceScheduler:
    """The scheduling contract in its plainest form: a list kept sorted
    by (time, sequence), popped from the front one entry at a time.  No
    heap, no batching, no lazy deletion bookkeeping."""

    def __init__(self):
        self.now = 0.0
        self._entries = []
        self._sequence = 0

    @property
    def pending(self):
        return sum(1 for _, _, timer in self._entries if not timer.cancelled)

    def _insert(self, time, timer):
        bisect.insort(self._entries, (time, self._sequence, timer))
        self._sequence += 1
        return timer

    def call_later(self, delay, callback, *args):
        return self._insert(self.now + delay, _ReferenceTimer(callback, args, False))

    def call_every(self, delay, callback, *args):
        return self._insert(self.now + delay, _ReferenceTimer(callback, args, True))

    def run(self, limit=float("inf")):
        while self._entries and self._entries[0][0] <= limit:
            time, _, timer = self._entries.pop(0)
            if timer.cancelled:
                continue
            self.now = time
            next_delay = timer.callback(*timer.args)
            if timer.repeat and next_delay is not None and not timer.cancelled:
                self._insert(self.now + next_delay, timer)

    def run_until(self, limit):
        self.run(limit)
        self.now = max(self.now, limit)


# Delays and window steps are multiples of 1/4, so sums are exact and
# same-instant ties (between fresh, re-armed and zero-delay timers, and
# at window boundaries) are common.
delays = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.5])
# One action a callback (or the set-up) performs: schedule a one-shot,
# schedule a repeating timer, or cancel an earlier timer by index.
actions = st.one_of(
    st.tuples(st.just("later"), delays),
    st.tuples(st.just("every"), delays),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
)
# A repeating callback's return values, cycled: a delay or None (stop).
repeat_returns = st.lists(st.one_of(st.none(), delays), min_size=1, max_size=4)
scheduler_programs = st.fixed_dictionaries(
    {
        "setup": st.lists(actions, min_size=1, max_size=8),
        "scripts": st.lists(st.lists(actions, max_size=3), min_size=1, max_size=8),
        "returns": repeat_returns,
        "windows": st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), max_size=5),
    }
)


class _Program:
    """Interprets one generated program on a scheduler.  Timer ``tag``
    runs script ``tag % len(scripts)`` each time it fires; at most
    ``BUDGET`` timers are ever created, and a repeating timer stops
    after ``MAX_REPEATS`` occurrences, so every program terminates."""

    BUDGET = 40
    MAX_REPEATS = 4

    def __init__(self, scheduler, program, check=lambda: None):
        self.scheduler = scheduler
        self.program = program
        # Called after every cancel and every run_until window.
        self.check = check
        self.timers = []
        self.occurrences = {}
        self.trace = []

    def apply(self, actions):
        for kind, value in actions:
            if kind == "cancel":
                if self.timers:
                    self.timers[value % len(self.timers)].cancel()
                    self.check()
            elif len(self.timers) < self.BUDGET:
                tag = len(self.timers)
                if kind == "later":
                    timer = self.scheduler.call_later(value, self.fire, tag)
                else:
                    timer = self.scheduler.call_every(value, self.fire_repeat, tag)
                self.timers.append(timer)

    def fire(self, tag):
        # pending is part of the trace: the live count must agree with
        # the reference at every dispatch, dead entries or not.
        self.trace.append((self.scheduler.now, tag, self.scheduler.pending))
        scripts = self.program["scripts"]
        self.apply(scripts[tag % len(scripts)])

    def fire_repeat(self, tag):
        count = self.occurrences[tag] = self.occurrences.get(tag, 0) + 1
        self.fire(tag)
        if count >= self.MAX_REPEATS:
            return None
        returns = self.program["returns"]
        return returns[(tag + count) % len(returns)]

    def execute(self):
        self.apply(self.program["setup"])
        boundary = 0.0
        for step in self.program["windows"]:
            boundary += step
            self.scheduler.run_until(boundary)
            self.check()
            self.trace.append(("window", self.scheduler.now, self.scheduler.pending))
        self.scheduler.run()
        self.trace.append(("end", self.scheduler.now, self.scheduler.pending))
        return self.trace


class TestSchedulerReferenceModel:
    @pytest.mark.parametrize("compaction_min", [1, 10**9])
    @given(program=scheduler_programs)
    @example(  # the dead stay one short of half; one batch drains 4 of 5 live, ahead of the dead
        program={
            "setup": [("later", 2.5)] * 4 + [("later", 0.25)] * 4 + [("later", 1.0)]
            + [("cancel", index) for index in range(4)],
            "scripts": [[]],
            "returns": [None],
            "windows": [0.5],
        },
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_sorted_list_reference(self, compaction_min, program):
        """Callbacks that schedule (zero and positive delays), re-arm
        and cancel, run through random ``run_until`` windows and then
        ``run()``: the (time, tag, pending) trace equals the reference
        model's, and the heap stays within the compaction bound after
        every cancel and every window."""
        scheduler = Scheduler(compaction_min=compaction_min)

        def bounded():
            # Compaction acts on cancel and at the end of each dispatch
            # batch, so the bound holds at both; inside a batch,
            # dispatching live entries can leave the dead in the
            # majority until the batch ends.
            assert scheduler.heap_size <= 2 * scheduler.pending + compaction_min + 1

        trace = _Program(scheduler, program, check=bounded).execute()
        assert trace == _Program(_ReferenceScheduler(), program).execute()
        assert scheduler.heap_size == scheduler.pending == 0


class TestRngRegistryProperties:
    @given(st.integers(min_value=0, max_value=2**63), st.text(min_size=1, max_size=30))
    def test_derive_seed_deterministic(self, master, name):
        assert derive_seed(master, name) == derive_seed(master, name)
        assert 0 <= derive_seed(master, name) < 2**64

    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
    def test_identical_seeds_identical_streams(self, master, name):
        a = RngRegistry(master).stream(name)
        b = RngRegistry(master).stream(name)
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    @given(st.integers(min_value=0, max_value=2**31))
    def test_stream_isolation(self, master):
        """Draws on one named stream do not perturb another."""
        registry_a = RngRegistry(master)
        registry_b = RngRegistry(master)
        registry_a.stream("noise").random()  # extra draws on a sibling
        values_a = [registry_a.stream("target").random() for _ in range(10)]
        values_b = [registry_b.stream("target").random() for _ in range(10)]
        assert values_a == values_b

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=2**31))
    def test_identical_seeds_identical_event_traces(self, master, unused):
        """A small self-scheduling simulation driven entirely by a
        registry stream replays bit-identically from the same seed."""
        traces = []
        for _ in range(2):
            registry = RngRegistry(master)
            rng = registry.stream("sim")
            scheduler = Scheduler()
            trace = []

            def tick(depth=0):
                trace.append((scheduler.now, depth))
                if depth < 5:
                    scheduler.call_later(rng.uniform(0.1, 10.0), tick, depth + 1)

            for _ in range(3):
                scheduler.call_later(rng.uniform(0.0, 5.0), tick)
            scheduler.run()
            traces.append(trace)
        assert traces[0] == traces[1]

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=512))
    def test_random_bytes_is_per_byte_draws(self, seed, n):
        """``random_bytes`` returns the bytes of ``n`` one-byte draws and
        leaves the stream where those draws leave it."""
        fast, reference = random.Random(seed), random.Random(seed)
        assert random_bytes(fast, n) == bytes(reference.getrandbits(8) for _ in range(n))
        assert fast.getstate() == reference.getstate()


# One draw on a stream, by method; every one a bot or network makes.
draws = st.lists(
    st.one_of(
        st.just(("random",)),
        st.tuples(st.just("getrandbits"), st.integers(min_value=1, max_value=200)),
        st.tuples(st.just("randrange"), st.integers(min_value=1, max_value=2**40)),
        st.tuples(st.just("sample"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("choices"), st.integers(min_value=1, max_value=6)),
        st.just(("gauss",)),
        st.just(("uniform",)),
        st.just(("shuffle",)),
    ),
    max_size=30,
)


def _draw(rng, op):
    kind = op[0]
    if kind == "getrandbits":
        return rng.getrandbits(op[1])
    if kind == "randrange":
        return rng.randrange(op[1])
    if kind == "sample":
        return rng.sample(range(40), op[1])
    if kind == "choices":
        return rng.choices("abcdef", weights=[1, 2, 3, 4, 5, 6], k=op[1])
    if kind == "uniform":
        return rng.uniform(0.1, 5.0)
    if kind == "shuffle":
        items = list(range(10))
        rng.shuffle(items)
        return items
    return getattr(rng, kind)()


class TestRngStream:
    """A registry stream is a ``random.Random`` with ``gauss_next`` in a
    slot: the same draws and state, and no instance dict."""

    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20), draws, draws)
    @settings(max_examples=60)
    def test_matches_random_random(self, master, name, before, after):
        stream = RngRegistry(master).stream(name)
        reference = random.Random(derive_seed(master, name))
        assert type(stream) is RngStream
        assert [_draw(stream, op) for op in before] == [_draw(reference, op) for op in before]
        assert stream.getstate() == reference.getstate()  # gauss_next included
        # A pickled, a deep-copied and a restored stream go on drawing
        # what the reference draws.
        state = stream.getstate()
        clones = [pickle.loads(pickle.dumps(stream)), copy.deepcopy(stream), RngStream()]
        clones[2].setstate(state)
        expected = [_draw(reference, op) for op in after]
        for clone in clones:
            assert type(clone) is RngStream
            assert [_draw(clone, op) for op in after] == expected
            assert clone.getstate() == reference.getstate()
        assert [_draw(stream, op) for op in after] == expected
        assert not vars(stream)  # no attribute landed in an instance dict

    def test_gauss_next_lives_in_a_slot(self):
        stream = RngStream(7)
        reference = random.Random(7)
        assert stream.gauss() == reference.gauss()
        assert stream.gauss_next == reference.gauss_next is not None
        assert not vars(stream)
