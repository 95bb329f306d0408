"""Property-based tests (hypothesis) for the simulation core: the
scheduler's ordering guarantees under arbitrary insert/cancel churn,
and the named-RNG registry's determinism and isolation."""

import copy
import pickle
import random

from hypothesis import given, settings
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
