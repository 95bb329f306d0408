"""Property-based tests (hypothesis) for the runner's determinism
contract: child seeds and aggregated results are independent of how
points are sharded or ordered."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner.dispatch import DispatchExecutor, sample_fault_plan
from repro.runner.executors import SerialExecutor
from repro.runner.sweep import SweepSpec, make_points, merge_records, point_seed

root_seeds = st.integers(min_value=0, max_value=2**63)


class TestChildSeedProperties:
    @given(root_seeds, st.integers(min_value=0, max_value=10_000))
    def test_seed_is_pure_function_of_root_and_index(self, root, index):
        assert point_seed(root, index) == point_seed(root, index)

    @given(root_seeds, st.integers(min_value=1, max_value=300))
    def test_no_collisions_within_a_sweep(self, root, count):
        seeds = [point_seed(root, i) for i in range(count)]
        assert len(set(seeds)) == count

    @given(root_seeds, root_seeds, st.integers(min_value=0, max_value=100))
    def test_roots_give_independent_seeds(self, root_a, root_b, index):
        if root_a != root_b:
            assert point_seed(root_a, index) != point_seed(root_b, index)

    @given(root_seeds, st.integers(min_value=1, max_value=50))
    def test_seeds_independent_of_materialization_order(self, root, count):
        """Seeds depend on the point's index, not on the order the
        work list is built or executed in."""
        forward = {p.index: p.seed for p in make_points(root, "echo", [{}] * count)}
        backward = {
            index: point_seed(root, index) for index in reversed(range(count))
        }
        assert forward == backward


class TestShardingInvariance:
    """Simulate arbitrary shard assignments in-process: run the points
    of one sweep in any order / any partition and check the merged,
    index-ordered records are identical to the canonical serial run."""

    @given(
        root_seeds,
        st.integers(min_value=1, max_value=12),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=25)
    def test_any_execution_order_same_aggregate(self, root, count, rng):
        params = [{"x": i} for i in range(count)]
        spec = SweepSpec(
            name="p", root_seed=root, points=make_points(root, "t-square", params)
        )
        canonical = SerialExecutor().run(spec)

        shuffled_points = list(spec.points)
        rng.shuffle(shuffled_points)
        shuffled = SerialExecutor().run(
            SweepSpec(name="p", root_seed=root, points=tuple(shuffled_points))
        )
        # merge_records re-orders by index, so any execution order
        # yields the same payload sequence.
        assert canonical.values() == shuffled.values()
        assert [r.seed for r in canonical.records] == [
            r.seed for r in shuffled.records
        ]

    @given(
        root_seeds,
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=25)
    def test_any_partition_merges_to_same_records(self, root, count, shards):
        """Executing disjoint shards separately and merging equals the
        one-executor run -- worker count cannot matter."""
        from repro.runner.registry import resolve_point
        from repro.runner.sweep import PointRecord

        params = [{"x": i} for i in range(count)]
        spec = SweepSpec(
            name="p", root_seed=root, points=make_points(root, "t-square", params)
        )
        canonical = SerialExecutor().run(spec)

        def run_point(point):
            # What any worker does: resolve by name, call with the
            # point's own (params, seed); no shared state.
            values = resolve_point(point.point)(point.params, point.seed)
            return PointRecord(
                index=point.index,
                point=point.point,
                params=point.params,
                seed=point.seed,
                values=dict(values),
            )

        shard_records = []
        for shard_index in range(shards):
            for i, point in enumerate(spec.points):
                if i % shards == shard_index:
                    shard_records.append(run_point(point))
        merged = merge_records(shard_records, count)
        assert [r.values for r in merged] == [
            r.values for r in canonical.records
        ]


class TestDispatchInvariance:
    """The distributed dispatcher is just another sharding: whatever the
    host count, chunk size, or fault plan, the merged result must be
    byte-identical to the canonical serial run."""

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_dispatch_matches_serial_for_any_topology(
        self, root, count, hosts, chunk_size
    ):
        params = [{"x": i} for i in range(count)]
        spec = SweepSpec(
            name="p", root_seed=root, points=make_points(root, "t-square", params)
        )
        serial = SerialExecutor().run(spec)
        dispatched = DispatchExecutor(hosts=hosts, chunk_size=chunk_size).run(spec)
        assert json.dumps(dispatched.values(), sort_keys=True) == json.dumps(
            serial.values(), sort_keys=True
        )

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_dispatch_matches_serial_under_sampled_faults(
        self, root, count, hosts, fault_seed
    ):
        params = [{"x": i} for i in range(count)]
        spec = SweepSpec(
            name="p", root_seed=root, points=make_points(root, "t-square", params)
        )
        serial = SerialExecutor().run(spec)
        plan = sample_fault_plan(fault_seed, hosts=hosts)
        # A generous retry budget: faults burn attempts, but each point
        # must still land on exactly the same (params, seed) payload.
        dispatched = DispatchExecutor(
            hosts=hosts, fault_plan=plan, max_retries=hosts * 2 + 4
        ).run(spec)
        assert json.dumps(dispatched.values(), sort_keys=True) == json.dumps(
            serial.values(), sort_keys=True
        )
        assert [r.seed for r in dispatched.records] == [
            r.seed for r in serial.records
        ]
