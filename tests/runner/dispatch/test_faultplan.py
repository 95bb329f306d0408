"""Host fault plan tests: validation, CLI parsing, reproducible
sampling, and deterministic trigger evaluation."""

import pytest

from repro.runner.dispatch import LocalHostPool
from repro.runner.dispatch.faultplan import (
    FAULT_KINDS,
    KILL,
    PARTITION,
    STALL,
    HostFault,
    HostFaultInjector,
    HostFaultPlan,
    parse_host_faults,
    sample_fault_plan,
)


class TestHostFault:
    def test_kill_needs_no_duration(self):
        fault = HostFault(kind=KILL, host=0, at_progress=0.5)
        assert fault.duration == 0

    def test_stall_requires_duration(self):
        with pytest.raises(ValueError, match="duration"):
            HostFault(kind=STALL, host=0, at_progress=0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown host fault kind"):
            HostFault(kind="meteor", host=0, at_progress=0.5)

    def test_progress_bounds(self):
        with pytest.raises(ValueError, match="at_progress"):
            HostFault(kind=KILL, host=0, at_progress=1.5)

    def test_negative_host_rejected(self):
        with pytest.raises(ValueError, match="host index"):
            HostFault(kind=KILL, host=-1, at_progress=0.0)

    def test_label_round_trips_through_parser(self):
        fault = HostFault(kind=PARTITION, host=2, at_progress=0.25, duration=6)
        plan = parse_host_faults(fault.label())
        assert plan.faults == (fault,)


class TestPlanValidation:
    def test_out_of_range_host_rejected(self):
        plan = HostFaultPlan(faults=(HostFault(KILL, host=5, at_progress=0.0),))
        with pytest.raises(ValueError, match="host 5"):
            plan.validate(hosts=3)

    def test_killing_every_host_rejected(self):
        plan = HostFaultPlan(
            faults=tuple(HostFault(KILL, host=h, at_progress=0.0) for h in range(2))
        )
        with pytest.raises(ValueError, match="kills every host"):
            plan.validate(hosts=2)

    def test_killing_some_hosts_allowed(self):
        plan = HostFaultPlan(faults=(HostFault(KILL, host=0, at_progress=0.0),))
        plan.validate(hosts=2)

    def test_empty_plan_label(self):
        assert "no host faults" in HostFaultPlan().label()


class TestParse:
    def test_kill_syntax(self):
        plan = parse_host_faults("kill:1@0.5")
        assert plan.faults == (HostFault(KILL, host=1, at_progress=0.5),)

    def test_multiple_entries_with_durations(self):
        plan = parse_host_faults("stall:0@0.25x6, partition:2@0.5x4")
        assert [f.kind for f in plan.faults] == [STALL, PARTITION]
        assert [f.duration for f in plan.faults] == [6, 4]

    def test_bad_syntax_mentions_format(self):
        with pytest.raises(ValueError, match="kind:host@progress"):
            parse_host_faults("kill-1-0.5")

    def test_bad_kind_surfaces_validation_error(self):
        with pytest.raises(ValueError, match="unknown host fault kind"):
            parse_host_faults("meteor:1@0.5")

    def test_empty_spec_is_empty_plan(self):
        assert len(parse_host_faults("")) == 0


class TestSample:
    def test_deterministic_per_seed(self):
        assert sample_fault_plan(7, hosts=3) == sample_fault_plan(7, hosts=3)

    def test_different_seeds_differ_somewhere(self):
        plans = {sample_fault_plan(seed, hosts=4).label() for seed in range(20)}
        assert len(plans) > 1

    def test_one_host_always_fault_free(self):
        for seed in range(50):
            plan = sample_fault_plan(seed, hosts=3, max_faults=6)
            faulted = {fault.host for fault in plan.faults}
            assert len(faulted) < 3, f"seed {seed} faulted every host"

    def test_single_host_pool_gets_no_faults(self):
        for seed in range(10):
            assert len(sample_fault_plan(seed, hosts=1)) == 0

    def test_sampled_plans_validate(self):
        for seed in range(50):
            sample_fault_plan(seed, hosts=4).validate(hosts=4)

    def test_default_kinds_plan_pinned(self):
        """In-process hosts inject every kind, so the CLI's plans for
        ``--hosts`` are drawn from the default kinds and stay as pinned."""
        assert LocalHostPool.supported_faults == FAULT_KINDS
        assert sample_fault_plan(11, hosts=3).label() == "partition:0@0.022x4,kill:0@0.895"


class TestInjector:
    def test_fires_once_at_threshold(self):
        plan = HostFaultPlan(faults=(HostFault(KILL, host=1, at_progress=0.5),))
        injector = HostFaultInjector(plan, total_points=6)
        assert injector.due(acked=2) == []
        fired = injector.due(acked=3)  # ceil(0.5 * 6) == 3
        assert fired == [HostFault(KILL, host=1, at_progress=0.5)]
        assert injector.due(acked=6) == []

    def test_zero_progress_fires_immediately(self):
        plan = HostFaultPlan(faults=(HostFault(KILL, host=0, at_progress=0.0),))
        injector = HostFaultInjector(plan, total_points=10)
        assert len(injector.due(acked=0)) == 1

    def test_ordering_stable(self):
        plan = HostFaultPlan(
            faults=(
                HostFault(STALL, host=2, at_progress=0.2, duration=3),
                HostFault(KILL, host=0, at_progress=0.1),
            )
        )
        injector = HostFaultInjector(plan, total_points=10)
        fired = injector.due(acked=10)
        assert [f.host for f in fired] == [0, 2]
