"""Multi-host sweep dispatch with host-failure recovery.

The dispatcher shards a sweep's point list into leases across a host
pool, heartbeats the hosts, and re-leases work lost to dead, stalled,
or partitioned hosts -- merging the surviving records into a
:class:`~repro.runner.sweep.SweepResult` byte-identical to a serial
run.  Fault injection (:class:`HostFaultPlan`) is a first-class,
deterministic API so every recovery path is a unit-testable scenario
rather than a timing accident.

Quick use::

    from repro.runner.dispatch import DispatchExecutor, parse_host_faults
    from repro.runner import build_sweep

    result = DispatchExecutor(
        hosts=3, fault_plan=parse_host_faults("kill:1@0.5")
    ).run(build_sweep("fig2", root_seed=0))
"""

from repro.runner.dispatch.dispatcher import (
    DispatchExecutor,
    chunk_leases,
    default_chunk_size,
)
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
from repro.runner.dispatch.subproc import SubprocessHostPool
from repro.runner.dispatch.transport import (
    REPLY_BUSY,
    REPLY_ERROR,
    REPLY_IDLE,
    REPLY_RECORD,
    HostPool,
    HostReply,
    LocalHostPool,
)
from repro.runner.dispatch.wire import (
    WIRE_VERSION,
    WireVersionError,
    WorkUnit,
    check_hello,
    hello_to_wire,
)


__all__ = [
    "check_hello",
    "chunk_leases",
    "default_chunk_size",
    "DispatchExecutor",
    "FAULT_KINDS",
    "hello_to_wire",
    "HostFault",
    "HostFaultInjector",
    "HostFaultPlan",
    "HostPool",
    "HostReply",
    "KILL",
    "LocalHostPool",
    "parse_host_faults",
    "PARTITION",
    "REPLY_BUSY",
    "REPLY_ERROR",
    "REPLY_IDLE",
    "REPLY_RECORD",
    "sample_fault_plan",
    "STALL",
    "SubprocessHostPool",
    "WIRE_VERSION",
    "WireVersionError",
    "WorkUnit",
]
