"""Host transports: the pluggable seam the dispatcher drives.

A :class:`HostPool` owns N hosts and exposes a *stepped*, synchronous
API: the dispatcher repeatedly calls ``step(host)`` to advance one
host by one unit of work and collect at most one :class:`HostReply`.
``None`` means the host did not respond this step -- a missed
heartbeat, which is the *only* failure signal the dispatcher gets.
Host loss is therefore always inferred the way it would be over a real
wire: by silence, never by privileged inspection of transport state.

Fault injection is part of the transport contract
(:meth:`HostPool.inject`), so the dispatcher's recovery paths are
exercised end to end: when a plan kills a host, the dispatcher sees
missed heartbeats and re-leases -- exactly what an ssh transport would
observe on a real host failure.

:class:`LocalHostPool` is the in-process reference transport: fully
deterministic (step-counted, no wall clock, no threads), supporting
every fault kind -- the transport tests and CI run against it.  The
subprocess transport lives in :mod:`repro.runner.dispatch.subproc`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from repro.runner.dispatch.faultplan import FAULT_KINDS, KILL, PARTITION, STALL, HostFault
from repro.runner.dispatch.wire import WorkUnit
from repro.runner.execute import _execute_point
from repro.runner.sweep import PointRecord

#: Reply kinds.
REPLY_RECORD = "record"
REPLY_ERROR = "error"
REPLY_IDLE = "idle"
REPLY_BUSY = "busy"


@dataclass(frozen=True)
class HostReply:
    """What one ``step(host)`` produced.

    ``record`` and ``error`` carry work outcomes; ``idle`` (queue
    drained) and ``busy`` (still executing) are pure heartbeats.  Any
    reply at all resets the host's missed-heartbeat counter.

    ``telemetry`` is an optional advisory snapshot of the host's state
    (points done, RSS, wall-clock age) for the fleet view; the
    dispatcher's correctness never depends on it.
    """

    host: int
    kind: str
    record: Optional[PointRecord] = None
    index: Optional[int] = None
    error: str = ""
    telemetry: Optional[Mapping[str, Any]] = None


class HostPool:
    """Abstract transport: N hosts executing leased work units."""

    #: Fault kinds :meth:`inject` accepts; the dispatcher rejects a
    #: plan naming any other kind before it leases the first point.
    supported_faults: Tuple[str, ...] = ()

    def host_ids(self) -> List[int]:
        raise NotImplementedError

    def submit(self, host: int, unit: WorkUnit) -> None:
        """Enqueue a work unit on ``host``'s lease queue."""
        raise NotImplementedError

    def step(self, host: int) -> Optional[HostReply]:
        """Advance ``host`` one unit; None = no response (missed
        heartbeat)."""
        raise NotImplementedError

    def inject(self, fault: HostFault) -> None:
        """Apply a plan fault at the transport layer."""
        raise NotImplementedError

    def discard(self, host: int) -> None:
        """Tear down a host the dispatcher declared lost; it must
        never produce another reply."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "HostPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _LocalHost:
    """One simulated host: a lease queue plus fault state, advanced in
    deterministic steps."""

    __slots__ = (
        "host_id",
        "queue",
        "killed",
        "stalled_for",
        "partitioned_for",
        "points_done",
        "started",
    )

    def __init__(self, host_id: int) -> None:
        self.host_id = host_id
        self.queue: Deque[WorkUnit] = deque()
        self.killed = False
        self.stalled_for = 0
        self.partitioned_for = 0
        self.points_done = 0
        self.started = time.perf_counter()

    def telemetry(self) -> Dict[str, Any]:
        # Same snapshot the subprocess hostworker ships back over the
        # wire; RSS is process-wide here because local hosts share one
        # interpreter.
        from repro.runner.dispatch.hostworker import host_telemetry

        return host_telemetry(self.points_done, self.started)

    def step(self) -> Optional[HostReply]:
        if self.killed:
            return None
        if self.stalled_for > 0:
            # Stalled: no work, no heartbeat.  The lease queue survives,
            # so a short stall resumes transparently.
            self.stalled_for -= 1
            return None
        if self.partitioned_for > 0:
            # Partitioned: the host keeps burning through its lease but
            # every reply (result *and* heartbeat) is lost in transit.
            self.partitioned_for -= 1
            if self.queue:
                self._execute(self.queue.popleft())
            return None
        if self.queue:
            return self._execute(self.queue.popleft())
        return HostReply(host=self.host_id, kind=REPLY_IDLE)

    def _execute(self, unit: WorkUnit) -> HostReply:
        try:
            record = _execute_point(unit.task())
        except Exception as exc:
            return HostReply(
                host=self.host_id,
                kind=REPLY_ERROR,
                index=unit.index,
                error=repr(exc),
            )
        # Relabel the worker for the per-host timeline; pure metadata,
        # never part of the deterministic payload.
        record = replace(record, worker=f"host:{self.host_id}")
        self.points_done += 1
        return HostReply(
            host=self.host_id,
            kind=REPLY_RECORD,
            record=record,
            telemetry=self.telemetry(),
        )


class LocalHostPool(HostPool):
    """In-process reference transport: deterministic, thread-free, and
    supporting the full fault vocabulary (kill/stall/partition)."""

    supported_faults = FAULT_KINDS

    def __init__(self, hosts: int) -> None:
        if hosts < 1:
            raise ValueError("hosts must be >= 1")
        self._hosts: Dict[int, _LocalHost] = {
            host_id: _LocalHost(host_id) for host_id in range(hosts)
        }

    def host_ids(self) -> List[int]:
        return sorted(self._hosts)

    def submit(self, host: int, unit: WorkUnit) -> None:
        target = self._hosts[host]
        if target.killed:
            # A lease shipped to a host that died before the dispatcher
            # noticed: lost in transit.  The dispatcher's ledger still
            # tracks the point, so heartbeat-miss recovery re-leases it
            # -- the same path a real wire would take.
            return
        target.queue.append(unit)

    def step(self, host: int) -> Optional[HostReply]:
        return self._hosts[host].step()

    def inject(self, fault: HostFault) -> None:
        target = self._hosts[fault.host]
        if fault.kind == KILL:
            target.killed = True
            target.queue.clear()
        elif fault.kind == STALL:
            target.stalled_for += fault.duration
        elif fault.kind == PARTITION:
            target.partitioned_for += fault.duration
        else:  # pragma: no cover - HostFault validates kinds
            raise ValueError(f"unknown fault kind {fault.kind!r}")

    def discard(self, host: int) -> None:
        target = self._hosts[host]
        target.killed = True
        target.queue.clear()

    def close(self) -> None:
        for host in self._hosts.values():
            host.killed = True
            host.queue.clear()
