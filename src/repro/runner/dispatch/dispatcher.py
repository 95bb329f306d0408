"""The multi-host sweep dispatcher.

:class:`DispatchExecutor` exposes the executors' ``run(spec,
progress=...)`` API but shards the point list across a
:class:`~repro.runner.dispatch.transport.HostPool`: points are chunked
into *leases*, leases are granted round-robin, and the dispatcher then
drives the pool in deterministic steps, collecting acknowledgements
and heartbeats.

Failure model
-------------
The only failure signal is silence.  A host that misses
``heartbeat_misses`` consecutive steps is declared lost; its
unacknowledged points (tracked in the dispatcher's own lease ledger,
never by asking the transport) are re-leased to the surviving hosts
under the same per-point attempt budget the serial executor uses.  A host
that answers but has silently dropped results (the partition case:
work executed, acks lost) is caught by ledger/idle reconciliation --
an idle host whose ledger still shows pending points gets them
re-leased.  Points whose budget runs out, or whose sweep has no
surviving host, surface as
:class:`~repro.runner.execute.SweepExecutionError` with the failing
indices attached.

Determinism
-----------
Record payloads are pure functions of ``(point, params, seed)``
(see :mod:`repro.runner.sweep`), and :func:`merge_records` re-orders
by index, so the merged :class:`SweepResult` is byte-identical to a
:class:`~repro.runner.executors.SerialExecutor` run no matter which
hosts died when.  With the in-process
:class:`~repro.runner.dispatch.transport.LocalHostPool` the *entire
execution* -- every lease grant, heartbeat miss, fault firing, and
re-lease, as captured by :meth:`DispatchExecutor.timeline` -- is also
deterministic, because progress is counted in steps and acks, never
wall time.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs import runtime as obs_runtime
from repro.obs.events import COMPLETE, INSTANT, TraceEvent
from repro.runner.dispatch.faultplan import (
    HostFault,
    HostFaultInjector,
    HostFaultPlan,
)
from repro.runner.dispatch.transport import (
    REPLY_ERROR,
    REPLY_IDLE,
    REPLY_RECORD,
    HostPool,
    HostReply,
    LocalHostPool,
)
from repro.runner.dispatch.wire import WorkUnit
from repro.runner.execute import SweepExecutionError, _ExecutorBase
from repro.runner.progress import (
    HOST_FAULT,
    HOST_LOST,
    HOST_TELEMETRY,
    POINT_DONE,
    POINT_RETRY,
    SWEEP_START,
    ProgressEvent,
    ProgressHook,
)
from repro.runner.sweep import (
    PointRecord,
    SweepMetrics,
    SweepPoint,
    SweepResult,
    SweepSpec,
)


def chunk_leases(
    points: Tuple[SweepPoint, ...], hosts: List[int], chunk_size: int
) -> Dict[int, List[SweepPoint]]:
    """Chunk the point list and grant chunks round-robin: chunk ``i``
    goes to ``hosts[i % len(hosts)]``.  Pure function of its inputs,
    so the initial lease layout is part of the deterministic record."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    grants: Dict[int, List[SweepPoint]] = {host: [] for host in hosts}
    for chunk_index in range(0, math.ceil(len(points) / chunk_size) if points else 0):
        chunk = points[chunk_index * chunk_size : (chunk_index + 1) * chunk_size]
        grants[hosts[chunk_index % len(hosts)]].extend(chunk)
    return grants


def default_chunk_size(total_points: int, hosts: int) -> int:
    """Lease granularity default: ~4 chunks per host, so a lost host
    forfeits at most a quarter of its share, floored at 1."""
    if total_points <= 0:
        return 1
    return max(1, math.ceil(total_points / (hosts * 4)))


class DispatchExecutor(_ExecutorBase):
    """Distribute a sweep across a host pool with failure recovery.

    Parameters mirror :class:`~repro.runner.executors.SerialExecutor`
    where they overlap; the new knobs:

    ``hosts``
        Host count for the default transport (ignored when ``pool`` is
        given).
    ``pool``
        A :class:`HostPool`; defaults to an in-process
        :class:`LocalHostPool` -- the deterministic reference
        transport, closed when the run ends.  Pass a
        :class:`~repro.runner.dispatch.subproc.SubprocessHostPool` for
        real process-per-host execution; the caller closes a pool it
        passes.
    ``fault_plan``
        A :class:`HostFaultPlan` injected at deterministic progress
        thresholds through the transport seam.
    ``heartbeat_misses``
        Consecutive silent steps before a host is declared lost.
    ``chunk_size``
        Points per lease; defaults to :func:`default_chunk_size`.
    """

    def __init__(
        self,
        hosts: int = 2,
        pool: Optional[HostPool] = None,
        chunk_size: Optional[int] = None,
        max_retries: int = 2,
        capture_metrics: bool = False,
        fault_plan: Optional[HostFaultPlan] = None,
        heartbeat_misses: int = 3,
    ) -> None:
        super().__init__(max_retries=max_retries, capture_metrics=capture_metrics)
        if heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self._own_pool = pool is None
        self.pool = pool if pool is not None else LocalHostPool(hosts)
        self.workers = len(self.pool.host_ids())
        self.chunk_size = chunk_size
        self.fault_plan = fault_plan if fault_plan is not None else HostFaultPlan()
        self.heartbeat_misses = heartbeat_misses
        self._timeline: List[TraceEvent] = []
        self._fleet: Dict[int, Dict[str, Any]] = {}

    # -- observability -----------------------------------------------------

    def fleet_summary(self) -> Dict[str, Any]:
        """Per-host counters and last-known telemetry from the last
        run, in the shape :func:`repro.obs.telemetry.render_fleet`
        renders and the sweep health report embeds.  Advisory only:
        derived from dispatcher bookkeeping plus whatever telemetry
        hosts volunteered, never consulted for correctness."""
        hosts = {str(host): dict(entry) for host, entry in sorted(self._fleet.items())}
        return {
            "hosts": hosts,
            "leased": sum(e["leased"] for e in self._fleet.values()),
            "acked": sum(e["acked"] for e in self._fleet.values()),
            "lost": sum(1 for e in self._fleet.values() if e["lost"]),
        }

    def timeline(self) -> List[TraceEvent]:
        """The per-host execution timeline of the last run: one
        ``X`` span per acknowledged point on its host's track
        (``host:N``), instants for lease grants, fault firings, host
        losses, and re-leases on the ``dispatch`` track.  Times are
        dispatcher *step* numbers -- deterministic under
        :class:`LocalHostPool`."""
        return sorted(self._timeline, key=lambda e: (e.time, e.cat, e.name))

    # -- main loop ---------------------------------------------------------

    def run(self, spec: SweepSpec, progress: Optional[ProgressHook] = None) -> SweepResult:
        total = len(spec)
        self.fault_plan.validate(self.workers)
        for fault in self.fault_plan.faults:
            if fault.kind not in self.pool.supported_faults:
                raise ValueError(
                    f"{type(self.pool).__name__} cannot inject {fault.label()}: "
                    f"it supports only {', '.join(self.pool.supported_faults)} faults"
                )
        started = time.perf_counter()
        metrics = SweepMetrics(workers=self.workers, points_total=total)
        obs = obs_runtime.metrics()
        dispatched = obs.counter(
            "dispatch.points_dispatched", "work units shipped to hosts (incl. re-leases)"
        )
        # Registered here for their help text; the reply handler
        # re-fetches them by name (registration is idempotent).
        obs.counter("dispatch.acks", "point records acknowledged")
        obs.counter("dispatch.duplicate_acks", "late duplicate records dropped")
        releases = obs.counter("dispatch.releases", "points re-leased after host trouble")
        lost_metric = obs.counter("dispatch.hosts_lost", "hosts declared lost")
        faults_metric = obs.counter("dispatch.faults_injected", "plan faults fired")
        alive_gauge = obs.gauge("dispatch.hosts_alive", "hosts still serving leases")
        steps_gauge = obs.gauge("dispatch.steps", "dispatcher steps taken")

        self._timeline = []
        self._emit(progress, ProgressEvent(SWEEP_START, 0, total))

        points_by_index = {point.index: point for point in spec.points}
        chunk_size = (
            self.chunk_size
            if self.chunk_size is not None
            else default_chunk_size(total, self.workers)
        )
        hosts = list(self.pool.host_ids())
        self._fleet = {
            host: {"leased": 0, "acked": 0, "errors": 0, "lost": False, "telemetry": None}
            for host in hosts
        }
        alive: List[int] = list(hosts)
        alive_gauge.set(len(alive))
        missed: Dict[int, int] = {host: 0 for host in hosts}
        ledger: Dict[int, List[int]] = {host: [] for host in hosts}
        attempts: Dict[int, int] = {index: 0 for index in points_by_index}
        lease_step: Dict[int, int] = {}
        acked: Dict[int, PointRecord] = {}
        injector = HostFaultInjector(self.fault_plan, total)
        step = 0

        def submit(host: int, point: SweepPoint) -> None:
            attempts[point.index] += 1
            self.pool.submit(
                host,
                WorkUnit(
                    point=point.point,
                    params=dict(point.params),
                    seed=point.seed,
                    index=point.index,
                    attempt=attempts[point.index],
                    capture=self.capture_metrics,
                ),
            )
            ledger[host].append(point.index)
            lease_step[point.index] = step
            self._fleet[host]["leased"] += 1
            dispatched.inc()

        def release(indices: List[int], reason: str) -> None:
            """Re-grant ``indices`` to the least-loaded alive hosts."""
            if not indices:
                return
            if not alive:
                remaining = sorted(set(points_by_index) - set(acked))
                raise SweepExecutionError(
                    f"all hosts lost with {len(remaining)} points unfinished "
                    f"({reason}): {remaining}",
                    indices=remaining,
                )
            for index in sorted(indices):
                point = points_by_index[index]
                self._check_budget(point, attempts[index], reason)
                target = min(alive, key=lambda h: (len(ledger[h]), h))
                submit(target, point)
                releases.inc()
            self._timeline.append(
                TraceEvent(
                    step,
                    "dispatch",
                    "re-lease",
                    INSTANT,
                    args={"points": sorted(indices), "reason": reason},
                )
            )

        def declare_lost(host: int, reason: str) -> None:
            alive.remove(host)
            self._fleet[host]["lost"] = True
            alive_gauge.set(len(alive))
            lost_metric.inc()
            metrics.hosts_lost += 1
            self.pool.discard(host)
            orphans = [index for index in ledger[host] if index not in acked]
            ledger[host] = []
            self._timeline.append(
                TraceEvent(
                    step,
                    f"host:{host}",
                    "host-lost",
                    INSTANT,
                    args={"reason": reason, "orphans": sorted(orphans)},
                )
            )
            self._emit(
                progress,
                ProgressEvent(
                    HOST_LOST,
                    len(acked),
                    total,
                    detail=(
                        f"host {host} ({reason}); re-leasing "
                        f"{len(orphans)} points"
                    ),
                    elapsed=time.perf_counter() - started,
                ),
            )
            metrics.retries += len(orphans)
            release(orphans, f"host {host} lost")

        # Initial leases: chunk round-robin across every host.
        for host, leased in chunk_leases(spec.points, hosts, chunk_size).items():
            for point in leased:
                submit(host, point)
            if leased:
                self._timeline.append(
                    TraceEvent(
                        step,
                        f"host:{host}",
                        "lease-grant",
                        INSTANT,
                        args={"points": [p.index for p in leased]},
                    )
                )

        # Generous stall ceiling: every point may burn its full budget,
        # each attempt costing at most a full heartbeat window across
        # the pool, plus slack for fault durations and idle sweeps.
        max_steps = (
            (total + 1)
            * (self.max_retries + 1)
            * (self.heartbeat_misses + 2)
            * max(1, self.workers)
            + sum(f.duration for f in self.fault_plan.faults)
            + 100
        )

        try:
            while len(acked) < total:
                step += 1
                steps_gauge.set(step)
                if step > max_steps:
                    remaining = sorted(set(points_by_index) - set(acked))
                    raise SweepExecutionError(
                        f"dispatcher made no progress after {step} steps; "
                        f"points {remaining} never completed",
                        indices=remaining,
                    )
                for fault in injector.due(len(acked)):
                    self._inject(fault, progress, started, len(acked), total, step)
                    faults_metric.inc()
                for host in list(alive):
                    reply = self.pool.step(host)
                    if reply is None:
                        missed[host] += 1
                        if missed[host] >= self.heartbeat_misses:
                            declare_lost(
                                host, f"{missed[host]} consecutive missed heartbeats"
                            )
                        continue
                    missed[host] = 0
                    self._handle_reply(
                        reply, host, acked, ledger, attempts, points_by_index,
                        lease_step, metrics, progress, started, total, step,
                        release,
                    )
        finally:
            if self._own_pool:
                self.pool.close()

        result = self._finish(spec, acked, metrics, started, progress)
        self._timeline.append(
            TraceEvent(step, "dispatch", "sweep-done", INSTANT,
                       args={"summary": metrics.summary()})
        )
        return result

    # -- helpers -----------------------------------------------------------

    def _inject(
        self,
        fault: HostFault,
        progress: Optional[ProgressHook],
        started: float,
        acked: int,
        total: int,
        step: int,
    ) -> None:
        self.pool.inject(fault)
        self._timeline.append(
            TraceEvent(
                step,
                f"host:{fault.host}",
                f"fault-{fault.kind}",
                INSTANT,
                args={"fault": fault.label(), "at_acked": acked},
            )
        )
        self._emit(
            progress,
            ProgressEvent(
                HOST_FAULT,
                acked,
                total,
                detail=fault.label(),
                elapsed=time.perf_counter() - started,
            ),
        )

    def _handle_reply(
        self,
        reply: HostReply,
        host: int,
        acked: Dict[int, PointRecord],
        ledger: Dict[int, List[int]],
        attempts: Dict[int, int],
        points_by_index: Dict[int, SweepPoint],
        lease_step: Dict[int, int],
        metrics: SweepMetrics,
        progress: Optional[ProgressHook],
        started: float,
        total: int,
        step: int,
        release,
    ) -> None:
        obs = obs_runtime.metrics()
        if reply.telemetry is not None:
            # Advisory host snapshot riding along on the reply: stash
            # the latest and surface it to live fleet views.
            self._fleet[host]["telemetry"] = dict(reply.telemetry)
            self._emit(
                progress,
                ProgressEvent(
                    HOST_TELEMETRY,
                    len(acked),
                    total,
                    detail=f"host {host}",
                    elapsed=time.perf_counter() - started,
                    host=host,
                    telemetry=dict(reply.telemetry),
                ),
            )
        if reply.kind == REPLY_RECORD and reply.record is not None:
            record = reply.record
            if record.index in acked:
                # A late duplicate from a healed partition or a
                # re-leased twin; first ack wins, deterministically.
                obs.counter("dispatch.duplicate_acks").inc()
                return
            acked[record.index] = record
            self._fleet[host]["acked"] += 1
            if record.index in ledger[host]:
                ledger[host].remove(record.index)
            metrics.points_completed += 1
            metrics.point_wall_times.append(record.wall_time)
            obs.counter("dispatch.acks").inc()
            self._timeline.append(
                TraceEvent(
                    lease_step.get(record.index, step),
                    f"host:{host}",
                    f"{record.point}[{record.index}]",
                    COMPLETE,
                    dur=max(0, step - lease_step.get(record.index, step)),
                    args={"attempts": record.attempts, "seed": record.seed},
                )
            )
            self._emit(
                progress,
                ProgressEvent(
                    POINT_DONE,
                    metrics.points_completed,
                    total,
                    point=points_by_index.get(record.index),
                    record=record,
                    elapsed=time.perf_counter() - started,
                ),
            )
            return
        if reply.kind == REPLY_ERROR and reply.index is not None:
            point = points_by_index[reply.index]
            self._fleet[host]["errors"] += 1
            if reply.index in ledger[host]:
                ledger[host].remove(reply.index)
            self._check_budget(point, attempts[reply.index], reply.error)
            metrics.retries += 1
            self._emit(
                progress,
                ProgressEvent(
                    POINT_RETRY,
                    metrics.points_completed,
                    total,
                    point=point,
                    detail=reply.error,
                    elapsed=time.perf_counter() - started,
                ),
            )
            release([reply.index], f"point error on host {host}")
            return
        if reply.kind == REPLY_IDLE:
            # Ledger/idle reconciliation: an idle host with pending
            # ledger entries silently lost those results (partition);
            # re-lease them.
            orphans = [index for index in ledger[host] if index not in acked]
            # Acked entries left in the ledger are just stale
            # bookkeeping from duplicate paths; drop them.
            ledger[host] = []
            if orphans:
                metrics.retries += len(orphans)
                release(orphans, f"host {host} idle with unacked lease")
            return
        # REPLY_BUSY and anything else: pure heartbeat.
