"""Point execution and the bookkeeping every sweep executor shares.

Both executors -- :class:`~repro.runner.executors.SerialExecutor` and
:class:`~repro.runner.dispatch.DispatchExecutor` -- run points through
:func:`_execute_point` (the dispatcher through its hosts), spend the
same per-point attempt budget, and finish the same way: merge the
records by index, emit ``sweep-done``, return a :class:`SweepResult`.
This module sits below both, so :func:`~repro.runner.executors.run_sweep`
can build the dispatcher without an import cycle.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.runner.progress import SWEEP_DONE, ProgressEvent, ProgressHook
from repro.runner.registry import resolve_point
from repro.runner.sweep import (
    PointRecord,
    SweepMetrics,
    SweepPoint,
    SweepResult,
    SweepSpec,
    merge_records,
)

#: One bundled point execution request, built by the serial executor
#: or by a host from its ``WorkUnit``.  The trailing flag asks the
#: executing process to capture a per-point metrics snapshot into the
#: record.
_Task = Tuple[str, Dict[str, Any], int, int, int, bool]


class SweepExecutionError(RuntimeError):
    """A point kept failing after its retry budget was spent.

    ``indices`` names the sweep point indices that could not be
    completed, so callers (and CI logs) can identify the failing cells
    without parsing the message.
    """

    def __init__(self, message: str, indices: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.indices: Tuple[int, ...] = tuple(indices)


def _execute_point(task: _Task) -> PointRecord:
    """Run one point in the current process (a host or the serial
    caller).

    The record's ``values`` depend only on (point, params, seed) while
    ``wall_time``/``worker``/``attempts``/``metrics`` are
    observability metadata.  Metrics capture activates a fresh
    per-point registry around the point function (leaving any ambient
    tracer in place), so snapshots never mix across points or hosts.
    """
    point_name, params, seed, index, attempt, capture = task
    fn = resolve_point(point_name)
    start = time.perf_counter()
    snapshot = None
    if capture:
        from repro.obs import runtime as obs_runtime
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        with obs_runtime.activated(metrics=registry):
            values = fn(params, seed)
        snapshot = registry.snapshot()
    else:
        values = fn(params, seed)
    return PointRecord(
        index=index,
        point=point_name,
        params=params,
        seed=seed,
        values=dict(values),
        wall_time=time.perf_counter() - start,
        worker=f"pid:{os.getpid()}",
        attempts=attempt,
        metrics=snapshot,
    )


class _ExecutorBase:
    """The attempt budget, progress emission and the finish step."""

    def __init__(self, max_retries: int = 2, capture_metrics: bool = False) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.capture_metrics = capture_metrics

    @staticmethod
    def _emit(progress: Optional[ProgressHook], event: ProgressEvent) -> None:
        if progress is not None:
            progress(event)

    def _check_budget(self, point: SweepPoint, attempts: int, why: str) -> None:
        """Raise :class:`SweepExecutionError` once ``point`` has spent
        all ``max_retries + 1`` attempts; ``why`` ends the message."""
        if attempts > self.max_retries:
            raise SweepExecutionError(
                f"point {point.label()} failed after {attempts} attempts: {why}",
                indices=(point.index,),
            )

    def _finish(
        self,
        spec: SweepSpec,
        records: Mapping[int, PointRecord],
        metrics: SweepMetrics,
        started: float,
        progress: Optional[ProgressHook],
    ) -> SweepResult:
        metrics.wall_time = time.perf_counter() - started
        merged = merge_records(list(records.values()), len(spec))
        self._emit(
            progress,
            ProgressEvent(
                kind=SWEEP_DONE,
                completed=metrics.points_completed,
                total=metrics.points_total,
                detail=metrics.summary(),
                elapsed=metrics.wall_time,
            ),
        )
        return SweepResult(spec=spec, records=merged, metrics=metrics)
