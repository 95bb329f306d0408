"""Sweep executors: the serial reference, and :func:`run_sweep`.

Every executor exposes the same ``run(spec, progress=...)`` API and
they are interchangeable by construction: a point's record depends
only on its ``(point, params, seed)`` triple (see
:mod:`repro.runner.sweep`), and the aggregation gate reorders records
by point index.  :class:`SerialExecutor` runs every point in this
process, one at a time; it is the reference the tests hold the
parallel path to, and it resolves point functions registered anywhere
in the process.  The one parallel executor is
:class:`~repro.runner.dispatch.DispatchExecutor`: :func:`run_sweep`
runs it over ``workers`` subprocess hosts, with one retry model
(bounded re-leases) and one failure model (silence, then re-lease).
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.runner.dispatch import DispatchExecutor, SubprocessHostPool
from repro.runner.execute import (  # noqa: F401 - re-exported
    SweepExecutionError,
    _execute_point,
    _ExecutorBase,
)
from repro.runner.progress import (
    POINT_DONE,
    POINT_RETRY,
    SWEEP_START,
    ProgressEvent,
    ProgressHook,
)
from repro.runner.sweep import PointRecord, SweepMetrics, SweepResult, SweepSpec


class SerialExecutor(_ExecutorBase):
    """In-process reference executor: one point at a time, in index
    order.  Supports every registered point function, including
    closures tests or benchmarks register locally."""

    workers = 1

    def run(self, spec: SweepSpec, progress: Optional[ProgressHook] = None) -> SweepResult:
        started = time.perf_counter()
        metrics = SweepMetrics(workers=1, points_total=len(spec))
        self._emit(progress, ProgressEvent(SWEEP_START, 0, len(spec)))
        records: Dict[int, PointRecord] = {}
        for point in spec.points:
            for attempt in range(1, self.max_retries + 2):
                task = (
                    point.point, dict(point.params), point.seed, point.index,
                    attempt, self.capture_metrics,
                )
                try:
                    record = _execute_point(task)
                except Exception as exc:
                    self._check_budget(point, attempt, repr(exc))
                    metrics.retries += 1
                    self._emit(
                        progress,
                        ProgressEvent(
                            POINT_RETRY,
                            metrics.points_completed,
                            len(spec),
                            point=point,
                            detail=repr(exc),
                            elapsed=time.perf_counter() - started,
                        ),
                    )
                else:
                    records[point.index] = record
                    metrics.points_completed += 1
                    metrics.point_wall_times.append(record.wall_time)
                    self._emit(
                        progress,
                        ProgressEvent(
                            POINT_DONE,
                            metrics.points_completed,
                            len(spec),
                            point=point,
                            record=record,
                            elapsed=time.perf_counter() - started,
                        ),
                    )
                    break
        return self._finish(spec, records, metrics, started, progress)


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    max_retries: int = 2,
    progress: Optional[ProgressHook] = None,
    capture_metrics: bool = False,
) -> SweepResult:
    """Run ``spec`` serially in this process for ``workers`` 1, else
    through the dispatcher on ``workers`` subprocess hosts, which are
    stopped before this returns.

    Subprocess hosts resolve only the library's point functions
    (:mod:`repro.runner.points`); one registered in this process alone
    fails there as an unknown point function.  ``capture_metrics``
    snapshots a fresh per-point metrics registry into each record (see
    :meth:`SweepResult.merged_metrics`); it is observability metadata
    and cannot change the records' values.
    """
    if workers <= 1:
        return SerialExecutor(
            max_retries=max_retries, capture_metrics=capture_metrics
        ).run(spec, progress=progress)
    with SubprocessHostPool(workers) as pool:
        executor = DispatchExecutor(
            pool=pool, max_retries=max_retries, capture_metrics=capture_metrics
        )
        return executor.run(spec, progress=progress)
