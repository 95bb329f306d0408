"""Sweep definitions: points, specs, records, and metrics.

A *sweep* is the unit of work behind every parameter-scan exhibit
(Figure 2's threshold x ratio grid, Figure 3's contact-ratio curves):
a list of points, each naming a registered point function, a plain
parameter mapping, and a deterministically derived child seed.

Determinism contract
--------------------
Each point's seed is derived from the sweep's root seed and the
point's *index* (``derive_seed(root_seed, "sweep-point:<index>")``),
never from execution order, worker id, or wall time.  Point functions
receive only ``(params, seed)`` and must draw all randomness from that
seed.  Consequently the record produced for a point is a pure function
of ``(point, params, seed)`` and the aggregated sweep output is
bit-identical regardless of worker count or scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.rng import derive_seed


def point_seed(root_seed: int, index: int) -> int:
    """Child seed for point ``index`` of a sweep rooted at
    ``root_seed``.  Independent of worker count and execution order by
    construction (a pure function of the pair)."""
    return derive_seed(root_seed, f"sweep-point:{index}")


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a parameter sweep.

    ``point`` names a function in :mod:`repro.runner.registry`;
    ``params`` must be a plain JSON-encodable mapping (it crosses the
    wire to subprocess hosts).
    """

    index: int
    point: str
    params: Mapping[str, Any]
    seed: int

    def label(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"[{self.index}] {self.point}({inner})"


@dataclass(frozen=True)
class SweepSpec:
    """A named, fully materialized sweep: the work list an executor
    runs.  ``aggregator`` optionally names a renderer in
    :mod:`repro.runner.aggregate` used by the CLI."""

    name: str
    root_seed: int
    points: Tuple[SweepPoint, ...]
    aggregator: Optional[str] = None

    def __len__(self) -> int:
        return len(self.points)


def make_points(
    root_seed: int, point: str, params_list: Sequence[Mapping[str, Any]]
) -> Tuple[SweepPoint, ...]:
    """Materialize points for one point function, deriving child seeds
    by index."""
    return tuple(
        SweepPoint(
            index=index,
            point=point,
            params=dict(params),
            seed=point_seed(root_seed, index),
        )
        for index, params in enumerate(params_list)
    )


@dataclass(frozen=True)
class PointRecord:
    """The result of executing one sweep point.

    ``values`` is the point function's return mapping and is the only
    field aggregation may read (it is deterministic).  ``wall_time``,
    ``worker``, ``attempts`` and ``metrics`` are observability
    metadata and vary run to run; they feed metrics, never exhibits.
    ``metrics`` is the point's own metrics snapshot (see
    :mod:`repro.obs.metrics`), captured only when the sweep ran with
    ``capture_metrics=True``; ``None`` otherwise.
    """

    index: int
    point: str
    params: Mapping[str, Any]
    seed: int
    values: Mapping[str, Any]
    wall_time: float = 0.0
    worker: str = ""
    attempts: int = 1
    metrics: Optional[Mapping[str, Any]] = None


@dataclass
class SweepMetrics:
    """Progress/utilization counters for one sweep execution."""

    workers: int = 1
    points_total: int = 0
    points_completed: int = 0
    retries: int = 0
    hosts_lost: int = 0
    wall_time: float = 0.0
    point_wall_times: List[float] = field(default_factory=list)

    @property
    def point_time_total(self) -> float:
        return sum(self.point_wall_times)

    @property
    def point_time_mean(self) -> float:
        if not self.point_wall_times:
            return 0.0
        return self.point_time_total / len(self.point_wall_times)

    def utilization(self) -> float:
        """Fraction of the worker pool's wall-clock capacity spent
        inside point functions (1.0 = perfectly packed shards)."""
        capacity = self.workers * self.wall_time
        if capacity <= 0:
            return 0.0
        return min(1.0, self.point_time_total / capacity)

    def summary(self) -> str:
        return (
            f"{self.points_completed}/{self.points_total} points in "
            f"{self.wall_time:.2f}s wall ({self.workers} worker"
            f"{'s' if self.workers != 1 else ''}, "
            f"{self.point_time_mean:.2f}s/point mean, "
            f"utilization {self.utilization() * 100:.0f}%, "
            f"{self.retries} retries)"
        )


@dataclass
class SweepResult:
    """Aggregated outcome of a sweep run: records in point-index order
    (the deterministic payload) plus execution metrics (not)."""

    spec: SweepSpec
    records: List[PointRecord]
    metrics: SweepMetrics

    def values(self) -> List[Dict[str, Any]]:
        """Per-point value mappings in index order -- the
        determinism-guaranteed payload, free of execution metadata."""
        return [dict(record.values) for record in self.records]

    def record(self, index: int) -> PointRecord:
        return self.records[index]

    def merged_metrics(self) -> Dict[str, Any]:
        """Whole-sweep view of the per-point metrics snapshots
        (counters summed, gauges maxed); empty when the sweep was run
        without metrics capture."""
        from repro.obs.metrics import merge_snapshots

        return merge_snapshots(
            record.metrics for record in self.records if record.metrics is not None
        )


def merge_records(records: Sequence[PointRecord], expected: int) -> List[PointRecord]:
    """Order records by point index and verify the sweep is complete:
    no duplicates, no holes, no stray indices.  This is the
    aggregation-layer gate that makes worker scheduling (and
    dispatcher host recovery) invisible downstream: an executor that
    hands over too few, too many, or out-of-range records fails loudly
    here rather than producing a silently partial exhibit."""
    if expected < 0:
        raise ValueError("expected record count must be >= 0")
    by_index: Dict[int, PointRecord] = {}
    for record in records:
        if not 0 <= record.index < expected:
            raise ValueError(
                f"record index {record.index} outside sweep of {expected} points"
            )
        if record.index in by_index:
            raise ValueError(f"duplicate record for point {record.index}")
        by_index[record.index] = record
    if len(by_index) != expected:
        missing = [i for i in range(expected) if i not in by_index]
        raise ValueError(
            f"sweep incomplete: got {len(by_index)}/{expected} records, "
            f"missing points {missing}"
        )
    return [by_index[i] for i in range(expected)]
