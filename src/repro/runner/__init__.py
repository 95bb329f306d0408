"""Sharded experiment runner.

Fans parameter sweeps (the work lists behind Figures 2-4 and Table 4)
out across subprocess hosts through one dispatcher
(:mod:`repro.runner.dispatch`) -- or runs them serially through the
identical API -- with per-point deterministic seed derivation, so
aggregated results are bit-identical regardless of worker count,
scheduling order or host failures.  See DESIGN notes in
:mod:`repro.runner.sweep`.

Quick use::

    from repro.runner import build_sweep, run_sweep, render_result

    result = run_sweep(build_sweep("fig2", root_seed=0), workers=4)
    print(render_result(result))
"""

from repro.runner.aggregate import (
    AGGREGATORS,
    coverage_relative,
    coverage_series,
    fig2_grid,
    fig2_series,
    render_fig2_sweep,
    render_fig3_sweep,
    render_result,
)
from repro.runner.dispatch import (
    DispatchExecutor,
    HostFault,
    HostFaultPlan,
    LocalHostPool,
    SubprocessHostPool,
    parse_host_faults,
    sample_fault_plan,
)
from repro.runner.executors import SerialExecutor, SweepExecutionError, run_sweep
from repro.runner.health import (
    point_indicators,
    render_sweep_health,
    sweep_health,
)
from repro.runner.progress import ConsoleProgress, ProgressEvent
from repro.runner.registry import register_point, registered_points, resolve_point
from repro.runner.sweep import (
    PointRecord,
    SweepMetrics,
    SweepPoint,
    SweepResult,
    SweepSpec,
    make_points,
    merge_records,
    point_seed,
)
from repro.runner.sweeps import SWEEPS, build_sweep

# Importing the library registers the paper's point functions.
from repro.runner import points as _points  # noqa: F401

__all__ = [
    "AGGREGATORS",
    "ConsoleProgress",
    "coverage_relative",
    "coverage_series",
    "DispatchExecutor",
    "HostFault",
    "HostFaultPlan",
    "LocalHostPool",
    "parse_host_faults",
    "sample_fault_plan",
    "SubprocessHostPool",
    "fig2_grid",
    "fig2_series",
    "render_fig2_sweep",
    "render_fig3_sweep",
    "PointRecord",
    "ProgressEvent",
    "SerialExecutor",
    "SweepExecutionError",
    "SweepMetrics",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "SWEEPS",
    "build_sweep",
    "make_points",
    "merge_records",
    "point_indicators",
    "point_seed",
    "register_point",
    "registered_points",
    "render_result",
    "render_sweep_health",
    "resolve_point",
    "run_sweep",
    "sweep_health",
]
