"""Subsystem-attributed wall-time profiling.

The scheduler already exposes a profiling seam (``set_profile``: any
object with ``record(callback, seconds)``) and the transport's
delivery tiers know which path a message took.  This package hangs a
structured profiler off both: callback cost is aggregated into a site
tree -- subsystem -> callback site -> event kind, with per-event-kind
microseconds per event -- and exported as collapsed stacks or
speedscope JSON for flamegraph viewing (``--profile FILE`` on
``repro crawl|detect|chaos``).

Like every other observability layer (see :mod:`repro.obs`), the
profiler reads only the host's wall clock: it draws no randomness,
schedules nothing, and never touches simulated state, so a profiled
run produces byte-identical exhibits to an unprofiled one.
"""

from repro.obs.profile.profiler import (
    NULL_PROFILER,
    SUBSYSTEMS,
    NullProfiler,
    SubsystemProfiler,
    classify_module,
)
from repro.obs.profile.export import (
    collapsed_stacks,
    render_profile,
    speedscope_document,
    write_collapsed,
    write_speedscope,
)

__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "SUBSYSTEMS",
    "SubsystemProfiler",
    "classify_module",
    "collapsed_stacks",
    "render_profile",
    "speedscope_document",
    "write_collapsed",
    "write_speedscope",
]
