"""Progress hooks for sweep execution.

Executors emit :class:`ProgressEvent` objects to an optional callback;
:class:`ConsoleProgress` is the CLI's line-per-point renderer.  Hooks
are observability only -- they never influence results.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, TextIO

from repro.runner.sweep import PointRecord, SweepPoint

#: Event kinds, in lifecycle order.
SWEEP_START = "sweep-start"
POINT_DONE = "point-done"
POINT_RETRY = "point-retry"
#: Dispatcher-only kinds: a plan fault fired; a host was declared
#: lost (heartbeat budget exhausted) and its lease re-issued; a host
#: reported a telemetry snapshot (advisory, for live fleet views).
HOST_FAULT = "host-fault"
HOST_LOST = "host-lost"
HOST_TELEMETRY = "host-telemetry"
SWEEP_DONE = "sweep-done"


@dataclass(frozen=True)
class ProgressEvent:
    kind: str
    completed: int
    total: int
    point: Optional[SweepPoint] = None
    record: Optional[PointRecord] = None
    detail: str = ""
    #: Wall-clock seconds since the sweep started, at emission time.
    elapsed: float = 0.0
    #: Dispatcher events only: the host the event concerns, and its
    #: latest advisory telemetry snapshot (see HOST_TELEMETRY).
    host: Optional[int] = None
    telemetry: Optional[Mapping[str, Any]] = None


ProgressHook = Callable[[ProgressEvent], Any]


class ConsoleProgress:
    """Print one line per lifecycle event to ``stream`` (stderr by
    default so piped sweep output stays clean)."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def __call__(self, event: ProgressEvent) -> None:
        if event.kind == HOST_TELEMETRY:
            # Advisory fleet chatter; the live fleet view renders it,
            # the line-per-point console stays quiet.
            return
        if event.kind == SWEEP_START:
            line = f"sweep: {event.total} points"
        elif event.kind == POINT_DONE and event.record is not None:
            line = (
                f"[{event.completed}/{event.total}] "
                f"{event.point.label() if event.point else event.record.point} "
                f"({event.record.wall_time:.2f}s, t+{event.elapsed:.2f}s"
                f"{self._pace(event)})"
            )
        elif event.kind == POINT_RETRY and event.point is not None:
            line = f"retry {event.point.label()}: {event.detail}"
        elif event.kind == HOST_FAULT:
            line = f"host fault injected: {event.detail}"
        elif event.kind == HOST_LOST:
            line = f"host lost: {event.detail}"
        elif event.kind == SWEEP_DONE:
            line = f"sweep done: {event.detail}"
        else:  # pragma: no cover - future event kinds degrade gracefully
            line = f"{event.kind}: {event.detail}"
        print(line, file=self.stream)
        self.stream.flush()

    @staticmethod
    def _pace(event: ProgressEvent) -> str:
        """Running completion rate and ETA, derived purely from the
        event's own ``completed``/``elapsed`` -- no hook state."""
        if event.elapsed <= 0 or event.completed <= 0:
            return ""
        rate = event.completed / event.elapsed
        remaining = max(0, event.total - event.completed)
        eta = remaining / rate
        return f", {rate:.1f} pts/s, eta {eta:.0f}s"
