"""Wall-clock telemetry: periodic run snapshots and live rendering.

Everything post-hoc in :mod:`repro.obs` (traces, metrics snapshots,
health reports) answers "what happened"; this module answers "what is
happening" while a long run executes.  A :class:`TelemetryEmitter`
hangs off the scheduler's batch loop and, on a *wall-clock* cadence,
captures a :data:`TELEMETRY_SCHEMA` snapshot -- cumulative and delta
event counts, events/sec, scheduler queue depths, current/peak RSS,
ambient counter totals, and topology path-cache hit rates -- appending
each as one JSONL line and/or handing it to a live console view
(:class:`LiveRunView`, the ``repro top`` renderer).

Determinism contract (the same one every obs layer obeys): the emitter
reads ``perf_counter``, ``/proc`` RSS, and passive counters.  It draws
no randomness, schedules nothing, and never mutates simulated state,
so a run with telemetry enabled is byte-identical to one without.
The scheduler calls :meth:`TelemetryEmitter.tick` once per dispatch
*batch* (not per event); between emissions the cost is a decrement and
an integer compare, and only every :data:`~TelemetryEmitter.STRIDE`
batches does a ``perf_counter`` call happen at all.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, TextIO

from repro.obs import runtime
from repro.obs.export import iter_dict_jsonl

TELEMETRY_SCHEMA = "repro-telemetry/1"


def peak_rss_kb() -> int:
    """Process peak RSS in KiB (monotonic high-water mark)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        peak //= 1024
    return int(peak)


def current_rss_kb() -> int:
    """Instantaneous process RSS in KiB."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as stream:
            rss_pages = int(stream.read().split()[1])
        return rss_pages * (resource.getpagesize() // 1024)
    except (OSError, ValueError, IndexError):  # non-Linux fallback
        return peak_rss_kb()


class TelemetryEmitter:
    """Streams run snapshots on a wall-clock cadence.

    Wire-up happens ambiently (see :mod:`repro.obs.runtime`): schedulers
    capture the active emitter at construction and tick it per dispatch
    batch; transports register themselves so path-cache stats can be
    read at snapshot time.  A run that builds several schedulers (the
    chaos matrix) keeps one emitter across all of them -- dispatched
    counts accumulate over retired schedulers.
    """

    #: Batches between wall-clock checks.  At ~50k events/sec and
    #: typical batch sizes this lands well under the emission interval
    #: while keeping the steady-state tick at one decrement + compare.
    STRIDE = 256

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        interval_s: float = 1.0,
        on_snapshot: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        self.interval_s = max(0.05, float(interval_s))
        self._stream = stream
        self._on_snapshot = on_snapshot
        self._transports: List[Any] = []
        self._countdown = self.STRIDE
        self._started = perf_counter()
        self._last_wall = self._started
        self._last_dispatched = 0
        self._prior_dispatched = 0
        self._sched: Optional[Any] = None
        self._last_counters: Dict[str, float] = {}
        self.count = 0
        self.last_snapshot: Optional[Dict[str, Any]] = None

    def __bool__(self) -> bool:
        return True

    def register_transport(self, transport: Any) -> None:
        """Transports self-register at construction so snapshots can
        read their (purely passive) path-cache stats."""
        self._transports.append(transport)

    # -- the per-batch seam ------------------------------------------------

    def tick(self, scheduler: Any) -> None:
        """Called by the scheduler once per dispatch batch."""
        if scheduler is not self._sched:
            # Adopt immediately (not at emission time) so a short
            # run's finalize snapshot still sees its scheduler, and a
            # retired scheduler's counts are banked before the swap.
            if self._sched is not None:
                self._prior_dispatched += self._sched.stats().dispatched
            self._sched = scheduler
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.STRIDE
        now = perf_counter()
        if now - self._last_wall < self.interval_s:
            return
        self._emit(scheduler, now)

    def finalize(self) -> Optional[Dict[str, Any]]:
        """Emit one last snapshot (so short runs still produce one)
        and return it."""
        self._emit(self._sched, perf_counter())
        return self.last_snapshot

    # -- snapshot assembly -------------------------------------------------

    def _emit(self, scheduler: Optional[Any], now: float) -> None:
        snapshot = self._snapshot(now)
        self.count += 1
        self.last_snapshot = snapshot
        if self._stream is not None:
            self._stream.write(json.dumps(snapshot, sort_keys=True) + "\n")
            self._stream.flush()
        if self._on_snapshot is not None:
            self._on_snapshot(snapshot)

    def _snapshot(self, now: float) -> Dict[str, Any]:
        wall_s = now - self._started
        dt = now - self._last_wall
        sched = self._sched
        if sched is not None:
            stats = sched.stats()
            dispatched = self._prior_dispatched + stats.dispatched
            pending = stats.pending
            heap_size = stats.heap_size
            sim_t = sched.now
        else:
            dispatched = self._prior_dispatched
            pending = heap_size = 0
            sim_t = 0.0
        events_per_s = (
            (dispatched - self._last_dispatched) / dt if dt > 1e-9 else 0.0
        )
        registry = runtime.metrics()
        counters = registry.counter_totals() if registry else {}
        deltas = {
            name: round(value - self._last_counters.get(name, 0.0), 6)
            for name, value in counters.items()
            if value != self._last_counters.get(name, 0.0)
        }
        snapshot: Dict[str, Any] = {
            "schema": TELEMETRY_SCHEMA,
            "seq": self.count,
            "wall_s": round(wall_s, 3),
            "sim_t": round(sim_t, 3),
            "dispatched": dispatched,
            "events_per_s": round(events_per_s, 1),
            "pending": pending,
            "heap_size": heap_size,
            "rss_kb": current_rss_kb(),
            "peak_rss_kb": peak_rss_kb(),
            "counters": {name: round(value, 6) for name, value in counters.items()},
            "deltas": deltas,
        }
        cache = self._path_cache()
        if cache is not None:
            snapshot["path_cache"] = cache
        self._last_wall = now
        self._last_dispatched = dispatched
        self._last_counters = counters
        return snapshot

    def _path_cache(self) -> Optional[Dict[str, Any]]:
        hits = misses = 0
        seen = False
        for transport in self._transports:
            resolver = getattr(
                getattr(transport, "latency_model", None), "resolver", None
            )
            stats = getattr(resolver, "cache_stats", None)
            if stats is None:
                continue
            h, m = stats()
            hits += h
            misses += m
            seen = True
        if not seen:
            return None
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        }


# -- rendering -------------------------------------------------------------


def _mib(kb: Any) -> str:
    try:
        return f"{float(kb) / 1024.0:.1f}MiB"
    except (TypeError, ValueError):
        return "?"


def render_snapshot(snapshot: Mapping[str, Any]) -> str:
    """One snapshot as the one-line ``repro top`` row."""
    parts = [
        f"t+{snapshot.get('sim_t', 0.0):.0f}s sim",
        f"{snapshot.get('wall_s', 0.0):.1f}s wall",
        f"{snapshot.get('events_per_s', 0.0):,.0f} ev/s",
        f"{snapshot.get('dispatched', 0):,} total",
        f"pending {snapshot.get('pending', 0):,}",
        f"rss {_mib(snapshot.get('rss_kb', 0))}",
    ]
    cache = snapshot.get("path_cache")
    if cache:
        parts.append(f"path-cache {cache.get('hit_rate', 0.0) * 100:.0f}%")
    return " | ".join(parts)


class LiveRunView:
    """Renders snapshots as a refreshing status line.

    On a TTY the line rewrites in place (``\\r``); otherwise each
    snapshot prints as its own line, which is what CI logs want.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._tty = bool(getattr(self._stream, "isatty", lambda: False)())
        self._width = 0

    def __call__(self, snapshot: Mapping[str, Any]) -> None:
        line = render_snapshot(snapshot)
        if self._tty:
            pad = " " * max(0, self._width - len(line))
            self._stream.write("\r" + line + pad)
            self._width = len(line)
        else:
            self._stream.write(line + "\n")
        self._stream.flush()

    def close(self) -> None:
        if self._tty and self._width:
            self._stream.write("\n")
            self._stream.flush()


def render_fleet(fleet: Mapping[str, Any]) -> str:
    """A dispatched sweep's per-host telemetry as console lines
    (``repro sweep --live`` and the final ``--health`` fleet section)."""
    hosts = fleet.get("hosts", {})
    lines = [
        f"fleet: {len(hosts)} hosts, "
        f"{fleet.get('acked', 0)} acked / {fleet.get('leased', 0)} leased, "
        f"{fleet.get('lost', 0)} lost"
    ]
    for host_id in sorted(hosts, key=lambda h: int(h)):
        entry = hosts[host_id]
        telemetry = entry.get("telemetry") or {}
        bits = [
            f"  host {host_id}: {entry.get('acked', 0)} acked",
            f"{entry.get('errors', 0)} errors",
        ]
        if entry.get("lost"):
            bits.append("LOST")
        if telemetry:
            if "points_done" in telemetry:
                bits.append(f"{telemetry['points_done']} pts")
            if "rss_kb" in telemetry:
                bits.append(f"rss {_mib(telemetry['rss_kb'])}")
            if "wall_s" in telemetry:
                bits.append(f"{telemetry['wall_s']:.1f}s")
        lines.append(", ".join(bits))
    return "\n".join(lines)


# -- reading streams back --------------------------------------------------


def iter_telemetry(path: str) -> Iterator[Dict[str, Any]]:
    """Stream a telemetry JSONL file back as snapshot dicts
    (transparently gzipped for ``.gz`` paths)."""
    return iter_dict_jsonl(path)


def read_telemetry(path: str) -> List[Dict[str, Any]]:
    return list(iter_telemetry(path))
