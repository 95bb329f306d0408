"""The subsystem wall-time profiler.

:class:`SubsystemProfiler` implements the scheduler's profiling seam
(``record(callback, seconds)``) and aggregates cost into a site tree:

* **subsystem** -- derived from the callback's defining module by
  longest-prefix match against :data:`SUBSYSTEMS` (``repro.net.*`` is
  ``net``, ``repro.core.crawler`` is ``crawler``, ...);
* **site** -- the callback's qualified name (``Transport._deliver``);
* **event kind** -- ``call`` by default; instrumented call sites can
  label the in-flight dispatch with :meth:`note` (the transport tags
  each delivery attempt with its outcome: ``deliver`` or ``drop``).

Coverage accounting: :meth:`start`/:meth:`stop` bracket the measured
window, and :meth:`section` attributes coarse out-of-scheduler phases
(scenario build, offline analysis) by *self time* -- elapsed wall time
minus whatever callback time was recorded inside the section -- so
nothing is double-counted and the rendered breakdown sums to the whole
window.  Whatever remains is reported under the ``(unattributed)``
subsystem rather than silently dropped.

Determinism contract: the profiler reads ``perf_counter`` and nothing
else.  Two identical seeded runs dispatch the identical callback
sequence, so their :meth:`structure` views (counts, no timings) are
identical -- a property test asserts exactly that.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Module-prefix -> subsystem attribution map, longest prefix first.
#: Extend when a new top-level package grows a hot path.
SUBSYSTEMS: Tuple[Tuple[str, str], ...] = (
    ("repro.net.churn", "churn"),
    ("repro.net", "net"),
    ("repro.core.crawler", "crawler"),
    ("repro.core.sensor", "sensor"),
    ("repro.core.detection", "detect"),
    ("repro.core", "core"),
    ("repro.botnets", "botnet"),
    ("repro.faults", "faults"),
    ("repro.topo", "topo"),
    ("repro.sim", "sim"),
    ("repro.runner", "runner"),
    ("repro.workloads", "workload"),
    ("repro.analysis", "analysis"),
)

#: Site-tree labels for time the profiler measured but no callback or
#: section claimed (the scheduler loop itself, GC, un-sectioned glue).
UNATTRIBUTED = "(unattributed)"
UNATTRIBUTED_SITE = "(outside instrumented callbacks)"

#: Default event kind for a plain scheduler dispatch.
KIND_CALL = "call"
#: Event kind recorded by :meth:`SubsystemProfiler.section`.
KIND_SECTION = "section"


def classify_module(module: Optional[str]) -> str:
    """Map a module path to its subsystem by longest-prefix match."""
    if module:
        for prefix, subsystem in SUBSYSTEMS:
            if module == prefix or module.startswith(prefix + "."):
                return subsystem
    return "other"


class _Site:
    """Accumulator for one (subsystem, site): kind -> [calls, seconds]."""

    __slots__ = ("subsystem", "site", "kinds")

    def __init__(self, subsystem: str, site: str) -> None:
        self.subsystem = subsystem
        self.site = site
        self.kinds: Dict[str, List[float]] = {}

    def add(self, kind: str, seconds: float, calls: int = 1) -> None:
        cell = self.kinds.get(kind)
        if cell is None:
            self.kinds[kind] = [calls, seconds]
        else:
            cell[0] += calls
            cell[1] += seconds


class NullProfiler:
    """The disabled profiler: falsy, every hook a no-op."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def record(self, callback: Callable[..., Any], seconds: float) -> None:
        pass

    def note(self, kind: str) -> None:
        pass

    @contextmanager
    def section(self, subsystem: str, site: str) -> Iterator[None]:
        yield


NULL_PROFILER = NullProfiler()


class SubsystemProfiler:
    """Aggregate callback wall time into the subsystem site tree.

    Steady-state cost per dispatch (beyond the scheduler's own two
    ``perf_counter`` calls): one identity dict lookup plus two list
    adds.  Classification work (module/qualname string handling) runs
    once per distinct callback function and is cached.
    """

    def __init__(self) -> None:
        # Keyed by the underlying function object: bound methods are
        # re-created on every attribute access, so ``self._deliver``
        # must hash to its stable ``__func__``, not the ephemeral
        # bound-method wrapper.
        self._by_func: Dict[Any, _Site] = {}
        self._sites: Dict[Tuple[str, str], _Site] = {}
        self._pending_kind: Optional[str] = None
        self._attributed = 0.0
        self._window = 0.0
        self._window_start: Optional[float] = None

    def __bool__(self) -> bool:
        return True

    # -- measurement window ------------------------------------------------

    def start(self) -> None:
        """Open the measured window (idempotent while open)."""
        if self._window_start is None:
            self._window_start = perf_counter()

    def stop(self) -> None:
        """Close the measured window, accumulating into ``window_s``."""
        if self._window_start is not None:
            self._window += perf_counter() - self._window_start
            self._window_start = None

    # -- the hot seam ------------------------------------------------------

    def record(self, callback: Callable[..., Any], seconds: float) -> None:
        """The scheduler's per-dispatch hook (see ``set_profile``)."""
        func = getattr(callback, "__func__", callback)
        site = self._by_func.get(func)
        if site is None:
            site = self._intern(func)
        kind = self._pending_kind
        if kind is None:
            kind = KIND_CALL
        else:
            self._pending_kind = None
        cell = site.kinds.get(kind)
        if cell is None:
            site.kinds[kind] = [1, seconds]
        else:
            cell[0] += 1
            cell[1] += seconds
        self._attributed += seconds

    def note(self, kind: str) -> None:
        """Label the in-flight dispatch's event kind; consumed by the
        next :meth:`record` call (the scheduler records *after* the
        callback returns, so instrumented code notes from inside)."""
        self._pending_kind = kind

    @contextmanager
    def section(self, subsystem: str, site: str) -> Iterator[None]:
        """Attribute a coarse out-of-scheduler phase by self time.

        Self time is elapsed wall time minus callback time recorded
        inside the section, so a section that wraps a scheduler run
        (a scenario build with an announce phase) never double-counts
        the callbacks dispatched within it.
        """
        started = perf_counter()
        attributed_before = self._attributed
        try:
            yield
        finally:
            elapsed = perf_counter() - started
            inner = self._attributed - attributed_before
            self_time = max(0.0, elapsed - inner)
            self._site(subsystem, site).add(KIND_SECTION, self_time)
            self._attributed += self_time

    # -- site interning ----------------------------------------------------

    def _intern(self, func: Any) -> _Site:
        module = getattr(func, "__module__", None)
        name = getattr(func, "__qualname__", None) or repr(func)
        site = self._site(classify_module(module), name)
        self._by_func[func] = site
        return site

    def _site(self, subsystem: str, name: str) -> _Site:
        key = (subsystem, name)
        site = self._sites.get(key)
        if site is None:
            site = self._sites[key] = _Site(subsystem, name)
        return site

    # -- views -------------------------------------------------------------

    @property
    def window_s(self) -> float:
        """The measured window so far (live windows read hot)."""
        window = self._window
        if self._window_start is not None:
            window += perf_counter() - self._window_start
        return window

    @property
    def attributed_s(self) -> float:
        return self._attributed

    def tree(self) -> Dict[str, Any]:
        """The full site tree as a JSON-able mapping.

        ``subsystems`` maps subsystem -> sites -> kinds with calls,
        wall seconds, and microseconds per event at every level; when a
        measurement window is known, the remainder the tree could not
        attribute appears under :data:`UNATTRIBUTED` so shares always
        sum to 1.0 over the window.
        """
        subsystems: Dict[str, Dict[str, Any]] = {}
        for (subsystem, name), site in self._sites.items():
            sub = subsystems.setdefault(
                subsystem, {"wall_s": 0.0, "calls": 0, "sites": {}}
            )
            site_calls = 0
            site_wall = 0.0
            kinds: Dict[str, Any] = {}
            for kind, (calls, seconds) in sorted(site.kinds.items()):
                calls = int(calls)
                site_calls += calls
                site_wall += seconds
                kinds[kind] = {
                    "calls": calls,
                    "wall_s": round(seconds, 6),
                    "us_per_event": round(seconds * 1e6 / calls, 3) if calls else 0.0,
                }
            sub["sites"][name] = {
                "calls": site_calls,
                "wall_s": round(site_wall, 6),
                "kinds": kinds,
            }
            sub["calls"] += site_calls
            sub["wall_s"] += site_wall
        window = self.window_s
        attributed = self._attributed
        if window > attributed:
            leftover = window - attributed
            subsystems[UNATTRIBUTED] = {
                "wall_s": leftover,
                "calls": 0,
                "sites": {
                    UNATTRIBUTED_SITE: {
                        "calls": 0,
                        "wall_s": round(leftover, 6),
                        "kinds": {
                            "other": {
                                "calls": 0,
                                "wall_s": round(leftover, 6),
                                "us_per_event": 0.0,
                            }
                        },
                    }
                },
            }
        total = window if window > 0 else attributed
        for sub in subsystems.values():
            sub["share"] = round(sub["wall_s"] / total, 4) if total > 0 else 0.0
            sub["wall_s"] = round(sub["wall_s"], 6)
        return {
            "window_s": round(window, 6),
            "attributed_s": round(attributed, 6),
            "attributed_share": round(attributed / window, 4) if window > 0 else 1.0,
            "subsystems": {name: subsystems[name] for name in sorted(subsystems)},
        }

    def structure(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """The timing-free site tree: subsystem -> site -> kind ->
        call count.  A pure function of the dispatch sequence, so two
        identical seeded runs produce identical structures even though
        their wall times differ."""
        out: Dict[str, Dict[str, Dict[str, int]]] = {}
        for (subsystem, name), site in sorted(self._sites.items()):
            kinds = {
                kind: int(calls)
                for kind, (calls, _seconds) in sorted(site.kinds.items())
                if calls
            }
            if kinds:
                out.setdefault(subsystem, {})[name] = kinds
        return out
