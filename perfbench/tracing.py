"""In-memory span recording for the benchmark's traced run.

A span covers one call into a layer's public function.  Spans nest, and
a layer's *self time* is the sum, over its spans, of the span's duration
minus the durations of the spans directly inside it.  Self times of all
layers therefore add up to the traced wall time, less whatever ran
outside every span (the root's self time).

The scheduler's ``set_profile`` seam reports each dispatched callback
only after it returns, so a callback is a span whose start is never
seen.  The dispatching span (``Scheduler.run_until``) therefore collects
the spans that close inside it, and :meth:`SpanRecorder.record` hands
them to the callback when the scheduler reports the callback's
duration.

Only per-layer totals are kept -- self seconds and call counts -- so
memory stays flat however many spans a run opens; :meth:`table` gives
them out when the run ends.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional

#: The layer of time spent outside every span.
ROOT = "root"
#: The layer of dispatched callbacks the classifier does not place.
OTHER = "other"


class SpanRecorder:
    """Nested spans, folded into per-layer self time and call counts.

    A frame on the stack is ``[layer, child_s, dispatched_s]``: the
    durations of the spans closed directly inside it since the last
    dispatch report, and the durations of the callbacks it dispatched.
    ``classify(owner_type)`` names the layer of a dispatched callback
    from the type of the object its bound method belongs to.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        classify: Optional[Callable[[type], str]] = None,
    ) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self._ids: Dict[str, int] = {}
        self._classify = classify if classify is not None else (lambda owner: OTHER)
        self._callback_layers: Dict[type, int] = {}
        self._stack: List[list] = []
        self._root_start = 0.0
        self.wall_s = 0.0
        self.layer(ROOT)

    def layer(self, name: str) -> int:
        """The index of layer ``name``, registering it on first use."""
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return index

    # -- the root span ---------------------------------------------------

    def start(self) -> None:
        """Open the root span; everything until :meth:`stop` is traced."""
        if self._stack:
            raise RuntimeError("recorder already started")
        self._stack.append([self._ids[ROOT], 0.0, 0.0])
        self._root_start = self.clock()

    def stop(self) -> float:
        """Close the root span and return the traced wall time."""
        self.wall_s = self.clock() - self._root_start
        frame = self._stack.pop()
        if self._stack:
            raise RuntimeError("spans still open when the recorder stopped")
        own = self.wall_s - frame[1] - frame[2]
        if own > 0.0:
            self.self_s[frame[0]] += own
        return self.wall_s

    # -- spans -------------------------------------------------------------

    def wrap(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``func`` with every call recorded as a span of layer ``name``."""
        layer = self.layer(name)
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][1] += duration
                own = duration - frame[1] - frame[2]
                if own > 0.0:
                    self_s[layer] += own
                calls[layer] += 1

        return traced

    def wrap_routed(
        self, func: Callable[..., Any], route: Callable[[type], str]
    ) -> Callable[..., Any]:
        """As :meth:`wrap` for a method whose layer depends on the type
        of its instance: ``route(type(self))`` names it."""
        wrapped: Dict[type, Callable[..., Any]] = {}

        @functools.wraps(func)
        def traced(instance: Any, *args: Any, **kwargs: Any) -> Any:
            owner = type(instance)
            span = wrapped.get(owner)
            if span is None:
                span = wrapped[owner] = self.wrap(func, route(owner))
            return span(instance, *args, **kwargs)

        return traced

    # -- the scheduler's profile seam -------------------------------------

    def record(self, callback: Callable[..., Any], seconds: float) -> None:
        """``Scheduler.set_profile`` hook: one callback took ``seconds``.

        The spans that closed inside the dispatching frame since the
        previous report ran inside this callback, so they are its
        children.
        """
        owner = type(getattr(callback, "__self__", None))
        layer = self._callback_layers.get(owner)
        if layer is None:
            layer = self._callback_layers[owner] = self.layer(self._classify(owner))
        frame = self._stack[-1]
        own = seconds - frame[1]
        frame[1] = 0.0
        frame[2] += seconds
        if own > 0.0:
            self.self_s[layer] += own
        self.calls[layer] += 1

    # -- results -----------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        index = self._ids.get(name)
        return 0.0 if index is None else self.self_s[index]

    def call_count(self, name: str) -> int:
        index = self._ids.get(name)
        return 0 if index is None else self.calls[index]

    def coverage(self) -> float:
        """Share of the traced wall time that layer self times account
        for: everything but the root's and unclassified callbacks'."""
        if self.wall_s <= 0.0:
            return 0.0
        covered = sum(
            seconds
            for name, seconds in zip(self.names, self.self_s)
            if name not in (ROOT, OTHER)
        )
        return covered / self.wall_s

    def table(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s": ..., "calls": ...}}`` for every layer."""
        return {
            name: {"self_s": seconds, "calls": count}
            for name, seconds, count in zip(self.names, self.self_s, self.calls)
        }
