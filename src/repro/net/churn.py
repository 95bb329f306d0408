"""Churn models: diurnal cycles, IP reassignment, infection churn.

Passive disturbances to recon accuracy (Rajab et al., Kanich et al.,
and the P2PWNED study) bound the useful crawl window: crawling shorter
than 24 hours misses the diurnal trough population, crawling longer
double-counts bots whose dynamic IPs changed (address aliasing).  The
paper's detector therefore uses 24-hour per-bot request histories and
hourly detection rounds.  These models create those effects.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.sim.clock import DAY, HOUR
from repro.sim.scheduler import Scheduler, Timer


@dataclass
class DiurnalModel:
    """Sinusoidal online-probability model.

    ``p(t) = base + amplitude * sin(2*pi*(t - peak)/DAY)`` clamped to
    [min_p, max_p].  With the defaults, roughly 75% of bots are online
    at the daily peak and 35% at the trough -- consistent with the
    diurnal swings reported for Zeus and Sality.
    """

    base: float = 0.55
    amplitude: float = 0.20
    peak_hour: float = 20.0  # local evening
    min_p: float = 0.05
    max_p: float = 0.98

    def online_probability(self, time: float) -> float:
        phase = 2.0 * math.pi * (time / DAY - self.peak_hour / 24.0)
        p = self.base + self.amplitude * math.cos(phase)
        return max(self.min_p, min(self.max_p, p))


@dataclass
class ChurnConfig:
    """Session churn knobs.

    ``mean_session`` / ``mean_offline`` are exponential-holding-time
    means; the diurnal model biases the decision to come back online.
    """

    mean_session: float = 6 * HOUR
    mean_offline: float = 3 * HOUR
    diurnal: Optional[DiurnalModel] = None

    def __post_init__(self) -> None:
        if self.mean_session <= 0 or self.mean_offline <= 0:
            raise ValueError("holding times must be positive")


class _DeadlineHeap:
    """Per-node deadlines in one binary heap, behind a single timer.

    Instead of one scheduler timer per node (a timer + closure per bot,
    forever), each node's next deadline is one ``(deadline, stamp,
    index)`` heap entry and a *single* timer sits at the heap's top.
    A firing pops the due entries and hands each node to ``_due``, which
    re-arms it; every node always has exactly one entry, so the heap
    holds nothing stale and a deadline costs one pop and one push,
    O(log n).  Deadlines equal the timer-per-node firing times, and the
    stamp is the arm counter, so simultaneous deadlines run in
    scheduling order (the scheduler's sequence tie-break).
    """

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler
        self._heap: List[Tuple[float, int, int]] = []
        self._stamps = 0
        self._timer: Optional[Timer] = None

    def _push(self, index: int, delay: float) -> float:
        deadline = self.scheduler.now + delay
        heappush(self._heap, (deadline, self._stamps, index))
        self._stamps += 1
        return deadline

    def _retime(self, deadline: float) -> None:
        """Pull the single timer earlier if ``deadline`` beats it."""
        timer = self._timer
        if timer is not None:
            if timer.time <= deadline:
                return
            timer.cancel()
        self._timer = self.scheduler.call_at(deadline, self._fire)

    def _fire(self) -> None:
        self._timer = None
        now = self.scheduler.now
        heap = self._heap
        # Re-armed deadlines are at least a second out, so the loop
        # never pops an entry it pushed.
        while heap and heap[0][0] <= now:
            self._due(heappop(heap)[2], now)
        if heap:
            self._retime(heap[0][0])

    def _due(self, index: int, now: float) -> None:
        raise NotImplementedError


class ChurnProcess(_DeadlineHeap):
    """Drives online/offline sessions for a set of nodes.

    The process calls ``on_up(node_id)`` / ``on_down(node_id)`` at
    session boundaries.  Node identity is opaque to the process.  Flip
    times and RNG draw order are exactly those of one scheduler timer
    per node: each node draws its next holding time right after
    flipping, and simultaneous flips run in scheduling order.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        rng: random.Random,
        config: ChurnConfig,
        on_up: Callable[[str], None],
        on_down: Callable[[str], None],
    ) -> None:
        super().__init__(scheduler)
        self.rng = rng
        self.config = config
        self.on_up = on_up
        self.on_down = on_down
        self.transitions = 0
        self._ids: List[str] = []
        self._index: Dict[str, int] = {}
        self._up = bytearray()

    def add_node(self, node_id: str, online: bool = True) -> None:
        """Register a node and start its session cycle."""
        if node_id in self._index:
            raise ValueError(f"node already managed: {node_id}")
        index = len(self._ids)
        self._index[node_id] = index
        self._ids.append(node_id)
        self._up.append(1 if online else 0)
        self._retime(self._arm(index))

    def is_online(self, node_id: str) -> bool:
        index = self._index.get(node_id)
        return False if index is None else bool(self._up[index])

    def online_count(self) -> int:
        return sum(self._up)

    def _arm(self, index: int) -> float:
        """Draw the next holding time for a node's *current* state."""
        if self._up[index]:
            delay = self.rng.expovariate(1.0 / self.config.mean_session)
        else:
            delay = self.rng.expovariate(1.0 / self.config.mean_offline)
        return self._push(index, max(1.0, delay))

    def _due(self, index: int, now: float) -> None:
        if self._up[index]:
            self._up[index] = 0
            self.transitions += 1
            self.on_down(self._ids[index])
        else:
            # Diurnal bias: at the trough, offline bots tend to stay
            # offline a while longer instead of returning immediately.
            diurnal = self.config.diurnal
            if diurnal is None or self.rng.random() <= diurnal.online_probability(now):
                self._up[index] = 1
                self.transitions += 1
                self.on_up(self._ids[index])
        self._arm(index)


class IpChurnProcess(_DeadlineHeap):
    """DHCP-style IP reassignment, the source of address aliasing.

    Every ``mean_lease`` seconds (exponential), a managed node gets a
    fresh address via ``reassign(node_id)``; the callback performs the
    actual rebind and returns nothing.  Crawls that span many leases
    will count the same bot under several addresses, inflating size
    estimates -- the aliasing effect that caps useful crawls at ~24h.
    Lease expiries sit in a deadline heap behind a single timer, as
    session flips do in :class:`ChurnProcess`.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        rng: random.Random,
        reassign: Callable[[str], None],
        mean_lease: float = 2 * DAY,
    ) -> None:
        if mean_lease <= 0:
            raise ValueError("mean_lease must be positive")
        super().__init__(scheduler)
        self.rng = rng
        self.reassign = reassign
        self.mean_lease = mean_lease
        self.reassignments = 0
        self._managed: List[str] = []
        self._members: Set[str] = set()

    def add_node(self, node_id: str) -> None:
        """Start a node's lease cycle; a node holds one lease at a time."""
        if node_id in self._members:
            raise ValueError(f"node already managed: {node_id}")
        self._members.add(node_id)
        index = len(self._managed)
        self._managed.append(node_id)
        self._retime(self._arm(index))

    def _arm(self, index: int) -> float:
        delay = self.rng.expovariate(1.0 / self.mean_lease)
        return self._push(index, max(60.0, delay))

    def _due(self, index: int, now: float) -> None:
        self.reassignments += 1
        self.reassign(self._managed[index])
        self._arm(index)
