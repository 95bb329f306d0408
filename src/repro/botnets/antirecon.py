"""Active anti-recon attacks (paper Section 3).

Four categories: *deterrence* lives inside the protocol emulations
(peer-list filters, reputation, info limiting); this module implements
the other three as composable attack components:

* **Blacklisting** (Section 3.2) -- :class:`StaticBlacklist` models the
  hardcoded IP lists shipped with bot binaries; :class:`AutoBlacklister`
  models Zeus's frequency-based automatic blocking of hard hitters.
* **Disinformation** (Section 3.3) -- :class:`DisinformationPolicy`
  pollutes peer-list responses with junk (reserved/unused) addresses or
  diverts requesters into a *shadow botnet* of isolated responders.
* **Retaliation** (Section 3.4) -- :class:`RetaliationTracker` records
  DDoS-style retaliation events against identified recon hosts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.net.address import Subnet, format_ip
from repro.net.transport import Endpoint
from repro.sim.rng import random_bytes


class StaticBlacklist:
    """A hardcoded blacklist of recon IPs, updateable by the botmaster.

    Paper Section 3.2: "Each bot binary is shipped and periodically
    updated with a hardcoded blacklist of IPs which the botmasters
    identified on the network due to anomalous behavior."  Because such
    lists are embedded in binaries, they are effectively public --
    :attr:`entries` is deliberately readable.
    """

    def __init__(self, entries: Optional[Set[int]] = None) -> None:
        self.entries: Set[int] = set(entries or ())
        self.hits = 0

    def add(self, ip: int) -> None:
        self.entries.add(ip)

    def update(self, ips: Set[int]) -> None:
        """A pushed blacklist update (ships with binary updates)."""
        self.entries |= ips

    def is_blocked(self, ip: int) -> bool:
        if ip in self.entries:
            self.hits += 1
            return True
        return False

    def __len__(self) -> int:
        return len(self.entries)


class AutoBlacklister:
    """Frequency-based automatic blacklisting (GameOver Zeus style).

    Each bot tracks per-IP request times and permanently blocks IPs
    exceeding ``max_requests`` within a sliding ``window``.  The
    threshold is deliberately lenient -- high enough that several NATed
    bots sharing one IP stay under it -- so only genuinely hard-hitting
    crawlers trip it (Section 3.2).
    """

    #: Sweep stale source IPs once the tracking dict reaches this size
    #: (then 2x the surviving size).  Small because the tracker is
    #: per-bot: thousands of instances, each seeing tens of sources.
    SWEEP_MIN = 64

    def __init__(self, window: float = 60.0, max_requests: int = 6) -> None:
        if window <= 0 or max_requests < 1:
            raise ValueError("window and max_requests must be positive")
        self.window = window
        self.max_requests = max_requests
        self.blocked: Set[int] = set()
        # Request times are short lists (at most max_requests + 1 after
        # the in-window prune), not deques: an idle deque alone costs
        # ~0.6 KB and these dicts exist once per bot.
        self._recent: Dict[int, List[float]] = {}
        self._sweep_at = self.SWEEP_MIN

    def record(self, ip: int, now: float) -> bool:
        """Record a request from ``ip``; returns True if ``ip`` is
        (now or already) blocked."""
        if ip in self.blocked:
            return True
        recent = self._recent
        times = recent.get(ip)
        cutoff = now - self.window
        if times is None:
            times = [now]
            recent[ip] = times
            if len(recent) >= self._sweep_at:
                # Reclaim IPs whose whole history has aged out of the
                # window; their next request recreates them, so the
                # sweep cannot change any blocking decision.
                stale = [key for key, hist in recent.items() if hist[-1] < cutoff]
                for key in stale:
                    del recent[key]
                self._sweep_at = max(self.SWEEP_MIN, 2 * len(recent))
        else:
            times.append(now)
            drop = 0
            for t in times:
                if t >= cutoff:
                    break
                drop += 1
            if drop:
                del times[:drop]
        if len(times) > self.max_requests:
            self.blocked.add(ip)
            del recent[ip]
            return True
        return False

    def is_blocked(self, ip: int) -> bool:
        return ip in self.blocked


@dataclass
class ShadowNode:
    """A member of a disinformation shadow botnet: responsive but
    isolated from the real population."""

    bot_id: bytes
    endpoint: Endpoint


class DisinformationPolicy:
    """Peer-list pollution (paper Section 3.3).

    ``junk_ratio`` of the entries in each poisoned response are forged:
    either junk addresses from reserved/unused space, or shadow-botnet
    nodes that answer probes yet connect to nothing real.  Crawlers
    cannot verify non-routable addresses, so junk aimed at them is
    cheap; shadow nodes are the escalation that also defeats
    verification by sensors.
    """

    def __init__(
        self,
        rng: random.Random,
        junk_ratio: float = 0.3,
        junk_space: Optional[Subnet] = None,
        shadow_nodes: Optional[List[ShadowNode]] = None,
    ) -> None:
        if not 0.0 <= junk_ratio <= 1.0:
            raise ValueError("junk_ratio must be in [0, 1]")
        self.rng = rng
        self.junk_ratio = junk_ratio
        # Default junk space: an unused (TEST-NET-3) block.
        self.junk_space = junk_space if junk_space is not None else Subnet.parse("203.0.113.0/24")
        self.shadow_nodes = list(shadow_nodes or ())
        self.forged_entries = 0

    def forge_entry(self, id_length: int = 20) -> Tuple[bytes, Endpoint]:
        """One spurious peer-list entry."""
        self.forged_entries += 1
        if self.shadow_nodes and self.rng.random() < 0.5:
            node = self.rng.choice(self.shadow_nodes)
            return (node.bot_id, node.endpoint)
        bot_id = random_bytes(self.rng, id_length)
        ip = self.junk_space.random_ip(self.rng)
        port = self.rng.randrange(1024, 65535)
        return (bot_id, Endpoint(ip, port))

    def pollute(
        self, entries: List[Tuple[bytes, Endpoint]], id_length: int = 20
    ) -> List[Tuple[bytes, Endpoint]]:
        """Replace ``junk_ratio`` of ``entries`` with forged ones."""
        if not entries:
            return entries
        polluted = list(entries)
        forgeries = max(1, int(len(polluted) * self.junk_ratio)) if self.junk_ratio > 0 else 0
        for index in self.rng.sample(range(len(polluted)), min(forgeries, len(polluted))):
            polluted[index] = self.forge_entry(id_length)
        return polluted


@dataclass(frozen=True)
class RetaliationEvent:
    """One retaliation action against an identified recon host."""

    time: float
    target_ip: int
    kind: str  # "ddos" | "infiltration"
    magnitude: float  # e.g. attack Gbps, or 0 for infiltration attempts

    def describe(self) -> str:
        return f"[{self.time:10.1f}] {self.kind} vs {format_ip(self.target_ip)} ({self.magnitude:g})"


class RetaliationTracker:
    """Botmaster-side retaliation ledger (paper Section 3.4).

    When the detection pipeline (or a human botmaster) flags recon
    hosts, this component issues retaliation events against them --
    matching the observed DDoS responses to the Zeus and Storm
    sinkholing attempts.  Recon nodes consult :meth:`under_attack` to
    model their degraded availability.
    """

    def __init__(self, attack_duration: float = 3600.0) -> None:
        self.attack_duration = attack_duration
        self.events: List[RetaliationEvent] = []

    def launch(self, time: float, target_ip: int, kind: str = "ddos", magnitude: float = 10.0) -> RetaliationEvent:
        if kind not in ("ddos", "infiltration"):
            raise ValueError(f"unknown retaliation kind: {kind}")
        event = RetaliationEvent(time=time, target_ip=target_ip, kind=kind, magnitude=magnitude)
        self.events.append(event)
        return event

    def under_attack(self, ip: int, now: float) -> bool:
        return any(
            event.target_ip == ip and event.time <= now < event.time + self.attack_duration
            for event in self.events
        )

    def targets(self) -> Set[int]:
        return {event.target_ip for event in self.events}
