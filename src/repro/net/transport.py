"""Message transport with latency, loss, NAT semantics, and taps.

The transport delivers opaque byte payloads between bound endpoints via
the simulation scheduler.  Three properties matter to the paper:

* **Non-spoofable source identity** -- the crawler-detection algorithm
  assumes a TCP-like transport where the source address of a request
  cannot be forged (Section 4.3).  Here, a send is only accepted from a
  currently *bound* endpoint, and the source stamped on the delivered
  message is the transport's own record, never caller-supplied data.
* **NAT semantics** -- deliveries to non-routable endpoints succeed only
  through a punch-hole opened by prior outbound traffic (see
  :mod:`repro.net.nat`).
* **Taps** -- sensors and measurement code observe traffic through tap
  callbacks without perturbing delivery, the moral equivalent of the
  paper's sensor request logs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.address import format_ip
from repro.net.nat import RoutabilityTable
from repro.obs import runtime as obs
from repro.sim.scheduler import Scheduler


@dataclass(frozen=True, order=True)
class Endpoint:
    """A transport endpoint: public IP + port."""

    ip: int
    port: int

    def __post_init__(self) -> None:
        if not 0 <= self.ip <= 0xFFFFFFFF:
            raise ValueError(f"bad ip: {self.ip}")
        if not 0 < self.port <= 65535:
            raise ValueError(f"bad port: {self.port}")
        # ``key`` indexes every handler/routability lookup, several
        # times per message; precompute the tuple once (the instance is
        # frozen, hence object.__setattr__).
        object.__setattr__(self, "key", (self.ip, self.port))

    def __str__(self) -> str:
        # Endpoints are immutable and rendered on every traced event;
        # cache the dotted-quad form on first use.
        rendered = self.__dict__.get("_str")
        if rendered is None:
            rendered = f"{format_ip(self.ip)}:{self.port}"
            object.__setattr__(self, "_str", rendered)
        return rendered


#: Intern table for decoded peer endpoints.  The same few thousand
#: peers are re-decoded from every peer-list reply, Zeus and Sality
#: alike; reusing one Endpoint per (ip, port) skips dataclass
#: construction and validation on the hot path, shares the cached
#: ``str()`` form, and keeps one object per peer in the peer lists.
#: Endpoints compare by value, so interning is observationally
#: identical.  Bounded like the keystream cache: cleared wholesale if
#: churn or junk peers ever flood it.
_ENDPOINT_INTERN_MAX = 1 << 17
_endpoint_intern: Dict[Tuple[int, int], Endpoint] = {}


def intern_endpoint(ip: int, port: int) -> Endpoint:
    """The interned ``Endpoint(ip, port)``."""
    intern = _endpoint_intern
    key = (ip, port)
    endpoint = intern.get(key)
    if endpoint is None:
        if len(intern) >= _ENDPOINT_INTERN_MAX:
            intern.clear()
        endpoint = intern[key] = Endpoint(ip, port)
    return endpoint


class Message:
    """A delivered (or dropped) payload with transport metadata.

    ``src`` is stamped by the transport and therefore trustworthy.
    Instances may come from the transport's free-list pool (see
    ``recycle_messages``), so handlers must not retain them past the
    handler call; retain ``src``/``dst``/``payload`` instead, which are
    immutable and never recycled.
    """

    __slots__ = ("src", "dst", "payload", "sent_at", "delivered_at")

    def __init__(
        self,
        src: Endpoint,
        dst: Endpoint,
        payload: bytes,
        sent_at: float,
        delivered_at: float,
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.sent_at = sent_at
        self.delivered_at = delivered_at

    def __repr__(self) -> str:
        return (
            f"Message(src={self.src}, dst={self.dst}, "
            f"payload={self.payload!r}, sent_at={self.sent_at}, "
            f"delivered_at={self.delivered_at})"
        )


Handler = Callable[[Message], None]
Tap = Callable[[Message, bool], None]
#: Drop observers receive the message plus a reason string -- one of
#: ``unbound_src``, ``unbound_dst``, ``unroutable``, ``loss``, or a
#: fault-injection reason (``partition``, ``burst_loss``).
DropTap = Callable[[Message, str], None]


@dataclass
class TransportConfig:
    """Latency/loss knobs.

    Defaults model a broadband WAN path: 20-200 ms one-way latency and
    1% loss.  Experiments that need determinism beyond seeding can zero
    the jitter and loss.  ``duplicate_rate`` and ``reorder_rate`` are
    fault knobs (off by default): a duplicated message is delivered
    twice with independent latencies; a reordered message suffers
    ``reorder_extra`` additional latency, enough to arrive after
    messages sent later.
    """

    latency_min: float = 0.020
    latency_max: float = 0.200
    loss_rate: float = 0.01
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_extra: float = 0.5

    def __post_init__(self) -> None:
        if self.latency_min < 0 or self.latency_max < self.latency_min:
            raise ValueError("invalid latency range")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if not 0.0 <= self.duplicate_rate < 1.0:
            raise ValueError("duplicate_rate must be in [0, 1)")
        if not 0.0 <= self.reorder_rate < 1.0:
            raise ValueError("reorder_rate must be in [0, 1)")
        if self.reorder_extra <= 0:
            raise ValueError("reorder_extra must be positive")


@dataclass
class TransportStats:
    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_unroutable: int = 0
    dropped_unbound_dst: int = 0
    rejected_unbound_src: int = 0
    duplicated: int = 0
    reordered: int = 0


#: Upper bound on pooled Message instances kept for reuse.
_POOL_MAX = 1024


class Transport:
    """The shared message fabric of one simulated network.

    ``recycle_messages=True`` enables a free-list pool of Message
    envelopes: a delivered message is reclaimed after its handler
    returns instead of being garbage.  Only enable it when every bound
    handler is known not to retain messages (population builders do;
    ad-hoc test harnesses that keep inboxes must leave it off).  Taps
    disable reuse automatically since they may retain what they see.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        rng: random.Random,
        config: Optional[TransportConfig] = None,
        routability: Optional[RoutabilityTable] = None,
        recycle_messages: bool = False,
        latency_model: Optional[object] = None,
    ) -> None:
        self.scheduler = scheduler
        self.rng = rng
        self.config = config if config is not None else TransportConfig()
        self.routability = routability if routability is not None else RoutabilityTable()
        # Optional pluggable latency oracle (duck-typed: anything with
        # ``latency(src_ip, dst_ip) -> float``).  None keeps the flat
        # uniform draw on the transport's own stream -- the replay
        # contract every golden exhibit depends on.
        self.latency_model = latency_model
        self.stats = TransportStats()
        self._handlers: Dict[Tuple[int, int], Handler] = {}
        self._taps: List[Tap] = []
        self._drop_taps: List[DropTap] = []
        self._recycle = recycle_messages
        self._pool: List[Message] = []
        # Observability: capture the ambient context at construction.
        # Disabled (the default) leaves falsy/no-op stubs here, so the
        # send/deliver paths pay one branch and no-op calls per event.
        self._trace = obs.tracer()
        # The subsystem profiler (when active) wants each delivery
        # attempt's outcome; the telemetry emitter (when active) reads
        # path-cache stats off registered transports.
        profiler = obs.profiler()
        self._profiler = profiler if profiler else None
        telemetry = obs.telemetry()
        if telemetry is not None:
            telemetry.register_transport(self)
        registry = obs.metrics()
        self._m_sent = registry.counter("net.sent", "messages accepted for delivery")
        self._m_delivered = registry.counter("net.delivered", "messages handed to a handler")
        self._m_dropped = registry.counter("net.dropped", "drops by reason")
        self._m_duplicated = registry.counter("net.duplicated", "messages duplicated in flight")
        self._m_reordered = registry.counter("net.reordered", "messages delayed past later sends")
        self._refresh_path()

    def _refresh_path(self) -> None:
        """Recompute ``_reuse``, the message-pool gate: recycling is
        safe only when no tap can retain a message."""
        self._reuse = self._recycle and not self._taps and not self._drop_taps

    # -- binding -------------------------------------------------------

    def bind(self, endpoint: Endpoint, handler: Handler, routable: bool = True) -> None:
        """Attach ``handler`` to ``endpoint``.

        ``routable=False`` registers a NATed/firewalled endpoint that
        only receives traffic through punch-holes.
        """
        if endpoint.key in self._handlers:
            raise ValueError(f"endpoint already bound: {endpoint}")
        self._handlers[endpoint.key] = handler
        self.routability.register(endpoint.key, routable)

    def unbind(self, endpoint: Endpoint) -> None:
        self._handlers.pop(endpoint.key, None)
        self.routability.unregister(endpoint.key)

    def is_bound(self, endpoint: Endpoint) -> bool:
        return endpoint.key in self._handlers

    def rebind(self, old: Endpoint, new: Endpoint) -> None:
        """Atomically move a handler to a new endpoint (IP churn)."""
        handler = self._handlers.get(old.key)
        if handler is None:
            raise ValueError(f"endpoint not bound: {old}")
        routable = self.routability.is_routable(old.key)
        self.unbind(old)
        self.bind(new, handler, routable=routable)

    # -- taps ----------------------------------------------------------

    def add_tap(self, tap: Tap) -> None:
        """Observe every send attempt: ``tap(message, delivered)``."""
        self._taps.append(tap)
        self._refresh_path()

    def add_drop_tap(self, tap: DropTap) -> None:
        """Observe every drop with its reason: ``tap(message, reason)``.

        Unlike plain taps, drop taps also see sends rejected at the
        source (reason ``unbound_src``), so chaos experiments can
        account for everything the network ate.
        """
        self._drop_taps.append(tap)
        self._refresh_path()

    def _notify_drop(self, message: Message, reason: str) -> None:
        for tap in self._drop_taps:
            tap(message, reason)

    # -- sending -------------------------------------------------------

    def send(self, src: Endpoint, dst: Endpoint, payload: bytes) -> bool:
        """Queue ``payload`` from ``src`` to ``dst``.

        Returns True if the message was accepted for (attempted)
        delivery.  Acceptance does not guarantee delivery: loss and NAT
        filtering happen at delivery time.
        """
        now = self.scheduler.now
        if src.key not in self._handlers:
            # Non-spoofable identity: you can only speak as an endpoint
            # you have bound.
            self.stats.rejected_unbound_src += 1
            self._m_dropped.labels("unbound_src").inc()
            if self._trace:
                self._trace.instant_args(
                    now, "net", "drop",
                    {"reason": "unbound_src", "src": str(src), "dst": str(dst)},
                )
            if self._drop_taps:
                self._notify_drop(
                    Message(src=src, dst=dst, payload=payload, sent_at=now, delivered_at=now),
                    "unbound_src",
                )
            return False
        self.routability.note_outbound(src.key, dst.ip, now)
        self.stats.sent += 1
        self._m_sent.inc()
        latency = self._latency(src, dst)
        reordered = False
        if self.config.reorder_rate and self.rng.random() < self.config.reorder_rate:
            # Enough extra latency to arrive behind messages sent later.
            self.stats.reordered += 1
            self._m_reordered.inc()
            reordered = True
            latency += self.config.reorder_extra
        sent_at = now
        self.scheduler.call_later(latency, self._deliver, src, dst, payload, sent_at)
        duplicated = False
        if self.config.duplicate_rate and self.rng.random() < self.config.duplicate_rate:
            self.stats.duplicated += 1
            self._m_duplicated.inc()
            duplicated = True
            self.scheduler.call_later(self._latency(src, dst), self._deliver, src, dst, payload, sent_at)
        if self._trace:
            args = {"src": str(src), "dst": str(dst), "bytes": len(payload)}
            if reordered:
                args["reordered"] = True
            if duplicated:
                args["duplicated"] = True
            self._trace.instant_args(now, "net", "send", args)
        return True

    def _latency(self, src: Endpoint, dst: Endpoint) -> float:
        """One-way latency for a single delivery attempt.

        With a latency model configured, the draw happens on the
        *model's* stream (path-derived latency + jitter); otherwise the
        flat uniform draw on the transport stream, whose draw order is
        part of the golden-replay contract.
        """
        model = self.latency_model
        if model is not None:
            return model.latency(src.ip, dst.ip)
        return self.rng.uniform(self.config.latency_min, self.config.latency_max)

    def _drop_reason(self, message: Message) -> Optional[str]:
        """Decide a delivery attempt's fate; None means deliver.

        Subclasses (fault injection) extend this with additional drop
        causes; each cause increments its own counter here so stats
        stay consistent with the returned reason.
        """
        now = message.delivered_at
        if message.dst.key not in self._handlers:
            self.stats.dropped_unbound_dst += 1
            return "unbound_dst"
        if not self.routability.inbound_allowed(message.dst.key, message.src.ip, now):
            self.stats.dropped_unroutable += 1
            return "unroutable"
        if self.config.loss_rate and self.rng.random() < self.config.loss_rate:
            self.stats.dropped_loss += 1
            return "loss"
        return None

    def _deliver(self, src: Endpoint, dst: Endpoint, payload: bytes, sent_at: float) -> None:
        now = self.scheduler.now
        # Kind tagging for the subsystem profiler: _deliver runs as a
        # scheduler callback and the scheduler records it *after* it
        # returns, so a note left here labels this dispatch's kind.
        profile = self._profiler
        reuse = self._reuse
        pool = self._pool
        if reuse and pool:
            message = pool.pop()
            message.src = src
            message.dst = dst
            message.payload = payload
            message.sent_at = sent_at
            message.delivered_at = now
        else:
            message = Message(src, dst, payload, sent_at, now)
        reason = self._drop_reason(message)
        delivered = reason is None
        if profile is not None:
            profile.note("deliver" if delivered else "drop")
        for tap in self._taps:
            tap(message, delivered)
        if delivered:
            self.stats.delivered += 1
            self._m_delivered.inc()
            if self._trace:
                self._trace.instant(
                    now, "net", "deliver",
                    src=str(src), dst=str(dst), latency=round(now - sent_at, 6),
                )
            self._handlers[dst.key](message)
        else:
            self._m_dropped.labels(reason).inc()
            if self._trace:
                self._trace.instant(
                    now, "net", "drop", reason=reason, src=str(src), dst=str(dst)
                )
            self._notify_drop(message, reason)
        if reuse and len(pool) < _POOL_MAX:
            pool.append(message)
