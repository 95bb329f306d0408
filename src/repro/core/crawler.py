"""Peer-list crawlers for GameOver Zeus and Sality.

A crawler starts from a bootstrap peer list (as ripped from a bot
sample) and recursively requests peer lists from every bot it learns
about, subject to a :class:`~repro.core.stealth.StealthPolicy`
(contact ratio, per-target request spacing, source distribution) and a
defect profile (:mod:`repro.core.defects`) controlling how faithful
its wire messages are.

The crawler records when each distinct bot / IP was first learned,
which bots actually responded (verified -- crawlers cannot verify
excluded or non-routable bots, Section 2.1), and the edges implied by
peer-list responses.  Figures 3 and 4 plot exactly these timelines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.botnets.sality import protocol as sality_protocol
from repro.botnets.sality.protocol import Command, SalityDecodeError
from repro.botnets.zeus import protocol as zeus_protocol
from repro.botnets.zeus.protocol import MessageType, ZeusDecodeError
from repro.core.defects import (
    CLEAN_SALITY,
    CLEAN_ZEUS,
    SalityDefectProfile,
    SalityForger,
    ZeusDefectProfile,
    ZeusForger,
)
from repro.core.stealth import StealthPolicy
from repro.faults.retry import NO_RETRY, RetryPolicy
from repro.net.transport import Endpoint, Message, Transport
from repro.obs import runtime as obs
from repro.sim.clock import HOUR
from repro.sim.scheduler import Scheduler, Timer


@dataclass
class CrawlReport:
    """Everything a crawl learned, with timing."""

    started_at: float = 0.0
    first_seen_ip: Dict[int, float] = field(default_factory=dict)
    first_seen_bot: Dict[bytes, float] = field(default_factory=dict)
    bot_endpoints: Dict[bytes, Endpoint] = field(default_factory=dict)
    verified_bots: Set[bytes] = field(default_factory=set)
    edges: Set[Tuple[bytes, bytes]] = field(default_factory=set)
    requests_sent: int = 0
    responses_received: int = 0
    targets_contacted: int = 0
    targets_excluded: int = 0
    # Resilience accounting: pending requests expired on timeout,
    # re-issues sent under the retry policy, and targets abandoned
    # after the retry budget ran dry.
    requests_expired: int = 0
    retries_sent: int = 0
    targets_given_up: int = 0

    def note_discovery(self, time: float, bot_id: bytes, endpoint: Endpoint) -> bool:
        """Record a learned peer; True if the bot id is new."""
        new = bot_id not in self.first_seen_bot
        if new:
            self.first_seen_bot[bot_id] = time
            self.bot_endpoints[bot_id] = endpoint
        self.first_seen_ip.setdefault(endpoint.ip, time)
        return new

    @property
    def distinct_ips(self) -> int:
        return len(self.first_seen_ip)

    @property
    def distinct_bots(self) -> int:
        return len(self.first_seen_bot)

    def ips_found_by(self, time: float) -> int:
        """Distinct IPs learned up to (and including) ``time``."""
        return sum(1 for t in self.first_seen_ip.values() if t <= time)

    def coverage_series(self, until: float, bucket: float = HOUR) -> List[Tuple[float, int]]:
        """Cumulative distinct-IP counts on bucket boundaries -- the
        curves of Figures 3 and 4."""
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        points = []
        t = self.started_at
        while t <= until + 1e-9:
            points.append((t, self.ips_found_by(t)))
            t += bucket
        return points


class _Target:
    __slots__ = (
        "bot_id", "endpoint", "requests_sent", "responded",
        "retries", "retry_scheduled", "gave_up",
    )

    def __init__(self, bot_id: bytes, endpoint: Endpoint) -> None:
        self.bot_id = bot_id
        self.endpoint = endpoint
        self.requests_sent = 0
        self.responded = False
        self.retries = 0
        self.retry_scheduled = False
        self.gave_up = False


@dataclass
class _PendingRequest:
    """One in-flight request awaiting its reply."""

    target_id: bytes
    sent_at: float
    source_id: bytes = b""  # Zeus: the source id the reply is keyed under


class _CrawlerBase:
    """Shared crawl-loop machinery; family subclasses do the wire work.

    Pending requests live in ``self._pending`` (keyed by session id or
    nonce, family-specific) and are *expired* once they outlive
    ``retry.timeout``: a lost reply must not leak the entry forever.
    ``self._pending_counts`` counts each target's live entries, so the
    expiry path asks "is a younger request still out?" in O(1);
    :meth:`_put_pending` and :meth:`_pop_pending` keep the two in step.
    With a retrying policy, expired targets are re-issued to with
    exponential backoff until the per-target and global budgets run
    out; the default :data:`~repro.faults.retry.NO_RETRY` policy only
    expires (the paper's crawlers never retried), keeping baseline runs
    byte-identical.
    """

    def __init__(
        self,
        name: str,
        endpoint: Endpoint,
        transport: Transport,
        scheduler: Scheduler,
        rng: random.Random,
        policy: Optional[StealthPolicy] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.name = name
        self.endpoint = endpoint
        self.transport = transport
        self.scheduler = scheduler
        self.rng = rng
        self.policy = policy if policy is not None else StealthPolicy()
        self.retry = retry if retry is not None else NO_RETRY
        self.report = CrawlReport()
        self.running = False
        self._targets: Dict[bytes, _Target] = {}
        self._pending: Dict[object, _PendingRequest] = {}
        self._pending_counts: Dict[bytes, int] = {}
        self._request_counter = 0
        self._retries_spent = 0
        self._expiry_timer: Optional[Timer] = None
        # Observability: request-lifecycle counters labeled by crawler
        # name, pre-bound here so the per-request cost is one no-op (or
        # one add) per event; trace emission is guarded by truthiness.
        self._trace = obs.tracer()
        registry = obs.metrics()
        self._m_issued = registry.counter(
            "crawler.requests_issued", "peer-list requests sent (incl. retries)"
        ).labels(name)
        self._m_replied = registry.counter(
            "crawler.responses", "responses matched to a pending request"
        ).labels(name)
        self._m_expired = registry.counter(
            "crawler.requests_expired", "pending requests expired on timeout"
        ).labels(name)
        self._m_retries = registry.counter(
            "crawler.retries", "re-issues under the retry policy"
        ).labels(name)
        self._m_gave_up = registry.counter(
            "crawler.targets_given_up", "targets abandoned after the retry budget"
        ).labels(name)

    # -- lifecycle -------------------------------------------------------

    def start(self, bootstrap: Sequence[Tuple[bytes, Endpoint]]) -> None:
        """Bind our source endpoints and begin crawling from
        ``bootstrap`` (bot id, endpoint) pairs."""
        if self.running:
            raise RuntimeError("crawler already running")
        self.running = True
        self.report.started_at = self.scheduler.now
        self.transport.bind(self.endpoint, self._on_message)
        for source in self.policy.source_endpoints:
            if not self.transport.is_bound(source):
                self.transport.bind(source, self._on_message)
        for bot_id, endpoint in bootstrap:
            # Bootstrap peers are always contacted: a crawler must talk
            # to its seed list to get going at all; contact-ratio
            # limiting applies to peers *discovered* during the crawl.
            self.discover(bot_id, endpoint, force_contact=True)
        self._schedule_expiry_sweep()

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        if self._expiry_timer is not None:
            self._expiry_timer.cancel()
            self._expiry_timer = None
        self.transport.unbind(self.endpoint)
        for source in self.policy.source_endpoints:
            self.transport.unbind(source)

    # -- pending-request expiry / retry -------------------------------------

    def _schedule_expiry_sweep(self) -> None:
        self._expiry_timer = self.scheduler.call_later(
            max(1.0, self.retry.timeout / 2.0), self._expiry_sweep
        )

    def _expiry_sweep(self) -> None:
        if not self.running:
            return
        self._expire_pending(self.scheduler.now)
        self._schedule_expiry_sweep()

    def _put_pending(self, key, pending: _PendingRequest) -> None:
        """File ``pending`` under ``key``; a reused key (a small pool of
        session IDs) displaces its earlier entry."""
        displaced = self._pending.get(key)
        if displaced is not None:
            self._uncount(displaced.target_id)
        self._pending[key] = pending
        counts = self._pending_counts
        counts[pending.target_id] = counts.get(pending.target_id, 0) + 1

    def _pop_pending(self, key) -> Optional[_PendingRequest]:
        pending = self._pending.pop(key, None)
        if pending is not None:
            self._uncount(pending.target_id)
        return pending

    def _uncount(self, target_id: bytes) -> None:
        counts = self._pending_counts
        left = counts[target_id] - 1
        if left:
            counts[target_id] = left
        else:
            del counts[target_id]

    def _expire_pending(self, now: float) -> None:
        """Drop pending entries whose reply never came.

        Without this, every lost reply leaked its ``_pending`` entry
        forever and the slot was silently dead.
        """
        expired = [
            key
            for key, pending in self._pending.items()
            if now - pending.sent_at > self.retry.timeout
        ]
        for key in expired:
            pending = self._pop_pending(key)
            self.report.requests_expired += 1
            self._m_expired.inc()
            if self._trace:
                self._trace.instant(
                    now, "crawler", "request.expired",
                    crawler=self.name, target=pending.target_id.hex(),
                    age=round(now - pending.sent_at, 3),
                )
            self._on_request_expired(pending)

    def _on_request_expired(self, pending: _PendingRequest) -> None:
        target = self._targets.get(pending.target_id)
        if target is None or target.responded or not self.running:
            return
        if target.requests_sent < self.policy.requests_per_target:
            return  # the scheduled request loop is still firing
        if target.retry_scheduled or pending.target_id in self._pending_counts:
            return  # a younger request (or a queued retry) may still answer
        budget = self.retry.retry_budget
        out_of_budget = budget is not None and self._retries_spent >= budget
        if target.retries >= self.retry.max_retries or out_of_budget:
            if not target.gave_up:
                target.gave_up = True
                self.report.targets_given_up += 1
                self._m_gave_up.inc()
                if self._trace:
                    self._trace.instant(
                        self.scheduler.now, "crawler", "target.gave_up",
                        crawler=self.name, target=target.bot_id.hex(),
                        retries=target.retries, out_of_budget=out_of_budget,
                    )
            return
        target.retries += 1
        target.retry_scheduled = True
        self._retries_spent += 1
        delay = self.retry.backoff(target.retries - 1, self.rng)
        if self._trace:
            self._trace.instant(
                self.scheduler.now, "crawler", "request.retry_scheduled",
                crawler=self.name, target=target.bot_id.hex(),
                attempt=target.retries, delay=round(delay, 3),
            )
        self.scheduler.call_later(delay, self._refire, target)

    def _refire(self, target: _Target) -> None:
        target.retry_scheduled = False
        if not self.running or target.responded:
            return
        self._request_counter += 1
        self.report.requests_sent += 1
        self.report.retries_sent += 1
        self._m_retries.inc()
        self._m_issued.inc()
        if self._trace:
            self._trace.instant(
                self.scheduler.now, "crawler", "request.issued",
                crawler=self.name, target=target.bot_id.hex(), retry=True,
            )
        self.send_request(target)

    @property
    def pending_requests(self) -> int:
        """Live pending entries (bounded by expiry; tests assert this)."""
        return len(self._pending)

    # -- discovery / scheduling -----------------------------------------------

    def discover(
        self,
        bot_id: bytes,
        endpoint: Endpoint,
        via: Optional[bytes] = None,
        force_contact: bool = False,
    ) -> None:
        """Learn about a peer; contact it if the policy allows."""
        now = self.scheduler.now
        if via is not None:
            self.report.edges.add((via, bot_id))
        ips_before = len(self.report.first_seen_ip) if self._trace else 0
        new = self.report.note_discovery(now, bot_id, endpoint)
        if self._trace and len(self.report.first_seen_ip) > ips_before:
            # Observation only: the analysis layer derives coverage-
            # convergence curves from these (repro trace analyze).
            self._trace.instant(
                now, "crawler", "ip.discovered",
                crawler=self.name, total=len(self.report.first_seen_ip),
            )
        if not new or not self.running:
            return
        if not force_contact and not self.policy.should_contact(bot_id):
            self.report.targets_excluded += 1
            return
        target = _Target(bot_id, endpoint)
        self._targets[bot_id] = target
        self.report.targets_contacted += 1
        if self.policy.initial_contact_delay:
            # Suspend-adherent crawlers pick up new targets on their
            # next cycle; spread first contacts across one cycle.
            delay = self.rng.uniform(0.1, self.policy.initial_contact_delay)
        else:
            # Small jitter spreads the initial burst after bootstrap.
            delay = self.rng.uniform(0.1, 5.0)
        self.scheduler.call_later(delay, self._fire, target)

    def _fire(self, target: _Target) -> None:
        if not self.running:
            return
        target.requests_sent += 1
        self._request_counter += 1
        self.report.requests_sent += 1
        self._m_issued.inc()
        if self._trace:
            self._trace.instant(
                self.scheduler.now, "crawler", "request.issued",
                crawler=self.name, target=target.bot_id.hex(),
                attempt=target.requests_sent,
            )
        self.send_request(target)
        if target.requests_sent < self.policy.requests_per_target:
            interval = self.policy.per_target_interval
            jitter = self.rng.uniform(0.9, 1.1)
            self.scheduler.call_later(max(0.05, interval * jitter), self._fire, target)

    def _source_endpoint(self) -> Endpoint:
        chosen = self.policy.source_for(self._request_counter, self.scheduler.now)
        return chosen if chosen is not None else self.endpoint

    # -- family hooks ------------------------------------------------------------

    def send_request(self, target: _Target) -> None:
        raise NotImplementedError

    def _on_message(self, message: Message) -> None:
        raise NotImplementedError


class ZeusCrawler(_CrawlerBase):
    """A GameOver Zeus peer-list crawler."""

    def __init__(
        self,
        name: str,
        endpoint: Endpoint,
        transport: Transport,
        scheduler: Scheduler,
        rng: random.Random,
        policy: Optional[StealthPolicy] = None,
        profile: ZeusDefectProfile = CLEAN_ZEUS,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(name, endpoint, transport, scheduler, rng, policy, retry)
        self.profile = profile
        self.forger = ZeusForger(profile, rng)
        # session id -> pending request, for reply matching/decryption.
        self._pending: Dict[bytes, _PendingRequest] = {}
        self._recent_source_ids: List[bytes] = []

    def send_request(self, target: _Target) -> None:
        now = self.scheduler.now
        lookup = self.forger.lookup_key(target.bot_id)
        message = self.forger.build(MessageType.PEER_LIST_REQUEST, payload=lookup)
        self._put_pending(
            message.session_id,
            _PendingRequest(target_id=target.bot_id, sent_at=now, source_id=message.source_id),
        )
        self._remember_source(message.source_id)
        source = self._source_endpoint()
        self.transport.send(source, target.endpoint, self.forger.encrypt(message, target.bot_id))
        if not self.profile.protocol_logic and target.requests_sent == 1:
            # Protocol-adherent crawlers intersperse the other message
            # types normal bots use (Section 4.1.4).
            extra = self.forger.build(MessageType.VERSION_REQUEST)
            self._put_pending(
                extra.session_id,
                _PendingRequest(target_id=target.bot_id, sent_at=now, source_id=extra.source_id),
            )
            self.report.requests_sent += 1
            self.transport.send(source, target.endpoint, self.forger.encrypt(extra, target.bot_id))

    def _remember_source(self, source_id: bytes) -> None:
        if source_id not in self._recent_source_ids:
            self._recent_source_ids.append(source_id)
            if len(self._recent_source_ids) > 64:
                self._recent_source_ids.pop(0)

    def _decrypt(self, payload: bytes) -> Optional[zeus_protocol.ZeusMessage]:
        # Replies are encrypted under the source id we presented; with
        # the random-source defect there are many candidates.
        for key in reversed(self._recent_source_ids):
            try:
                return zeus_protocol.decrypt_message(payload, key)
            except ZeusDecodeError:
                continue
        return None

    def _on_message(self, message: Message) -> None:
        decoded = self._decrypt(message.payload)
        if decoded is None:
            return
        pending = self._pop_pending(decoded.session_id)
        if pending is None:
            return
        target_id = pending.target_id
        self.report.responses_received += 1
        self._m_replied.inc()
        if self._trace:
            self._trace.instant(
                self.scheduler.now, "crawler", "request.replied",
                crawler=self.name, target=target_id.hex(),
                rtt=round(self.scheduler.now - pending.sent_at, 6),
            )
        target = self._targets.get(target_id)
        if target is not None and not target.responded:
            target.responded = True
            self.report.verified_bots.add(target_id)
        if decoded.msg_type != MessageType.PEER_LIST_REPLY:
            return
        try:
            entries = zeus_protocol.decode_peer_entries(decoded.payload)
        except ZeusDecodeError:
            return
        for bot_id, endpoint in entries:
            self.discover(bot_id, endpoint, via=target_id)


class SalityCrawler(_CrawlerBase):
    """A Sality peer-exchange crawler.

    Because each response carries a single peer entry from a ~1000
    entry list, meaningful coverage requires many requests per bot --
    callers should set ``policy.requests_per_target`` accordingly (the
    in-the-wild crawlers sent these in quick succession, the Table 2
    hard-hitter defect).
    """

    EPHEMERAL_TTL = 120.0

    def __init__(
        self,
        name: str,
        endpoint: Endpoint,
        transport: Transport,
        scheduler: Scheduler,
        rng: random.Random,
        policy: Optional[StealthPolicy] = None,
        profile: SalityDefectProfile = CLEAN_SALITY,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(name, endpoint, transport, scheduler, rng, policy, retry)
        self.profile = profile
        self.forger = SalityForger(profile, rng)
        self._pending: Dict[int, _PendingRequest] = {}  # nonce -> pending
        self._ephemerals: Set[Endpoint] = set()

    def _exchange_source(self) -> Endpoint:
        """Source endpoint for one exchange.

        Normal Sality senders use a fresh random port per exchange;
        the fixed-port defect (and NAT-style distributed sources) pin
        the port instead.
        """
        base = self._source_endpoint()
        if self.profile.port_range:
            return base
        for _ in range(16):
            candidate = Endpoint(base.ip, self.rng.randrange(10240, 65536))
            if not self.transport.is_bound(candidate):
                self.transport.bind(candidate, self._on_message)
                self._ephemerals.add(candidate)
                self.scheduler.call_later(self.EPHEMERAL_TTL, self._expire_ephemeral, candidate)
                return candidate
        return base

    def _expire_ephemeral(self, endpoint: Endpoint) -> None:
        if endpoint in self._ephemerals:
            self._ephemerals.discard(endpoint)
            self.transport.unbind(endpoint)

    def stop(self) -> None:
        for endpoint in list(self._ephemerals):
            self.transport.unbind(endpoint)
        self._ephemerals.clear()
        super().stop()

    def send_request(self, target: _Target) -> None:
        if not self.profile.protocol_logic and target.requests_sent % 5 == 0:
            # Adherent crawlers intersperse URL-pack exchanges the way
            # real bots do; defective ones send bare PLR streams.
            command, payload = Command.URLPACK_REQUEST, (1).to_bytes(4, "big")
        else:
            command, payload = Command.PEER_REQUEST, b""
        message = self.forger.build(command, payload=payload)
        self._put_pending(
            message.nonce, _PendingRequest(target_id=target.bot_id, sent_at=self.scheduler.now)
        )
        self.transport.send(self._exchange_source(), target.endpoint, self.forger.encode(message))

    def _on_message(self, message: Message) -> None:
        try:
            decoded = sality_protocol.decode_packet(message.payload)
        except SalityDecodeError:
            return
        pending = self._pop_pending(decoded.nonce)
        if pending is None:
            return
        target_id = pending.target_id
        self.report.responses_received += 1
        self._m_replied.inc()
        if self._trace:
            self._trace.instant(
                self.scheduler.now, "crawler", "request.replied",
                crawler=self.name, target=target_id.hex(),
                rtt=round(self.scheduler.now - pending.sent_at, 6),
            )
        target = self._targets.get(target_id)
        if target is not None and not target.responded:
            target.responded = True
            self.report.verified_bots.add(target_id)
        if decoded.command != Command.PEER_RESPONSE:
            return
        try:
            entry = sality_protocol.decode_peer_entry(decoded.payload)
        except SalityDecodeError:
            return
        if entry is None:
            return
        peer_id, endpoint = entry
        self.discover(peer_id.to_bytes(4, "big"), endpoint, via=target_id)
