"""Property test: the crawler's per-target pending counts decide
expired requests exactly as a scan over every pending entry does.

A crawler retries (or gives up on) a target whose request expired only
when no other request to it is still pending.  ``_pending_counts``
answers that in O(1); the reference crawler below answers it by
scanning ``_pending``.  Random sequences of sends, replies, expiries
and session-key reuse must leave both crawlers in the same state.
"""

import random
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.crawler import _CrawlerBase, _PendingRequest
from repro.core.stealth import StealthPolicy
from repro.faults.retry import RetryPolicy
from repro.net.address import parse_ip
from repro.net.transport import Endpoint, Transport, TransportConfig
from repro.sim.scheduler import Scheduler

TARGETS = [
    (bytes([index]) * 20, Endpoint(parse_ip(f"25.0.0.{index + 1}"), 1000)) for index in range(4)
]
#: Requests draw their key from this small pool, as a Zeus crawler with
#: the ``session_range`` defect draws session IDs from three.
KEY_POOL = 3


class _ScanCounts(dict):
    """Kept up to date like ``_pending_counts``, but membership is the
    old scan over every pending entry."""

    def __init__(self, crawler):
        super().__init__()
        self.crawler = crawler

    def __contains__(self, target_id):
        return any(p.target_id == target_id for p in self.crawler._pending.values())


class _WireFreeCrawler(_CrawlerBase):
    """A crawler whose requests never leave: each files a pending entry
    under a key from :data:`KEY_POOL`, displacing any entry there."""

    def send_request(self, target):
        key = self.rng.randrange(KEY_POOL)
        self._put_pending(key, _PendingRequest(target_id=target.bot_id, sent_at=self.scheduler.now))

    def reply(self, key):
        """A reply to ``key``: pop it and mark its target as answered."""
        pending = self._pop_pending(key)
        if pending is not None:
            target = self._targets.get(pending.target_id)
            if target is not None:
                target.responded = True

    def _on_message(self, message):
        raise AssertionError("nothing is bound to reply")


def _crawler(retry, scan):
    scheduler = Scheduler()
    transport = Transport(scheduler, random.Random(0), config=TransportConfig(loss_rate=0.0))
    crawler = _WireFreeCrawler(
        name="prop",
        endpoint=Endpoint(parse_ip("40.0.0.1"), 7777),
        transport=transport,
        scheduler=scheduler,
        rng=random.Random(1),
        policy=StealthPolicy(per_target_interval=4.0, requests_per_target=2),
        retry=retry,
    )
    if scan:
        crawler._pending_counts = _ScanCounts(crawler)
    crawler.start(TARGETS)
    return crawler


def _state(crawler):
    report = crawler.report
    return (
        crawler.scheduler.now,
        sorted((key, p.target_id, p.sent_at) for key, p in crawler._pending.items()),
        crawler._retries_spent,
        (report.requests_sent, report.requests_expired, report.retries_sent, report.targets_given_up),
        [
            (t.bot_id, t.requests_sent, t.responded, t.retries, t.retry_scheduled, t.gave_up)
            for t in crawler._targets.values()
        ],
    )


operations = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.floats(min_value=0.5, max_value=40.0)),
        st.tuples(st.just("reply"), st.integers(min_value=0, max_value=KEY_POOL - 1)),
        # An extra request filed under a chosen key, as the Zeus
        # VERSION_REQUEST beside a peer-list request is.
        st.tuples(
            st.just("send"),
            st.integers(min_value=0, max_value=len(TARGETS) - 1),
            st.integers(min_value=0, max_value=KEY_POOL - 1),
        ),
    ),
    max_size=40,
)
retries = st.builds(
    RetryPolicy,
    timeout=st.sampled_from([5.0, 12.0, 30.0]),
    max_retries=st.integers(min_value=0, max_value=3),
    backoff_base=st.sampled_from([1.0, 6.0]),
    jitter=st.sampled_from([0.0, 0.25]),
    retry_budget=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
)


class TestPendingCounts:
    @given(retry=retries, ops=operations)
    @example(  # a reused key displaces a live entry of another target
        retry=RetryPolicy(timeout=5.0, max_retries=2, backoff_base=1.0, jitter=0.0),
        ops=[("run", 10.0), ("send", 0, 0), ("send", 1, 0), ("run", 20.0), ("run", 20.0)],
    )
    @settings(max_examples=80, deadline=None)
    def test_same_decisions_as_scan(self, retry, ops):
        counted = _crawler(retry, scan=False)
        scanned = _crawler(retry, scan=True)
        for op in ops:
            for crawler in (counted, scanned):
                if op[0] == "run":
                    crawler.scheduler.run_until(crawler.scheduler.now + op[1])
                elif op[0] == "reply":
                    crawler.reply(op[1])
                else:
                    bot_id = TARGETS[op[1]][0]
                    crawler._put_pending(
                        op[2], _PendingRequest(target_id=bot_id, sent_at=crawler.scheduler.now)
                    )
            assert _state(counted) == _state(scanned)
            assert counted._pending_counts == Counter(
                p.target_id for p in counted._pending.values()
            )
