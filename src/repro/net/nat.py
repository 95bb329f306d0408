"""Routability and NAT modelling.

The paper reports that 60-87% of P2P botnet populations are
*non-routable*: behind NAT gateways or firewalls, able to open outbound
connections but unreachable by unsolicited inbound traffic.  This
asymmetry is the root of the crawler-vs-sensor coverage gap (Fig. 1 and
Table 6): crawlers can only contact routable bots, while sensors hear
from NATed bots that contact them, and can reply through the punch-hole
the outbound connection created.

Two pieces live here:

* :class:`RoutabilityTable` -- tracks which endpoints accept unsolicited
  inbound traffic, and the punch-holes opened by outbound traffic from
  non-routable endpoints.
* :class:`NatGateway` -- groups several non-routable bots behind one
  shared public IP with distinct mapped ports.  Shared IPs matter for
  the detector's false positives: multiple busy NATed bots behind one
  IP look like a single hard-hitting address (Section 6.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.net.address import format_ip

# A punch-hole stays open this long after the last outbound packet
# (typical consumer-NAT UDP/TCP mapping lifetime).
DEFAULT_HOLE_TTL = 120.0


class RoutabilityTable:
    """Tracks endpoint routability and NAT punch-holes.

    Keys are endpoint tuples ``(ip, port)``.  The transport consults
    this table on every delivery: traffic to a non-routable endpoint is
    dropped unless the destination previously sent traffic to the
    source's IP (which opened a hole).

    Holes are grouped per endpoint, ``{endpoint: {remote_ip: expiry}}``,
    so unbinding an endpoint or listing its holes touches only that
    endpoint's holes -- ephemeral-port unbinds (Sality) never scan the
    table.  A hole is a bare expiry timestamp: long runs open millions
    of them, so there is no per-hole object.  Expired holes are
    normally deleted when re-checked; quiet pairs are reclaimed by a
    sweep triggered on the live hole count (deterministic: keyed on
    that count and simulated time only, and removing an expired hole
    is behavior-neutral).
    """

    #: Never sweep below this size; the threshold then doubles with the
    #: live population so sweep cost stays amortized O(1) per insert.
    SWEEP_MIN = 4096

    def __init__(self, hole_ttl: float = DEFAULT_HOLE_TTL) -> None:
        self.hole_ttl = hole_ttl
        self._routable: Dict[Tuple[int, int], bool] = {}
        # non-routable endpoint -> {remote ip: expiry time}; no empty
        # inner dicts are kept.
        self._holes: Dict[Tuple[int, int], Dict[int, float]] = {}
        self._hole_count = 0  # holes stored, expired-but-unswept included
        self._sweep_at = self.SWEEP_MIN

    def register(self, endpoint: Tuple[int, int], routable: bool) -> None:
        self._routable[endpoint] = routable

    def unregister(self, endpoint: Tuple[int, int]) -> None:
        self._routable.pop(endpoint, None)
        holes = self._holes.pop(endpoint, None)
        if holes is not None:
            self._hole_count -= len(holes)

    def is_registered(self, endpoint: Tuple[int, int]) -> bool:
        return endpoint in self._routable

    def is_routable(self, endpoint: Tuple[int, int]) -> bool:
        return self._routable.get(endpoint, False)

    def note_outbound(self, src: Tuple[int, int], dst_ip: int, now: float) -> None:
        """Record outbound traffic, opening/refreshing a punch-hole."""
        if self._routable.get(src) is False:
            holes = self._holes.get(src)
            if holes is None:
                holes = self._holes[src] = {}
            if dst_ip not in holes:
                self._hole_count += 1
            holes[dst_ip] = now + self.hole_ttl
            if self._hole_count >= self._sweep_at:
                self._sweep(now)

    def _sweep(self, now: float) -> None:
        """Drop every expired hole, then re-arm the size trigger."""
        table = self._holes
        live = 0
        for endpoint in list(table):
            holes = table[endpoint]
            expired = [remote_ip for remote_ip, expires in holes.items() if expires < now]
            for remote_ip in expired:
                del holes[remote_ip]
            if holes:
                live += len(holes)
            else:
                del table[endpoint]
        self._hole_count = live
        self._sweep_at = max(self.SWEEP_MIN, 2 * live)

    def inbound_allowed(self, dst: Tuple[int, int], src_ip: int, now: float) -> bool:
        """Is delivery from ``src_ip`` to endpoint ``dst`` permitted?"""
        routable = self._routable.get(dst)
        if routable is None:
            return False  # nobody bound there
        if routable:
            return True
        holes = self._holes.get(dst)
        if holes is None:
            return False
        expires = holes.get(src_ip)
        if expires is None:
            return False
        if expires < now:
            del holes[src_ip]
            self._hole_count -= 1
            if not holes:
                del self._holes[dst]
            return False
        return True

    def open_holes(self, dst: Tuple[int, int], now: float) -> Set[int]:
        """IPs currently allowed to reach non-routable endpoint ``dst``."""
        holes = self._holes.get(dst)
        if holes is None:
            return set()
        return {remote_ip for remote_ip, expires in holes.items() if expires >= now}


@dataclass
class NatGateway:
    """A NAT device sharing one public IP among several inside hosts.

    Each inside host is assigned a unique mapped port on the public IP,
    so distinct NATed bots present distinct endpoints but an identical
    source *address* -- exactly the aliasing that produces detector
    false positives at low thresholds (paper Table 4, t=1%: "most of
    which are actually sets of NATed bots sharing a single IP").
    """

    public_ip: int
    base_port: int = 40000
    _next_offset: int = 0
    _mapped: List[Tuple[int, int]] = field(default_factory=list)

    def map_host(self) -> Tuple[int, int]:
        """Allocate a public endpoint for one more inside host."""
        port = self.base_port + self._next_offset
        if port > 65535:
            raise RuntimeError(f"NAT {format_ip(self.public_ip)} out of ports")
        self._next_offset += 1
        endpoint = (self.public_ip, port)
        self._mapped.append(endpoint)
        return endpoint

    @property
    def mapped_endpoints(self) -> List[Tuple[int, int]]:
        return list(self._mapped)

    @property
    def occupancy(self) -> int:
        return len(self._mapped)


def build_nat_gateways(
    public_ips: List[int],
    hosts_per_gateway: List[int],
    base_port: int = 40000,
) -> List[NatGateway]:
    """Create gateways with given occupancies (one per public IP)."""
    if len(public_ips) != len(hosts_per_gateway):
        raise ValueError("public_ips and hosts_per_gateway must align")
    gateways = []
    for ip, count in zip(public_ips, hosts_per_gateway):
        gw = NatGateway(public_ip=ip, base_port=base_port)
        for _ in range(count):
            gw.map_host()
        gateways.append(gw)
    return gateways
