"""AS-relationship graphs: CAIDA loader and seeded synthetic topologies.

The internet's routing structure is a graph of autonomous systems (ASes)
joined by *provider-customer* (transit) and *peer-peer* (settlement-free)
links.  CAIDA publishes inferred relationship snapshots in the
``.as-rel2`` format::

    # comment lines start with '#'
    <provider-asn>|<customer-asn>|-1[|source]
    <peer-asn>|<peer-asn>|0[|source]

:func:`load_as_rel2` parses that format.  CI and tests never depend on
an external dataset: :func:`synth_topology` generates a deterministic
tiered topology (core clique of tier-1s, transit ASes multihomed below
them, stub ASes at the edge) from a seed alone, with the same
qualitative shape real snapshots have.
"""

from __future__ import annotations

import random
import re
from typing import Dict, Iterable, List, Set, Tuple, Union

from repro.sim.rng import derive_seed

#: Relationship codes, matching the ``.as-rel2`` on-disk values.
P2C = -1  # first ASN is a provider of the second
P2P = 0   # settlement-free peers


class ASGraph:
    """An undirected AS graph with typed edges.

    Adjacency is kept as three sorted-on-demand role maps so the
    valley-free resolver can walk "my providers", "my peers", and "my
    customers" without filtering a generic edge list.
    """

    def __init__(self) -> None:
        self._ases: Set[int] = set()
        self.providers: Dict[int, Set[int]] = {}
        self.customers: Dict[int, Set[int]] = {}
        self.peers: Dict[int, Set[int]] = {}

    # -- construction --------------------------------------------------

    def add_as(self, asn: int) -> None:
        if asn < 0:
            raise ValueError(f"bad ASN: {asn}")
        if asn not in self._ases:
            self._ases.add(asn)
            self.providers[asn] = set()
            self.customers[asn] = set()
            self.peers[asn] = set()

    def add_link(self, a: int, b: int, rel: int) -> None:
        """Add one relationship edge; ``rel`` is :data:`P2C` (``a``
        provides transit to ``b``) or :data:`P2P`."""
        if a == b:
            raise ValueError(f"self-link on AS{a}")
        self.add_as(a)
        self.add_as(b)
        if rel == P2C:
            self.customers[a].add(b)
            self.providers[b].add(a)
        elif rel == P2P:
            self.peers[a].add(b)
            self.peers[b].add(a)
        else:
            raise ValueError(f"unknown relationship code: {rel}")

    def remove_link(self, a: int, b: int) -> bool:
        """Remove any relationship between ``a`` and ``b``.

        Returns True if an edge existed.  Used to derive cut topologies
        for :class:`repro.faults.plan.ASPartition`.
        """
        removed = False
        for x, y in ((a, b), (b, a)):
            if y in self.customers.get(x, ()):
                self.customers[x].discard(y)
                self.providers[y].discard(x)
                removed = True
        if b in self.peers.get(a, ()):
            self.peers[a].discard(b)
            self.peers[b].discard(a)
            removed = True
        return removed

    def without_links(self, links: Iterable[Tuple[int, int]]) -> "ASGraph":
        """A copy of this graph with the given links removed."""
        clone = ASGraph()
        for asn in self._ases:
            clone.add_as(asn)
        for asn, custs in self.customers.items():
            for c in custs:
                clone.customers[asn].add(c)
                clone.providers[c].add(asn)
        for asn, prs in self.peers.items():
            clone.peers[asn] = set(prs)
        for a, b in links:
            clone.remove_link(a, b)
        return clone

    # -- views ---------------------------------------------------------

    @property
    def ases(self) -> List[int]:
        """All ASNs, sorted (deterministic iteration order)."""
        return sorted(self._ases)

    def __contains__(self, asn: int) -> bool:
        return asn in self._ases

    def __len__(self) -> int:
        return len(self._ases)

    def degree(self, asn: int) -> int:
        return (
            len(self.providers.get(asn, ()))
            + len(self.customers.get(asn, ()))
            + len(self.peers.get(asn, ()))
        )

    def link_counts(self) -> Tuple[int, int]:
        """(provider-customer, peer-peer) edge counts."""
        p2c = sum(len(c) for c in self.customers.values())
        p2p = sum(len(p) for p in self.peers.values()) // 2
        return p2c, p2p

    def customer_cone(self, asn: int) -> Set[int]:
        """``asn`` plus every AS reachable by walking customer links
        down -- the set detached by an :class:`ASPartition` subtree cut.

        An AS inside the cone that has a provider *outside* the cone is
        still included (real multi-homing softens detachment; the fault
        model cuts the whole subtree deliberately, modeling the
        depeering of a regional transit provider).
        """
        if asn not in self._ases:
            raise KeyError(f"unknown AS{asn}")
        cone = {asn}
        frontier = [asn]
        while frontier:
            current = frontier.pop()
            for customer in self.customers.get(current, ()):
                if customer not in cone:
                    cone.add(customer)
                    frontier.append(customer)
        return cone

    def tier_ones(self) -> List[int]:
        """ASes with no providers (the core clique), sorted."""
        return sorted(a for a in self._ases if not self.providers[a])

    def edges(self) -> List[Tuple[int, int, int]]:
        """All edges as sorted ``(a, b, rel)`` triples (canonical form
        for equality checks in determinism tests)."""
        out: List[Tuple[int, int, int]] = []
        for asn in sorted(self.customers):
            for customer in sorted(self.customers[asn]):
                out.append((asn, customer, P2C))
        for asn in sorted(self.peers):
            for peer in sorted(self.peers[asn]):
                if asn < peer:
                    out.append((asn, peer, P2P))
        return out

    def is_connected(self) -> bool:
        """Weak connectivity over all link types."""
        if not self._ases:
            return False
        start = next(iter(self._ases))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            neighbors = (
                self.providers[current] | self.customers[current] | self.peers[current]
            )
            for n in neighbors:
                if n not in seen:
                    seen.add(n)
                    frontier.append(n)
        return len(seen) == len(self._ases)

    def describe(self) -> str:
        p2c, p2p = self.link_counts()
        tiers = self.tier_ones()
        return (
            f"{len(self._ases)} ASes, {p2c} provider-customer links, "
            f"{p2p} peer links, {len(tiers)} tier-1 ({', '.join(f'AS{t}' for t in tiers)})"
        )


#: An ASN field and a relationship-code field: ASCII decimal only, so
#: ``int()``'s extras (``1_0``, ``+1``, non-ASCII digits, padding
#: spaces) are rejected rather than read as some other number.
_ASN_FIELD = re.compile(r"[0-9]+")
_REL_FIELD = re.compile(r"-?[0-9]+")


def load_as_rel2(source: Union[str, Iterable[str]]) -> ASGraph:
    """Parse a CAIDA ``.as-rel2`` relationship file into an
    :class:`ASGraph`.

    ``source`` is a path or an iterable of lines (so tests can feed
    literal strings).  Comment and blank lines are skipped, and the
    optional fourth ``source`` field of the as-rel2 format is ignored.
    Every other defect raises ``ValueError("as-rel2 line N: ...")``: a
    missing field, a field that is not ASCII decimal, an unknown
    relationship code, a self-link, or a second, different relationship
    for a pair already linked (``1|2|-1`` then ``2|1|-1`` or
    ``1|2|0``).  A repeated identical relationship is accepted.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return load_as_rel2(handle.read().splitlines())
    graph = ASGraph()
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) < 3:
            raise ValueError(f"as-rel2 line {lineno}: expected a|b|rel, got {raw!r}")
        if not (
            _ASN_FIELD.fullmatch(parts[0])
            and _ASN_FIELD.fullmatch(parts[1])
            and _REL_FIELD.fullmatch(parts[2])
        ):
            raise ValueError(f"as-rel2 line {lineno}: fields must be ASCII decimal, got {raw!r}")
        try:
            a, b, rel = int(parts[0]), int(parts[1]), int(parts[2])
            # A pair holds at most one link: b's customer a, a's
            # customer b, or peers.  Only the same link again agrees.
            if (
                a in graph.customers.get(b, ())
                or (rel != P2C and b in graph.customers.get(a, ()))
                or (rel != P2P and b in graph.peers.get(a, ()))
            ):
                raise ValueError(f"AS{a}-AS{b} relationship {rel} contradicts an earlier line")
            graph.add_link(a, b, rel)
        except ValueError as exc:
            raise ValueError(f"as-rel2 line {lineno}: {exc}") from None
    return graph


def synth_topology(n_ases: int, seed: int) -> ASGraph:
    """A deterministic tiered synthetic topology.

    Structure (mirroring inferred internet topology qualitatively):

    * a small **core** of tier-1 ASes, fully meshed with peer links;
    * a **transit** band, each multihomed to 1-2 core providers, with
      sparse peering among themselves;
    * **stub** ASes at the edge, each buying transit from 1-2 transit
      (or core) providers.

    Connectivity holds by construction: every non-core AS has at least
    one provider, and the core is a clique.  The same ``(n_ases, seed)``
    pair always yields an identical graph (asserted by the hypothesis
    determinism suite).
    """
    if n_ases < 1:
        raise ValueError("n_ases must be >= 1")
    rng = random.Random(derive_seed(seed, "topo-synth"))
    graph = ASGraph()
    n_core = max(1, min(6, n_ases // 8 + 1))
    n_core = min(n_core, n_ases)
    n_transit = min(max(0, n_ases - n_core), max(1, n_ases // 4))
    core = list(range(1, n_core + 1))
    transit = list(range(n_core + 1, n_core + n_transit + 1))
    stubs = list(range(n_core + n_transit + 1, n_ases + 1))
    for asn in core:
        graph.add_as(asn)
    for i, a in enumerate(core):
        for b in core[i + 1:]:
            graph.add_link(a, b, P2P)
    for asn in transit:
        homes = rng.sample(core, k=min(len(core), 1 + (rng.random() < 0.5)))
        for provider in homes:
            graph.add_link(provider, asn, P2C)
    # Sparse lateral peering inside the transit band.
    for i, a in enumerate(transit):
        for b in transit[i + 1:]:
            if rng.random() < 0.15:
                graph.add_link(a, b, P2P)
    providers_pool = transit if transit else core
    for asn in stubs:
        homes = rng.sample(
            providers_pool, k=min(len(providers_pool), 1 + (rng.random() < 0.3))
        )
        for provider in homes:
            graph.add_link(provider, asn, P2C)
    return graph
