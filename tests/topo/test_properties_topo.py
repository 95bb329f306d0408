"""Hypothesis properties for the topology layer.

The two invariants everything else leans on:

* **Determinism** -- one (spec, seed) pair fully determines the graph,
  the prefix allocation, every resolved path, and every drawn latency.
* **Flat equivalence** -- configuring a topology never changes how the
  population is laid out (same endpoints, same peers); only delivery
  timing and fault surfaces differ.
"""

import random
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.botnets.zeus.network import ZeusNetwork
from repro.net.address import Subnet
from repro.topo import Topology, TopologyConfig
from repro.topo.asgraph import P2C, P2P, load_as_rel2, synth_topology
from repro.topo.routing import PathResolver, is_valley_free
from repro.workloads.population import zeus_config

BLOCKS = [Subnet.parse("10.0.0.0/12"), Subnet.parse("25.0.0.0/14")]

seeds = st.integers(min_value=0, max_value=2**31 - 1)
sizes = st.integers(min_value=1, max_value=48)


class TestGraphProperties:
    @given(seeds, sizes)
    @settings(max_examples=25, deadline=None)
    def test_synth_deterministic_and_connected(self, seed, n):
        a = synth_topology(n, seed)
        b = synth_topology(n, seed)
        assert a.edges() == b.edges()
        assert a.is_connected()

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_all_paths_valley_free(self, seed):
        graph = synth_topology(20, seed)
        resolver = PathResolver(graph)
        for src in graph.ases:
            for dst in graph.ases:
                path = resolver.path(src, dst)
                assert path is not None
                assert is_valley_free(graph, path)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_customer_cone_closed_under_customers(self, seed):
        graph = synth_topology(24, seed)
        for asn in graph.ases:
            cone = graph.customer_cone(asn)
            for member in cone:
                assert graph.customers[member] <= cone


# .as-rel2 lines over a six-AS space, so pairs repeat and contradict:
# valid links (some with the ignored fourth field), links with one field
# that is not ASCII decimal or not a known code, comments, blanks and
# arbitrary text.
rel2_asns = st.integers(min_value=0, max_value=5)
rel2_codes = st.sampled_from([P2C, P2P])
rel2_links = st.builds(
    lambda a, b, rel, tail: f"{a}|{b}|{rel}{tail}",
    rel2_asns, rel2_asns, rel2_codes, st.sampled_from(["", "|bgp"]),
)
odd_fields = st.sampled_from(
    ["1_0", "+1", "-2", "\u0661", "\uff11", "\u00b2", " 1", "1 ", "0x1", "1.0", "", "--1", "9" * 5000]
)


@st.composite
def rel2_bent_links(draw):
    fields = [str(draw(rel2_asns)), str(draw(rel2_asns)), str(draw(rel2_codes))]
    fields[draw(st.integers(min_value=0, max_value=2))] = draw(odd_fields)
    return "|".join(fields)


rel2_lines = st.lists(
    st.one_of(
        rel2_links, rel2_links, rel2_bent_links(),
        st.sampled_from(["# comment", "", "   "]), st.text(max_size=12),
    ),
    max_size=12,
)


class TestAsRel2Loader:
    @given(rel2_lines)
    @example(["1|2|-1", "2|1|-1"])  # each the other's provider
    @example(["1|2|-1", "1|2|0"])  # transit and peer at once
    @example(["2|1|0", "1|2|-1"])  # peer, then transit
    @example(["1_0|2|0"])  # int() would read AS10
    @example(["3|3|0"])
    @example(["1|2|-1", "1|2|-1", "2|3|0", "3|2|0|bgp"])  # repeats agree
    @settings(max_examples=200, deadline=None)
    def test_edges_come_from_lines_or_a_line_is_named(self, lines):
        """The loader returns exactly the links its lines state, each
        pair with one relationship, or raises a ``ValueError`` naming
        the line; nothing else escapes."""
        try:
            graph = load_as_rel2(lines)
        except ValueError as exc:
            assert str(exc).startswith("as-rel2 line ")
            return
        stated = set()
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            a, b, rel = line.split("|")[:3]
            assert re.fullmatch("[0-9]+", a) and re.fullmatch("[0-9]+", b)
            assert re.fullmatch("-?[0-9]+", rel)
            a, b, rel = int(a), int(b), int(rel)
            assert a != b and rel in (P2C, P2P)
            stated.add((a, b, P2C) if rel == P2C else (min(a, b), max(a, b), P2P))
        assert set(graph.edges()) == stated
        pairs = [(min(a, b), max(a, b)) for a, b, _ in stated]
        assert len(pairs) == len(set(pairs))


class TestTopologyDeterminism:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_same_seed_same_paths_and_latencies(self, seed):
        config = TopologyConfig(seed=seed, n_ases=12)
        a = Topology.build(config, BLOCKS)
        b = Topology.build(config, BLOCKS)
        assert a.graph.edges() == b.graph.edges()
        for asn in a.graph.ases:
            assert a.allocator.chunks_of(asn) == b.allocator.chunks_of(asn)
        pairs = [(s, d) for s in a.graph.ases for d in a.graph.ases]
        assert [a.resolver.path(*p) for p in pairs] == [
            b.resolver.path(*p) for p in pairs
        ]
        model_a = a.latency_model(random.Random(7))
        model_b = b.latency_model(random.Random(7))
        probes = [
            (BLOCKS[0].network + i * 31, BLOCKS[1].network + i * 53)
            for i in range(64)
        ]
        assert [model_a.latency(*p) for p in probes] == [
            model_b.latency(*p) for p in probes
        ]


class TestFlatEquivalence:
    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=4, deadline=None)
    def test_topology_never_moves_endpoints(self, master_seed):
        flat = ZeusNetwork(zeus_config("tiny", master_seed=master_seed))
        flat.build()
        topo = ZeusNetwork(
            zeus_config("tiny", master_seed=master_seed, topology="synth:7")
        )
        topo.build()
        assert [b.endpoint for b in flat.bots.values()] == [
            b.endpoint for b in topo.bots.values()
        ]
        assert list(flat.bots) == list(topo.bots)
