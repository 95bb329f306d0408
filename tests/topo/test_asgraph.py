"""AS graph: loader, synthesis, and structural queries."""

import pytest

from repro.topo.asgraph import P2C, P2P, ASGraph, load_as_rel2, synth_topology

REL2_SAMPLE = """\
# CAIDA-style serial-2 AS relationships
# provider|customer|-1  /  peer|peer|0
1|2|-1
1|3|-1
2|4|-1
3|4|-1
2|3|0

1|5|-1|bgp
"""


class TestLoader:
    def test_loads_links_and_skips_comments(self):
        graph = load_as_rel2(REL2_SAMPLE.splitlines())
        assert graph.ases == [1, 2, 3, 4, 5]
        assert 2 in graph.customers[1]
        assert 1 in graph.providers[2]
        assert 3 in graph.peers[2] and 2 in graph.peers[3]

    def test_fourth_field_ignored(self):
        graph = load_as_rel2(REL2_SAMPLE.splitlines())
        assert 5 in graph.customers[1]

    def test_rejects_bad_relationship(self):
        with pytest.raises(ValueError, match="relationship"):
            load_as_rel2(["1|2|7"])

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="expected"):
            load_as_rel2(["1|2"])

    def test_rejects_contradicting_relationships(self):
        with pytest.raises(ValueError, match="as-rel2 line 2: .*contradicts"):
            load_as_rel2(["1|2|-1", "2|1|-1"])
        with pytest.raises(ValueError, match="as-rel2 line 3: .*contradicts"):
            load_as_rel2(["1|2|-1", "# note", "1|2|0"])
        with pytest.raises(ValueError, match="as-rel2 line 2: .*contradicts"):
            load_as_rel2(["2|1|0", "1|2|-1"])

    def test_repeated_identical_relationship_accepted(self):
        graph = load_as_rel2(["1|2|-1", "1|2|-1|bgp", "2|3|0", "3|2|0"])
        assert graph.edges() == [(1, 2, P2C), (2, 3, P2P)]

    @pytest.mark.parametrize("line", ["1_0|2|0", "+1|2|0", "\u0661|2|0", "1|-2|0", "1|2|+0"])
    def test_rejects_non_decimal_fields(self, line):
        with pytest.raises(ValueError, match="as-rel2 line 1: .*ASCII decimal"):
            load_as_rel2([line])

    def test_errors_name_the_line(self):
        with pytest.raises(ValueError, match="as-rel2 line 2: self-link"):
            load_as_rel2(["1|2|0", "3|3|0"])
        with pytest.raises(ValueError, match="as-rel2 line 2: unknown relationship"):
            load_as_rel2(["1|2|0", "1|3|7"])

    def test_loads_from_path(self, tmp_path):
        path = tmp_path / "sample.as-rel2"
        path.write_text(REL2_SAMPLE)
        graph = load_as_rel2(str(path))
        assert graph.ases == load_as_rel2(REL2_SAMPLE.splitlines()).ases


class TestGraphOps:
    def _diamond(self):
        graph = ASGraph()
        graph.add_link(1, 2, P2C)
        graph.add_link(1, 3, P2C)
        graph.add_link(2, 4, P2C)
        graph.add_link(3, 4, P2C)
        graph.add_link(2, 3, P2P)
        return graph

    def test_customer_cone_includes_multihomed(self):
        graph = self._diamond()
        assert graph.customer_cone(2) == {2, 4}
        assert graph.customer_cone(1) == {1, 2, 3, 4}

    def test_tier_ones(self):
        assert self._diamond().tier_ones() == [1]

    def test_without_links_is_a_copy(self):
        graph = self._diamond()
        cut = graph.without_links([(2, 4)])
        assert 4 not in cut.customers[2]
        assert 4 in graph.customers[2]  # original untouched

    def test_remove_link_symmetric(self):
        graph = self._diamond()
        graph.remove_link(2, 3)
        assert 3 not in graph.peers[2] and 2 not in graph.peers[3]

    def test_edges_canonical_across_insertion_order(self):
        graph = ASGraph()
        # Same diamond, different insertion order.
        graph.add_link(2, 3, P2P)
        graph.add_link(3, 4, P2C)
        graph.add_link(1, 3, P2C)
        graph.add_link(2, 4, P2C)
        graph.add_link(1, 2, P2C)
        assert graph.edges() == self._diamond().edges()

    def test_is_connected(self):
        graph = self._diamond()
        assert graph.is_connected()
        graph.add_as(99)
        assert not graph.is_connected()


class TestSynth:
    def test_same_seed_same_graph(self):
        assert synth_topology(24, seed=5).edges() == synth_topology(24, seed=5).edges()

    def test_different_seed_different_graph(self):
        assert synth_topology(24, seed=5).edges() != synth_topology(24, seed=6).edges()

    @pytest.mark.parametrize("n", [1, 2, 8, 32, 64])
    def test_connected_at_all_sizes(self, n):
        graph = synth_topology(n, seed=1)
        assert len(graph.ases) == n
        assert graph.is_connected()

    def test_core_is_tier_one(self):
        graph = synth_topology(32, seed=3)
        for asn in graph.tier_ones():
            assert not graph.providers[asn]
