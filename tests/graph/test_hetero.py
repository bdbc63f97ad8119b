"""Tests for the heterogeneous academic network and sampling."""

import numpy as np
import pytest

from repro.data import load_acm, load_patents
from repro.errors import GraphError
from repro.graph import (
    ENTITY_TYPES,
    RELATION_TYPES,
    EntityKey,
    HeterogeneousGraph,
    build_academic_network,
    neighbour_table,
    receptive_fields,
)


def small_graph():
    g = HeterogeneousGraph()
    for pid in ("p1", "p2", "p3"):
        g.add_entity("paper", pid)
    g.add_entity("author", "a1")
    g.add_entity("venue", "v1")
    g.add_edge("cites", EntityKey("paper", "p1"), EntityKey("paper", "p2"))
    g.add_edge("cites", EntityKey("paper", "p3"), EntityKey("paper", "p1"))
    g.add_edge("written_by", EntityKey("paper", "p1"), EntityKey("author", "a1"))
    g.add_edge("published_in", EntityKey("paper", "p1"), EntityKey("venue", "v1"))
    return g


class TestHeterogeneousGraph:
    def test_type_universe(self):
        assert len(ENTITY_TYPES) == 7
        assert len(RELATION_TYPES) == 7

    def test_entity_registration_idempotent(self):
        g = HeterogeneousGraph()
        first = g.add_entity("paper", "p1")
        second = g.add_entity("paper", "p1")
        assert first == second
        assert g.num_entities == 1

    def test_unknown_entity_type(self):
        with pytest.raises(GraphError):
            HeterogeneousGraph().add_entity("galaxy", "x")

    def test_unknown_relation(self):
        g = small_graph()
        with pytest.raises(GraphError):
            g.add_edge("likes", EntityKey("paper", "p1"), EntityKey("paper", "p2"))

    def test_unregistered_endpoint(self):
        g = small_graph()
        with pytest.raises(GraphError):
            g.add_edge("cites", EntityKey("paper", "p1"), EntityKey("paper", "ghost"))

    def test_cites_requires_papers(self):
        g = small_graph()
        with pytest.raises(GraphError):
            g.add_edge("cites", EntityKey("paper", "p1"), EntityKey("author", "a1"))

    def test_asymmetric_citation_views(self):
        g = small_graph()
        p1 = g.index_of("paper", "p1")
        p2 = g.index_of("paper", "p2")
        p3 = g.index_of("paper", "p3")
        assert g.cited_papers(p1) == [p2]
        assert g.citing_papers(p1) == [p3]
        # interest view of p1: author, venue, and the paper it cites
        interest = set(g.interest_neighbors(p1))
        assert p2 in interest and p3 not in interest
        influence = set(g.influence_neighbors(p1))
        assert p3 in influence and p2 not in influence

    def test_two_way_edges_visible_from_both_sides(self):
        g = small_graph()
        a1 = g.index_of("author", "a1")
        p1 = g.index_of("paper", "p1")
        assert p1 in g.two_way_neighbors(a1)
        assert a1 in g.two_way_neighbors(p1)

    def test_key_roundtrip(self):
        g = small_graph()
        idx = g.index_of("venue", "v1")
        assert g.key_of(idx) == EntityKey("venue", "v1")
        assert ("venue", "v1") in g
        assert ("venue", "zz") not in g

    def test_entities_of_type(self):
        g = small_graph()
        assert len(g.entities_of_type("paper")) == 3
        with pytest.raises(GraphError):
            g.entities_of_type("galaxy")


class TestBuilder:
    def test_build_from_acm(self):
        corpus = load_acm(scale=0.2, seed=0)
        graph = build_academic_network(corpus)
        assert len(graph.entities_of_type("paper")) == len(corpus)
        assert len(graph.entities_of_type("author")) > 0
        assert len(graph.entities_of_type("affiliation")) > 0
        assert len(graph.entities_of_type("keyword")) > 0
        assert graph.num_edges > len(corpus)

    def test_patent_graph_has_only_papers_authors_years(self):
        corpus = load_patents(scale=0.3, seed=0)
        graph = build_academic_network(corpus)
        assert len(graph.entities_of_type("venue")) == 0
        assert len(graph.entities_of_type("keyword")) == 0
        assert len(graph.entities_of_type("affiliation")) == 0
        assert len(graph.entities_of_type("author")) > 0

    def test_subset_drops_external_citations(self):
        corpus = load_acm(scale=0.2, seed=0)
        subset = corpus.papers[:30]
        graph = build_academic_network(corpus, papers=subset)
        included = {p.id for p in subset}
        for paper in subset:
            idx = graph.index_of("paper", paper.id)
            for cited_idx in graph.cited_papers(idx):
                assert graph.key_of(cited_idx).id in included

    def test_exclude_citations_flag(self):
        corpus = load_acm(scale=0.2, seed=0)
        graph = build_academic_network(corpus, include_citations=False)
        for paper in corpus.papers[:20]:
            idx = graph.index_of("paper", paper.id)
            assert graph.cited_papers(idx) == []
            assert graph.citing_papers(idx) == []


class TestSampling:
    def test_fixed_size_with_replacement(self):
        g = small_graph()
        p1 = g.index_of("paper", "p1")
        row = neighbour_table(g, 8, "all", seed=0, entities=[p1])[0]
        assert row.shape == (8,)  # only 4 distinct neighbours -> replacement
        assert set(row.tolist()) <= set(g.all_neighbors(p1))

    def test_isolated_node_empty(self):
        # An entity without neighbours fills its row with itself.
        g = HeterogeneousGraph()
        g.add_entity("paper", "alone")
        assert neighbour_table(g, 4, "all", seed=0).tolist() == [[0] * 4]

    def test_views_differ(self):
        g = small_graph()
        p1 = g.index_of("paper", "p1")
        p2 = g.index_of("paper", "p2")
        p3 = g.index_of("paper", "p3")
        interest = set(neighbour_table(g, 20, "interest", 0, [p1])[0].tolist())
        influence = set(neighbour_table(g, 20, "influence", 0, [p1])[0].tolist())
        assert p2 in interest and p2 not in influence
        assert p3 in influence and p3 not in interest

    def test_invalid_view(self):
        g = small_graph()
        with pytest.raises(ValueError):
            neighbour_table(g, 2, "sideways", seed=0)

    def test_multi_hop_shapes(self):
        g = small_graph()
        p1 = g.index_of("paper", "p1")
        table = neighbour_table(g, 3, "all", seed=0)
        fields = receptive_fields(table, [p1], hops=2)
        assert fields.shape == (1, 1 + 3 + 9)
        assert fields[0, 0] == p1
        assert np.array_equal(fields[0, 1:4], table[p1])
        # Hop 2 is the rows of hop 1's entities, in order.
        assert np.array_equal(fields[0, 4:], table[table[p1]].reshape(-1))

    def test_multi_hop_isolated_self_fills(self):
        g = HeterogeneousGraph()
        g.add_entity("paper", "alone")
        table = neighbour_table(g, 2, "all", seed=0)
        assert np.all(receptive_fields(table, [0], hops=2) == 0)

    def test_deterministic_with_seed(self):
        g = small_graph()
        a = neighbour_table(g, 5, "all", seed=42)
        b = neighbour_table(g, 5, "all", seed=42)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, neighbour_table(g, 5, "all", seed=43))
