"""Property-based tests for neighbour-table invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EntityKey, HeterogeneousGraph, neighbour_table, receptive_fields


def build_random_graph(n_papers: int, n_authors: int, edges: list[tuple[int, int]],
                       authorship: list[tuple[int, int]]) -> HeterogeneousGraph:
    graph = HeterogeneousGraph()
    for i in range(n_papers):
        graph.add_entity("paper", f"p{i}")
    for j in range(n_authors):
        graph.add_entity("author", f"a{j}")
    for src, dst in edges:
        if src != dst:
            graph.add_edge("cites", EntityKey("paper", f"p{src}"),
                           EntityKey("paper", f"p{dst}"))
    for paper, author in authorship:
        graph.add_edge("written_by", EntityKey("paper", f"p{paper}"),
                       EntityKey("author", f"a{author}"))
    return graph


graph_strategy = st.builds(
    build_random_graph,
    n_papers=st.integers(2, 6),
    n_authors=st.integers(1, 3),
    edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10),
    authorship=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2)), max_size=8),
)


def valid_graph(builder):
    """Clamp random indices into range before building."""
    return builder


_NEIGHBOURS = {"interest": "interest_neighbors",
               "influence": "influence_neighbors",
               "two_way": "two_way_neighbors", "all": "all_neighbors"}


@given(
    n_papers=st.integers(2, 6),
    n_authors=st.integers(1, 3),
    raw_edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10),
    raw_authorship=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2)), max_size=8),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_sampled_neighbors_are_real_neighbors(n_papers, n_authors, raw_edges,
                                              raw_authorship, k, seed):
    """Each row lies within its view's neighbours, repeats none when the
    degree reaches k, and is the entity itself when it has none; a subset
    draws exactly the full draw's rows."""
    edges = [(a % n_papers, b % n_papers) for a, b in raw_edges]
    authorship = [(p % n_papers, a % n_authors) for p, a in raw_authorship]
    graph = build_random_graph(n_papers, n_authors, edges, authorship)
    for view, method in _NEIGHBOURS.items():
        table = neighbour_table(graph, k, view, seed)
        assert table.shape == (graph.num_entities, k)
        for index in range(graph.num_entities):
            neighbours = getattr(graph, method)(index)
            row = table[index].tolist()
            if not neighbours:
                assert row == [index] * k
                continue
            assert set(row) <= set(neighbours)
            if len(neighbours) >= k:
                # Without replacement: the k picked positions are distinct,
                # so each neighbour shows up at most as often as it is listed.
                for entity in set(row):
                    assert row.count(entity) <= neighbours.count(entity)
        subset = list(range(graph.num_entities))[::-2]
        assert np.array_equal(neighbour_table(graph, k, view, seed, subset),
                              table[subset])


@given(
    n_papers=st.integers(2, 5),
    raw_edges=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8),
    k=st.integers(1, 3),
    hops=st.integers(1, 3),
)
@settings(max_examples=30, deadline=None)
def test_multi_hop_layer_sizes(n_papers, raw_edges, k, hops):
    edges = [(a % n_papers, b % n_papers) for a, b in raw_edges]
    graph = build_random_graph(n_papers, 1, edges, [(0, 0)])
    table = neighbour_table(graph, k, "all", seed=0)
    fields = receptive_fields(table, [0], hops)[0]
    ends = np.cumsum([k**h for h in range(hops + 1)])
    assert fields.shape == (ends[-1],)
    assert fields[0] == 0
    starts = ends - [k**h for h in range(hops + 1)]
    for h in range(1, hops + 1):
        layer = fields[starts[h]:ends[h]]
        assert layer.shape == (k**h,)
        assert np.all(layer >= 0)
        assert np.all(layer < graph.num_entities)
        previous = fields[starts[h - 1]:ends[h - 1]]
        assert np.array_equal(layer, table[previous].reshape(-1))
