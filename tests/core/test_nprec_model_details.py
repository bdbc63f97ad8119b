"""Detailed NPRecModel mechanics: gates, content block, induction, aggregation."""

import dataclasses

import numpy as np
import pytest

from repro.core.nprec import NPRecModel
from repro.core.nprec.model import ContentRows
from repro.data import load_acm
from repro.graph import (HeterogeneousGraph, attach_paper_to_network,
                         build_academic_network, neighbour_table)
from repro.nn import Tensor, gcn_aggregate, no_grad, softmax


@pytest.fixture(scope="module")
def graph_and_text():
    corpus = load_acm(scale=0.2, seed=50)
    train, new = corpus.split_by_year(2014)
    everyone = train + new
    graph = build_academic_network(corpus, papers=everyone,
                                   citation_whitelist={p.id for p in train})
    rng = np.random.default_rng(0)
    text = {p.id: rng.normal(size=10) for p in everyone}
    content = {p.id: np.abs(rng.normal(size=20)) for p in everyone}
    return graph, text, content, train, new


class TestBlocksAndGates:
    def test_vector_width_with_content(self, graph_and_text):
        graph, text, content, train, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1,
                           content_vectors=content, seed=0)
        vec = model.interest_vectors([train[0].id])
        # shared text + view text + graph + trained-content (4 * dim)
        # + the lexical sketch; the raw lexical rows (20 wide) are no
        # block of their own
        assert vec.shape == (1, 4 * 8 + model.lexical_sketch.shape[1])

    def test_sketch_block_carries_the_lexical_cosine(self, graph_and_text):
        graph, text, content, train, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1,
                           content_vectors=content,
                           block_gates=(0.3, 0.15, 0.1, 1.2, 0.8), seed=0)
        ids = [p.id for p in train[:6]]
        width = model.lexical_sketch.shape[1]
        rows = {view: model._paper_vectors(ids, view).data[:, -width:]
                for view in ("interest", "influence")}
        # The same block on both views: gate * unit(content @ sketch).
        assert np.array_equal(rows["interest"], rows["influence"])
        projected = model.content_matrix[model._indices(ids)] \
            @ model.lexical_sketch
        np.testing.assert_allclose(
            rows["interest"], 1.2 * projected
            / np.linalg.norm(projected, axis=1, keepdims=True),
            rtol=0, atol=1e-12)
        # A paper meets itself at the full gate squared, the exact prior.
        np.testing.assert_allclose(
            (rows["interest"] * rows["influence"]).sum(axis=1), 1.2**2,
            rtol=0, atol=1e-12)
        # Fixed signs: another model, seed and gate draw the same matrix.
        other = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1,
                           content_vectors=content, seed=5)
        assert np.array_equal(other.lexical_sketch, model.lexical_sketch)
        assert set(np.unique(model.lexical_sketch)) == {-1.0, 1.0}

    def test_gate_scaling_applied(self, graph_and_text):
        graph, text, content, train, _ = graph_and_text
        small = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1,
                           block_gates=(0.1, 0.1, 0.1, 0.0), seed=0)
        large = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1,
                           block_gates=(1.0, 1.0, 1.0, 0.0), seed=0)
        v_small = small.interest_vectors([train[0].id]).data
        v_large = large.interest_vectors([train[0].id]).data
        np.testing.assert_allclose(v_small * 10.0, v_large, rtol=1e-6)

    def test_content_rows_l2_normalised(self, graph_and_text):
        graph, text, content, train, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1,
                           content_vectors=content,
                           block_gates=(0.0, 0.0, 0.0, 1.0, 0.0), seed=0)
        matrix = model.content_matrix
        idx = graph.index_of("paper", train[0].id)
        assert np.linalg.norm(matrix[idx]) == pytest.approx(1.0)

    def test_influence_citations_flag_changes_views(self, graph_and_text):
        graph, text, content, train, _ = graph_and_text
        cited = max(train, key=lambda p: len(graph.citing_papers(
            graph.index_of("paper", p.id))))
        meta_only = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1,
                               influence_citations=False, seed=0)
        with_cites = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1,
                                influence_citations=True, seed=0)
        a = meta_only.influence_vectors([cited.id]).data
        b = with_cites.influence_vectors([cited.id]).data
        assert not np.allclose(a, b)

    def test_induct_new_papers_counts(self, graph_and_text):
        graph, text, content, train, new = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1, seed=0)
        imputed = model.induct_new_papers([p.id for p in new[:10]])
        assert imputed == sum(
            1 for p in new[:10]
            if graph.two_way_neighbors(graph.index_of("paper", p.id))
        )

    def test_deterministic_given_seed(self, graph_and_text):
        graph, text, content, train, _ = graph_and_text
        ids = [p.id for p in train[:4]]
        a = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1, seed=7)
        b = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1, seed=7)
        np.testing.assert_allclose(a.interest_vectors(ids).data,
                                   b.interest_vectors(ids).data)


class TestFieldMatrix:
    def test_aggregation_unchanged_by_caching(self, graph_and_text):
        graph, text, _, train, _ = graph_and_text
        ids = [p.id for p in train[:3]]
        warm = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=1, seed=0)
        baseline = warm.interest_vectors(ids).data.copy()
        again = warm.interest_vectors(ids).data
        assert np.array_equal(baseline, again)

    @pytest.mark.parametrize("view", ["interest", "influence"])
    def test_subset_rows_equal_full_draw(self, graph_and_text, view):
        graph, text, _, train, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=3, depth=2, seed=0)
        table = model._tables[view]
        assert table.shape == (graph.num_entities, 3)
        subset = np.asarray([graph.index_of("paper", p.id)
                             for p in train[:7]][::-1] + [0, 5])
        assert np.array_equal(model._draw_rows(view, subset), table[subset])

    @pytest.mark.parametrize("citations", [False, True])
    def test_rows_lie_within_view_neighbours(self, graph_and_text, citations):
        graph, text, _, _, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=2,
                           influence_citations=citations, seed=3)
        views = {"interest": graph.interest_neighbors,
                 "influence": (graph.influence_neighbors if citations
                               else graph.two_way_neighbors)}
        for view, neighbours_of in views.items():
            for index, row in enumerate(model._tables[view]):
                neighbours = neighbours_of(index)
                assert set(row.tolist()) <= set(neighbours or [index])

    def test_rows_without_replacement_when_degree_reaches_k(
            self, graph_and_text):
        graph, text, _, _, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=4, depth=2, seed=0)
        checked = 0
        for index, row in enumerate(model._tables["interest"]):
            neighbours = graph.interest_neighbors(index)
            if len(neighbours) >= 4:
                for entity in set(row.tolist()):
                    assert (row.tolist().count(entity)
                            <= neighbours.count(entity))
                checked += 1
        assert checked > 100

    def test_isolated_entity_row_is_itself(self):
        lonely = HeterogeneousGraph()
        lonely.add_entity("paper", "alone")
        model = NPRecModel(lonely, {"alone": np.ones(10)}, dim=8,
                           neighbor_k=3, depth=2, seed=0)
        for view in ("interest", "influence"):
            assert model._tables[view].tolist() == [[0, 0, 0]]
            assert np.all(model._fields(np.asarray([0]), view) == 0)

    def test_attach_draws_rows_from_the_same_function(self):
        corpus = load_acm(scale=0.2, seed=50)
        train, new = corpus.split_by_year(2014)
        graph = build_academic_network(
            corpus, papers=train, citation_whitelist={p.id for p in train})
        text = {p.id: np.full(10, 0.1) for p in train + new}
        model = NPRecModel(graph, text, dim=8, neighbor_k=3, depth=2, seed=6)
        before = dict(model._tables)
        copies = {view: table.copy() for view, table in before.items()}
        buffers = []
        for paper in new[:3]:
            old_n = graph.num_entities
            index = attach_paper_to_network(graph, paper)
            model.attach_paper(index, text_vector=text[paper.id])
            fresh = np.arange(old_n, graph.num_entities)
            for view, graph_view in (("interest", "interest"),
                                     ("influence", "two_way")):
                assert np.array_equal(
                    model._tables[view][fresh],
                    neighbour_table(graph, 3, graph_view, model.table_seed,
                                    fresh))
            buffers.append(model._tables["interest"].base)
        n = graph.num_entities
        for view, table in copies.items():
            assert model._tables[view].shape == (n, 3)
            # Rows drawn at fit time stay, and a reader of the old array
            # sees it unchanged.
            assert np.array_equal(model._tables[view][:table.shape[0]], table)
            assert np.array_equal(before[view], table)
        # Capacity doubling: one buffer serves every later attach.
        assert buffers[0] is buffers[1] is buffers[2]
        assert model.embeddings.weight.data.shape == (n, 8)
        assert model._nonpaper_mask.shape == (n,)
        assert model._text_matrix.shape == (n, 10)

    def test_reverse_registration_order_is_bit_identical(self,
                                                         graph_and_text):
        # 20 users' interest rows, computed in order on one model and in
        # reverse order on another: a row depends on its own fields only.
        graph, text, content, train, _ = graph_and_text
        users = [[p.id for p in train[3 * u:3 * u + 4]] for u in range(20)]
        forward, backward = (NPRecModel(graph, text, dim=8, neighbor_k=4,
                                        depth=2, content_vectors=content,
                                        seed=11) for _ in range(2))
        with no_grad():
            rows = [forward.interest_vectors(ids).data for ids in users]
            reversed_rows = [backward.interest_vectors(ids).data
                             for ids in users[::-1]][::-1]
        for got, want in zip(reversed_rows, rows):
            assert got.tobytes() == want.tobytes()

    def test_loaded_tables_are_used_as_given(self, graph_and_text,
                                             monkeypatch):
        graph, text, _, train, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=3, depth=2, seed=4)
        monkeypatch.setattr("repro.core.nprec.model.neighbour_table",
                            lambda *args: pytest.fail("drew a table"))
        loaded = NPRecModel(graph, text, dim=8, neighbor_k=3, depth=2,
                            seed=0, neighbour_tables=model._tables)
        loaded.load_state_dict(model.state_dict())
        ids = [p.id for p in train[:5]]
        assert np.array_equal(loaded.score_pairs(ids, ids[::-1]).data,
                              model.score_pairs(ids, ids[::-1]).data)
        with pytest.raises(ValueError, match="neighbour tables do not match"):
            NPRecModel(graph, text, dim=8, neighbor_k=4, depth=2, seed=0,
                       neighbour_tables=model._tables)


def _forward_backward(model, fn, *args):
    """``fn(model, *args)`` and every parameter's gradient of a fixed
    random weighting of it."""
    model.zero_grad()
    out = fn(model, *args)
    weights = np.random.default_rng(1).normal(size=out.shape)
    (out * weights).sum().backward()
    return out.data, {name: p.grad for name, p in model.named_parameters()}


def _full_row_logits(model, citing, cited):
    """The reference Eq. 22 training logit: the inner product of the
    interest and influence rows through autograd, with the raw content
    rows in place of their sketch block (the layout the rows had while
    ranking scored the exact prior), plus the influence head and the
    score bias."""
    interest = model.interest_vectors(citing)
    influence = model.influence_vectors(cited)
    head = model.influence_head(influence[:, :model._head_dim]).reshape(-1)
    content = model.content_matrix
    if content is None:
        return (interest * influence).sum(axis=1) + head + model.score_bias
    learned = interest.shape[1] - model.lexical_sketch.shape[1]
    rows = [Tensor(content[model._indices(ids)] * model.content_gate)
            for ids in (citing, cited)]
    return ((interest[:, :learned] * influence[:, :learned]).sum(axis=1)
            + (rows[0] * rows[1]).sum(axis=1) + head + model.score_bias)


class TestTrainingLogit:
    """score_pairs adds the raw lexical rows' constant prior outside the
    graph; values match the full-row logit within 1e-12 and every
    parameter gradient within 1e-10."""

    @pytest.mark.parametrize("with_content", [True, False])
    @pytest.mark.parametrize("use_text", [True, False])
    def test_matches_full_row_logit(self, graph_and_text, with_content,
                                    use_text):
        graph, text, content, train, new = graph_and_text
        citing = [p.id for p in train[:6]] + [train[0].id]
        cited = [p.id for p in train[6:10]] + [p.id for p in new[:3]]
        model = NPRecModel(graph, text if use_text else None, dim=8,
                           neighbor_k=3, depth=2, use_text=use_text,
                           block_gates=(0.3, 0.15, 0.1, 1.2, 0.8),
                           content_vectors=content if with_content else None,
                           seed=2)
        reference, reference_grads = _forward_backward(
            model, _full_row_logits, citing, cited)
        logits, grads = _forward_backward(
            model, NPRecModel.score_pairs, citing, cited)
        np.testing.assert_allclose(logits, reference, rtol=0, atol=1e-12)
        assert grads.keys() == reference_grads.keys()
        for name, grad in grads.items():
            expected = reference_grads[name]
            assert (grad is None) == (expected is None), name
            if grad is not None:
                np.testing.assert_allclose(grad, expected, rtol=1e-10,
                                           atol=1e-10 * np.abs(expected).max(),
                                           err_msg=name)
        if with_content:
            # The raw lexical term is far above the tolerance on every
            # pair, so a logit without it fails the match above.
            rows = [model.content_matrix[model._indices(ids)]
                    for ids in (citing, cited)]
            assert (rows[0] * rows[1]).sum(axis=1).min() > 1e-3

    def test_graph_leaves_out_the_raw_block(self, graph_and_text):
        graph, text, content, train, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=3, depth=1,
                           content_vectors=content, seed=0)
        ids = [p.id for p in train[:4]]
        widths, stack, seen = set(), [model.score_pairs(ids, ids[::-1])], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.requires_grad and node.data.ndim == 2:
                widths.add(node.data.shape[1])
            stack.extend(node._parents)
        # The widest recorded rows are the four learned blocks; the full
        # row (plus 20 raw content columns) is never recorded.
        assert max(widths) == 4 * 8


def _per_fold_aggregate(model, paper_indices, view):
    """The reference aggregation, composed from autograd primitives: every
    fold recomputes the centre and neighbour base vectors and the
    attention it needs, and each hop's rows gather the embedding table."""
    indices = np.asarray(paper_indices, dtype=int)
    batch, k, d = indices.shape[0], model.neighbor_k, model.dim
    fields = model._fields(indices, view)
    sizes = [k**h for h in range(model.depth + 1)]
    ends = np.cumsum(sizes)
    layers = [fields[:, end - size:end].reshape(-1)
              for size, end in zip(sizes, ends)]
    weight_stack = (model.interest_layers if view == "interest"
                    else model.influence_layers)

    def base_vectors(layer):
        base = (model.embeddings(layer)
                * Tensor(model._nonpaper_mask[layer][:, None]))
        if model.use_text:
            base = base + model.text_proj(Tensor(model._text_matrix[layer]))
        return base

    values = [base_vectors(layer) for layer in layers]
    for i in range(model.depth):
        folded = []
        for h in range(model.depth - i):
            centre_count = batch * k**h
            centre_base = base_vectors(layers[h])
            neigh_base = base_vectors(layers[h + 1])
            scores = (centre_base.reshape(centre_count, 1, d)
                      * neigh_base.reshape(centre_count, k, d)).sum(axis=2)
            attention = softmax(scores, axis=-1)
            neighbourhood = (attention.reshape(centre_count, k, 1)
                             * values[h + 1].reshape(centre_count, k, d)
                             ).sum(axis=1)
            folded.append(weight_stack[i](values[h] + neighbourhood).tanh())
        values = folded
    return values[0]


class TestAggregationEquivalence:
    """The fused gcn_aggregate op is the composed reference, reordered:
    values within 1e-12 and every parameter gradient within 1e-10."""

    def _check(self, model, indices, view, depth, use_text=True):
        indices = np.asarray(indices)
        reference, reference_grads = _forward_backward(
            model, _per_fold_aggregate, indices, view)
        out, grads = _forward_backward(
            model, NPRecModel._aggregate, indices, view)
        np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12)
        assert grads.keys() == reference_grads.keys()
        touched = 0
        for name, grad in grads.items():
            expected = reference_grads[name]
            assert (grad is None) == (expected is None), name
            if grad is not None:
                touched += 1
                np.testing.assert_allclose(grad, expected, rtol=1e-10,
                                           atol=1e-10 * np.abs(expected).max(),
                                           err_msg=name)
        # embeddings, text_proj and every layer of the view's stack
        assert touched == int(use_text) + 1 + 2 * depth

    @pytest.mark.parametrize("view", ["interest", "influence"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_per_fold_reference(self, graph_and_text, view, depth):
        graph, text, _, train, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=3, depth=depth,
                           influence_citations=True, seed=depth)
        indices = [graph.index_of("paper", p.id) for p in train[:6]]
        # A repeated centre shares its rows with its first occurrence.
        self._check(model, indices + indices[:2], view, depth)

    @pytest.mark.parametrize("view", ["interest", "influence"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_reference_without_text(self, graph_and_text, view,
                                            depth):
        graph, _, _, train, _ = graph_and_text
        model = NPRecModel(graph, None, dim=8, neighbor_k=3, depth=depth,
                           use_text=False, influence_citations=True,
                           seed=depth)
        indices = [graph.index_of("paper", p.id) for p in train[:6]]
        self._check(model, indices, view, depth, use_text=False)

    @pytest.mark.parametrize("view", ["interest", "influence"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_reference_for_a_batch_of_one(self, graph_and_text,
                                                  view, depth):
        # The ingest case: one new paper's rows.
        graph, text, _, _, new = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=3, depth=depth,
                           seed=depth)
        self._check(model, [graph.index_of("paper", new[0].id)], view, depth)

    def test_no_grad_forward_matches(self, graph_and_text):
        graph, text, _, train, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=3, depth=2, seed=0)
        indices = np.asarray([graph.index_of("paper", p.id)
                              for p in train[:4]])
        recorded = model._aggregate(indices, "influence")
        with no_grad():
            plain = model._aggregate(indices, "influence")
        assert plain._parents == () and not plain.requires_grad
        assert np.array_equal(plain.data, recorded.data)

    def test_rejects_fields_of_the_wrong_width(self, graph_and_text):
        graph, text, _, train, _ = graph_and_text
        model = NPRecModel(graph, text, dim=8, neighbor_k=3, depth=2, seed=0)
        layer = model.interest_layers[0]
        with pytest.raises(ValueError, match="needs 13"):
            gcn_aggregate(np.zeros((2, 12), dtype=int), 3,
                          model.embeddings.weight, model._nonpaper_mask,
                          [layer.weight] * 2, [layer.bias] * 2)


class _DenseRows:
    """Dense reference for the content store: the ``(n_entities, width)``
    matrix the model kept before the CSR layout, grown by ``vstack``."""

    def __init__(self, matrix):
        self.matrix = matrix

    def __getitem__(self, index):
        return self.matrix[index]

    def append(self, rows):
        block = np.zeros((len(rows), self.matrix.shape[1]))
        for i, row in enumerate(rows):
            if row is not None:
                block[i] = row
        self.matrix = np.vstack([self.matrix, block])


def _dense_content(graph, content):
    """The dense content block, built as the model built it before CSR."""
    sample = next(iter(content.values()))
    matrix = np.zeros((graph.num_entities, sample.shape[0]))
    for pid, vector in content.items():
        if ("paper", pid) in graph:
            norm = np.linalg.norm(vector)
            matrix[graph.index_of("paper", pid)] = (
                vector / norm if norm > 0 else vector)
    return matrix


class TestSparseContentEquivalence:
    """The CSR content store gathers exactly the dense block's rows, so
    every view and score is bit-identical to the dense model's."""

    WIDTH = 30

    @pytest.fixture
    def setup(self):
        corpus = load_acm(scale=0.2, seed=50)
        train, new = corpus.split_by_year(2014)
        held_out = new[-3:]
        papers = train + new[:-3]
        graph = build_academic_network(corpus, papers=papers,
                                       citation_whitelist={p.id for p in train})
        rng = np.random.default_rng(4)
        text = {p.id: rng.normal(size=10) for p in train + new}
        content = {}
        for p in train + new:
            row = np.abs(rng.normal(size=self.WIDTH))
            row[rng.random(self.WIDTH) < 0.8] = 0.0
            content[p.id] = row
        content[new[0].id] = np.zeros(self.WIDTH)  # an empty fit-time row
        content[held_out[0].id] = np.zeros(self.WIDTH)  # an empty ingest row
        sparse = NPRecModel(graph, text, dim=8, neighbor_k=3, depth=2,
                            content_vectors=content, seed=5)
        dense = NPRecModel(graph, text, dim=8, neighbor_k=3, depth=2,
                           content_vectors=content, seed=5)
        dense._content_matrix = _DenseRows(_dense_content(graph, content))
        return graph, text, content, train, new[:-3], held_out, sparse, dense

    @staticmethod
    def _assert_views_equal(sparse, dense, citing, cited):
        assert np.array_equal(sparse.interest_vectors(citing).data,
                              dense.interest_vectors(citing).data)
        assert np.array_equal(sparse.influence_vectors(cited).data,
                              dense.influence_vectors(cited).data)
        assert np.array_equal(sparse.score_pairs(citing, cited).data,
                              dense.score_pairs(citing, cited).data)

    def test_views_match_dense_model(self, setup):
        _, _, _, train, new, _, sparse, dense = setup
        citing = [p.id for p in train[:5]] + [new[0].id]
        cited = [p.id for p in new[:6]]
        self._assert_views_equal(sparse, dense, citing, cited)

    def test_views_match_after_attach(self, setup):
        graph, text, content, train, new, held_out, sparse, dense = setup
        novel = dataclasses.replace(
            held_out[2], id="novel-meta", authors=("author-never-seen",),
            keywords=("keyword-never-seen", "another-new-keyword"))
        content[novel.id] = content[held_out[2].id]
        text[novel.id] = text[held_out[2].id]
        added = []
        for paper in list(held_out[:2]) + [novel]:
            index = attach_paper_to_network(graph, paper)
            grown = [model.attach_paper(index, text_vector=text[paper.id],
                                        content_vector=content[paper.id])
                     for model in (sparse, dense)]
            assert grown[0] == grown[1]
            added.append(grown[0])
        assert added[-1] >= 4  # the paper, its new author and keywords
        n = graph.num_entities
        assert sparse.content_matrix.shape == (n, self.WIDTH)
        # The grown block is the one a fit on the grown graph would build.
        rebuilt = _dense_content(graph, content)
        assert np.array_equal(dense.content_matrix.matrix, rebuilt)
        assert np.array_equal(sparse.content_matrix[np.arange(n)], rebuilt)
        zero_row = graph.index_of("paper", held_out[0].id)
        assert not sparse.content_matrix[zero_row].any()
        attached = [p.id for p in held_out[:2]] + [novel.id]
        citing = [p.id for p in train[:3]] + attached
        cited = [p.id for p in new[:3]] + attached
        self._assert_views_equal(sparse, dense, citing, cited)

    def test_gather_matches_dense_rows(self, setup):
        graph, _, _, _, new, _, sparse, dense = setup
        store, matrix = sparse.content_matrix, dense.content_matrix.matrix
        paper = graph.index_of("paper", new[1].id)
        assert np.array_equal(store[paper], matrix[paper])
        assert store[paper].shape == (self.WIDTH,)
        repeated = np.array([paper, 0, paper, graph.num_entities - 1, paper])
        assert np.array_equal(store[repeated], matrix[repeated])
        metadata = np.array([i for i in range(graph.num_entities)
                             if graph.key_of(i).type != "paper"][:25])
        assert len(metadata) == 25
        assert np.array_equal(store[metadata], np.zeros((25, self.WIDTH)))
        empty = store[np.array([], dtype=int)]
        assert empty.shape == (0, self.WIDTH)
        assert np.array_equal(store[np.arange(graph.num_entities)], matrix)
        with pytest.raises(IndexError):
            store[graph.num_entities]

    def test_shape_and_nbytes(self, setup):
        graph, *_, sparse, dense = setup
        store = sparse.content_matrix
        assert isinstance(store, ContentRows)
        assert store.shape == (graph.num_entities, self.WIDTH)
        nnz = int(np.count_nonzero(dense.content_matrix.matrix))
        assert len(store.data) == len(store.indices) == nnz
        assert store.nbytes == (store.data.nbytes + store.indices.nbytes
                                + store.indptr.nbytes)
        assert store.nbytes < dense.content_matrix.matrix.nbytes
