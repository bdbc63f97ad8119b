"""The NPRec asymmetric graph-convolutional model (Sec. IV-A/B).

Every entity of the heterogeneous academic network holds a trainable base
embedding; papers additionally carry a fixed text vector (the attention-
fused SEM subspace embedding) passed through a trainable projection.

A paper's **interest** representation aggregates its two-way neighbours
plus the papers it cites; its **influence** representation aggregates its
two-way neighbours plus the papers citing it (Eqs. 19-21). The two views
use separate per-hop weight matrices — the asymmetry at the heart of the
paper. The correlation score is the inner product of p's interest vector
and q's influence vector (Eq. 22), trained with the cross-entropy loss of
Eq. 23 in :mod:`repro.core.nprec.trainer`.

Aggregation is the sampled fixed-size scheme of KGCN: each node draws K
neighbours per hop (resampled per model instance, deterministic by seed),
and attention weights are softmax-normalised dot products between the
centre's and neighbours' base embeddings (Eq. 16).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.graph.hetero import HeterogeneousGraph
from repro.graph.sampling import sample_multi_hop
from repro.nn import Embedding, Linear, Module, Tensor, concat, l2_normalize, softmax
from repro.nn.tensor import parameter
from repro.utils.rng import as_generator

_VIEWS = ("interest", "influence")


class NPRecModel(Module):
    """Asymmetric hetero-GCN scorer for paper pairs.

    Parameters
    ----------
    graph:
        The academic network (papers + metadata entities; citation edges
        only among historical papers).
    text_vectors:
        ``paper id -> fixed text vector`` map (SEM fused embeddings). May
        be ``None`` when ``use_text`` is False.
    dim:
        Base entity embedding width.
    neighbor_k:
        Neighbours sampled per hop (the K of Tab. VII).
    depth:
        Graph-convolution depth (the H of Tab. VIII).
    use_text / use_network:
        Ablation switches: NPRec+SC uses text only, NPRec+SN network only.
    seed:
        Controls embedding init and neighbourhood sampling.
    """

    #: Bound on the memoised batch receptive-field stacks (LRU): training
    #: shuffles batches every epoch, so an unbounded cache would retain
    #: one entry per distinct batch ever aggregated.
    LAYER_CACHE_SIZE = 128

    def __init__(self, graph: HeterogeneousGraph,
                 text_vectors: dict[str, np.ndarray] | None,
                 dim: int = 32, neighbor_k: int = 8, depth: int = 2,
                 use_text: bool = True, use_network: bool = True,
                 influence_citations: bool = False,
                 block_gates: tuple[float, ...] | None = None,
                 content_vectors: dict[str, np.ndarray] | None = None,
                 seed: int | np.random.Generator | None = 0) -> None:
        if not use_text and not use_network:
            raise ValueError("at least one of use_text/use_network must be enabled")
        if neighbor_k < 1 or depth < 1:
            raise ValueError("neighbor_k and depth must be >= 1")
        if use_text and text_vectors is None:
            raise ValueError("use_text=True requires text_vectors")
        rng = as_generator(seed)
        self.graph = graph
        self.dim = dim
        self.neighbor_k = neighbor_k
        self.depth = depth
        self.use_text = use_text
        self.use_network = use_network
        # In the recommendation setting candidates have no in-citations at
        # all, so training the influence view on citation neighbourhoods
        # would fit structure that can never exist at ranking time. The
        # default metadata-only influence view keeps the train and
        # cold-start distributions aligned; pass True for the analysis
        # setting of Sec. IV-H (historical papers with citation history).
        self.influence_citations = influence_citations
        # Small init: entities that never receive gradient (e.g. the year
        # nodes and novel keywords of new papers) stay near zero and so
        # contribute almost nothing to aggregation, instead of injecting
        # random noise into cold-start representations.
        self.embeddings = Embedding(graph.num_entities, dim, std=0.02,
                                    rng=int(rng.integers(2**31)))
        # Paper nodes are fully inductive: they carry no trainable id
        # embedding (their layer-0 vector is the projected text plus
        # aggregated metadata). An id embedding would let training
        # memorise (citing, cited) identities through the shared table —
        # perfect train accuracy, zero transfer to cold-start candidates.
        paper_mask = np.ones(graph.num_entities)
        for index in graph.entities_of_type("paper"):
            paper_mask[index] = 0.0
        self._nonpaper_mask = paper_mask
        if use_network:
            self.interest_layers = [
                Linear(dim, dim, rng=int(rng.integers(2**31))) for _ in range(depth)
            ]
            self.influence_layers = [
                Linear(dim, dim, rng=int(rng.integers(2**31))) for _ in range(depth)
            ]
        else:
            self.interest_layers = []
            self.influence_layers = []

        self._text_matrix: np.ndarray | None = None
        if use_text:
            assert text_vectors is not None
            sample = next(iter(text_vectors.values()))
            matrix = np.zeros((graph.num_entities, sample.shape[0]))
            for pid, vector in text_vectors.items():
                if ("paper", pid) in graph:
                    matrix[graph.index_of("paper", pid)] = vector
            self._text_matrix = matrix
            # Shared projection feeds layer-0 aggregation; the two view-
            # specific projections let interest matching (topic) and
            # influence prediction (novelty) read *different* directions
            # of the same text embedding — the text-level face of the
            # paper's asymmetric modelling.
            self.text_proj = Linear(sample.shape[0], dim, bias=False,
                                    rng=int(rng.integers(2**31)))
            self.text_proj_interest = Linear(sample.shape[0], dim, bias=False,
                                             rng=int(rng.integers(2**31)))
            self.text_proj_influence = Linear(sample.shape[0], dim, bias=False,
                                              rng=int(rng.integers(2**31)))

        # Global score bias: calibrates the positive rate under the
        # imbalanced pair labels of the de-fuzzing sampler.
        self.score_bias = parameter(np.zeros(1), name="score_bias")
        # Candidate-side potential-influence head: a linear read-out of the
        # influence representation, independent of the user. It learns
        # "how citable is this paper at all" — the paper's requirement
        # that recommendations balance relevance with potential influence
        # (Sec. IV-B). Applied to the learned blocks (not the static
        # lexical block).
        n_parts = (2 if use_text else 0) + (1 if use_network else 0)
        self._head_dim = n_parts * dim
        self.influence_head = Linear(self._head_dim, 1,
                                     rng=int(rng.integers(2**31)))
        # Per-block gates: each representation block (shared text, view
        # text, graph) is L2-normalised and scaled by a fixed gate so no
        # block dominates the inner-product score by raw magnitude alone.
        # The gates are *not* trained: the pair-classification objective
        # saturates long before it reflects ranking difficulty, so trained
        # gates drift toward whichever block separates the easy negatives.
        # Defaults were validated on held-out users (see DESIGN.md).
        if block_gates is None:
            block_gates = (1.0, 0.3, 0.15, 1.0)
        gates: list[float] = []
        if use_text:
            gates.extend([float(block_gates[0]), float(block_gates[1])])
        if use_network:
            gates.append(float(block_gates[2]) if use_text else float(block_gates[0]))
        self.block_gates = gates

        # Optional static lexical-content block (e.g. TF-IDF rows). It is
        # identical on both views, contributing a symmetric exact-term
        # similarity to the score — the "research contents" part of the
        # Eq. 22 correlation. Not trainable; rows are pre-normalised.
        self._content_matrix: np.ndarray | None = None
        self.content_gate = float(block_gates[3]) if len(block_gates) > 3 else 1.0
        self.content_trained_gate = (float(block_gates[4])
                                     if len(block_gates) > 4 else 0.5)
        if content_vectors is not None:
            sample = next(iter(content_vectors.values()))
            content = np.zeros((graph.num_entities, sample.shape[0]))
            for pid, vector in content_vectors.items():
                if ("paper", pid) in graph:
                    norm = np.linalg.norm(vector)
                    content[graph.index_of("paper", pid)] = (
                        vector / norm if norm > 0 else vector)
            self._content_matrix = content
            # Trained lexical projection: supervised metric learning on the
            # sparse content (learns which terms matter for citation
            # relevance, as JTIE's bilinear does), complementing the raw
            # cosine block above.
            self.content_proj = Linear(sample.shape[0], dim, bias=False,
                                       rng=int(rng.integers(2**31)))

        # Pre-sampled receptive fields per paper and view (deterministic).
        self._fields: dict[tuple[int, str], list[np.ndarray]] = {}
        self._field_rng = as_generator(int(rng.integers(2**31)))
        # Memoised per-batch receptive-field index stacks (see
        # _stacked_layers): repeated recommend.rank calls reuse the same
        # user/candidate batches, so the concatenation is paid once.
        self._layer_cache: OrderedDict[tuple[str, bytes], list[np.ndarray]] = \
            OrderedDict()

    # ------------------------------------------------------------------
    # Receptive fields
    # ------------------------------------------------------------------
    def _receptive_field(self, index: int, view: str) -> list[np.ndarray]:
        key = (index, view)
        field = self._fields.get(key)
        if field is None:
            sample_view = view
            if view == "influence" and not self.influence_citations:
                sample_view = "two_way"
            field = sample_multi_hop(self.graph, index, self.neighbor_k,
                                     self.depth, view=sample_view,
                                     rng=self._field_rng)
            self._fields[key] = field
        return field

    def _stacked_layers(self, indices: np.ndarray, view: str) -> list[np.ndarray]:
        """Concatenated per-hop receptive-field index arrays for a batch.

        The stack for a given (batch, view) is deterministic once the
        per-node fields are sampled, so it is memoised (LRU-bounded by
        :data:`LAYER_CACHE_SIZE`): repeated ``recommend.rank`` calls stop
        rebuilding the same index arrays on every query. Only integer
        index arrays are cached — embedding updates during training read
        through them, so cached entries never go stale.
        """
        key = (view, indices.tobytes())
        cached = self._layer_cache.get(key)
        if cached is not None:
            self._layer_cache.move_to_end(key)
            return cached
        layers = [np.concatenate([self._receptive_field(int(i), view)[h]
                                  for i in indices])
                  for h in range(self.depth + 1)]
        self._layer_cache[key] = layers
        while len(self._layer_cache) > self.LAYER_CACHE_SIZE:
            self._layer_cache.popitem(last=False)
        return layers

    # ------------------------------------------------------------------
    # Layer-0 vectors
    # ------------------------------------------------------------------
    def _base_vectors(self, indices: np.ndarray) -> Tensor:
        """Layer-0 vectors: id embedding for metadata entities, projected
        text for papers (papers carry no id embedding — see __init__)."""
        base = self.embeddings(indices) * Tensor(self._nonpaper_mask[indices][:, None])
        if self.use_text:
            assert self._text_matrix is not None
            text = Tensor(self._text_matrix[indices])
            base = base + self.text_proj(text)
        return base

    # ------------------------------------------------------------------
    # Graph convolution
    # ------------------------------------------------------------------
    def _aggregate(self, paper_indices: Sequence[int], view: str) -> Tensor:
        """H-hop aggregation of *paper_indices* under *view*: ``(B, dim)``.

        Standard KGCN layered iteration: hop ``h`` of the receptive field
        holds ``B * K^h`` node indices; each of the H iterations folds the
        outermost remaining hop into its centres with attention-weighted
        sums (Eqs. 15-18), until only the batch's own vectors remain.
        """
        indices = np.asarray(paper_indices, dtype=int)
        batch = indices.shape[0]
        k = self.neighbor_k
        d = self.dim
        layers = self._stacked_layers(indices, view)
        weight_stack = (self.interest_layers if view == "interest"
                        else self.influence_layers)

        base = [self._base_vectors(layer) for layer in layers]
        # Attention over sampled neighbours (Eq. 16); scores come from base
        # embeddings as in KGCN, so each hop's weights serve every fold.
        attention: list[Tensor] = []
        for h in range(self.depth):
            centre_count = batch * k**h
            scores = (base[h].reshape(centre_count, 1, d)
                      * base[h + 1].reshape(centre_count, k, d)).sum(axis=2)
            attention.append(softmax(scores, axis=-1).reshape(centre_count, k, 1))

        values = base
        for i in range(self.depth):
            layer_module = weight_stack[i]
            folded: list[Tensor] = []
            for h in range(self.depth - i):
                centre_count = batch * k**h
                neighbourhood = (attention[h]
                                 * values[h + 1].reshape(centre_count, k, d)
                                 ).sum(axis=1)                    # (C, d)
                # tanh keeps representations zero-centred so that inner-
                # product scores can swing negative (sigmoid outputs would
                # force every pair logit positive).
                folded.append(layer_module(values[h] + neighbourhood).tanh())
            values = folded
        return values[0]

    # ------------------------------------------------------------------
    # Public views
    # ------------------------------------------------------------------
    def interest_vectors(self, paper_ids: Sequence[str]) -> Tensor:
        """Interest representations v->_p (Eq. 19-20 + text concat)."""
        return self._paper_vectors(paper_ids, "interest")

    def influence_vectors(self, paper_ids: Sequence[str]) -> Tensor:
        """Influence representations v<-_q (Eq. 21 + text concat)."""
        return self._paper_vectors(paper_ids, "influence")

    def _paper_vectors(self, paper_ids: Sequence[str], view: str) -> Tensor:
        indices = np.asarray([self.graph.index_of("paper", pid) for pid in paper_ids],
                             dtype=int)
        parts: list[Tensor] = []
        if self.use_text:
            assert self._text_matrix is not None
            text = Tensor(self._text_matrix[indices])
            # Shared projection on both sides -> a symmetric similarity
            # term; view-specific projections -> the asymmetric term.
            projection = (self.text_proj_interest if view == "interest"
                          else self.text_proj_influence)
            parts.append(self.text_proj(text))
            parts.append(projection(text))
        if self.use_network:
            parts.append(self._aggregate(indices, view))
        gated = [l2_normalize(part, axis=-1) * gate
                 for part, gate in zip(parts, self.block_gates)]
        if self._content_matrix is not None:
            content_rows = Tensor(self._content_matrix[indices])
            gated.append(content_rows * self.content_gate)
            trained = self.content_proj(content_rows).tanh()
            gated.append(l2_normalize(trained, axis=-1)
                         * self.content_trained_gate)
        if len(gated) == 1:
            return gated[0]
        return concat(gated, axis=1)

    def score_pairs(self, citing_ids: Sequence[str], cited_ids: Sequence[str]) -> Tensor:
        """Correlation logits ``y_hat(p, q)`` for aligned id lists (Eq. 22)."""
        if len(citing_ids) != len(cited_ids):
            raise ValueError(
                f"{len(citing_ids)} citing ids but {len(cited_ids)} cited ids"
            )
        interest = self.interest_vectors(citing_ids)
        influence = self.influence_vectors(cited_ids)
        correlation = (interest * influence).sum(axis=1)
        potential = self.influence_head(influence[:, :self._head_dim]).reshape(-1)
        return correlation + potential + self.score_bias

    @property
    def content_matrix(self) -> np.ndarray | None:
        """The static lexical-content rows (L2-normalised), or None."""
        return self._content_matrix

    # ------------------------------------------------------------------
    # Cold-start induction
    # ------------------------------------------------------------------
    def attach_paper(self, paper_index: int,
                     text_vector: np.ndarray | None = None,
                     content_vector: np.ndarray | None = None) -> int:
        """Grow the model's entity tables after a paper joined the graph.

        The serving-time half of the Sec. IV-E cold-start path: the graph
        already holds the new paper node (see
        :func:`repro.graph.builder.attach_paper_to_network`); this method
        extends every per-entity array to the grown entity count — zero
        base embeddings for the new entities (matching the "stay near
        zero" design of untrained metadata nodes), the paper's fused SEM
        text vector, and its lexical content row — then imputes the
        paper's base embedding from its metadata neighbours exactly as
        :meth:`induct_new_papers` does at fit time. No training happens.

        Parameters
        ----------
        paper_index:
            The dense index the graph assigned to the new paper node.
        text_vector:
            Attention-fused SEM embedding (required when ``use_text``).
        content_vector:
            Lexical content row (required when the model carries a
            content block); stored L2-normalised like fit-time rows.

        Returns
        -------
        The number of new entity rows added (paper + novel metadata).
        """
        old_n = self.embeddings.num_embeddings
        new_n = self.graph.num_entities
        added = new_n - old_n
        if added <= 0 or paper_index < old_n or paper_index >= new_n:
            raise ValueError(
                f"paper_index {paper_index} is not a newly added entity "
                f"(entity count {old_n} -> {new_n})")
        if self.use_text and text_vector is None:
            raise ValueError("use_text=True requires a text_vector")
        if self._content_matrix is not None and content_vector is None:
            raise ValueError("model has a content block; content_vector required")

        table = self.embeddings.weight
        table.data = np.vstack([table.data, np.zeros((added, self.dim))])
        table.zero_grad()
        self.embeddings.num_embeddings = new_n

        mask = np.ones(added)
        mask[paper_index - old_n] = 0.0  # papers carry no id embedding
        self._nonpaper_mask = np.concatenate([self._nonpaper_mask, mask])

        if self.use_text:
            assert self._text_matrix is not None and text_vector is not None
            rows = np.zeros((added, self._text_matrix.shape[1]))
            rows[paper_index - old_n] = np.asarray(text_vector, dtype=np.float64)
            self._text_matrix = np.vstack([self._text_matrix, rows])
        if self._content_matrix is not None:
            assert content_vector is not None
            content = np.asarray(content_vector, dtype=np.float64)
            norm = np.linalg.norm(content)
            rows = np.zeros((added, self._content_matrix.shape[1]))
            rows[paper_index - old_n] = content / norm if norm > 0 else content
            self._content_matrix = np.vstack([self._content_matrix, rows])

        # Cached index stacks stay valid (indices are stable), but drop
        # them anyway so memory accounting follows the grown tables.
        self._layer_cache.clear()
        self.induct_new_papers([self.graph.key_of(paper_index).id])
        return added

    def induct_new_papers(self, paper_ids: Sequence[str]) -> int:
        """Impute base embeddings of unseen papers from metadata neighbours.

        New papers never appear in training pairs, so their id embeddings
        stay at initialisation. Replacing them with the mean of their
        two-way neighbours' trained embeddings (authors, venue, keywords,
        category, year) transfers learned structure to cold-start nodes.
        Returns the number of papers imputed.
        """
        table = self.embeddings.weight.data
        imputed = 0
        for pid in paper_ids:
            index = self.graph.index_of("paper", pid)
            neighbours = self.graph.two_way_neighbors(index)
            if not neighbours:
                continue
            table[index] = table[np.asarray(neighbours)].mean(axis=0)
            imputed += 1
        return imputed
