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

Aggregation is the sampled fixed-size scheme of KGCN: each entity holds
one fixed row of K neighbours per view (drawn once from the model seed),
and attention weights are softmax-normalised dot products between the
centre's and neighbours' base embeddings (Eq. 16). The whole H-hop
aggregation is one hand-differentiated op,
:func:`repro.nn.gcn.gcn_aggregate`, for training and serving alike.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.graph.hetero import HeterogeneousGraph
from repro.graph.sampling import neighbour_table, receptive_fields
from repro.nn import (Embedding, Linear, Module, Tensor, concat, gcn_aggregate,
                      l2_normalize)
from repro.nn.tensor import parameter
from repro.utils.rng import as_generator

_VIEWS = ("interest", "influence")


def _sign_sketch(width: int, columns: int) -> np.ndarray:
    """The fixed ``(width, columns)`` matrix of random signs that sketches
    the lexical content rows into the ranking rows (see
    :meth:`NPRecModel._paper_vectors`).

    Entry ``(i, j)`` is the sign of one bit of the 64-bit finaliser of
    MurmurHash3 applied to ``i * columns + j``: pure integer arithmetic,
    so every numpy build, and every load of an artifact, computes the
    same matrix without drawing or storing it.
    """
    x = np.arange(width * columns, dtype=np.uint64)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xC4CEB9FE1A85EC53)
    x ^= x >> np.uint64(33)
    signs = 1.0 - 2.0 * (x & np.uint64(1)).astype(np.float64)
    return signs.reshape(width, columns)


def _unit_row(vector: np.ndarray) -> np.ndarray:
    """*vector* as float64 scaled to unit L2 norm (a zero row stays zero)."""
    vector = np.asarray(vector, dtype=np.float64)
    norm = np.linalg.norm(vector)
    return vector / norm if norm > 0 else vector


def _join(blocks: list[Tensor]) -> Tensor:
    """The column blocks of a row batch side by side."""
    return blocks[0] if len(blocks) == 1 else concat(blocks, axis=1)


def _append_rows(prefix: np.ndarray, tail: np.ndarray,
                 spare: dict[str, np.ndarray], name: str) -> np.ndarray:
    """*prefix* followed by the rows of *tail*, written past prefix's
    filled rows in the buffer ``spare[name]`` (doubled when full).

    A reader holding the old *prefix* keeps a consistent array: rows
    below its length are never written again.
    """
    n, m = prefix.shape[0], tail.shape[0]
    buffer = spare.get(name)
    if buffer is None or prefix.base is not buffer \
            or buffer.shape[0] < n + m:
        buffer = np.empty((max(2 * n, n + m),) + prefix.shape[1:],
                          dtype=prefix.dtype)
        buffer[:n] = prefix
        spare[name] = buffer
    buffer[n:n + m] = tail
    return buffer[:n + m]


class ContentRows:
    """The static lexical-content rows as a CSR store.

    ``data``/``indices``/``indptr`` hold the non-zeros of an
    ``(n_rows, width)`` matrix row by row. Only paper rows can be non-zero
    and a TF-IDF row is sparse, so the dense block would be almost all
    zeros. Indexing with an int or an integer index array gathers the
    selected rows as a dense float64 array, equal to the same rows of the
    dense matrix.

    Appends grow the store in place with capacity doubling: new entries
    are written past the filled prefix of spare buffers and the three
    arrays are rebound to the longer prefixes, so a reader holding the
    old arrays (see :meth:`snapshot`) keeps a consistent store.
    """

    def __init__(self, data: np.ndarray, indices: np.ndarray,
                 indptr: np.ndarray, width: int) -> None:
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.width = int(width)
        #: Spare-capacity buffers behind the three arrays, once grown.
        self._spare: dict[str, np.ndarray] = {}

    @classmethod
    def from_rows(cls, rows: Iterable[np.ndarray | None],
                  width: int) -> "ContentRows":
        """The store of dense *rows* (``None`` is an all-zero row); a 2-D
        array of rows is converted in one vectorised pass."""
        if isinstance(rows, np.ndarray):
            if rows.ndim != 2 or rows.shape[1] != width:
                raise ValueError(f"content rows of shape {rows.shape}, "
                                 f"expected (n, {width})")
            # flatnonzero of a boolean mask is much faster than nonzero
            # of the float rows; both give row-major order.
            row_of, columns = np.divmod(np.flatnonzero(rows != 0), width)
            indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
            np.cumsum(np.bincount(row_of, minlength=rows.shape[0]),
                      out=indptr[1:])
            return cls(rows[row_of, columns], columns.astype(np.int32),
                       indptr, width)
        store = cls(np.zeros(0), np.zeros(0, dtype=np.int32),
                    np.zeros(1, dtype=np.int64), width)
        store.append(rows)
        return store

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.indptr) - 1, self.width)

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def append(self, rows: Iterable[np.ndarray | None]) -> None:
        """Append dense *rows* (``None`` is an all-zero row)."""
        columns, values = [np.zeros(0, dtype=np.int32)], [np.zeros(0)]
        for row in rows:
            if row is None:
                row = np.zeros(0)
            elif row.shape != (self.width,):
                raise ValueError(f"content row of shape {row.shape}, "
                                 f"expected ({self.width},)")
            nonzero = np.flatnonzero(row)
            columns.append(nonzero.astype(np.int32))
            values.append(row[nonzero])
        ends = self.indptr[-1] + np.cumsum([len(c) for c in columns[1:]],
                                           dtype=np.int64)
        self.data = _append_rows(self.data, np.concatenate(values),
                                 self._spare, "data")
        self.indices = _append_rows(self.indices, np.concatenate(columns),
                                    self._spare, "indices")
        self.indptr = _append_rows(self.indptr, ends, self._spare, "indptr")

    def snapshot(self) -> "ContentRows":
        """A store over the current arrays; later appends do not show in it."""
        return ContentRows(self.data, self.indices, self.indptr, self.width)

    def dot(self, vector: np.ndarray) -> np.ndarray:
        """Every row's inner product with the dense *vector* (sparse)."""
        counts = np.diff(self.indptr)
        rows = np.repeat(np.arange(len(counts)), counts)
        return np.bincount(rows, weights=self.data * vector[self.indices],
                           minlength=len(counts))

    def __getitem__(self, index: int | np.ndarray) -> np.ndarray:
        rows = np.asarray(index, dtype=np.int64)
        flat = rows.reshape(-1)
        if flat.size and (flat.min() < 0 or flat.max() >= self.shape[0]):
            raise IndexError(f"content row index out of range "
                             f"for {self.shape[0]} rows")
        starts = self.indptr[flat]
        counts = self.indptr[flat + 1] - starts
        # Position of every gathered non-zero in data/indices: each row's
        # run starts at its indptr entry.
        offsets = np.cumsum(counts) - counts
        positions = np.repeat(starts - offsets, counts) + np.arange(counts.sum())
        out = np.zeros((flat.size, self.width))
        out[np.repeat(np.arange(flat.size), counts),
            self.indices[positions]] = self.data[positions]
        return out.reshape(rows.shape + (self.width,))


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
    content_vectors:
        Optional ``paper id -> lexical content row`` map (e.g. TF-IDF),
        stored L2-normalised in a :class:`ContentRows` store; or such a
        store itself, used as it is (the artifact load path).
    seed:
        Controls embedding init and the neighbour tables (``table_seed``).
    neighbour_tables:
        ``{view: (n_entities, neighbor_k) table}`` used as given (the
        artifact load path); drawn from the graph when None.
    """

    def __init__(self, graph: HeterogeneousGraph,
                 text_vectors: dict[str, np.ndarray] | None,
                 dim: int = 32, neighbor_k: int = 8, depth: int = 2,
                 use_text: bool = True, use_network: bool = True,
                 influence_citations: bool = False,
                 block_gates: tuple[float, ...] | None = None,
                 content_vectors: dict[str, np.ndarray] | ContentRows | None = None,
                 seed: int | np.random.Generator | None = 0,
                 neighbour_tables: dict[str, np.ndarray] | None = None) -> None:
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
        # Candidate-side head: a linear read-out of the influence
        # representation, independent of the user ("how citable is this
        # paper at all"). It is a term of the Eq. 22 training logit in
        # score_pairs only; neither the offline ranker (_rank) nor
        # serving applies it. Applied to the text and graph blocks.
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

        # Optional static lexical-content rows (e.g. TF-IDF), identical
        # on both views and pre-normalised. They feed the trained
        # projection below; score_pairs adds their exact gated cosine to
        # the training logit (a prior no parameter reaches), and the
        # ranking rows carry the same cosine through a dim-column random
        # sketch (DESIGN.md §7.7, §7.17).
        self._content_matrix: ContentRows | None = None
        self.content_gate = float(block_gates[3]) if len(block_gates) > 3 else 1.0
        self.content_trained_gate = (float(block_gates[4])
                                     if len(block_gates) > 4 else 0.5)
        if isinstance(content_vectors, ContentRows):
            self._content_matrix = content_vectors
        elif content_vectors is not None:
            rows: list[np.ndarray | None] = [None] * graph.num_entities
            for pid, vector in content_vectors.items():
                if ("paper", pid) in graph:
                    rows[graph.index_of("paper", pid)] = _unit_row(vector)
            width = next(iter(content_vectors.values())).shape[0]
            self._content_matrix = ContentRows.from_rows(rows, width)
        if self._content_matrix is not None:
            # Trained lexical projection: supervised metric learning on the
            # sparse content (learns which terms matter for citation
            # relevance, as JTIE's bilinear does); the "research contents"
            # part of the Eq. 22 correlation.
            self.content_proj = Linear(self._content_matrix.shape[1], dim,
                                       bias=False, rng=int(rng.integers(2**31)))
            # Fixed sign sketch of the content rows (no draw): the
            # ranking rows carry the raw lexical cosine through it.
            self.lexical_sketch = _sign_sketch(self._content_matrix.width, dim)

        # One fixed row of K neighbours per entity and view, so that an
        # entity's receptive field never depends on what was read before.
        self.table_seed = int(rng.integers(2**31))
        if neighbour_tables is None:
            neighbour_tables = {view: self._draw_rows(view, None)
                                for view in _VIEWS}
        self._tables = {view: np.asarray(neighbour_tables[view], np.int64)
                        for view in _VIEWS}
        if any(table.shape != (graph.num_entities, neighbor_k)
               for table in self._tables.values()):
            raise ValueError("neighbour tables do not match the graph's "
                             f"{graph.num_entities} entities and K={neighbor_k}")
        #: Spare-capacity buffers behind the per-entity arrays.
        self._spare: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Receptive fields
    # ------------------------------------------------------------------
    def _draw_rows(self, view: str, entities: np.ndarray | None) -> np.ndarray:
        """Table rows of *entities* (all when None) for *view*."""
        graph_view = view
        if view == "influence" and not self.influence_citations:
            graph_view = "two_way"
        return neighbour_table(self.graph, self.neighbor_k, graph_view,
                               self.table_seed, entities)

    def _fields(self, indices: np.ndarray, view: str) -> np.ndarray:
        """The ``(len(indices), 1 + K + ... + K^H)`` receptive-field rows
        of *indices* under *view*."""
        return receptive_fields(self._tables[view], indices, self.depth)

    def _aggregate(self, indices: np.ndarray, view: str) -> Tensor:
        """H-hop aggregation of *indices* under *view*: ``(B, dim)``."""
        layers = (self.interest_layers if view == "interest"
                  else self.influence_layers)
        return gcn_aggregate(
            self._fields(indices, view), self.neighbor_k,
            self.embeddings.weight, self._nonpaper_mask,
            [layer.weight for layer in layers],
            [layer.bias for layer in layers],
            text=self._text_matrix,
            text_weight=self.text_proj.weight if self.use_text else None)

    # ------------------------------------------------------------------
    # Public views
    # ------------------------------------------------------------------
    def interest_vectors(self, paper_ids: Sequence[str]) -> Tensor:
        """Interest representations v->_p (Eq. 19-20 + text concat)."""
        return self._paper_vectors(paper_ids, "interest")

    def influence_vectors(self, paper_ids: Sequence[str]) -> Tensor:
        """Influence representations v<-_q (Eq. 21 + text concat)."""
        return self._paper_vectors(paper_ids, "influence")

    def _indices(self, paper_ids: Sequence[str]) -> np.ndarray:
        return np.asarray([self.graph.index_of("paper", pid) for pid in paper_ids],
                          dtype=int)

    def _paper_vectors(self, paper_ids: Sequence[str], view: str) -> Tensor:
        """The gated learned blocks side by side (:meth:`_learned_blocks`),
        then, with content rows, the lexical sketch block.

        The sketch block is ``content_gate`` times the unit-normalised
        product of the raw content rows with :attr:`lexical_sketch`. Its
        inner product across two rows estimates the training prior
        ``content_gate**2 * <c_p, c_q>`` of :meth:`score_pairs` and is
        exact for two papers with the same text, in ``dim`` columns
        instead of the vocabulary's.
        """
        blocks, content_rows = self._learned_blocks(self._indices(paper_ids),
                                                    view)
        if content_rows is not None:
            sketch = content_rows @ self.lexical_sketch
            norms = np.linalg.norm(sketch, axis=1, keepdims=True)
            blocks.append(Tensor(sketch / np.where(norms > 0, norms, 1.0)
                                 * self.content_gate))
        return _join(blocks)

    def _learned_blocks(self, indices: np.ndarray,
                        view: str) -> tuple[list[Tensor], np.ndarray | None]:
        """The gated blocks that parameters reach (shared text, view text,
        graph, trained content projection, in that order) and the dense
        raw content rows gathered for the projection (None without a
        content block)."""
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
        content_rows = None
        if self._content_matrix is not None:
            content_rows = self._content_matrix[indices]
            trained = self.content_proj(Tensor(content_rows)).tanh()
            gated.append(l2_normalize(trained, axis=-1)
                         * self.content_trained_gate)
        return gated, content_rows

    def score_pairs(self, citing_ids: Sequence[str], cited_ids: Sequence[str]) -> Tensor:
        """Correlation logits ``y_hat(p, q)`` for aligned id lists (Eq. 22).

        The inner product of the interest and influence rows, plus the
        influence head and the score bias, plus, with content rows, the
        lexical prior ``content_gate**2 * <c_p, c_q>``. No parameter
        reaches that prior, so it is a constant per pair, computed
        without autograd from the content rows gathered for the trained
        projection. The rows that ranking scores
        (:meth:`NPRecRecommender._rank`, serving) carry the prior through
        their sketch block instead (:meth:`_paper_vectors`).
        """
        if len(citing_ids) != len(cited_ids):
            raise ValueError(
                f"{len(citing_ids)} citing ids but {len(cited_ids)} cited ids"
            )
        interest, citing_content = self._learned_blocks(
            self._indices(citing_ids), "interest")
        influence, cited_content = self._learned_blocks(
            self._indices(cited_ids), "influence")
        interest, influence = _join(interest), _join(influence)
        correlation = (interest * influence).sum(axis=1)
        if citing_content is not None:
            correlation = correlation + Tensor(
                self.content_gate**2
                * np.einsum("ij,ij->i", citing_content, cited_content))
        potential = self.influence_head(influence[:, :self._head_dim]).reshape(-1)
        return correlation + potential + self.score_bias

    @property
    def content_matrix(self) -> ContentRows | None:
        """The static lexical-content rows (L2-normalised), or None.

        A :class:`ContentRows` CSR store over the entity rows: indexing it
        gathers dense rows; ``shape`` and ``nbytes`` are those of the store.
        """
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
        text vector, its lexical content row and the new entities'
        neighbour-table rows — then imputes the
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
        table.data = _append_rows(table.data, np.zeros((added, self.dim)),
                                  self._spare, "embeddings")
        table.zero_grad()
        self.embeddings.num_embeddings = new_n

        mask = np.ones(added)
        mask[paper_index - old_n] = 0.0  # papers carry no id embedding
        self._nonpaper_mask = _append_rows(self._nonpaper_mask, mask,
                                           self._spare, "nonpaper_mask")

        if self.use_text:
            assert self._text_matrix is not None and text_vector is not None
            rows = np.zeros((added, self._text_matrix.shape[1]))
            rows[paper_index - old_n] = np.asarray(text_vector, dtype=np.float64)
            self._text_matrix = _append_rows(self._text_matrix, rows,
                                             self._spare, "text")
        if self._content_matrix is not None:
            assert content_vector is not None
            content_rows: list[np.ndarray | None] = [None] * added
            content_rows[paper_index - old_n] = _unit_row(content_vector)
            self._content_matrix.append(content_rows)

        entities = np.arange(old_n, new_n)
        for view in _VIEWS:
            self._tables[view] = _append_rows(
                self._tables[view], self._draw_rows(view, entities),
                self._spare, view)
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
