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
from typing import Iterable, Sequence

import numpy as np

from repro.graph.hetero import HeterogeneousGraph
from repro.graph.sampling import sample_multi_hop
from repro.nn import Embedding, Linear, Module, Tensor, concat, l2_normalize, softmax
from repro.nn.tensor import parameter
from repro.utils.rng import as_generator

_VIEWS = ("interest", "influence")


def _unit_row(vector: np.ndarray) -> np.ndarray:
    """*vector* as float64 scaled to unit L2 norm (a zero row stays zero)."""
    vector = np.asarray(vector, dtype=np.float64)
    norm = np.linalg.norm(vector)
    return vector / norm if norm > 0 else vector


class ContentRows:
    """The static lexical-content block as a CSR row store.

    ``data``/``indices``/``indptr`` hold the non-zeros of an
    ``(n_rows, width)`` matrix row by row. Only paper rows can be non-zero
    and a TF-IDF row is sparse, so the dense block would be almost all
    zeros. Indexing with an int or an integer index array gathers the
    selected rows as a dense float64 array, equal to the same rows of the
    dense matrix; :meth:`take` gathers them as a store.

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
        self._extend(np.concatenate(values), np.concatenate(columns),
                     np.cumsum([len(c) for c in columns[1:]], dtype=np.int64))

    def extend(self, other: "ContentRows") -> None:
        """Append the rows of *other*, a store of the same width."""
        if other.width != self.width:
            raise ValueError(f"content rows of width {other.width}, "
                             f"expected {self.width}")
        lo, hi = other.indptr[0], other.indptr[-1]
        self._extend(other.data[lo:hi], other.indices[lo:hi],
                     other.indptr[1:] - lo)

    def _extend(self, values: np.ndarray, columns: np.ndarray,
                ends: np.ndarray) -> None:
        """Append rows given as their non-zeros and cumulative row ends."""
        ends = self.indptr[-1] + ends
        self.data = self._grow("data", values)
        self.indices = self._grow("indices", columns)
        self.indptr = self._grow("indptr", ends)

    def _grow(self, name: str, tail: np.ndarray) -> np.ndarray:
        """The array *name* followed by *tail*, written past its filled
        prefix in this store's spare buffer (doubled when full)."""
        prefix = getattr(self, name)
        n, m = prefix.shape[0], tail.shape[0]
        buffer = self._spare.get(name)
        if buffer is None or prefix.base is not buffer \
                or buffer.shape[0] < n + m:
            buffer = np.empty(max(2 * n, n + m), dtype=prefix.dtype)
            buffer[:n] = prefix
            self._spare[name] = buffer
        buffer[n:n + m] = tail
        return buffer[:n + m]

    def snapshot(self) -> "ContentRows":
        """A store over the current arrays; later appends do not show in it."""
        return ContentRows(self.data, self.indices, self.indptr, self.width)

    def dot(self, vector: np.ndarray) -> np.ndarray:
        """Every row's inner product with the dense *vector* (sparse)."""
        counts = np.diff(self.indptr)
        rows = np.repeat(np.arange(len(counts)), counts)
        return np.bincount(rows, weights=self.data * vector[self.indices],
                           minlength=len(counts))

    def _gather(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(positions in data/indices, per-row counts) of rows *flat*."""
        if flat.size and (flat.min() < 0 or flat.max() >= self.shape[0]):
            raise IndexError(f"content row index out of range "
                             f"for {self.shape[0]} rows")
        starts = self.indptr[flat]
        counts = self.indptr[flat + 1] - starts
        # Position of every gathered non-zero in data/indices: each row's
        # run starts at its indptr entry.
        offsets = np.cumsum(counts) - counts
        positions = np.repeat(starts - offsets, counts) + np.arange(counts.sum())
        return positions, counts

    def take(self, index: slice | np.ndarray) -> "ContentRows":
        """The rows at *index* (a unit-step slice or an integer array) as a
        new store; a slice shares this store's data and indices."""
        if isinstance(index, slice):
            start, stop, step = index.indices(self.shape[0])
            if step != 1:
                raise ValueError("take() needs a unit-step slice")
            stop = max(start, stop)
            lo, hi = self.indptr[start], self.indptr[stop]
            return ContentRows(self.data[lo:hi], self.indices[lo:hi],
                               self.indptr[start:stop + 1] - lo, self.width)
        positions, counts = self._gather(
            np.asarray(index, dtype=np.int64).reshape(-1))
        indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return ContentRows(self.data[positions], self.indices[positions],
                           indptr, self.width)

    def __getitem__(self, index: int | np.ndarray) -> np.ndarray:
        rows = np.asarray(index, dtype=np.int64)
        flat = rows.reshape(-1)
        positions, counts = self._gather(flat)
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
                 content_vectors: dict[str, np.ndarray] | ContentRows | None = None,
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
            # relevance, as JTIE's bilinear does), complementing the raw
            # cosine block above.
            self.content_proj = Linear(self._content_matrix.shape[1], dim,
                                       bias=False, rng=int(rng.integers(2**31)))

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

    def extra_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """The receptive fields sampled so far (``{view}_nodes`` and one
        ``(nodes, k**hop)`` matrix ``{view}_hop{hop}`` per hop) and the
        sampler's RNG state. Fields are drawn lazily, in the order training
        first visits each node, so resuming bit-identically needs both."""
        arrays: dict[str, np.ndarray] = {}
        for view in _VIEWS:
            keys = sorted(index for index, v in self._fields if v == view)
            arrays[f"{view}_nodes"] = np.asarray(keys, dtype=np.int64)
            for hop in range(self.depth + 1):
                rows = [self._fields[(index, view)][hop] for index in keys]
                arrays[f"{view}_hop{hop}"] = (
                    np.asarray(rows, dtype=np.int64) if rows
                    else np.zeros((0, self.neighbor_k ** hop), dtype=np.int64))
        return arrays, {"field_rng": self._field_rng.bit_generator.state}

    def load_extra_state(self, arrays: dict[str, np.ndarray],
                         meta: dict) -> None:
        fields: dict[tuple[int, str], list[np.ndarray]] = {}
        for view in _VIEWS:
            hops = [arrays[f"{view}_hop{hop}"] for hop in range(self.depth + 1)]
            for position, index in enumerate(arrays[f"{view}_nodes"]):
                fields[(int(index), view)] = [
                    hop_matrix[position].astype(int) for hop_matrix in hops]
        self._fields = fields
        self._field_rng.bit_generator.state = meta["field_rng"]
        self._layer_cache.clear()

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
    def content_matrix(self) -> ContentRows | None:
        """The static lexical-content rows (L2-normalised), or None.

        A :class:`ContentRows` CSR store over the entity rows: indexing it
        gathers dense rows; ``shape`` and ``nbytes`` are those of the store.
        """
        return self._content_matrix

    @property
    def content_columns(self) -> slice | None:
        """Columns of the raw content block in interest/influence rows, or
        None. It sits between the learned blocks before it and the trained
        content projection after it (see :meth:`_paper_vectors`)."""
        if self._content_matrix is None:
            return None
        return slice(self._head_dim, self._head_dim + self._content_matrix.width)

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
            content_rows: list[np.ndarray | None] = [None] * added
            content_rows[paper_index - old_n] = _unit_row(content_vector)
            self._content_matrix.append(content_rows)

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
