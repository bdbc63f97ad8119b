"""Fixed-size neighbour tables for graph convolution.

NPRec (like KGCN) aggregates a fixed number of neighbours K per node per
hop. Each (view, entity) gets one fixed row of K neighbour indices, the
layout of KGCN's ``adj_entity`` array, and a receptive field is a gather
over the table. Every random word is a counter-based hash of (seed,
view, entity, counter), so a row depends only on those keys and the
entity's neighbour list, never on which rows were drawn before it.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from repro.graph.hetero import HeterogeneousGraph
from repro.utils.validation import check_positive

_VIEWS = ("interest", "influence", "two_way", "all")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _hash(*words) -> np.ndarray:
    """splitmix64 folded over *words* (non-negative ints or int arrays):
    one uint64 per broadcast position."""
    arrays = np.broadcast_arrays(*[np.asarray(w, dtype=np.uint64)
                                   for w in words])
    x = np.full(arrays[0].shape, _GOLDEN, dtype=np.uint64)
    for word in arrays:
        x = x ^ word
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = (x ^ (x >> np.uint64(31))) + _GOLDEN
    return x


def neighbour_table(graph: HeterogeneousGraph, k: int, view: str, seed: int,
                    entities: Sequence[int] | np.ndarray | None = None
                    ) -> np.ndarray:
    """The ``(len(entities), k)`` neighbour rows of *entities* (default:
    all) under *view*: ``interest``, ``influence``, ``two_way`` or ``all``.

    An entity with at least ``k`` neighbours gets the ``k`` list positions
    with the smallest hash keys (no repeats), one with fewer gets ``k``
    hashed positions (with replacement), and one with none gets itself
    ``k`` times. A subset's rows equal the same rows of a full draw.
    """
    check_positive("k", k)
    if view not in _VIEWS:
        raise ValueError(f"view must be one of {_VIEWS}, got {view!r}")
    neighbours = getattr(graph, f"{view}_neighbors")
    entities = np.asarray(range(graph.num_entities) if entities is None
                          else entities, dtype=np.int64).reshape(-1)
    lists = [neighbours(int(entity)) for entity in entities]
    degree = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    flat = np.fromiter(chain.from_iterable(lists), dtype=np.int64,
                       count=int(degree.sum()))
    starts = np.cumsum(degree) - degree
    code = _VIEWS.index(view)
    table = np.repeat(entities[:, None], k, axis=1)

    # Degree >= k: the k smallest keys in key order (a hashed shuffle).
    owner = np.repeat(np.arange(entities.size), degree)
    keys = _hash(seed, code, 0, entities[owner],
                 np.arange(flat.size) - starts[owner])
    order = np.lexsort((keys, owner))  # grouped by owner, keys ascending
    full = degree >= k
    table[full] = flat[order[starts[full][:, None] + np.arange(k)]]

    # 0 < degree < k: slot j takes a hashed position below the degree.
    few = np.flatnonzero((degree > 0) & ~full)
    picks = _hash(seed, code, 1, entities[few][:, None], np.arange(k))
    table[few] = flat[starts[few][:, None] + (
        picks % degree[few][:, None].astype(np.uint64)).astype(np.int64)]
    return table


def receptive_fields(table: np.ndarray, indices: Sequence[int] | np.ndarray,
                     hops: int) -> np.ndarray:
    """``(B, 1 + k + ... + k**hops)`` fields of *indices*: the centre, then
    hop ``h`` as the *table* rows of hop ``h - 1``'s entities, flattened
    (the layout :func:`repro.nn.gcn.gcn_aggregate` reads)."""
    check_positive("hops", hops)
    layers = [np.asarray(indices, dtype=np.int64).reshape(-1, 1)]
    for _ in range(hops):
        layers.append(table[layers[-1]].reshape(layers[0].shape[0], -1))
    return np.concatenate(layers, axis=1)
