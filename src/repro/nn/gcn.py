"""NPRec's graph convolution (paper Eqs. 15-18) as one differentiable op.

:func:`gcn_aggregate` runs the whole H-hop aggregation of a batch of
sampled receptive fields with a hand-written backward. Composed from
:class:`~repro.nn.tensor.Tensor` primitives the same computation records
dozens of nodes per hop and scatters into the embedding table once per
hop; here each intermediate is computed once and the backward is a
fixed sequence of array products. ``tests/core/test_nprec_model_details``
keeps the composed version as the reference it is checked against.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn.tensor import Tensor


def gcn_aggregate(fields: np.ndarray, k: int, embedding: Tensor,
                  mask: np.ndarray, weights: Sequence[Tensor],
                  biases: Sequence[Tensor], text: np.ndarray | None = None,
                  text_weight: Tensor | None = None) -> Tensor:
    """H-hop attention aggregation of a batch of receptive fields.

    Parameters
    ----------
    fields:
        ``(B, 1 + k + ... + k**H)`` entity indices: row ``b`` holds the
        sampled receptive field of the batch's ``b``-th centre, hop by
        hop; hop ``h`` lists ``k`` neighbours of each hop ``h - 1`` node.
    k:
        Neighbours sampled per node.
    embedding:
        ``(N, d)`` entity embedding table.
    mask:
        ``(N,)`` constant row scale of the table (0 for entities that
        carry no id embedding).
    weights, biases:
        The ``H`` fold layers: ``(d, d)`` weights and ``(d,)`` biases.
    text, text_weight:
        Optional ``(N, t)`` constant text rows and their ``(d, t)``
        projection, added to the layer-0 rows.

    Returns
    -------
    The ``(B, d)`` aggregated centre vectors. Layer-0 rows are
    ``E[i] * mask[i] + T[i] @ W_text.T``, built once per distinct entity
    of the batch. Hop ``h`` attends over each node's ``k`` neighbours
    with ``softmax_j(v_h . v_{h+1,j})`` on the layer-0 rows (Eq. 16), and
    fold ``i`` replaces every remaining hop ``h`` by
    ``tanh((v_h + sum_j a_hj v_{h+1,j}) @ W_i.T + b_i)`` until only the
    centres remain.
    """
    depth = len(weights)
    batch, dim = fields.shape[0], embedding.shape[1]
    sizes = [k**h for h in range(depth + 1)]
    if fields.shape[1] != sum(sizes):
        raise ValueError(f"fields of width {fields.shape[1]}; depth {depth} "
                         f"with k={k} needs {sum(sizes)}")
    unique, inverse = np.unique(fields, return_inverse=True)
    inverse = inverse.reshape(fields.shape)
    ends = np.cumsum(sizes)
    rows = [inverse[:, end - size:end].reshape(-1)
            for size, end in zip(sizes, ends)]

    unique_mask = mask[unique][:, None]
    base_unique = embedding.data[unique] * unique_mask
    text_unique = None
    if text_weight is not None:
        text_unique = text[unique]
        base_unique = base_unique + text_unique @ text_weight.data.T
    base = [base_unique[r] for r in rows]

    attention: list[np.ndarray] = []
    for h in range(depth):
        centres = batch * sizes[h]
        scores = np.einsum("cd,ckd->ck", base[h],
                           base[h + 1].reshape(centres, k, dim))
        exps = np.exp(scores - scores.max(axis=1, keepdims=True))
        attention.append(exps / exps.sum(axis=1, keepdims=True))

    # levels[i] holds the per-hop values fold i reads; inputs[i] the
    # pre-projection sums it formed.
    levels = [base]
    inputs: list[list[np.ndarray]] = []
    for i in range(depth):
        weight, bias = weights[i].data, biases[i].data
        values, sums, folded = levels[-1], [], []
        for h in range(depth - i):
            centres = batch * sizes[h]
            neighbourhood = np.einsum("ck,ckd->cd", attention[h],
                                      values[h + 1].reshape(centres, k, dim))
            summed = values[h] + neighbourhood
            sums.append(summed)
            # tanh keeps representations zero-centred so that inner-
            # product scores can swing negative.
            folded.append(np.tanh(summed @ weight.T + bias))
        inputs.append(sums)
        levels.append(folded)

    parents = (embedding, *weights, *biases)
    if text_weight is not None:
        parents += (text_weight,)

    def make(out: Tensor) -> Callable[[], None]:
        def backward() -> None:
            grads = [out.grad]
            attention_grads = [np.zeros_like(a) for a in attention]
            for i in reversed(range(depth)):
                weight = weights[i].data
                values = levels[i]
                below = [np.zeros_like(v) for v in values]
                weight_grad = np.zeros_like(weight)
                bias_grad = np.zeros_like(biases[i].data)
                for h in range(depth - i):
                    centres = batch * sizes[h]
                    pre = grads[h] * (1.0 - levels[i + 1][h] ** 2)
                    weight_grad += pre.T @ inputs[i][h]
                    bias_grad += pre.sum(axis=0)
                    summed = pre @ weight
                    below[h] += summed
                    below[h + 1] += np.einsum(
                        "ck,cd->ckd", attention[h], summed
                    ).reshape(centres * k, dim)
                    attention_grads[h] += np.einsum(
                        "cd,ckd->ck", summed,
                        values[h + 1].reshape(centres, k, dim))
                if weights[i].requires_grad:
                    weights[i]._accumulate(weight_grad)
                if biases[i].requires_grad:
                    biases[i]._accumulate(bias_grad)
                grads = below
            # Softmax backward, then both dot-product operands (Eq. 16).
            for h in range(depth):
                centres = batch * sizes[h]
                a, ga = attention[h], attention_grads[h]
                score_grad = a * (ga - (a * ga).sum(axis=1, keepdims=True))
                grads[h] += np.einsum("ck,ckd->cd", score_grad,
                                      base[h + 1].reshape(centres, k, dim))
                grads[h + 1] += np.einsum("ck,cd->ckd", score_grad,
                                          base[h]).reshape(centres * k, dim)
            # One scatter of every hop's row gradients onto the distinct
            # entities: a bincount over (entity, column) cells.
            cells = (np.concatenate(rows)[:, None] * dim
                     + np.arange(dim)).reshape(-1)
            unique_grad = np.bincount(
                cells, weights=np.concatenate(grads).reshape(-1),
                minlength=unique.size * dim).reshape(unique.size, dim)
            if embedding.requires_grad:
                table_grad = np.zeros_like(embedding.data)
                table_grad[unique] = unique_grad * unique_mask
                embedding._accumulate(table_grad)
            if text_weight is not None and text_weight.requires_grad:
                text_weight._accumulate(unique_grad.T @ text_unique)

        return backward

    return Tensor._result(levels[-1][0], parents, make)
