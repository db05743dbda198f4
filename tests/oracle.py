"""Per-pair reference statement of the skip-gram SGD step.

:func:`pair_loss_and_gradients` is the pure, finite-difference-checked
loss and gradients of one (center, context) pair in either training mode.
No shipped code calls it: ``embedding.train`` does the same arithmetic in
its lean ``_softmax_steps`` and ``_sampling_steps`` loops, and the oracle
tests hold the two equal bit for bit.  Here the input and output matrices
are separate and each repeated negative's gradients are summed by
``np.add.at`` into a zeroed row.  The trainer keeps both matrices in one
(2V, D) buffer, input rows first; a negative_sampling step gathers its
center row and its k+1 output rows in one ``take`` and scatters them back
in one assignment, and it sums a repeated negative's gradients, each plus
0.0 as that zeroed row gives, in step order into the row's last copy,
which every copy then holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from trendlens.embedding import EmbeddingModel


class ContextPair(NamedTuple):
    center: int
    context: int


def softmax_output(scores: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over a score vector; sums to 1, all entries > 0."""
    u = np.asarray(scores, dtype=np.float64)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("scores must be a non-empty 1-D vector")
    if not np.all(np.isfinite(u)):
        raise ValueError("scores must be finite")
    shifted = u - u.max()
    e = np.exp(shifted)
    return e / e.sum()


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class PairGradients:
    """Gradients for the rows touched by one pair.

    ``output_rows`` are unique indices into the output matrix and
    ``output_grads`` the matching gradient rows (duplicates from repeated
    negatives are pre-accumulated).
    """

    center: int
    center_grad: np.ndarray
    output_rows: np.ndarray
    output_grads: np.ndarray


def pair_loss_and_gradients(
    model: EmbeddingModel,
    mode: str,
    pair: ContextPair,
    negatives: Sequence[int] | None = None,
) -> tuple[float, PairGradients]:
    """Loss and parameter gradients for one training pair in training ``mode``.

    In negative_sampling mode the caller supplies the drawn negative indices
    so the computation stays a pure function of its arguments (which is what
    makes finite-difference checking possible).
    """
    V = len(model.vocab)
    if not (0 <= pair.center < V and 0 <= pair.context < V):
        raise ValueError(f"pair {pair} out of vocabulary range [0, {V})")
    h = model.input_vectors[pair.center]

    if mode == "full_softmax":
        with np.errstate(over="ignore", invalid="ignore"):
            u = model.output_vectors @ h
        if not np.all(np.isfinite(u)):
            # exploded parameters; report an infinite loss so training aborts
            return float("inf"), PairGradients(
                pair.center,
                np.zeros(model.dim),
                np.empty(0, dtype=np.intp),
                np.empty((0, model.dim)),
            )
        m = u.max()
        loss = m + math.log(np.exp(u - m).sum()) - u[pair.context]
        e = softmax_output(u)
        e[pair.context] -= 1.0
        center_grad = model.output_vectors.T @ e
        grads = PairGradients(
            center=pair.center,
            center_grad=center_grad,
            output_rows=np.arange(V),
            output_grads=np.outer(e, h),
        )
        return float(loss), grads

    if negatives is None:
        raise ValueError("negative_sampling mode requires drawn negatives")
    rows = np.asarray([pair.context, *negatives], dtype=np.intp)
    u = model.output_vectors[rows] @ h
    # -log sigma(u_pos) - sum(-log sigma(-u_neg)), via the stable log1p(exp) form
    loss = float(np.logaddexp(0.0, -u[0]) + np.logaddexp(0.0, u[1:]).sum())
    g = _sigmoid(u)
    g[0] -= 1.0
    center_grad = g @ model.output_vectors[rows]
    unique_rows, inverse = np.unique(rows, return_inverse=True)
    acc = np.zeros((len(unique_rows), model.dim))
    np.add.at(acc, inverse, np.outer(g, h))
    grads = PairGradients(
        center=pair.center,
        center_grad=center_grad,
        output_rows=unique_rows,
        output_grads=acc,
    )
    return loss, grads
