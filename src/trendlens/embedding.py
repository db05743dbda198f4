"""Skip-gram word embeddings trained from scratch with plain SGD.

The model keeps two (V x D) weight matrices: ``input_vectors`` holds the
word embeddings (the projection layer) and ``output_vectors`` holds the
context weights feeding the output layer.  For every (center, context)
pair the forward pass scores all vocabulary words with the dot product
u = output_vectors @ input_vectors[center], and training minimizes the
negative log probability of the observed context word under either

* ``full_softmax``: y = softmax(u), loss = -log y[context].  Exact but
  O(V) per pair, so it is gated to small vocabularies.
* ``negative_sampling``: the k-negative logistic surrogate, with negative
  words drawn from the unigram^0.75 distribution.

Training is reproducible bit for bit from the seed.
:func:`pair_loss_and_gradients` is the pure, finite-difference-checked
statement of one SGD step; the training loop is a lean form of it that
skips the per-pair objects and checks, and the oracle test in
``tests/test_embedding.py`` holds the two equal bit for bit in both modes.
The loop walks each epoch's shuffle in chunks of a fixed size, so its
memory is the pair array and the shuffle plus one chunk's worth.  A
chunk's negatives come from one sampler call, and in negative_sampling
mode its losses are taken together at the chunk's end.  Divergence is
checked in one place, the epoch loop: it walks each chunk's losses in
step order and stops at the first that is not finite, so the reported
epoch and step are the oracle's (steps after it in its chunk change only
weights that are thrown away).  Each epoch logs its mean loss and pairs/s
at INFO, and a WARNING when the mean loss rose from the epoch before.
"""

from __future__ import annotations

import logging
import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .textprep import TokenStream

__all__ = [
    "Vocabulary",
    "TrainConfig",
    "EmbeddingModel",
    "ContextPair",
    "PairGradients",
    "TrainingDiverged",
    "ModelFormatError",
    "build_vocab",
    "generate_pairs",
    "softmax_output",
    "pair_loss_and_gradients",
    "train",
    "cosine_similarity",
    "save_model",
    "load_model",
    "save_document_vectors",
    "load_document_vectors",
]

MODES = ("full_softmax", "negative_sampling")
_MAGIC = "trendlens-w2v"
_DOCVEC_MAGIC = "trendlens-docvec"
_FORMAT_VERSION = "1"
_OUTPUT_MARKER = "#output"
_LR_FLOOR_FRACTION = 1e-4
_NEGATIVE_POWER = 0.75
# pairs per chunk of an epoch's shuffle; at 2048 a fixture run's peak RSS rose by 0.35 MiB
_CHUNK_PAIRS = 1024

log = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; reports the epoch and global step."""

    def __init__(self, epoch: int, step: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}, step {step}")
        self.epoch = epoch
        self.step = step


class ModelFormatError(ValueError):
    """Malformed model or vector file."""


@dataclass(frozen=True)
class Vocabulary:
    """Retained tokens ordered by descending count, ties broken lexically."""

    words: tuple[str, ...]
    counts: tuple[int, ...] | None = None

    @cached_property
    def index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index


@dataclass(frozen=True)
class TrainConfig:
    """Skip-gram training hyperparameters.

    ``epochs`` may be zero, which leaves the model at its initialization.
    ``full_softmax`` mode is refused above ``full_softmax_cap`` words
    because its cost per pair is O(V).
    """

    dim: int = 300
    window: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_count: int = 2
    mode: str = "negative_sampling"
    negatives: int = 5
    seed: int = 1
    full_softmax_cap: int = 20_000

    def validate(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.min_count < 1:
            raise ValueError("min_count must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.negatives < 1:
            raise ValueError("negatives must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.full_softmax_cap < 1:
            raise ValueError("full_softmax_cap must be positive")


class ContextPair(NamedTuple):
    center: int
    context: int


@dataclass
class EmbeddingModel:
    """Vocabulary plus the trained input/output weight matrices."""

    vocab: Vocabulary
    input_vectors: np.ndarray
    output_vectors: np.ndarray
    config: TrainConfig | None
    seed: int
    train_streams: int = 0
    train_tokens: int = 0

    @property
    def dim(self) -> int:
        return int(self.input_vectors.shape[1])

    def __contains__(self, word: str) -> bool:
        return word in self.vocab

    def vector(self, word: str) -> np.ndarray:
        """The embedding row for ``word``; KeyError when out of vocabulary."""
        return self.input_vectors[self.vocab.index[word]]


def build_vocab(streams: Iterable[TokenStream], min_count: int) -> Vocabulary:
    """Count tokens across streams and retain those seen >= min_count times."""
    if min_count < 1:
        raise ValueError("min_count must be positive")
    counts = Counter()
    for stream in streams:
        counts.update(stream.tokens)
    retained = sorted(
        ((w, c) for w, c in counts.items() if c >= min_count),
        key=lambda wc: (-wc[1], wc[0]),
    )
    if not retained:
        raise ValueError(f"vocabulary is empty after min_count={min_count} filtering")
    words, kept_counts = zip(*retained)
    return Vocabulary(tuple(words), tuple(kept_counts))


def generate_pairs(stream: TokenStream, vocab: Vocabulary, window: int) -> np.ndarray:
    """(center, context) index pairs within a fixed window, as an (n, 2) array.

    Out-of-vocabulary tokens are removed before windowing, so surviving
    neighbors see each other across the gap.  Rows are ordered by center
    position, then context position, so the enumeration is deterministic.
    """
    if window < 1:
        raise ValueError("window must be positive")
    index = vocab.index
    ids = np.array([index[t] for t in stream.tokens if t in index], dtype=np.intp)
    reach = min(window, len(ids) - 1)
    offsets = np.array([d for d in range(-reach, reach + 1) if d], dtype=np.intp)
    positions = np.arange(len(ids))[:, None] + offsets  # context position per (center, offset)
    valid = (positions >= 0) & (positions < len(ids))
    centers = np.broadcast_to(ids[:, None], positions.shape)[valid]
    return np.stack([centers, ids[positions[valid]]], axis=1)


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


class UnigramSampler:
    """Draws negative words from the unigram^0.75 distribution."""

    def __init__(self, counts: Sequence[int], power: float = _NEGATIVE_POWER):
        weights = np.asarray(counts, dtype=np.float64) ** power
        self._cum = np.cumsum(weights / weights.sum())
        self._size = len(self._cum)

    def _sample(self, rng: np.random.Generator, n: int) -> list[int]:
        drawn = self._cum.searchsorted(rng.random(n), side="right")
        return np.minimum(drawn, self._size - 1).tolist()

    def draw(self, rng: np.random.Generator, k: int, contexts: Sequence[int]) -> np.ndarray:
        """k negatives for each pair's context, as a (len(contexts), k) array.

        A draw that hits its pair's context is re-drawn; repeats are
        allowed.  The pairs take the values in order, and a top-up draws
        exactly what the pairs left must still consume, so the generator
        advances as it would for one scalar draw at a time.
        """
        if self._size < 2:
            raise ValueError("negative sampling needs a vocabulary of at least 2 words")
        m = len(contexts)
        drawn, pos, out = self._sample(rng, m * k), 0, []
        for i, exclude in enumerate(contexts):
            row: list[int] = []
            while len(row) < k:
                if pos == len(drawn):  # at least what this pair and the ones after it still take
                    drawn, pos = self._sample(rng, k - len(row) + k * (m - 1 - i)), 0
                taken = drawn[pos:pos + k - len(row)]
                pos += len(taken)
                row += taken if exclude not in taken else [v for v in taken if v != exclude]
            out += row
        return np.array(out, dtype=np.intp).reshape(m, k)


def pair_loss_and_gradients(
    model: EmbeddingModel,
    pair: ContextPair,
    negatives: Sequence[int] | None = None,
) -> tuple[float, PairGradients]:
    """Loss and parameter gradients for one training pair.

    The mode comes from ``model.config``.  In negative_sampling mode the
    caller supplies the drawn negative indices so the computation stays a
    pure function of its arguments (which is what makes finite-difference
    checking possible).
    """
    if model.config is None:
        raise ValueError("model has no training configuration")
    V = len(model.vocab)
    if not (0 <= pair.center < V and 0 <= pair.context < V):
        raise ValueError(f"pair {pair} out of vocabulary range [0, {V})")
    h = model.input_vectors[pair.center]

    if model.config.mode == "full_softmax":
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


def train(streams: Sequence[TokenStream], config: TrainConfig) -> EmbeddingModel:
    """Train a skip-gram model over tokenized streams.

    Input vectors start uniform in [-0.5/D, +0.5/D] from the seed, output
    vectors start at zero.  Each epoch shuffles all pairs (seeded) and the
    learning rate decays linearly to 1e-4 of its initial value.  The run
    is fully deterministic.  Each epoch's shuffle is walked in chunks of at
    most ``_CHUNK_PAIRS``; a chunk's learning rates and negatives are made
    before its steps run, drawing from the generator in the oracle's order.
    :class:`TrainingDiverged` reports the first non-finite loss.
    """
    config.validate()
    streams = list(streams)
    if not streams:
        raise ValueError("no token streams to train on")
    vocab = build_vocab(streams, config.min_count)
    V, D = len(vocab), config.dim
    if config.mode == "full_softmax" and V > config.full_softmax_cap:
        raise ValueError(
            f"full_softmax is limited to {config.full_softmax_cap} words (vocabulary has {V}); "
            "use negative_sampling or raise full_softmax_cap"
        )

    rng = np.random.default_rng(config.seed)
    model = EmbeddingModel(
        vocab=vocab,
        input_vectors=(rng.random((V, D)) - 0.5) / D,
        output_vectors=np.zeros((V, D)),
        config=config,
        seed=config.seed,
        train_streams=len(streams),
        train_tokens=sum(len(s.tokens) for s in streams),
    )
    pairs = np.concatenate([generate_pairs(s, vocab, config.window) for s in streams])
    total_steps = config.epochs * len(pairs)
    if total_steps == 0:
        return model

    sampler = UnigramSampler(vocab.counts) if config.mode == "negative_sampling" else None
    n, step, previous = len(pairs), 0, math.inf
    # a diverging step overflows; its loss is checked below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            started, loss_sum = time.perf_counter(), 0.0
            perm = rng.permutation(n)
            for a in range(0, n, _CHUNK_PAIRS):
                chunk = pairs[perm[a:a + _CHUNK_PAIRS]]
                decay = 1.0 - np.arange(step, step + len(chunk)) / total_steps
                lrs = (config.learning_rate * np.maximum(_LR_FLOOR_FRACTION, decay)).tolist()
                centers, contexts = chunk.T.tolist()
                if sampler is None:
                    losses = _softmax_steps(model, centers, contexts, lrs)
                else:
                    negatives = sampler.draw(rng, config.negatives, contexts)
                    rows = np.concatenate([chunk[:, 1:], negatives], axis=1)
                    losses = _sampling_steps(model, centers, rows, lrs)
                for i, loss in enumerate(losses):  # in step order, as the oracle checks and sums them
                    if not math.isfinite(loss):
                        raise TrainingDiverged(epoch, step + i)
                    loss_sum += loss
                step += len(chunk)
            mean, seconds = loss_sum / n, time.perf_counter() - started
            log.info(
                "epoch %d/%d: mean loss %.6f, %.0f pairs/s",
                epoch + 1, config.epochs, mean, n / seconds if seconds > 0 else 0.0,
            )
            if mean > previous:
                log.warning("epoch %d/%d: mean loss rose from %.6f to %.6f",
                            epoch + 1, config.epochs, previous, mean)
            previous = mean
    if not (np.all(np.isfinite(model.input_vectors)) and np.all(np.isfinite(model.output_vectors))):
        raise TrainingDiverged(config.epochs - 1, total_steps - 1)
    return model


def _softmax_steps(model, centers, contexts, lrs) -> list[float]:
    """One chunk's full_softmax steps; returns their losses, ending with
    ``inf`` at the first step whose scores are not finite.

    A lean form of :func:`pair_loss_and_gradients` and the SGD update: the
    same numpy operations on the same operands.  ``h`` views the center's
    input row, so every product reading it is taken before the row changes.
    """
    inp, out, losses = model.input_vectors, model.output_vectors, []
    for center, context, lr in zip(centers, contexts, lrs):
        h = inp[center]
        u = out @ h
        if not np.isfinite(u).all():
            losses.append(math.inf)
            break
        m = u.max()
        e = np.exp(u - m)
        total = e.sum()
        losses.append(float(m + math.log(total) - u[context]))
        e /= total
        e[context] -= 1.0
        center_grad = out.T @ e
        out -= lr * (e[:, None] * h)  # the multiply np.outer(e, h) does
        h -= lr * center_grad
    return losses


def _sampling_steps(model, centers, rows, lrs) -> list[float]:
    """One chunk's negative_sampling steps, as :func:`_softmax_steps`, with
    each pair's context and negatives in ``rows``.  The losses are taken
    together at the chunk's end, from each step's scores."""
    inp, out = model.input_vectors, model.output_vectors
    # -log sigma(u_pos), -log sigma(-u_neg)
    signs = np.array([-1.0] + [1.0] * (rows.shape[1] - 1))
    scores = np.empty(rows.shape)
    ordered = np.sort(rows[:, 1:], axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1).tolist()
    for i, (center, r, repeat, lr) in enumerate(zip(centers, rows, repeats, lrs)):
        h = inp[center]
        w = out.take(r, axis=0)
        u = w @ h
        scores[i] = u
        # _sigmoid without the masks: 1/(1+e^-u) for u >= 0, e^u/(1+e^u) below
        e = np.exp(-np.abs(u))
        g = np.exp(np.minimum(u, 0.0)) / (1.0 + e)
        g[0] -= 1.0
        center_grad = g @ w
        grads = g[:, None] * h
        if not repeat:
            out[r] = w - lr * grads
        else:  # a repeated negative accumulates its rows' updates, in np.unique's order
            r = r.tolist()
            unique = sorted(set(r))
            acc = np.zeros((len(unique), len(h)))
            np.add.at(acc, [unique.index(row) for row in r], grads)
            out[unique] -= lr * acc
        h -= lr * center_grad
    scores *= signs
    np.logaddexp(0.0, scores, out=scores)
    return (scores[:, 0] + scores[:, 1:].sum(axis=1)).tolist()


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Dot-product similarity normalized by both vector norms; in [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"vectors must share one dimension (got {a.shape} and {b.shape})")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine similarity is undefined for zero-norm vectors")
    return float(a @ b / (norm_a * norm_b))


def _write_rows(fh, labels: Iterable[str], matrix) -> None:
    """One ``label v1 .. vD`` line per row, floats in shortest round-trip repr."""
    for label, row in zip(labels, matrix):
        values = np.asarray(row, dtype=np.float64).tolist()
        fh.write(label + " " + " ".join(map(repr, values)) + "\n")


def save_model(model: EmbeddingModel, path: str | Path, full: bool = False) -> None:
    """Write the model as text; floats use shortest round-trip repr.

    By default only the input matrix (the word vectors) is stored; with
    ``full=True`` a second block carries the output matrix so training
    state survives the round trip.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_MAGIC} {_FORMAT_VERSION} {len(model.vocab)} {model.dim} {model.seed}\n")
        _write_rows(fh, model.vocab.words, model.input_vectors)
        if full:
            fh.write(_OUTPUT_MARKER + "\n")
            _write_rows(fh, model.vocab.words, model.output_vectors)


def _read_header(fh, path, magic: str, names: tuple[str, ...]) -> list[int]:
    """The integer fields ``names`` of a ``magic 1 ...`` header line."""
    header = fh.readline().split()
    if header[:2] != [magic, _FORMAT_VERSION] or len(header) != 2 + len(names):
        raise ModelFormatError(
            f"{path}: bad header (expected '{magic} {_FORMAT_VERSION} {' '.join(names)}')"
        )
    try:
        return [int(v) for v in header[2:]]
    except ValueError:
        raise ModelFormatError(f"{path}: bad header ({', '.join(names)} must be integers)") from None


def _read_rows(lines, n_rows, dim, path, block, what) -> tuple[list[str], np.ndarray]:
    """The next ``n_rows`` non-blank ``lines`` as labelled rows of ``dim``
    finite floats; ``block`` and ``what`` name the block and the label kind
    in errors.  Assigning the strings to a float64 row parses them exactly
    as float() does."""
    labels: list[str] = []
    matrix = np.empty((n_rows, dim))
    seen = set()
    for r in range(n_rows):
        try:
            label, *values = next(lines).split()
        except StopIteration:
            raise ModelFormatError(f"{path}: unexpected end of file in {block} block") from None
        if label in seen:
            raise ModelFormatError(f"{path}: duplicate {what} {label!r}")
        seen.add(label)
        if len(values) != dim:
            raise ModelFormatError(
                f"{path}: {what} {label!r}: expected {dim} values, got {len(values)}"
            )
        try:
            matrix[r] = values
        except ValueError:
            raise ModelFormatError(f"{path}: {what} {label!r}: malformed float") from None
        labels.append(label)
    _reject_non_finite(matrix, labels, path, what)
    return labels, matrix


def _reject_non_finite(matrix: np.ndarray, labels: Sequence[str], path, what: str) -> None:
    """Raise ModelFormatError naming the first row that holds a nan or inf.

    min and max propagate nan and reach any inf, so the common all-finite
    case costs two reductions and no temporary the size of the matrix.
    """
    if matrix.size == 0 or (np.isfinite(matrix.min()) and np.isfinite(matrix.max())):
        return
    row = int(np.isfinite(matrix).all(axis=1).argmin())
    raise ModelFormatError(f"{path}: {what} {labels[row]!r}: non-finite value")


def load_model(path: str | Path) -> EmbeddingModel:
    """Read a model written by :func:`save_model`; vectors match bit for bit."""
    with open(path, encoding="utf-8") as fh:
        V, D, seed = _read_header(fh, path, _MAGIC, ("V", "D", "seed"))
        if V < 1 or D < 1 or seed < 0:
            raise ModelFormatError(f"{path}: bad header (V={V}, D={D}, seed={seed})")
        lines = (line for line in fh if line.strip())
        words, input_vectors = _read_rows(lines, V, D, path, "input", "word")
        output_vectors = np.zeros((V, D))
        trailer = next(lines, None)
        if trailer is not None and trailer.strip() == _OUTPUT_MARKER:
            out_words, output_vectors = _read_rows(lines, V, D, path, "output", "word")
            if out_words != words:
                raise ModelFormatError(f"{path}: output block word order differs from input block")
            trailer = next(lines, None)
        if trailer is not None:
            raise ModelFormatError(f"{path}: unexpected extra line {trailer.strip()!r}")
    return EmbeddingModel(
        vocab=Vocabulary(tuple(words)),
        input_vectors=input_vectors,
        output_vectors=output_vectors,
        config=None,
        seed=seed,
    )


def save_document_vectors(vectors: Mapping[str, np.ndarray], path: str | Path) -> None:
    """Write doc-id-keyed vectors: a ``trendlens-docvec 1 N D`` header, then
    one ``doc_id v1 .. vD`` line per document, as :func:`save_model` does."""
    dims = {v.shape[-1] for v in vectors.values()}
    if len(dims) > 1 or 0 in dims:
        raise ValueError(f"document vectors need one positive dimension, got {sorted(dims)}")
    for doc_id in vectors:
        if any(ch.isspace() for ch in doc_id):
            raise ValueError(f"doc id {doc_id!r} contains whitespace; not representable")
    dim = dims.pop() if dims else 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_DOCVEC_MAGIC} {_FORMAT_VERSION} {len(vectors)} {dim}\n")
        _write_rows(fh, vectors, vectors.values())


def load_document_vectors(path: str | Path) -> tuple[dict[str, np.ndarray], int]:
    """Read a file written by :func:`save_document_vectors`: the vectors
    keyed by doc id, and their dimension.  Rows get the checks of
    :func:`load_model`; D may be 0 only when N is 0."""
    with open(path, encoding="utf-8") as fh:
        n, dim = _read_header(fh, path, _DOCVEC_MAGIC, ("N", "D"))
        if n < 0 or dim < (1 if n else 0):
            raise ModelFormatError(f"{path}: bad header (N={n}, D={dim})")
        lines = (line for line in fh if line.strip())
        doc_ids, matrix = _read_rows(lines, n, dim, path, "document", "doc")
        extra = next(lines, None)
        if extra is not None:
            raise ModelFormatError(f"{path}: unexpected extra line {extra.strip()!r}")
    return dict(zip(doc_ids, matrix)), dim
