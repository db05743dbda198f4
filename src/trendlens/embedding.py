"""Skip-gram word embeddings trained from scratch with plain SGD.

The model keeps two (V x D) weight matrices: ``input_vectors`` holds the
word embeddings (the projection layer) and ``output_vectors`` holds the
context weights feeding the output layer.  Training keeps both in one
(2V x D) buffer, the input rows first; a run with no step keeps only the
input rows, and its output matrix is a read-only view of zeros.  For every
(center, context) pair the forward pass scores all vocabulary words with
the dot product u = output_vectors @ input_vectors[center], and training
minimizes the negative log probability of the observed context word under
either

* ``full_softmax``: y = softmax(u), loss = -log y[context].  Exact but
  O(V) per pair, so it is gated to small vocabularies.
* ``negative_sampling``: the k-negative logistic surrogate, with negative
  words drawn from the unigram^0.75 distribution.

Training is reproducible bit for bit from the seed.  ``tests/oracle.py``
holds the pure, finite-difference-checked statement of one SGD step, per
pair; the training loop is a lean form of it that skips the per-pair
objects and checks, and the oracle tests in ``tests/test_embedding.py``
hold the two equal bit for bit in both modes.  A negative_sampling step
gathers its center row and its k+1 output rows from the buffer in one
``take`` and scatters them back in one assignment; a negative drawn twice
in a step sums its copies' gradients in step order, as ``np.add.at`` does
in the oracle.
The pairs fill one int32 array and each epoch's int32 shuffle is walked in
fixed-size chunks, so memory is 12 bytes per pair plus one chunk's worth; a
run of zero epochs makes no pairs.  A chunk's negatives come from one
sampler call, and in negative_sampling mode its losses are taken together
at the chunk's end.  Divergence is checked in one place, the epoch loop: it
walks each chunk's losses in step order and stops at the first that is not
finite, so the reported epoch and step are the oracle's (steps after it in
its chunk change only weights that are thrown away).  Each epoch logs its
mean loss and pairs/s at INFO, and a WARNING when the mean loss rose from
the epoch before; a run with no step logs its pair count instead.
"""

from __future__ import annotations

import logging
import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .textprep import TokenStream, _replacing, _text_lines

__all__ = [
    "Vocabulary",
    "TrainConfig",
    "TRAIN_RANGES",
    "EmbeddingModel",
    "TrainingDiverged",
    "ModelFormatError",
    "build_vocab",
    "generate_pairs",
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
_LR_FLOOR_FRACTION = 1e-4
_NEGATIVE_POWER = 0.75
# pairs per chunk of an epoch's shuffle; at 2048 a fixture run's peak RSS rose by 0.35 MiB
_CHUNK_PAIRS = 1024
_FULL_SOFTMAX_CAP = 20_000
_MAX_PAIRS = np.iinfo(np.int32).max  # each epoch's shuffle indexes the pairs as int32
_SPARE_ROWS = 64  # dropped rows a partial load parses before checking them together

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


# each training value's rule: TrainConfig applies it on construction, and
# pipeline._check applies it once per settings source, naming the source
TRAIN_RANGES = dict(
    dim=(lambda v: v >= 1, ">= 1"),
    window=(lambda v: v >= 1, ">= 1"),
    epochs=(lambda v: v >= 0, ">= 0"),
    learning_rate=(lambda v: 0 < v < math.inf, "> 0 and finite"),  # an infinite rate can only diverge
    min_count=(lambda v: v >= 1, ">= 1"),
    mode=(lambda v: v in MODES, f"one of {', '.join(MODES)}"),
    negatives=(lambda v: v >= 1, ">= 1"),
    seed=(lambda v: v >= 0, ">= 0"),
)


@dataclass(frozen=True)
class TrainConfig:
    """Skip-gram training hyperparameters, each within its TRAIN_RANGES rule.

    ``epochs`` may be zero, which leaves the model at its initialization.
    ``full_softmax`` mode is refused above ``_FULL_SOFTMAX_CAP`` words
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

    def __post_init__(self):
        for key, (ok, rule) in TRAIN_RANGES.items():
            value = getattr(self, key)
            if not ok(value):
                raise ValueError(f"{key!r} must be {rule}, got {value!r}")


@dataclass
class EmbeddingModel:
    """Vocabulary plus the trained input/output weight matrices."""

    vocab: Vocabulary
    input_vectors: np.ndarray
    output_vectors: np.ndarray
    seed: int
    train_streams: int = 0
    train_tokens: int = 0
    file_words: int = 0  # the word count of the file load_model read, its rows kept or not

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


def generate_pairs(stream: TokenStream, vocab: Vocabulary, window: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """(center, context) index pairs within a fixed window, as an (n, 2)
    int32 array, or written into ``out`` (an (n, 2) int32 slice) and returned.

    Out-of-vocabulary tokens are removed before windowing, so surviving
    neighbors see each other across the gap.  Rows are ordered by center
    position, then context position, so the enumeration is deterministic.
    """
    if window < 1:
        raise ValueError("window must be positive")
    index = vocab.index
    ids = np.array([index[t] for t in stream.tokens if t in index], dtype=np.int32)
    reach = min(window, len(ids) - 1)
    offsets = np.array([d for d in range(-reach, reach + 1) if d], dtype=np.intp)
    positions = np.arange(len(ids))[:, None] + offsets  # context position per (center, offset)
    valid = (positions >= 0) & (positions < len(ids))
    centers = np.broadcast_to(ids[:, None], positions.shape)[valid]
    return np.stack([centers, ids[positions[valid]]], axis=1, out=out)


class UnigramSampler:
    """Draws negative words from the unigram^0.75 distribution."""

    def __init__(self, counts: Sequence[int]):
        weights = np.asarray(counts, dtype=np.float64) ** _NEGATIVE_POWER
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


def train(streams: Sequence[TokenStream], config: TrainConfig) -> EmbeddingModel:
    """Train a skip-gram model over tokenized streams.

    Input vectors start uniform in [-0.5/D, +0.5/D] from the seed, output
    vectors start at zero, and both are views of one (2V, D) buffer; with
    no step to train, the output is a read-only view of zeros and no buffer.
    When there is a step to train, the pairs fill
    one int32 array, each stream's rows sized from its in-vocabulary token
    count.  Each epoch shuffles all pairs (seeded) and the learning rate
    decays linearly to 1e-4 of its initial value.  Each epoch's shuffle is
    walked in chunks of at most ``_CHUNK_PAIRS``; a chunk's learning rates
    and negatives are made before its steps run, drawing from the generator
    in the oracle's order.
    :class:`TrainingDiverged` reports the first non-finite loss.
    """
    streams = list(streams)
    if not streams:
        raise ValueError("no token streams to train on")
    vocab = build_vocab(streams, config.min_count)
    V, D = len(vocab), config.dim
    if config.mode == "full_softmax" and V > _FULL_SOFTMAX_CAP:
        raise ValueError(f"full_softmax is limited to {_FULL_SOFTMAX_CAP} words "
                         f"(vocabulary has {V}); use negative_sampling")
    # n in-vocabulary tokens with reach w = min(window, n - 1) make w * (2n - w - 1) pairs
    kept = np.array([sum(map(vocab.index.__contains__, s.tokens)) for s in streams])
    reach = np.minimum(config.window, kept - 1)
    ends = np.cumsum(reach * (2 * kept - reach - 1)).tolist()
    n = ends[-1]
    if n > _MAX_PAIRS:
        raise ValueError(f"{n} training pairs exceed the int32 pair index's bound of {_MAX_PAIRS}")

    total_steps = config.epochs * n
    weights = np.zeros((2 * V, D)) if total_steps else np.empty((V, D))
    init = weights[:V]
    rng = np.random.default_rng(config.seed)
    rng.random(out=init)  # the values of rng.random((V, D))
    init -= 0.5  # in place, the same elementwise steps as (random - 0.5) / D
    init /= D
    model = EmbeddingModel(
        vocab=vocab,
        input_vectors=init,
        output_vectors=weights[V:] if total_steps else np.broadcast_to(np.float64(0.0), (V, D)),
        seed=config.seed,
        train_streams=len(streams),
        train_tokens=sum(len(s.tokens) for s in streams),
    )
    if total_steps == 0:  # nothing to train on, so no pair is made
        log.info("%d training pairs, %d epochs: the model keeps its initialization", n, config.epochs)
        return model
    pairs = np.empty((n, 2), dtype=np.int32)
    for s, a, b in zip(streams, [0] + ends, ends):
        generate_pairs(s, vocab, config.window, out=pairs[a:b])

    sampler = UnigramSampler(vocab.counts) if config.mode == "negative_sampling" else None
    step, previous = 0, math.inf
    # a diverging step overflows; its loss is checked below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            started, loss_sum = time.perf_counter(), 0.0
            perm = np.arange(n, dtype=np.int32)
            rng.shuffle(perm)  # rng.permutation(n)'s draws, in half its bytes
            for a in range(0, n, _CHUNK_PAIRS):
                chunk = pairs[perm[a:a + _CHUNK_PAIRS]]
                decay = 1.0 - np.arange(step, step + len(chunk)) / total_steps
                lrs = config.learning_rate * np.maximum(_LR_FLOOR_FRACTION, decay)
                contexts = chunk[:, 1].tolist()
                if sampler is None:
                    losses = _softmax_steps(model, chunk[:, 0].tolist(), contexts, lrs.tolist())
                else:
                    negatives = sampler.draw(rng, config.negatives, contexts)
                    losses = _sampling_steps(weights, V, chunk, negatives, lrs)
                for i, loss in enumerate(losses):  # in step order, as the oracle checks and sums them
                    if not math.isfinite(loss):
                        raise TrainingDiverged(epoch, step + i)
                    loss_sum += loss
                step += len(chunk)
            mean, seconds = loss_sum / n, time.perf_counter() - started
            log.info("epoch %d/%d: mean loss %.6f, %.0f pairs/s", epoch + 1, config.epochs,
                     mean, n / seconds if seconds > 0 else 0.0)
            if mean > previous:
                log.warning("epoch %d/%d: mean loss rose from %.6f to %.6f",
                            epoch + 1, config.epochs, previous, mean)
            previous = mean
    if _first_non_finite(weights) is not None:  # a last update can overflow after a finite loss
        raise TrainingDiverged(config.epochs - 1, total_steps - 1)
    return model


def _softmax_steps(model, centers, contexts, lrs) -> list[float]:
    """One chunk's full_softmax steps; returns their losses, ending with
    ``inf`` at the first step whose scores are not finite.

    A lean form of the per-pair oracle in ``tests/oracle.py`` and the SGD
    update: the same numpy operations on the same operands.  ``h`` views
    the center's input row, so every product reading it is taken before the
    row changes.
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


def _sampling_steps(weights, V, chunk, negatives, lrs) -> list[float]:
    """One chunk's negative_sampling steps, as :func:`_softmax_steps`, on
    the ``(2V, D)`` buffer ``weights`` (input rows, then output rows), with
    each pair's negatives in ``negatives`` and its learning rate in the
    float64 array ``lrs``.  The losses are taken together at the chunk's
    end, from each step's scores.

    A step gathers its center row and its context's and negatives' output
    rows into one block, takes every product from that copy, and subtracts
    lr times the block's gradient before scattering the block back.  A
    repeated negative sums its copies' gradients as ``np.add.at`` does in
    the oracle: 0.0 plus each copy's gradient in order, into the last copy,
    which every copy then holds, so the scatter writes one value per row.
    """
    m, k = negatives.shape
    ix = np.concatenate([chunk, negatives], axis=1)  # the center, then the rows it scores
    ix[:, 1:] += V
    # each step's pairs of consecutive copies of a negative, as block rows:
    # the stable sort keeps a row's copies in step order
    order = np.argsort(negatives, axis=1, kind="stable")
    steps, j = np.nonzero(np.diff(np.take_along_axis(negatives, order, axis=1), axis=1) == 0)
    links: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for i, a, b in zip(steps.tolist(), (order[steps, j] + 2).tolist(), (order[steps, j + 1] + 2).tolist()):
        links[i].append((a, b))
    scores = np.empty((m, k + 1))
    block, grad = np.empty((2, k + 2, weights.shape[1]))
    h, w, center_grad, grads = block[0], block[1:], grad[0], grad[1:]
    exps, ones, g = np.empty((2, k + 1)), np.ones(k + 1), np.empty(k + 1)
    low, high, g_col = exps[0], exps[1], g[:, None]
    for r, u, lr, link in zip(ix, scores, lrs, links):
        weights.take(r, 0, block, "clip")  # every index is in range; "raise" would copy through a buffer
        np.dot(w, h, out=u)
        # the sigmoid of tests/oracle.py without the masks: 1/(1+e^-u) for u >= 0, e^u/(1+e^u) below
        np.minimum(u, 0.0, out=low)
        np.copysign(u, -1.0, out=high)  # -|u|
        np.exp(exps, out=exps)
        np.add(ones, high, out=high)
        np.divide(low, high, out=g)
        g[0] -= 1.0
        np.dot(g, w, out=center_grad)
        np.multiply(g_col, h, out=grads)
        if link:
            np.add(grads, 0.0, out=grads)  # add.at's zeroed accumulator: -0.0 becomes 0.0
            for a, b in link:  # the running sum, in step order, into the last copy
                grad[b] += grad[a]
            for a, b in reversed(link):  # numpy does not say which copy a repeated index writes
                grad[a] = grad[b]
        np.multiply(grad, lr, out=grad)
        np.subtract(block, grad, out=block)
        weights[r] = block
    scores *= np.array([-1.0] + [1.0] * k)  # -log sigma(u_pos), -log sigma(-u_neg)
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


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    """Write the model's word vectors (its input matrix) as text; floats use
    shortest round-trip repr.  The output matrix is training state, which no
    reader needs, and is not stored."""
    with _replacing(path) as fh:
        fh.write(f"{_MAGIC} {_FORMAT_VERSION} {len(model.vocab)} {model.dim} {model.seed}\n")
        _write_rows(fh, model.vocab.words, model.input_vectors)


def _read_header(lines, path, magic: str, names: tuple[str, ...]) -> list[int]:
    """The integer fields ``names`` of a ``magic 1 ...`` header line."""
    header = next(lines, "").split()
    if header[:2] != [magic, _FORMAT_VERSION] or len(header) != 2 + len(names):
        raise ModelFormatError(
            f"{path}: bad header (expected '{magic} {_FORMAT_VERSION} {' '.join(names)}')"
        )
    try:
        return [int(v) for v in header[2:]]
    except ValueError:
        raise ModelFormatError(f"{path}: bad header ({', '.join(names)} must be integers)") from None


def _first_non_finite(rows: np.ndarray) -> int | None:
    """The index of the first row of ``rows`` holding a nan or inf, or None."""
    if not rows.size or (np.isfinite(rows.min()) and np.isfinite(rows.max())):  # nan and inf reach min or max
        return None
    return int(np.isfinite(rows).all(axis=1).argmin())


def _read_rows(text, n_rows, dim, path, block, what, keep=None):
    """The rows of a file's ``text`` lines after its header: ``n_rows``
    non-blank lines, each a label and ``dim`` finite floats ending with its
    line ending, and then no non-blank line; ``block`` and ``what`` name the
    block and the label kind in errors.  Assigning the strings to a float64
    row parses them exactly as float() does.  Returns the labels and matrix
    of the rows kept: all, or those labelled in the set ``keep``.
    Every row is checked, a dropped one in a small scratch block that is
    checked whenever it fills; a non-finite value fails after the loop, so a
    later row's syntax error comes first."""
    lines = (line for line in text if line.strip())
    kept, seen = [], {}  # the labels kept; every label in file order, with no row number (an int object each)
    matrix = np.empty((n_rows if keep is None else min(n_rows, len(keep)), dim))
    spare = np.empty((0 if keep is None else min(n_rows, _SPARE_ROWS), dim))
    dropped, bad = [], []  # the labels of the rows in spare; of rows found non-finite
    for n in range(n_rows):
        line = next(lines, "")
        if not line.endswith(("\n", "\r")):  # missing, or cut before its line ending
            raise ModelFormatError(f"{path}: unexpected end of file in {block} block")
        label, *values = line.split()
        if label in seen:
            raise ModelFormatError(f"{path}: duplicate {what} {label!r}")
        seen[label] = None
        if len(values) != dim:
            raise ModelFormatError(
                f"{path}: {what} {label!r}: expected {dim} values, got {len(values)}"
            )
        rows, taken = (matrix, kept) if keep is None or label in keep else (spare, dropped)
        try:
            rows[len(taken)] = values
        except ValueError:
            raise ModelFormatError(f"{path}: {what} {label!r}: malformed float") from None
        taken.append(label)
        if dropped and (len(dropped) == len(spare) or n == n_rows - 1):
            if (row := _first_non_finite(spare[:len(dropped)])) is not None:
                bad.append(dropped[row])
            dropped.clear()
    matrix = matrix[:len(kept)]
    if (row := _first_non_finite(matrix)) is not None:
        bad.append(kept[row])
    if bad:  # the first non-finite row in file order, kept or dropped
        first = next(label for label in seen if label in bad)
        raise ModelFormatError(f"{path}: {what} {first!r}: non-finite value")
    if (extra := next(lines, None)) is not None:
        raise ModelFormatError(f"{path}: unexpected extra line {extra.strip()!r}")
    return kept, matrix


def load_model(path: str | Path, words: Collection[str] | None = None) -> EmbeddingModel:
    """Read a model written by :func:`save_model`; vectors match bit for bit.
    Its output matrix is a read-only view of zeros.

    With the set ``words``, only their rows are kept, in file order, and
    the vocabulary lists only them; every row is still read and checked.
    """
    with open(path, "rb") as fh:  # decoded per line, so a bad byte fails naming its line
        text = _text_lines(fh, path, ModelFormatError)
        V, D, seed = _read_header(text, path, _MAGIC, ("V", "D", "seed"))
        if V < 1 or D < 1 or seed < 0:
            raise ModelFormatError(f"{path}: bad header (V={V}, D={D}, seed={seed})")
        kept, input_vectors = _read_rows(text, V, D, path, "input", "word", words)
        output_vectors = np.broadcast_to(np.float64(0.0), input_vectors.shape)  # read-only zeros, no buffer
    return EmbeddingModel(Vocabulary(tuple(kept)), input_vectors, output_vectors, seed, file_words=V)


def _keep_rows(model: EmbeddingModel, words: Collection[str]) -> EmbeddingModel:
    """A copy of ``model`` holding only the rows of ``words``, as
    ``load_model(path, words)`` keeps them: in vocabulary order, with
    read-only zero output rows and the word count of the model it came from."""
    rows = sorted(model.vocab.index[w] for w in words if w in model.vocab)
    vectors = model.input_vectors[rows]
    return EmbeddingModel(Vocabulary(tuple(model.vocab.words[i] for i in rows)), vectors,
                          np.broadcast_to(np.float64(0.0), vectors.shape), model.seed,
                          file_words=model.file_words or len(model.vocab))


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
    with _replacing(path) as fh:
        fh.write(f"{_DOCVEC_MAGIC} {_FORMAT_VERSION} {len(vectors)} {dim}\n")
        _write_rows(fh, vectors, vectors.values())


def load_document_vectors(path: str | Path) -> tuple[dict[str, np.ndarray], int]:
    """Read a file written by :func:`save_document_vectors`: the vectors
    keyed by doc id, and their dimension.  Rows get the checks of
    :func:`load_model`; D may be 0 only when N is 0."""
    with open(path, "rb") as fh:
        text = _text_lines(fh, path, ModelFormatError)
        n, dim = _read_header(text, path, _DOCVEC_MAGIC, ("N", "D"))
        if n < 0 or dim < (1 if n else 0):
            raise ModelFormatError(f"{path}: bad header (N={n}, D={dim})")
        doc_ids, matrix = _read_rows(text, n, dim, path, "document", "doc")
    return dict(zip(doc_ids, matrix)), dim
