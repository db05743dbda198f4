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
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

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
]

MODES = ("full_softmax", "negative_sampling")
_MAGIC = "trendlens-w2v"
_FORMAT_VERSION = "1"
_OUTPUT_MARKER = "#output"
_LR_FLOOR_FRACTION = 1e-4
_NEGATIVE_POWER = 0.75


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

    @property
    def size(self) -> int:
        return len(self.words)

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


def generate_pairs(stream: TokenStream, vocab: Vocabulary, window: int) -> list[ContextPair]:
    """Enumerate (center, context) index pairs within a fixed window.

    Out-of-vocabulary tokens are removed before windowing, so surviving
    neighbors see each other across the gap.  The window is fixed width,
    so the enumeration is deterministic.
    """
    if window < 1:
        raise ValueError("window must be positive")
    ids = [vocab.index[t] for t in stream.tokens if t in vocab.index]
    pairs: list[ContextPair] = []
    for i, center in enumerate(ids):
        lo = max(0, i - window)
        hi = min(len(ids), i + window + 1)
        for j in range(lo, hi):
            if j != i:
                pairs.append(ContextPair(center, ids[j]))
    return pairs


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

    def draw(self, rng: np.random.Generator, k: int, exclude: int) -> list[int]:
        """k draws, re-drawing any that hit ``exclude``; repeats are allowed."""
        if self._size < 2:
            raise ValueError("negative sampling needs a vocabulary of at least 2 words")
        out: list[int] = []
        while len(out) < k:
            idx = int(np.searchsorted(self._cum, rng.random(), side="right"))
            idx = min(idx, self._size - 1)
            if idx != exclude:
                out.append(idx)
        return out


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


def _apply(model: EmbeddingModel, grads: PairGradients, lr: float) -> None:
    model.input_vectors[grads.center] -= lr * grads.center_grad
    model.output_vectors[grads.output_rows] -= lr * grads.output_grads


def _all_pairs(streams: Sequence[TokenStream], vocab: Vocabulary, window: int) -> np.ndarray:
    pairs: list[ContextPair] = []
    for stream in streams:
        pairs.extend(generate_pairs(stream, vocab, window))
    if not pairs:
        return np.empty((0, 2), dtype=np.intp)
    return np.asarray(pairs, dtype=np.intp)


def train(streams: Sequence[TokenStream], config: TrainConfig) -> EmbeddingModel:
    """Train a skip-gram model over tokenized streams.

    Input vectors start uniform in [-0.5/D, +0.5/D] from the seed, output
    vectors start at zero.  Each epoch shuffles all pairs (seeded) and the
    learning rate decays linearly to 1e-4 of its initial value.  The run
    is fully deterministic.
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
    pairs = _all_pairs(streams, vocab, config.window)
    total_steps = config.epochs * len(pairs)
    if total_steps == 0:
        return model

    sampler = UnigramSampler(vocab.counts) if config.mode == "negative_sampling" else None
    _train_sequential(model, pairs, config, rng, sampler, total_steps)
    if not (np.all(np.isfinite(model.input_vectors)) and np.all(np.isfinite(model.output_vectors))):
        raise TrainingDiverged(config.epochs - 1, total_steps - 1)
    return model


def _lr_at(config: TrainConfig, step: int, total_steps: int) -> float:
    return config.learning_rate * max(_LR_FLOOR_FRACTION, 1.0 - step / total_steps)


def _train_sequential(model, pairs, config, rng, sampler, total_steps) -> None:
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(pairs))
        for idx in order:
            pair = ContextPair(int(pairs[idx, 0]), int(pairs[idx, 1]))
            negatives = (
                sampler.draw(rng, config.negatives, pair.context) if sampler is not None else None
            )
            loss, grads = pair_loss_and_gradients(model, pair, negatives)
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch, step)
            _apply(model, grads, _lr_at(config, step, total_steps))
            step += 1


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


def _format_row(label: str, row: np.ndarray) -> str:
    return label + " " + " ".join(repr(float(x)) for x in row) + "\n"


def save_model(model: EmbeddingModel, path: str | Path, full: bool = False) -> None:
    """Write the model as text; floats use shortest round-trip repr.

    By default only the input matrix (the word vectors) is stored; with
    ``full=True`` a second block carries the output matrix so training
    state survives the round trip.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_MAGIC} {_FORMAT_VERSION} {len(model.vocab)} {model.dim} {model.seed}\n")
        for word, row in zip(model.vocab.words, model.input_vectors):
            fh.write(_format_row(word, row))
        if full:
            fh.write(_OUTPUT_MARKER + "\n")
            for word, row in zip(model.vocab.words, model.output_vectors):
                fh.write(_format_row(word, row))


def _parse_rows(lines, n_rows, dim, path, what) -> tuple[list[str], np.ndarray]:
    words: list[str] = []
    matrix = np.empty((n_rows, dim))
    seen = set()
    for r in range(n_rows):
        try:
            line = next(lines)
        except StopIteration:
            raise ModelFormatError(f"{path}: unexpected end of file in {what} block") from None
        parts = line.split()
        if not parts:
            raise ModelFormatError(f"{path}: blank line in {what} block")
        word, values = parts[0], parts[1:]
        if word in seen:
            raise ModelFormatError(f"{path}: duplicate word {word!r}")
        seen.add(word)
        if len(values) != dim:
            raise ModelFormatError(
                f"{path}: word {word!r}: expected {dim} values, got {len(values)}"
            )
        try:
            matrix[r] = [float(v) for v in values]
        except ValueError:
            raise ModelFormatError(f"{path}: word {word!r}: malformed float") from None
        words.append(word)
    return words, matrix


def load_model(path: str | Path) -> EmbeddingModel:
    """Read a model written by :func:`save_model`; vectors match bit for bit."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != _MAGIC or header[1] != _FORMAT_VERSION:
            raise ModelFormatError(f"{path}: bad header (expected '{_MAGIC} {_FORMAT_VERSION} V D seed')")
        try:
            V, D, seed = int(header[2]), int(header[3]), int(header[4])
        except ValueError:
            raise ModelFormatError(f"{path}: bad header (V, D, seed must be integers)") from None
        if V < 1 or D < 1 or seed < 0:
            raise ModelFormatError(f"{path}: bad header (V={V}, D={D}, seed={seed})")
        lines = (line for line in fh if line.strip())
        words, input_vectors = _parse_rows(lines, V, D, path, "input")
        output_vectors = np.zeros((V, D))
        trailer = next(lines, None)
        if trailer is not None:
            if trailer.strip() != _OUTPUT_MARKER:
                raise ModelFormatError(f"{path}: unexpected extra line {trailer.strip()!r}")
            out_words, output_vectors = _parse_rows(lines, V, D, path, "output")
            if out_words != words:
                raise ModelFormatError(f"{path}: output block word order differs from input block")
            extra = next(lines, None)
            if extra is not None:
                raise ModelFormatError(f"{path}: unexpected extra line {extra.strip()!r}")
    return EmbeddingModel(
        vocab=Vocabulary(tuple(words)),
        input_vectors=input_vectors,
        output_vectors=output_vectors,
        config=None,
        seed=seed,
    )
