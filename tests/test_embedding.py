import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trendlens import cli, embedding
from trendlens.corpus import PatentDocument, load_corpus, save_corpus
from trendlens.embedding import (
    EmbeddingModel,
    ModelFormatError,
    TrainConfig,
    TrainingDiverged,
    UnigramSampler,
    Vocabulary,
    _LR_FLOOR_FRACTION,
    build_vocab,
    cosine_similarity,
    generate_pairs,
    load_document_vectors,
    load_model,
    save_document_vectors,
    save_model,
    train,
)
from trendlens.pipeline import _prep_streams, resolve_config
from trendlens.textprep import TokenStream

from oracle import ContextPair, pair_loss_and_gradients, softmax_output

FIXTURE = Path("src/trendlens/data/fixture")


def stream(doc_id, text):
    return TokenStream(doc_id, tuple(text.split()))


def tiny_model(V, D, seed=0):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(tuple(f"w{i}" for i in range(V)), tuple(int(c) for c in rng.integers(1, 9, V)))
    return EmbeddingModel(vocab, rng.normal(0, 0.5, (V, D)), rng.normal(0, 0.5, (V, D)), seed)


class TestBuildVocab:
    def test_min_count_filters(self):
        vocab = build_vocab([stream("a", "a b a"), stream("b", "a")], min_count=2)
        assert vocab.words == ("a",)
        assert vocab.counts == (3,)

    def test_min_count_one_keeps_all(self):
        vocab = build_vocab([stream("a", "a b a"), stream("b", "a")], min_count=1)
        assert vocab.words == ("a", "b")
        assert vocab.counts == (3, 1)

    def test_count_ties_break_lexicographically(self):
        vocab = build_vocab([stream("a", "y x y x")], min_count=1)
        assert vocab.words == ("x", "y")

    def test_empty_vocab_is_error(self):
        with pytest.raises(ValueError, match="empty"):
            build_vocab([stream("a", "a b")], min_count=5)

    def test_index_is_bijection(self):
        vocab = build_vocab([stream("a", "c a b a b a")], min_count=1)
        assert sorted(vocab.index.values()) == list(range(len(vocab)))
        assert all(vocab.words[i] == w for w, i in vocab.index.items())


class TestGeneratePairs:
    def test_window_one(self):
        vocab = build_vocab([stream("d", "a b c")], 1)
        pairs = generate_pairs(stream("d", "a b c"), vocab, window=1)
        named = [(vocab.words[c], vocab.words[x]) for c, x in pairs]
        assert named == [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]

    def test_window_covers_all(self):
        vocab = build_vocab([stream("d", "a b c")], 1)
        pairs = generate_pairs(stream("d", "a b c"), vocab, window=10)
        assert len(pairs) == 6  # all ordered pairs of distinct positions

    def test_out_of_vocab_removed_before_windowing(self):
        vocab = Vocabulary(("a", "b"), (1, 1))
        pairs = generate_pairs(stream("d", "a x b"), vocab, window=1)
        named = [(vocab.words[c], vocab.words[x]) for c, x in pairs]
        assert named == [("a", "b"), ("b", "a")]


def oracle_pairs(stream, vocab, window):
    """The per-pair double loop generate_pairs replaced: (center, context)
    tuples ordered by center position, then context position."""
    ids = [vocab.index[t] for t in stream.tokens if t in vocab.index]
    pairs = []
    for i, center in enumerate(ids):
        for j in range(max(0, i - window), min(len(ids), i + window + 1)):
            if j != i:
                pairs.append((center, ids[j]))
    return pairs


class TestGeneratePairsMatchesOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams(self, seed):
        rng = np.random.default_rng(seed)
        vocab = Vocabulary(tuple(f"w{i}" for i in range(8)), (1,) * 8)
        lexicon = list(vocab.words) + ["oov1", "oov2"]  # out-of-vocabulary gaps
        for length in (0, 1, 2, 3, 7, 20):
            tokens = tuple(rng.choice(lexicon, size=length))
            for window in (1, 2, 3, 5, length + 1, length + 10):
                s = TokenStream("d", tokens)
                pairs = generate_pairs(s, vocab, window)
                expected = oracle_pairs(s, vocab, window)
                assert pairs.shape == (len(expected), 2)
                assert pairs.dtype == np.int32
                assert pairs.tolist() == [list(p) for p in expected]
                # into a slice of a larger array: the same rows, the slice returned
                array = np.full((len(expected) + 3, 2), -1, dtype=np.int32)
                rows = array[1:len(expected) + 1]
                assert generate_pairs(s, vocab, window, out=rows) is rows
                assert rows.tolist() == pairs.tolist()
                assert (array[0] == -1).all() and (array[len(expected) + 1:] == -1).all()

    def test_all_out_of_vocabulary(self):
        vocab = Vocabulary(("a",), (1,))
        pairs = generate_pairs(stream("d", "x y z"), vocab, window=2)
        assert pairs.shape == (0, 2) and np.issubdtype(pairs.dtype, np.integer)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax_output(np.zeros(4)), [0.25] * 4)

    def test_hand_value(self):
        np.testing.assert_allclose(softmax_output(np.array([0.0, math.log(3)])), [0.25, 0.75])

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        u = rng.normal(0, 5, 64)
        np.testing.assert_allclose(softmax_output(u + 123.0), softmax_output(u), atol=1e-12)

    def test_large_scores_do_not_overflow(self):
        y = softmax_output(np.array([1e4, 1e4 - 700.0]))
        assert np.isfinite(y).all() and abs(y.sum() - 1) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax_output(np.array([1.0, np.inf]))


def dense_gradients(model, mode, pair, negatives):
    loss, grads = pair_loss_and_gradients(model, mode, pair, negatives)
    V, D = model.input_vectors.shape
    g_in = np.zeros((V, D))
    g_in[grads.center] = grads.center_grad
    g_out = np.zeros((V, D))
    g_out[grads.output_rows] = grads.output_grads
    return loss, g_in, g_out


def finite_difference(model, mode, pair, negatives, h=1e-5):
    V, D = model.input_vectors.shape
    out = []
    for matrix in (model.input_vectors, model.output_vectors):
        grad = np.zeros((V, D))
        for i in range(V):
            for j in range(D):
                original = matrix[i, j]
                matrix[i, j] = original + h
                plus = pair_loss_and_gradients(model, mode, pair, negatives)[0]
                matrix[i, j] = original - h
                minus = pair_loss_and_gradients(model, mode, pair, negatives)[0]
                matrix[i, j] = original
                grad[i, j] = (plus - minus) / (2 * h)
        out.append(grad)
    return out


def gradient_relative_error(model, mode, pair, negatives):
    _, a_in, a_out = dense_gradients(model, mode, pair, negatives)
    n_in, n_out = finite_difference(model, mode, pair, negatives)
    analytic = np.concatenate([a_in.ravel(), a_out.ravel()])
    numeric = np.concatenate([n_in.ravel(), n_out.ravel()])
    denom = max(np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / denom


class TestPairLoss:
    def test_zero_output_gives_uniform_loss(self):
        model = tiny_model(V=6, D=3)
        model.output_vectors[:] = 0.0
        loss, _ = pair_loss_and_gradients(model, "full_softmax", ContextPair(1, 4))
        assert loss == pytest.approx(math.log(6), abs=1e-12)

    @pytest.mark.parametrize("mode", ["full_softmax", "negative_sampling"])
    def test_gradients_match_finite_differences(self, mode):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            V, D = int(rng.integers(2, 11)), int(rng.integers(1, 6))
            model = tiny_model(V, D, seed=seed)
            pair = ContextPair(int(rng.integers(0, V)), int(rng.integers(0, V)))
            negatives = None
            if mode == "negative_sampling":
                negatives = UnigramSampler(model.vocab.counts).draw(rng, 3, [pair.context])[0]
            assert gradient_relative_error(model, mode, pair, negatives) < 1e-5

    @pytest.mark.parametrize("mode", ["full_softmax", "negative_sampling"])
    def test_sgd_step_decreases_loss(self, mode):
        model = tiny_model(V=5, D=3, seed=2)
        pair = ContextPair(0, 3)
        negatives = [1, 2, 4] if mode == "negative_sampling" else None
        before, grads = pair_loss_and_gradients(model, mode, pair, negatives)
        model.input_vectors[grads.center] -= 0.1 * grads.center_grad
        model.output_vectors[grads.output_rows] -= 0.1 * grads.output_grads
        after, _ = pair_loss_and_gradients(model, mode, pair, negatives)
        assert after < before

    def test_negative_sampling_requires_negatives(self):
        model = tiny_model(V=4, D=2)
        with pytest.raises(ValueError, match="negatives"):
            pair_loss_and_gradients(model, "negative_sampling", ContextPair(0, 1))

    def test_loss_non_negative(self):
        for seed in range(10):
            model = tiny_model(V=5, D=3, seed=seed)
            loss, _ = pair_loss_and_gradients(model, "full_softmax", ContextPair(seed % 5, (seed + 2) % 5))
            assert loss >= 0

    def test_duplicate_negatives_accumulate(self):
        model = tiny_model(V=5, D=3, seed=4)
        pair = ContextPair(0, 1)
        _, grads = pair_loss_and_gradients(model, "negative_sampling", pair, [2, 2, 3])
        assert sorted(grads.output_rows.tolist()) == grads.output_rows.tolist()
        assert len(grads.output_rows) == len(set(grads.output_rows.tolist()))
        # the doubled negative's gradient equals twice the single draw's
        _, single = pair_loss_and_gradients(model, "negative_sampling", pair, [2, 3])
        row2 = list(grads.output_rows).index(2)
        row2_single = list(single.output_rows).index(2)
        np.testing.assert_allclose(grads.output_grads[row2], 2 * single.output_grads[row2_single])


class TestSampler:
    def test_never_draws_excluded(self):
        sampler = UnigramSampler((5, 3, 2))
        rng = np.random.default_rng(0)
        draws = [sampler.draw(rng, 4, [1])[0] for _ in range(50)]
        assert all(1 not in d for d in draws)

    def test_deterministic_for_seed(self):
        sampler = UnigramSampler((5, 3, 2, 7))
        a = sampler.draw(np.random.default_rng(42), 10, [0]).tolist()
        b = sampler.draw(np.random.default_rng(42), 10, [0]).tolist()
        assert a == b

    @pytest.mark.parametrize("counts, exclude", [((5, 3, 2, 7), 3), ((1, 1), 0), ((50, 1, 1), 0)])
    def test_batched_draws_equal_scalar_draws(self, counts, exclude):
        sampler = UnigramSampler(counts)
        weights = np.asarray(counts, dtype=np.float64) ** 0.75
        cum = np.cumsum(weights / weights.sum())
        batched, scalar = np.random.default_rng(5), np.random.default_rng(5)
        for k in (1, 5, 5, 12, 3):
            assert sampler.draw(batched, k, [exclude])[0].tolist() == scalar_draw(cum, scalar, k, exclude)
            # interleaved shuffles see the generator in the same state
            assert batched.permutation(7).tolist() == scalar.permutation(7).tolist()
        # many contexts per call, most of them the excluded word's: rejections
        # force top-ups mid-call, and each pair excludes its own context
        contexts = [exclude if i % 3 else i % len(counts) for i in range(40)]
        for k in (1, 5, 12):
            drawn = sampler.draw(batched, k, contexts)
            assert drawn.shape == (len(contexts), k)
            assert drawn.tolist() == [scalar_draw(cum, scalar, k, c) for c in contexts]
            assert batched.permutation(7).tolist() == scalar.permutation(7).tolist()
        assert batched.bit_generator.state == scalar.bit_generator.state

    def test_tiny_vocab_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            UnigramSampler((3,)).draw(np.random.default_rng(0), 1, [0])


TWO_TOPIC_SEED = 11


def two_topic_streams(rng, sentences=60, words_per_topic=8, length=6):
    topic_a = [f"a{i:02d}" for i in range(words_per_topic)]
    topic_b = [f"b{i:02d}" for i in range(words_per_topic)]
    streams = []
    for s in range(sentences):
        words = topic_a if s % 2 == 0 else topic_b
        streams.append(TokenStream(f"s{s}", tuple(rng.choice(words, size=length))))
    return streams, topic_a, topic_b


def mean_cosines(model, topic_a, topic_b):
    va = np.array([model.vector(w) for w in topic_a if w in model])
    vb = np.array([model.vector(w) for w in topic_b if w in model])
    intra, inter = [], []
    both = [va, vb]
    for vs in both:
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                intra.append(cosine_similarity(vs[i], vs[j]))
    for x in va:
        for y in vb:
            inter.append(cosine_similarity(x, y))
    return float(np.mean(intra)), float(np.mean(inter))


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        streams = [stream("d", "a b c a b c")]
        config = TrainConfig(dim=4, window=2, epochs=0, min_count=1, seed=3)
        model = train(streams, config)
        rng = np.random.default_rng(3)
        expected = (rng.random((3, 4)) - 0.5) / 4
        np.testing.assert_array_equal(model.input_vectors, expected)
        assert not model.output_vectors.any()

    def test_initialization_range(self):
        config = TrainConfig(dim=8, epochs=0, min_count=1, seed=5)
        model = train([stream("d", "a b a b")], config)
        bound = 0.5 / 8
        assert np.all(np.abs(model.input_vectors) <= bound)

    def test_deterministic_saved_models_identical(self, tmp_path):
        streams = [stream("d1", "a b c a b"), stream("d2", "c b a")]
        config = TrainConfig(
            dim=4, window=2, epochs=3, min_count=1, mode="negative_sampling", negatives=2, seed=9
        )
        paths, outputs = [], []
        for run in range(2):
            model = train(streams, config)
            path = tmp_path / f"m{run}.w2v"
            save_model(model, path)
            paths.append(path)
            outputs.append(model.output_vectors.tobytes())
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("mode", ["full_softmax", "negative_sampling"])
    def test_two_topic_separation(self, mode):
        rng = np.random.default_rng(TWO_TOPIC_SEED)
        streams, topic_a, topic_b = two_topic_streams(rng)
        config = TrainConfig(
            dim=8, window=3, epochs=3, learning_rate=0.05, min_count=1, mode=mode, seed=TWO_TOPIC_SEED
        )
        model = train(streams, config)
        intra, inter = mean_cosines(model, topic_a, topic_b)
        assert intra > inter

    def test_full_softmax_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(embedding, "_FULL_SOFTMAX_CAP", 3)
        streams = [stream("d", "a b c d e f")]
        config = TrainConfig(dim=2, epochs=1, min_count=1, mode="full_softmax", seed=1)
        with pytest.raises(ValueError, match="full_softmax is limited to 3 words"):
            train(streams, config)

    def test_divergence_aborts_with_location(self):
        streams = [stream("d", "a b a b a b a b")]
        config = TrainConfig(
            dim=4, window=2, epochs=50, learning_rate=1e18, min_count=1, mode="full_softmax", seed=1
        )
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(streams, config)

    @pytest.mark.parametrize("mode", ["full_softmax", "negative_sampling"])
    def test_logs_loss_and_throughput_per_epoch(self, mode, caplog):
        config = TrainConfig(dim=4, window=2, epochs=3, min_count=1, mode=mode, seed=5)
        with caplog.at_level("INFO", logger="trendlens.embedding"):
            train([stream("d", "a b c a b c a b")], config)
        lines = [r.getMessage() for r in caplog.records if r.name == "trendlens.embedding"]
        assert [line.split(":")[0] for line in lines] == ["epoch 1/3", "epoch 2/3", "epoch 3/3"]
        for line in lines:
            match = re.fullmatch(r"epoch \d/3: mean loss (\S+), (\d+) pairs/s", line)
            assert match and math.isfinite(float(match[1])) and float(match[1]) > 0

    def test_rising_mean_loss_warns(self, caplog):
        # a learning rate of 1 overshoots: the mean loss rises, yet stays finite
        config = TrainConfig(dim=4, window=2, epochs=4, learning_rate=1.0, min_count=1, seed=2)
        with caplog.at_level("INFO", logger="trendlens.embedding"):
            train(oracle_streams(3, docs=4, words=6, length=10), config)
        means = [r.args[2] for r in caplog.records if r.levelname == "INFO"]
        rose = [f"epoch {e + 1}/4" for e in range(1, 4) if means[e] > means[e - 1]]
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert rose and [w.split(":")[0] for w in warned] == rose
        assert all("mean loss rose from" in w for w in warned)

    def test_empty_streams_rejected(self):
        with pytest.raises(ValueError):
            train([], TrainConfig(min_count=1))

    def test_records_corpus_size(self):
        streams = [stream("d1", "a b a"), stream("d2", "b a")]
        model = train(streams, TrainConfig(dim=2, epochs=1, min_count=1, seed=1, mode="full_softmax"))
        assert model.train_streams == 2
        assert model.train_tokens == 5


def scalar_draw(cum, rng, k, exclude):
    """The sampler's draw as one generator call per value (the reference)."""
    out = []
    while len(out) < k:
        idx = min(int(np.searchsorted(cum, rng.random(), side="right")), len(cum) - 1)
        if idx != exclude:
            out.append(idx)
    return out


def oracle_train(streams, config, means=None):
    """train() as a per-pair loop over pair_loss_and_gradients and a plain SGD step.

    The reference the trainer's lean loop must match bit for bit: same
    initialization, shuffles, negatives and learning-rate schedule, with
    every pair built as a ContextPair and its negatives drawn one at a time.
    Each epoch's mean loss is appended to ``means`` when it is given.
    """
    vocab = build_vocab(streams, config.min_count)
    V, D = len(vocab), config.dim
    rng = np.random.default_rng(config.seed)
    model = EmbeddingModel(vocab, (rng.random((V, D)) - 0.5) / D, np.zeros((V, D)), config.seed)
    pairs = [p for s in streams for p in oracle_pairs(s, vocab, config.window)]
    total_steps = config.epochs * len(pairs)
    weights = np.asarray(vocab.counts, dtype=np.float64) ** 0.75
    cum = np.cumsum(weights / weights.sum())
    step = 0
    for epoch in range(config.epochs):
        loss_sum = 0.0
        for idx in rng.permutation(len(pairs)):
            pair = ContextPair(*pairs[idx])
            negatives = None
            if config.mode == "negative_sampling":
                negatives = scalar_draw(cum, rng, config.negatives, pair.context)
            loss, grads = pair_loss_and_gradients(model, config.mode, pair, negatives)
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch, step)
            lr = config.learning_rate * max(_LR_FLOOR_FRACTION, 1.0 - step / total_steps)
            model.input_vectors[grads.center] -= lr * grads.center_grad
            model.output_vectors[grads.output_rows] -= lr * grads.output_grads
            loss_sum += loss
            step += 1
        if means is not None:
            means.append(loss_sum / len(pairs))
    return model


def oracle_streams(seed, docs=12, words=20, length=15):
    rng = np.random.default_rng(seed)
    lexicon = [f"w{i:02d}" for i in range(words)]
    return [TokenStream(f"d{i}", tuple(rng.choice(lexicon, size=length))) for i in range(docs)]


def assert_matches_oracle(streams, config, caplog):
    """Train both ways; the weights and each epoch's logged mean loss (summed
    in the same order) must equal the oracle's."""
    means = []
    caplog.clear()
    with caplog.at_level("INFO", logger="trendlens.embedding"):
        lean, oracle = train(streams, config), oracle_train(streams, config, means)
    for rows, expected in ((lean.input_vectors, oracle.input_vectors), (lean.output_vectors, oracle.output_vectors)):
        np.testing.assert_array_equal(rows, expected)
        assert rows.tobytes() == expected.tobytes()  # assert_array_equal takes -0.0 for 0.0
    assert [r.args[2] for r in caplog.records if r.levelname == "INFO"] == means
    return lean


def assert_diverges_as_oracle(streams, config):
    # the oracle's diverging step overflows in numpy; train() silences the same warnings
    with pytest.raises(TrainingDiverged) as expected, np.errstate(over="ignore", invalid="ignore"):
        oracle_train(streams, config)
    with pytest.raises(TrainingDiverged) as actual:
        train(streams, config)
    assert (actual.value.epoch, actual.value.step) == (expected.value.epoch, expected.value.step)


# three words and five negatives: every negative_sampling draw repeats a row
REPEATING = [stream("a", "x y z x y z x x y"), stream("b", "z z y x y")]
# with two streams between them that keep 0 and 1 tokens at min_count 2 (q and
# r occur once), so their slices of the pair array are empty
SHORT = [REPEATING[0], stream("c", "q"), stream("d", "x r"), REPEATING[1]]


class TestLeanLoopMatchesOracle:
    @pytest.mark.parametrize("mode", ["full_softmax", "negative_sampling"])
    @pytest.mark.parametrize("dim", [3, 16])
    @pytest.mark.parametrize("seed", [7, 1, 123])
    def test_bit_identical(self, mode, dim, seed, caplog):
        config = TrainConfig(dim=dim, window=3, epochs=2, learning_rate=0.05, min_count=2,
                             mode=mode, seed=seed)
        assert assert_matches_oracle(oracle_streams(seed), config, caplog).output_vectors.any()

    @pytest.mark.parametrize("mode", ["full_softmax", "negative_sampling"])
    def test_repeated_negatives_bit_identical(self, mode, caplog):
        config = TrainConfig(dim=5, window=2, epochs=3, min_count=1, mode=mode, negatives=5, seed=4)
        assert_matches_oracle(REPEATING, config, caplog)
        config = TrainConfig(dim=5, window=2, epochs=3, min_count=2, mode=mode, negatives=5, seed=4)
        assert_matches_oracle(SHORT, config, caplog)

    @pytest.mark.parametrize("mode", ["full_softmax", "negative_sampling"])
    def test_divergence_reported_at_same_step(self, mode):
        streams = oracle_streams(3, docs=4, words=6, length=10)
        config = TrainConfig(dim=4, window=2, epochs=50, learning_rate=1e18, min_count=1,
                             mode=mode, seed=2)
        assert_diverges_as_oracle(streams, config)

    @pytest.mark.parametrize("mode, negatives", [
        ("full_softmax", 5), ("negative_sampling", 5), ("negative_sampling", 12)])
    def test_small_chunks_match_oracle(self, mode, negatives, caplog, monkeypatch):
        # 7-pair chunks: every epoch crosses chunk boundaries, draws that hit a
        # context top up mid-chunk, the diverging step shares its chunk with
        # steps after it, and 12 negatives sum 13 loss terms per row
        monkeypatch.setattr(embedding, "_CHUNK_PAIRS", 7)
        config = TrainConfig(dim=16, window=3, epochs=2, learning_rate=0.05, min_count=2,
                             mode=mode, negatives=negatives, seed=1)
        assert_matches_oracle(oracle_streams(1), config, caplog)
        config = TrainConfig(dim=5, window=2, epochs=3, min_count=1, mode=mode,
                             negatives=negatives, seed=4)
        assert_matches_oracle(REPEATING, config, caplog)
        config = TrainConfig(dim=4, window=2, epochs=50, learning_rate=1e18, min_count=1,
                             mode=mode, negatives=negatives, seed=2)
        assert_diverges_as_oracle(oracle_streams(3, docs=4, words=6, length=10), config)

    def test_signed_zeros_of_a_repeated_negative_update_as_the_oracle(self):
        # the row drawn twice holds a -0.0 weight and the center row a -0.0
        # entry, so both copies' gradients hold -0.0 there; the oracle's
        # zeroed accumulator sums them to 0.0, which keeps the weight at -0.0
        V = 4
        model = tiny_model(V, 3, seed=2)
        model.input_vectors[0, 1] = model.output_vectors[2, 1] = -0.0
        weights = np.concatenate([model.input_vectors, model.output_vectors])
        losses = embedding._sampling_steps(weights, V, np.array([[0, 1]], dtype=np.int32),
                                           np.array([[2, 3, 2]]), np.array([0.05]))
        loss, grads = pair_loss_and_gradients(model, "negative_sampling", ContextPair(0, 1), [2, 3, 2])
        model.input_vectors[0] -= 0.05 * grads.center_grad
        model.output_vectors[grads.output_rows] -= 0.05 * grads.output_grads
        assert losses == [loss] and math.copysign(1.0, model.output_vectors[2, 1]) == -1.0
        assert weights.tobytes() == model.input_vectors.tobytes() + model.output_vectors.tobytes()

    def test_the_fixture_at_one_epoch_bit_identical(self, caplog, monkeypatch):
        # the shipped corpus and config: 8,930 pairs over 62 words, where about
        # one step in six draws a negative twice
        config = resolve_config(FIXTURE / "config.json", {})
        streams = list(_prep_streams(load_corpus(config.corpus), config.base_stopwords, config.extra_stopwords))
        drawn, draw = [], UnigramSampler.draw
        monkeypatch.setattr(UnigramSampler, "draw", lambda self, *args: drawn.append(draw(self, *args)) or drawn[-1])
        lean = assert_matches_oracle(streams, dataclasses.replace(config.train, epochs=1), caplog)
        assert lean.input_vectors.shape == (62, 32)
        negatives = np.sort(np.concatenate(drawn), axis=1)
        repeated = (negatives[:, 1:] == negatives[:, :-1]).any(axis=1)
        assert len(negatives) == 8_930 and 0.15 < repeated.mean() < 0.2, repeated.mean()


def test_fixture_model_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The fixture ``train`` writes the same model bytes on 1 and 2 OpenBLAS
    threads; each step's products are (k+1) x D gemvs, far below the size
    OpenBLAS splits over threads."""
    train_config = resolve_config(FIXTURE / "config.json", {}).train
    flags = [f"--{key.replace('_', '-')}={getattr(train_config, key)}" for key in embedding.TRAIN_RANGES]
    models = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()), OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / f"model{threads}.w2v"
        proc = subprocess.run([sys.executable, "-m", "trendlens", "train", "--input", str(FIXTURE / "corpus.jsonl"),
                               "--extra-stopwords", str(FIXTURE / "curated_stopwords.txt"), "--out", str(out), *flags],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        models.append(out.read_bytes())
    assert models[0].startswith(b"trendlens-w2v 1 62 32 7\n") and models[0] == models[1]


def test_training_memory_bounded_by_pair_array():
    """Peak memory of train(), less the two weight matrices, is at most 12
    bytes per pair (the int32 pair array's 8 and the int32 shuffle's 4) plus
    a fixed allowance for what one chunk builds and one stream's pairs
    while they are made; per-stream pair arrays joined by a concatenation
    would take 32 bytes per pair, and Python lists of all the pairs ~90
    more.  numpy reports its buffers to tracemalloc, so the count does not
    depend on the machine."""
    bytes_per_pair, chunk_allowance = 12, 1 << 20
    streams = memory_streams()
    config = TrainConfig(dim=8, window=5, epochs=1, min_count=1, seed=1)
    vocab = build_vocab(streams, 1)
    n_pairs = sum(len(generate_pairs(s, vocab, config.window)) for s in streams)
    assert n_pairs == 94_000
    model, peak = traced_peak(train, streams, config)
    weights = model.input_vectors.nbytes + model.output_vectors.nbytes
    assert peak - weights <= bytes_per_pair * n_pairs + chunk_allowance


def memory_streams():
    """200 streams of 50 tokens over 500 words: 94,000 pairs at window 5."""
    rng = np.random.default_rng(0)
    lexicon = [f"w{i:03d}" for i in range(500)]
    return [TokenStream(f"d{i}", tuple(rng.choice(lexicon, size=50).tolist())) for i in range(200)]


def traced_peak(fn, *args):
    """``fn(*args)`` and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocatesOnlyWhatItTouches:
    def test_zero_epochs_build_no_pairs(self):
        # the 94,000 pairs would take 734 KiB as int32; the input rows take
        # 250 KiB, and output rows would take 250 KiB more
        config = TrainConfig(dim=64, window=5, epochs=0, min_count=1, seed=1)
        model, peak = traced_peak(train, memory_streams(), config)
        assert peak - model.input_vectors.nbytes <= 128 << 10
        assert not model.output_vectors.flags.writeable and not model.output_vectors.any()
        assert model.output_vectors.shape == model.input_vectors.shape

    def test_zero_epochs_log_the_pair_count(self, caplog):
        with caplog.at_level("INFO", logger="trendlens.embedding"):
            train(memory_streams(), TrainConfig(dim=4, epochs=0, min_count=1))
        assert caplog.messages == ["94000 training pairs, 0 epochs: the model keeps its initialization"]

    def test_pair_count_above_the_int32_index_fails_before_allocating(self, monkeypatch):
        # np.arange(n, dtype=np.int32) wraps past 2**31 - 1, so more pairs than
        # that fail before any weight is made; the bound is patched down here
        streams, config = memory_streams(), TrainConfig(dim=64, epochs=1, min_count=1)
        monkeypatch.setattr(embedding, "_MAX_PAIRS", 93_999)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="94000 training pairs exceed .* bound of 93999"):
                train(streams, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500 * 64 * 8  # less than one weight matrix
        monkeypatch.setattr(embedding, "_MAX_PAIRS", 94_000)
        assert train(streams, TrainConfig(dim=4, epochs=0, min_count=1)).dim == 4

    def test_loaded_model_holds_no_output_matrix(self, tmp_path):
        rng = np.random.default_rng(3)
        words = tuple(f"w{i:04d}" for i in range(2000))
        rows = rng.normal(size=(2000, 100))
        path = tmp_path / "m.w2v"
        save_model(EmbeddingModel(Vocabulary(words), rows, np.zeros_like(rows), seed=1), path)
        model, peak = traced_peak(load_model, path)
        assert peak <= model.input_vectors.nbytes + (512 << 10)

    def test_loaded_output_matrix_is_read_only_zeros(self, tmp_path):
        rows = np.array([[0.1, 1e-300], [-7.5, 2.0]])
        path, again = tmp_path / "m.w2v", tmp_path / "again.w2v"
        save_model(EmbeddingModel(Vocabulary(("a", "b")), rows, -rows, seed=3), path)
        loaded = load_model(path)
        assert loaded.output_vectors.shape == (2, 2) and not loaded.output_vectors.any()
        assert not loaded.output_vectors.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            loaded.output_vectors[0, 0] = 1.0
        save_model(loaded, again)
        assert again.read_bytes() == b"trendlens-w2v 1 2 2 3\na 0.1 1e-300\nb -7.5 2.0\n"


class TestStagesHoldOneDocument:
    """``ingest``, ``query`` and ``extract`` hold one document at a time plus
    the ids seen so far: from N documents to 10N their peak grows by far less
    than the documents take.  Each document's record is ~300 bytes of JSON and
    its stream 40 tokens; holding them took ~1,000-1,300 bytes per document."""

    LEXICON = [f"w{i:03d}" for i in range(300)]
    BYTES_PER_DOCUMENT = 400  # the id set and bounded interpreter free lists

    def corpus(self, path, n):
        rng = np.random.default_rng(n)
        save_corpus([PatentDocument(f"P{i}", f"industry{i % 4}", 2018, "title",
                                    " ".join(rng.choice(self.LEXICON, 40).tolist())) for i in range(n)], path)

    def test_peak_does_not_grow_with_the_documents(self, tmp_path):
        vectors = np.random.default_rng(0).normal(size=(300, 8))
        save_model(EmbeddingModel(Vocabulary(tuple(self.LEXICON)), vectors, vectors, seed=1), tmp_path / "m.w2v")
        (tmp_path / "stop.txt").write_text("title\n", encoding="utf-8")
        peaks = {}
        for n in (100, 1000):
            corpus, tokens = tmp_path / f"c{n}.jsonl", tmp_path / f"t{n}.jsonl"
            self.corpus(corpus, n)
            runs = {
                "ingest": ["ingest", "--input", str(corpus), "--out", str(tmp_path / "norm.jsonl"),
                           "--tokens-out", str(tokens), "--base-stopwords", str(tmp_path / "stop.txt")],
                "query": ["query", "--input", str(corpus), "--query", "w001", "--out", str(tmp_path / "q.jsonl")],
                "extract": ["extract", "--input", str(tokens), "--model", str(tmp_path / "m.w2v"),
                            "--out", str(tmp_path / "k.csv")],
            }
            for stage, argv in runs.items():
                code, peaks[stage, n] = traced_peak(cli.main, argv)
                assert code == 0, stage
        for stage in ("ingest", "query", "extract"):
            growth = peaks[stage, 1000] - peaks[stage, 100]
            assert growth < 900 * self.BYTES_PER_DOCUMENT, (stage, peaks[stage, 100], peaks[stage, 1000])


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"window": 0},
            {"epochs": -1},
            {"learning_rate": 0.0},
            {"min_count": 0},
            {"mode": "hier_softmax"},
            {"negatives": 0},
            {"seed": -1},
        ],
    )
    def test_rejected(self, kwargs):
        key, = kwargs
        with pytest.raises(ValueError, match=re.escape(f"'{key}' must be")):
            TrainConfig(**kwargs)

    def test_defaults_follow_common_practice(self):
        config = TrainConfig()
        assert config.dim == 300
        assert (config.window, config.epochs, config.min_count, config.negatives) == (5, 5, 2, 5)
        assert config.learning_rate == 0.025


class TestCosine:
    def test_identical_direction(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        value = cosine_similarity(np.array([1.0, 2.0, 2.0]), np.array([2.0, 1.0, 2.0]))
        assert abs(value - 8.0 / 9.0) <= 1e-15

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=16), rng.normal(size=16)
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-12)
        assert cosine_similarity(1000.0 * a, b) == pytest.approx(cosine_similarity(a, b), abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_similarity(np.zeros(3), np.ones(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(3), np.ones(4))


class TestModelFiles:
    def make(self):
        return train(
            [stream("d", "a b c a b c a")],
            TrainConfig(dim=3, window=2, epochs=2, min_count=1, seed=7, mode="full_softmax"),
        )

    def test_round_trip_bitwise(self, tmp_path):
        model = self.make()
        path = tmp_path / "m.w2v"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocab.words == model.vocab.words
        np.testing.assert_array_equal(loaded.input_vectors, model.input_vectors)
        assert loaded.seed == model.seed

    def test_exact_bytes(self, tmp_path):
        rows = np.array([[0.1, 1e-300], [-7.5, np.float32(0.1)]])
        model = EmbeddingModel(Vocabulary(("a", "b")), rows, -rows, seed=3)
        path = tmp_path / "m.w2v"
        save_model(model, path)
        assert path.read_bytes() == b"trendlens-w2v 1 2 2 3\na 0.1 1e-300\nb -7.5 0.10000000149011612\n"

    def test_header_parsed(self, tmp_path):
        path = tmp_path / "m.w2v"
        path.write_text("trendlens-w2v 1 2 3 7\nfoo 1.0 2.0 3.0\nbar 0.5 0.25 0.125\n")
        model = load_model(path)
        assert (len(model.vocab), model.dim, model.seed) == (2, 3, 7)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.w2v"
        path.write_text("other-format 1 1 1 0\nfoo 1.0\n")
        with pytest.raises(ModelFormatError, match="header"):
            load_model(path)

    def test_tampered_row_names_word(self, tmp_path):
        path = tmp_path / "m.w2v"
        path.write_text("trendlens-w2v 1 2 3 7\nfoo 1.0 2.0 3.0\nbar 0.5 0.25\n")
        with pytest.raises(ModelFormatError, match="'bar'"):
            load_model(path)

    def test_duplicate_word(self, tmp_path):
        path = tmp_path / "m.w2v"
        path.write_text("trendlens-w2v 1 2 1 7\nfoo 1.0\nfoo 2.0\n")
        with pytest.raises(ModelFormatError, match="duplicate"):
            load_model(path)

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "m.w2v"
        path.write_text("trendlens-w2v 1 3 1 7\nfoo 1.0\nbar 2.0\n")
        with pytest.raises(ModelFormatError, match="end of file"):
            load_model(path)

    def test_extra_rows(self, tmp_path):
        path = tmp_path / "m.w2v"
        path.write_text("trendlens-w2v 1 1 1 7\nfoo 1.0\nbar 2.0\n")
        with pytest.raises(ModelFormatError, match="extra"):
            load_model(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_path_and_word(self, tmp_path, value):
        path = tmp_path / "m.w2v"
        save_model(self.make(), path)
        lines = path.read_text().splitlines()
        word, *values = lines[2].split()  # the second word
        values[1] = value
        lines[2] = " ".join([word, *values])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=re.escape(f"{path}: word '{word}': non-finite")):
            load_model(path)

    @pytest.mark.parametrize("kind, block", [("model", "input"), ("docvec", "document")])
    def test_a_file_cut_inside_its_last_row_fails(self, tmp_path, kind, block):
        """A row ends with its line ending, so a file cut anywhere inside its
        last row, even inside the last value, fails rather than loading a
        shorter value."""
        path = tmp_path / "f"
        rows = np.array([[0.5, -1e-300], [-7.25, 0.3125]])
        if kind == "docvec":
            save_document_vectors({"d1": rows[0], "d2": rows[1]}, path)
            load = load_document_vectors
        else:
            save_model(EmbeddingModel(Vocabulary(("a", "b")), rows, -rows, seed=3), path)
            load = load_model
        data = path.read_bytes()
        load(path)
        last_row = data.rindex(b"\n", 0, -1) + 1
        for cut in range(last_row, len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ModelFormatError, match=re.escape(f"{path}: unexpected end of file in {block} block")):
                load(path)


def _subsets(words):
    """Every subset of ``words``, each also with a word the file lacks."""
    for mask in range(1 << len(words)):
        subset = {w for i, w in enumerate(words) if mask >> i & 1}
        yield subset
        yield subset | {"absent"}


class TestPartialLoads:
    """load_model(path, words) keeps only the rows of ``words`` but reads and
    checks every row as a full load does."""

    def test_kept_rows_equal_full_rows_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(5)
        words = tuple(f"w{i:02d}" for i in range(50))
        path = tmp_path / "m.w2v"
        inp, out = rng.normal(size=(50, 7)) * 10.0 ** rng.integers(-300, 300, (50, 7)), rng.normal(size=(50, 7))
        save_model(EmbeddingModel(Vocabulary(words), inp, out, seed=2), path)
        full = load_model(path)
        wanted = set(rng.choice(words, size=12, replace=False).tolist()) | {"absent", "other"}
        part = load_model(path, wanted)
        kept = [i for i, w in enumerate(words) if w in wanted]
        assert part.vocab.words == tuple(words[i] for i in kept)
        assert part.input_vectors.tobytes() == full.input_vectors[kept].tobytes()
        assert (part.file_words, full.file_words, part.seed, part.dim) == (50, 50, 2, 7)
        assert load_model(path, set(words)).input_vectors.tobytes() == full.input_vectors.tobytes()

    def test_without_an_output_block_the_output_rows_are_zeros(self, tmp_path):
        path = tmp_path / "m.w2v"
        path.write_text("trendlens-w2v 1 3 2 7\na 1.0 2.0\nb 3.0 4.0\nc 5.0 6.0\n")
        part = load_model(path, {"c", "a"})
        assert part.vocab.words == ("a", "c")
        assert part.input_vectors.tolist() == [[1.0, 2.0], [5.0, 6.0]]
        assert part.output_vectors.shape == (2, 2) and not part.output_vectors.any()
        assert not part.output_vectors.flags.writeable
        empty = load_model(path, set())
        assert (len(empty.vocab), empty.dim, empty.file_words) == (0, 2, 3)

    @pytest.mark.parametrize("text, error", [
        ("3 3\nfoo 1.0 2.0 3.0\nbar 0.5 0.25\nbaz 1 2 3\n", "word 'bar': expected 3 values, got 2"),
        ("3 3\nfoo 1.0 2.0 3.0\nbar 0.5 x 0.25\nbaz 1 2 3\n", "word 'bar': malformed float"),
        ("3 1\nfoo 1.0\nbar 2.0\nfoo 3.0\n", "duplicate word 'foo'"),
        ("3 1\nfoo 1.0\nbar 2.0\n", "unexpected end of file in input block"),
        ("1 1\nfoo 1.0\nbar 2.0\n", "unexpected extra line 'bar 2.0'"),
        ("4 1\na 1.0\nb nan\nc inf\nd 2.0\n", "word 'b': non-finite value"),  # the first in file order
        ("3 1\na -inf\nb 1.0\nc nan\n", "word 'a': non-finite value"),
        ("3 1\na nan\nb 1.0\nc x\n", "word 'c': malformed float"),  # syntax errors come first
        ("2 1\na 1.0\nb 2.0\n#output\na 1.0\nb 2.0\n", "unexpected extra line '#output'"),  # the old output block
    ])
    def test_a_dropped_row_fails_as_in_a_full_load(self, tmp_path, text, error):
        """Each file fails as ``error`` on a full load, and with the same
        message whichever of its words a partial load keeps."""
        path = tmp_path / "m.w2v"
        path.write_text("trendlens-w2v 1 " + text.replace("\n", " 7\n", 1))
        with pytest.raises(ModelFormatError, match=re.escape(f"{path}: {error}")) as full:
            load_model(path)
        labels = sorted({line.split()[0] for line in text.splitlines()[1:] if line != "#output"})
        for words in _subsets(labels):
            with pytest.raises(ModelFormatError) as part:
                load_model(path, words)
            assert str(part.value) == str(full.value), words

    @pytest.mark.parametrize("bad_rows", [(0,), (63,), (64,), (130, 140), (140, 130), (149,), (5, 149)])
    def test_the_first_non_finite_row_is_named_across_scratch_blocks(self, tmp_path, bad_rows):
        """Dropped rows are checked a block at a time; the message still names
        the first non-finite row in file order, whichever rows are kept."""
        words = [f"w{i:03d}" for i in range(150)]
        rows = [f"{w} {i}.5 -{i}.25" for i, w in enumerate(words)]
        for i, value in zip(bad_rows, ("nan", "inf")):
            rows[i] = f"{words[i]} 1.0 {value}"
        path = tmp_path / "m.w2v"
        path.write_text("trendlens-w2v 1 150 2 7\n" + "\n".join(rows) + "\n")
        error = f"{path}: word {words[min(bad_rows)]!r}: non-finite value"
        with pytest.raises(ModelFormatError) as full:
            load_model(path)
        assert str(full.value) == error
        for kept in (set(), set(words[::3]), set(words[1::3]), {words[i] for i in bad_rows[1:]}, set(words[64:])):
            with pytest.raises(ModelFormatError) as part:
                load_model(path, kept)
            assert str(part.value) == error, sorted(kept)

    def test_memory_follows_the_kept_rows(self, tmp_path):
        rng = np.random.default_rng(3)
        words = tuple(f"w{i:04d}" for i in range(2000))
        path = tmp_path / "m.w2v"
        rows = rng.normal(size=(2000, 100))
        save_model(EmbeddingModel(Vocabulary(words), rows, np.zeros_like(rows), seed=1), path)
        wanted = set(words[::10])
        model, peak = traced_peak(load_model, path, wanted)
        assert model.input_vectors.shape == (200, 100)
        assert peak <= model.input_vectors.nbytes + (512 << 10)
