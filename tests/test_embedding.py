import math
import re
import tracemalloc

import numpy as np
import pytest

from trendlens import embedding
from trendlens.embedding import (
    ContextPair,
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
    load_model,
    pair_loss_and_gradients,
    save_model,
    softmax_output,
    train,
)
from trendlens.textprep import TokenStream


def stream(doc_id, text):
    return TokenStream(doc_id, tuple(text.split()))


def tiny_model(V, D, seed=0, mode="full_softmax", negatives=3):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(tuple(f"w{i}" for i in range(V)), tuple(int(c) for c in rng.integers(1, 9, V)))
    config = TrainConfig(dim=D, mode=mode, negatives=negatives, min_count=1)
    return EmbeddingModel(
        vocab, rng.normal(0, 0.5, (V, D)), rng.normal(0, 0.5, (V, D)), config, seed
    )


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
                assert np.issubdtype(pairs.dtype, np.integer)
                assert pairs.tolist() == [list(p) for p in expected]

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


def dense_gradients(model, pair, negatives):
    loss, grads = pair_loss_and_gradients(model, pair, negatives)
    V, D = model.input_vectors.shape
    g_in = np.zeros((V, D))
    g_in[grads.center] = grads.center_grad
    g_out = np.zeros((V, D))
    g_out[grads.output_rows] = grads.output_grads
    return loss, g_in, g_out


def finite_difference(model, pair, negatives, h=1e-5):
    V, D = model.input_vectors.shape
    out = []
    for matrix in (model.input_vectors, model.output_vectors):
        grad = np.zeros((V, D))
        for i in range(V):
            for j in range(D):
                original = matrix[i, j]
                matrix[i, j] = original + h
                plus = pair_loss_and_gradients(model, pair, negatives)[0]
                matrix[i, j] = original - h
                minus = pair_loss_and_gradients(model, pair, negatives)[0]
                matrix[i, j] = original
                grad[i, j] = (plus - minus) / (2 * h)
        out.append(grad)
    return out


def gradient_relative_error(model, pair, negatives):
    _, a_in, a_out = dense_gradients(model, pair, negatives)
    n_in, n_out = finite_difference(model, pair, negatives)
    analytic = np.concatenate([a_in.ravel(), a_out.ravel()])
    numeric = np.concatenate([n_in.ravel(), n_out.ravel()])
    denom = max(np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / denom


class TestPairLoss:
    def test_zero_output_gives_uniform_loss(self):
        model = tiny_model(V=6, D=3)
        model.output_vectors[:] = 0.0
        loss, _ = pair_loss_and_gradients(model, ContextPair(1, 4))
        assert loss == pytest.approx(math.log(6), abs=1e-12)

    @pytest.mark.parametrize("mode", ["full_softmax", "negative_sampling"])
    def test_gradients_match_finite_differences(self, mode):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            V, D = int(rng.integers(2, 11)), int(rng.integers(1, 6))
            model = tiny_model(V, D, seed=seed, mode=mode)
            pair = ContextPair(int(rng.integers(0, V)), int(rng.integers(0, V)))
            negatives = None
            if mode == "negative_sampling":
                negatives = UnigramSampler(model.vocab.counts).draw(rng, 3, [pair.context])[0]
            assert gradient_relative_error(model, pair, negatives) < 1e-5

    @pytest.mark.parametrize("mode", ["full_softmax", "negative_sampling"])
    def test_sgd_step_decreases_loss(self, mode):
        model = tiny_model(V=5, D=3, seed=2, mode=mode)
        pair = ContextPair(0, 3)
        negatives = [1, 2, 4] if mode == "negative_sampling" else None
        before, grads = pair_loss_and_gradients(model, pair, negatives)
        model.input_vectors[grads.center] -= 0.1 * grads.center_grad
        model.output_vectors[grads.output_rows] -= 0.1 * grads.output_grads
        after, _ = pair_loss_and_gradients(model, pair, negatives)
        assert after < before

    def test_negative_sampling_requires_negatives(self):
        model = tiny_model(V=4, D=2, mode="negative_sampling")
        with pytest.raises(ValueError, match="negatives"):
            pair_loss_and_gradients(model, ContextPair(0, 1))

    def test_loss_non_negative(self):
        for seed in range(10):
            model = tiny_model(V=5, D=3, seed=seed)
            loss, _ = pair_loss_and_gradients(model, ContextPair(seed % 5, (seed + 2) % 5))
            assert loss >= 0

    def test_duplicate_negatives_accumulate(self):
        model = tiny_model(V=5, D=3, seed=4, mode="negative_sampling")
        pair = ContextPair(0, 1)
        _, grads = pair_loss_and_gradients(model, pair, [2, 2, 3])
        assert sorted(grads.output_rows.tolist()) == grads.output_rows.tolist()
        assert len(grads.output_rows) == len(set(grads.output_rows.tolist()))
        # the doubled negative's gradient equals twice the single draw's
        _, single = pair_loss_and_gradients(model, pair, [2, 3])
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
        paths = []
        for run in range(2):
            model = train(streams, config)
            path = tmp_path / f"m{run}.w2v"
            save_model(model, path, full=True)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

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

    def test_full_softmax_cap_enforced(self):
        streams = [stream("d", "a b c d e f")]
        config = TrainConfig(
            dim=2, epochs=1, min_count=1, mode="full_softmax", full_softmax_cap=3, seed=1
        )
        with pytest.raises(ValueError, match="full_softmax"):
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
    model = EmbeddingModel(vocab, (rng.random((V, D)) - 0.5) / D, np.zeros((V, D)), config, config.seed)
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
            loss, grads = pair_loss_and_gradients(model, pair, negatives)
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
    np.testing.assert_array_equal(lean.input_vectors, oracle.input_vectors)
    np.testing.assert_array_equal(lean.output_vectors, oracle.output_vectors)
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


def test_training_memory_bounded_by_pair_array():
    """Peak memory of train(), less the two weight matrices, is at most 40
    bytes per pair (the pair array's 16 and the shuffle's 8, with room to
    spare) plus a fixed allowance for what one chunk builds; Python lists of
    all the pairs would take ~90 bytes per pair more.  numpy reports its
    buffers to tracemalloc, so the count does not depend on the machine."""
    bytes_per_pair, chunk_allowance = 40, 2 << 20
    rng = np.random.default_rng(0)
    lexicon = [f"w{i:03d}" for i in range(500)]
    streams = [TokenStream(f"d{i}", tuple(rng.choice(lexicon, size=50).tolist())) for i in range(200)]
    config = TrainConfig(dim=8, window=5, epochs=1, min_count=1, seed=1)
    vocab = build_vocab(streams, 1)
    n_pairs = sum(len(generate_pairs(s, vocab, config.window)) for s in streams)
    assert n_pairs == 94_000
    tracemalloc.start()
    try:
        model = train(streams, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    weights = model.input_vectors.nbytes + model.output_vectors.nbytes
    assert peak - weights <= bytes_per_pair * n_pairs + chunk_allowance


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
        with pytest.raises(ValueError):
            TrainConfig(**kwargs).validate()

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

    def test_full_round_trip_includes_output(self, tmp_path):
        model = self.make()
        path = tmp_path / "m.w2v"
        save_model(model, path, full=True)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.output_vectors, model.output_vectors)

    def test_exact_bytes(self, tmp_path):
        rows = np.array([[0.1, 1e-300], [-7.5, np.float32(0.1)]])
        model = EmbeddingModel(Vocabulary(("a", "b")), rows, -rows, None, seed=3)
        path = tmp_path / "m.w2v"
        save_model(model, path, full=True)
        assert path.read_bytes() == (
            b"trendlens-w2v 1 2 2 3\na 0.1 1e-300\nb -7.5 0.10000000149011612\n"
            b"#output\na -0.1 -1e-300\nb 7.5 -0.10000000149011612\n"
        )

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
    @pytest.mark.parametrize("block", ["input", "output"])
    def test_non_finite_value_names_path_and_word(self, tmp_path, value, block):
        path = tmp_path / "m.w2v"
        save_model(self.make(), path, full=True)
        lines = path.read_text().splitlines()
        row = 2 if block == "input" else 2 + len(lines) // 2  # second word of the block
        word, *values = lines[row].split()
        values[1] = value
        lines[row] = " ".join([word, *values])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=re.escape(f"{path}: word '{word}': non-finite")):
            load_model(path)
