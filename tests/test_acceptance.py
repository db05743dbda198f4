"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (see conftest).  Run with
``pytest tests/test_acceptance.py -v``.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from trendlens.cli import EXIT_OK, main
from trendlens.corpus import Corpus, PatentDocument
from trendlens.embedding import (
    EmbeddingModel,
    TrainConfig,
    UnigramSampler,
    Vocabulary,
    cosine_similarity,
    train,
)
from trendlens.keywords import ReferenceEmbedder, extract_keywords
from trendlens.pipeline import resolve_config, run_pipeline
from trendlens.query import And, Or, Phrase, eval_query, parse_query, serialize_query
from trendlens.textprep import StopwordList, TokenStream, filter_stopwords, tokenize
from trendlens.trends import (
    ProjectedPoint,
    cluster_points,
    fit_pca,
    generate_stopword_candidates,
    project,
)

from oracle import ContextPair, pair_loss_and_gradients, softmax_output

FIXTURE = Path("src/trendlens/data/fixture")


# --- criterion 1: softmax normalization and shift invariance ----------------


def test_c01_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(1000):
        size = int(np.exp(rng.uniform(np.log(2), np.log(10_000))))
        u = rng.uniform(-30.0, 30.0, size)
        y = softmax_output(u)
        assert abs(y.sum() - 1.0) <= 1e-12
        assert np.all(y > 0)
        shift = float(rng.uniform(-100.0, 100.0))
        np.testing.assert_allclose(softmax_output(u + shift), y, atol=1e-12, rtol=0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"softmax sweep took {elapsed:.2f}s"


# --- criterion 2: analytic gradients vs central finite differences ----------


def _gradient_error(model, mode, pair, negatives):
    _, grads = pair_loss_and_gradients(model, mode, pair, negatives)
    V, D = model.input_vectors.shape
    analytic_in = np.zeros((V, D))
    analytic_in[grads.center] = grads.center_grad
    analytic_out = np.zeros((V, D))
    analytic_out[grads.output_rows] = grads.output_grads
    h = 1e-5
    numeric = []
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
        numeric.append(grad)
    analytic = np.concatenate([analytic_in.ravel(), analytic_out.ravel()])
    numeric = np.concatenate([g.ravel() for g in numeric])
    return np.linalg.norm(analytic - numeric) / max(
        np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-12
    )


def test_c02_gradients_match_finite_differences_both_modes():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for trial in range(200):
        V = int(rng.integers(2, 11))
        D = int(rng.integers(1, 6))
        vocab = Vocabulary(
            tuple(f"w{i}" for i in range(V)), tuple(int(c) for c in rng.integers(1, 9, V))
        )
        pair = ContextPair(int(rng.integers(0, V)), int(rng.integers(0, V)))
        for mode in ("full_softmax", "negative_sampling"):
            model = EmbeddingModel(vocab, rng.normal(0, 0.6, (V, D)), rng.normal(0, 0.6, (V, D)), 0)
            negatives = None
            if mode == "negative_sampling":
                negatives = UnigramSampler(vocab.counts).draw(rng, 3, [pair.context])[0]
            assert _gradient_error(model, mode, pair, negatives) < 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient sweep took {elapsed:.2f}s"


# --- criterion 3: cosine similarity properties and hand value ---------------


def test_c03_cosine_properties_and_hand_value():
    hand = cosine_similarity(np.array([1.0, 2.0, 2.0]), np.array([2.0, 1.0, 2.0]))
    assert abs(hand - 8.0 / 9.0) <= 1e-15

    rng = np.random.default_rng(303)
    for _ in range(10_000):
        dim = int(rng.integers(2, 65))
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        value = cosine_similarity(a, b)
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12
        assert abs(value - cosine_similarity(b, a)) <= 1e-12
        scale = float(rng.uniform(1e-3, 1e3))
        assert abs(cosine_similarity(scale * a, b) - value) <= 1e-12


# --- criterion 4: two-topic separation, both modes, 5 seeds -----------------


def _two_topic_corpus(seed):
    rng = np.random.default_rng(seed)
    topic_a = [f"a{i:02d}" for i in range(20)]
    topic_b = [f"b{i:02d}" for i in range(20)]
    streams = []
    for s in range(200):
        words = topic_a if s % 2 == 0 else topic_b
        streams.append(TokenStream(f"s{s}", tuple(rng.choice(words, size=8))))
    return streams, topic_a, topic_b


def _mean_intra_inter(model, topic_a, topic_b):
    va = np.array([model.vector(w) for w in topic_a if w in model])
    vb = np.array([model.vector(w) for w in topic_b if w in model])
    norm_a = va / np.linalg.norm(va, axis=1, keepdims=True)
    norm_b = vb / np.linalg.norm(vb, axis=1, keepdims=True)
    upper_a = (norm_a @ norm_a.T)[np.triu_indices(len(norm_a), k=1)]
    upper_b = (norm_b @ norm_b.T)[np.triu_indices(len(norm_b), k=1)]
    intra = float(np.concatenate([upper_a, upper_b]).mean())
    inter = float((norm_a @ norm_b.T).mean())
    return intra, inter


def test_c04_two_topic_separation_both_modes():
    start = time.perf_counter()
    for mode in ("full_softmax", "negative_sampling"):
        wins = 0
        for seed in range(1, 6):
            streams, topic_a, topic_b = _two_topic_corpus(seed)
            config = TrainConfig(
                dim=16,
                window=3,
                epochs=3,
                learning_rate=0.05,
                min_count=1,
                mode=mode,
                negatives=5,
                seed=seed,
            )
            model = train(streams, config)  # deterministic
            intra, inter = _mean_intra_inter(model, topic_a, topic_b)
            wins += intra > inter
        assert wins >= 4, f"{mode}: separation in only {wins}/5 seeds"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"two-topic runs took {elapsed:.2f}s"


# --- criterion 5: extraction equals brute-force oracle -----------------------


def test_c05_extraction_matches_brute_force_oracle():
    rng = np.random.default_rng(505)
    words = tuple(f"w{i:03d}" for i in range(500))
    matrix = rng.normal(size=(500, 12))
    # plant exact score ties: words sharing one vector must order lexically
    for group in (words[10:14], words[200:203]):
        shared = matrix[rng.integers(0, 500)].copy()
        for w in group:
            matrix[words.index(w)] = shared
    vocab = Vocabulary(words, tuple([1] * 500))
    model = EmbeddingModel(vocab, matrix, np.zeros_like(matrix), 0)
    embedder = ReferenceEmbedder(model)

    start = time.perf_counter()
    tie_pool = list(words[10:14]) + list(words[200:203])
    for i in range(100):
        tokens = list(rng.choice(words, size=20)) + list(rng.choice(tie_pool, size=4)) + ["oov"]
        rng.shuffle(tokens)
        doc = TokenStream(f"D{i}", tuple(tokens))
        result = extract_keywords(doc, embedder, 10)

        candidates = sorted({t for t in tokens if t in vocab.index})
        rows = [matrix[vocab.index[t]] for t in tokens if t in vocab.index]
        doc_vec = np.mean(rows, axis=0)
        scored = []
        for token in candidates:
            v = matrix[vocab.index[token]]
            scored.append(
                (token, float(v @ doc_vec / (np.linalg.norm(v) * np.linalg.norm(doc_vec))))
            )
        scored.sort(key=lambda ts: (-ts[1], ts[0]))
        assert [(k.keyword, k.score) for k in result.keywords] == scored[:10]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"extraction sweep took {elapsed:.2f}s"


# --- criterion 6: PCA on rank-2 data embedded in 300 dims -------------------


def test_c06_pca_rank2_distance_preservation():
    rng = np.random.default_rng(606)
    flat = rng.normal(size=(60, 2)) @ rng.normal(size=(2, 300)) + rng.normal(size=300)
    basis = fit_pca(flat)

    gram = basis.components @ basis.components.T
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-10

    projected = np.array([project(basis, point) for point in flat])
    full = np.linalg.norm(flat[:, None] - flat[None, :], axis=-1)
    low = np.linalg.norm(projected[:, None] - projected[None, :], axis=-1)
    off_diagonal = ~np.eye(len(flat), dtype=bool)
    relative = np.abs(low[off_diagonal] - full[off_diagonal]) / full[off_diagonal]
    assert relative.max() <= 1e-8

    again = fit_pca(flat)
    assert np.array_equal(basis.components, again.components)
    assert np.array_equal(basis.mean, again.mean)
    assert basis.explained_variance == again.explained_variance


# --- criterion 7: clustering equals union-find components -------------------


def _union_find_components(coords, threshold):
    parent = list(range(len(coords)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            if math.hypot(coords[i][0] - coords[j][0], coords[i][1] - coords[j][1]) <= threshold:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(coords)):
        groups.setdefault(find(i), set()).add(i)
    return {frozenset(g) for g in groups.values()}


def test_c07_clustering_matches_union_find_oracle():
    rng = np.random.default_rng(707)
    for _ in range(500):
        n = int(rng.integers(2, 40))
        coords = rng.uniform(-1, 1, size=(n, 2))
        threshold = float(rng.uniform(0.02, 1.2))
        names = [f"kw{i:02d}" for i in range(n)]
        points = [ProjectedPoint(names[i], (coords[i, 0], coords[i, 1])) for i in range(n)]

        assignment = cluster_points(points, threshold)
        ours = {frozenset(members) for _, members in assignment.clusters}
        oracle = {
            frozenset(names[i] for i in group)
            for group in _union_find_components(coords.tolist(), threshold)
        }
        assert ours == oracle

        permutation = rng.permutation(n)
        shuffled = cluster_points([points[i] for i in permutation], threshold)
        assert shuffled.clusters == assignment.clusters


# --- criterion 8: stopword induction and curation ---------------------------


class _HandEmbedder:
    """Embedder arranged so one boilerplate token tops every document."""

    def __init__(self, vectors):
        self.vectors = {k: np.asarray(v, dtype=np.float64) for k, v in vectors.items()}
        self.dim = 2

    def embed_word(self, token):
        return self.vectors.get(token)

    def embed_document(self, stream):
        rows = [self.vectors[t] for t in stream.tokens if t in self.vectors]
        return np.mean(rows, axis=0) if rows else None


def test_c08_stopword_induction_and_curation():
    # 'method' is in every abstract and, by construction, in every top-n:
    # each document mean leans toward (1, 0), which is exactly its vector
    vectors = {"method": [1.0, 0.0]}
    docs = []
    for i in range(40):
        topic = f"topic{i % 10}"
        vectors.setdefault(topic, [0.6, 0.8] if i % 2 == 0 else [0.6, -0.8])
        docs.append(
            PatentDocument(f"D{i}", "medical", 2018, "", f"method {topic} {topic} method")
        )
    corpus = Corpus(tuple(docs))
    embedder = _HandEmbedder(vectors)
    base = StopwordList(())

    # the planted token tops each document's extraction
    for doc in corpus:
        stream = filter_stopwords(TokenStream(doc.id, tuple(tokenize(doc.abstract))), base)
        result = extract_keywords(stream, embedder, 2)
        assert "method" in {ks.keyword for ks in result.keywords}

    streams = [filter_stopwords(TokenStream(d.id, tuple(tokenize(d.abstract))), base) for d in corpus]
    candidates = generate_stopword_candidates(streams, embedder, top_k=30, top_n=2)
    ranked = dict(candidates)
    assert "method" in ranked and ranked["method"] == len(corpus)

    curated = StopwordList(("method",))
    for doc in corpus:
        stream = filter_stopwords(TokenStream(doc.id, tuple(tokenize(doc.abstract))), base, curated)
        result = extract_keywords(stream, embedder, 2)
        assert "method" not in {ks.keyword for ks in result.keywords}
        assert result.keywords  # the topic word still comes through


# --- criterion 9: query language round trip and oracle ----------------------

_QUERY_WORDS = ["alpha", "beta", "gamma", "delta", "neural", "deep", "learn", "med", "net", "x9"]


def _random_tree(rng, depth=0):
    if depth >= 4 or rng.random() < 0.4:
        n_words = int(rng.integers(1, 4))
        text = " ".join(rng.choice(_QUERY_WORDS) for _ in range(n_words))
        return Phrase(text, wildcard=bool(rng.random() < 0.3))
    kind = Or if rng.random() < 0.5 else And
    return kind(_random_tree(rng, depth + 1), _random_tree(rng, depth + 1))


def _oracle_eval(expr, doc_tokens):
    if isinstance(expr, And):
        return _oracle_eval(expr.left, doc_tokens) and _oracle_eval(expr.right, doc_tokens)
    if isinstance(expr, Or):
        return _oracle_eval(expr.left, doc_tokens) or _oracle_eval(expr.right, doc_tokens)
    needle = expr.text.lower().split()
    for start in range(len(doc_tokens) - len(needle) + 1):
        window = doc_tokens[start : start + len(needle)]
        if expr.wildcard:
            if window[:-1] == needle[:-1] and window[-1].startswith(needle[-1]):
                return True
        elif window == needle:
            return True
    return False


FULL_SEARCH_EXPRESSION = (
    "((Artificial intelligen*) OR (Deep Learn*) OR (Machine Learn*) OR (Reinforced Learn*) "
    "OR (Artificial Neural Network) OR (Neural Network)) "
    "and ('medical' OR 'healthcare') "
    "and ('cyber security' OR 'security') "
    "and ('factory','supply chain') "
    "and ('transport' OR 'transportation')"
)


def test_c09_query_round_trip_and_eval_oracle():
    parse_query(FULL_SEARCH_EXPRESSION)  # the four-industry search expression

    rng = np.random.default_rng(909)
    vocabulary = _QUERY_WORDS + ["alphabet", "learning", "meds", "deeper", "nets"]
    for _ in range(1000):
        tree = _random_tree(rng)
        assert parse_query(serialize_query(tree)) == tree
        for _ in range(3):
            words = [str(rng.choice(vocabulary)) for _ in range(int(rng.integers(1, 12)))]
            doc = PatentDocument("D", "t", 2020, "", " ".join(words))
            assert eval_query(tree, doc) == _oracle_eval(tree, words)


# --- criterion 10: end-to-end determinism and stage composition -------------


def test_c10_end_to_end_determinism_and_composition(tmp_path):
    final_outputs = [
        "frequencies.csv",
        "projection.csv",
        "anchor_similarity.csv",
        "trend_report.json",
        "scatter_factory.svg",
        "scatter_medical.svg",
        "scatter_security.svg",
        "scatter_transport.svg",
    ]

    start = time.perf_counter()
    first = tmp_path / "run1"
    run_pipeline(resolve_config(FIXTURE / "config.json", {"out_dir": str(first)}))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"fixture pipeline took {elapsed:.2f}s"

    second = tmp_path / "run2"
    run_pipeline(resolve_config(FIXTURE / "config.json", {"out_dir": str(second)}))
    for name in final_outputs + ["keywords.csv", "model.w2v"]:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    # staged subcommands over files must reproduce the single-shot outputs
    config = json.loads((FIXTURE / "config.json").read_text())
    staged = tmp_path / "staged"
    staged.mkdir()
    norm = staged / "corpus.norm.jsonl"
    tokens = staged / "tokens.jsonl"
    model = staged / "model.w2v"
    keywords = staged / "keywords.csv"
    out_dir = staged / "out"
    train_flags = [
        "--dim", str(config["dim"]),
        "--window", str(config["window"]),
        "--epochs", str(config["epochs"]),
        "--learning-rate", str(config["learning_rate"]),
        "--min-count", str(config["min_count"]),
        "--mode", config["mode"],
        "--negatives", str(config["negatives"]),
        "--seed", str(config["seed"]),
    ]
    assert main(["ingest", "--input", str(FIXTURE / "corpus.jsonl"), "--out", str(norm),
                 "--tokens-out", str(tokens),
                 "--extra-stopwords", str(FIXTURE / "curated_stopwords.txt")]) == EXIT_OK
    assert main(["train", "--input", str(tokens), "--out", str(model), *train_flags]) == EXIT_OK
    assert main(["extract", "--input", str(tokens), "--model", str(model),
                 "--top-n", str(config["top_n"]), "--out", str(keywords)]) == EXIT_OK
    assert main(["analyze", "--keywords", str(keywords), "--corpus", str(norm),
                 "--model", str(model), "--top-percent", str(config["top_percent"]),
                 "--cluster-threshold", str(config["cluster_threshold"]),
                 "--out-dir", str(out_dir)]) == EXIT_OK
    assert main(["plot", "--projection", str(out_dir / "projection.csv"),
                 "--out-dir", str(out_dir)]) == EXIT_OK

    assert model.read_bytes() == (first / "model.w2v").read_bytes()
    assert keywords.read_bytes() == (first / "keywords.csv").read_bytes()
    for name in final_outputs:
        assert (out_dir / name).read_bytes() == (first / name).read_bytes(), name
