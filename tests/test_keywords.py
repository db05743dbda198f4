import re

import numpy as np
import pytest

from trendlens.embedding import (
    EmbeddingModel,
    ModelFormatError,
    Vocabulary,
    cosine_similarity,
    save_model,
)
from trendlens.keywords import (
    ExtractionResult,
    FileEmbedder,
    KeywordScore,
    ReferenceEmbedder,
    extract_keywords,
    load_document_vectors,
    load_extractions,
    save_document_vectors,
    save_extractions,
)
from trendlens.textprep import StopwordList, TokenStream, filter_stopwords


def model_from(vectors: dict, seed=0):
    words = tuple(sorted(vectors))
    matrix = np.array([vectors[w] for w in words], dtype=np.float64)
    vocab = Vocabulary(words, tuple([1] * len(words)))
    return EmbeddingModel(vocab, matrix, np.zeros_like(matrix), seed)


def random_model(V, D, seed):
    rng = np.random.default_rng(seed)
    return model_from({f"w{i:03d}": rng.normal(size=D) for i in range(V)})


def stream(*tokens, doc_id="D"):
    return TokenStream(doc_id, tuple(tokens))


def document_vectors(embedder, streams):
    """Document vectors as extraction computes them, keyed by doc id;
    documents with no embeddable word are skipped, as extraction skips them."""
    out = {}
    for s in streams:
        if not any(embedder.embed_word(t) is not None for t in set(s.tokens)):
            continue
        vec = embedder.embed_document(s)
        if vec is not None:
            out[s.doc_id] = vec
    return out


def oracle_extract(stream, embedder, top_n):
    """The per-candidate extraction loop: one cosine_similarity call per
    candidate word, then a full sort on (-score, token)."""
    candidates = [
        (token, vec)
        for token in sorted(set(stream.tokens))
        if (vec := embedder.embed_word(token)) is not None
    ]
    if not candidates:
        return ExtractionResult(stream.doc_id, (), warning="no scoreable candidates")
    doc_vec = embedder.embed_document(stream)
    if doc_vec is None:
        return ExtractionResult(stream.doc_id, (), warning="no document vector")
    if not np.linalg.norm(doc_vec) > 0:
        return ExtractionResult(stream.doc_id, (), warning="zero-norm document vector")
    scored = [(token, cosine_similarity(vec, doc_vec)) for token, vec in candidates]
    scored.sort(key=lambda ts: (-ts[1], ts[0]))
    return ExtractionResult(stream.doc_id, tuple(KeywordScore(t, s) for t, s in scored[:top_n]))


class HandEmbedder:
    """Serves fixed word and document vectors as given, in any dtype or shape."""

    def __init__(self, words, doc, dim=2):
        self.words, self.doc, self.dim = words, doc, dim

    def embed_word(self, token):
        return self.words.get(token)

    def embed_document(self, stream):
        return self.doc


class TestReferenceEmbedder:
    def test_repeated_token_mean_equals_its_vector(self):
        model = model_from({"solar": [1.0, 2.0], "wind": [0.0, 1.0]})
        embedder = ReferenceEmbedder(model)
        doc_vec = embedder.embed_document(stream("solar", "solar", "solar"))
        np.testing.assert_array_equal(doc_vec, model.vector("solar"))

    def test_two_words_give_midpoint(self):
        model = model_from({"a": [0.0, 0.0], "b": [2.0, 4.0]})
        embedder = ReferenceEmbedder(model)
        np.testing.assert_array_equal(embedder.embed_document(stream("a", "b")), [1.0, 2.0])

    def test_all_unknown_tokens_error(self):
        embedder = ReferenceEmbedder(model_from({"a": [1.0, 0.0]}))
        with pytest.raises(ValueError, match="no in-vocabulary"):
            embedder.embed_document(stream("x", "y"))

    def test_unknown_word_absent(self):
        embedder = ReferenceEmbedder(model_from({"a": [1.0, 0.0]}))
        assert embedder.embed_word("zzz") is None

    def test_zero_vector_never_returned(self):
        embedder = ReferenceEmbedder(model_from({"a": [0.0, 0.0], "b": [1.0, 0.0]}))
        assert embedder.embed_word("a") is None


class TestFileEmbedder:
    def test_dimension_mismatch(self, tmp_path):
        doc_path, word_path = tmp_path / "d.vec", tmp_path / "w.vec"
        save_document_vectors({"D1": np.zeros(4) + 1.0}, doc_path)
        save_model(random_model(3, 8, 0), word_path)
        with pytest.raises(ModelFormatError, match="mismatch"):
            FileEmbedder.from_files(doc_path, word_path)

    def test_lookup_returns_stored_vector(self, tmp_path):
        doc_path, word_path = tmp_path / "d.vec", tmp_path / "w.vec"
        model = random_model(3, 4, 1)
        stored = np.array([1.0, 2.0, 3.0, 4.0])
        save_document_vectors({"D1": stored}, doc_path)
        save_model(model, word_path)
        embedder = FileEmbedder.from_files(doc_path, word_path)
        np.testing.assert_array_equal(embedder.embed_document(stream(doc_id="D1")), stored)
        assert embedder.embed_document(stream(doc_id="other")) is None

    def test_docvec_round_trip(self, tmp_path):
        path = tmp_path / "d.vec"
        vectors = {"A": np.array([0.1, 0.2]), "B": np.array([1e-300, -7.5])}
        save_document_vectors(vectors, path)
        loaded, dim = load_document_vectors(path)
        assert dim == 2
        for key in vectors:
            np.testing.assert_array_equal(loaded[key], vectors[key])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_docvec_non_finite_names_path_and_doc(self, tmp_path, value):
        path = tmp_path / "d.vec"
        path.write_text(f"trendlens-docvec 1 3 2\nA 0.1 0.2\nB 0.5 {value}\nC 1.0 2.0\n")
        with pytest.raises(ModelFormatError, match=re.escape(f"{path}: doc 'B': non-finite")):
            load_document_vectors(path)

    def test_doc_id_with_space_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="whitespace"):
            save_document_vectors({"bad id": np.zeros(2)}, tmp_path / "d.vec")

    def test_zero_dimension_not_written(self, tmp_path):
        with pytest.raises(ValueError, match="positive dimension"):
            save_document_vectors({"D1": np.zeros(0)}, tmp_path / "d.vec")

    def test_docvec_exact_bytes(self, tmp_path):
        path = tmp_path / "d.vec"
        vectors = {"A": np.array([0.1, 1e-300]), "B": np.array([-7.5, 0.1], dtype=np.float32)}
        save_document_vectors(vectors, path)
        assert path.read_bytes() == (
            b"trendlens-docvec 1 2 2\nA 0.1 1e-300\nB -7.5 0.10000000149011612\n"
        )

    @pytest.mark.parametrize(
        "body, error",
        [
            ("-1 2\n", "bad header (N=-1, D=2)"),
            ("1 0\nA\n", "bad header (N=1, D=0)"),
            ("2 2\nA 0.1 0.2\nA 0.3 0.4\n", "duplicate doc 'A'"),
            ("2 2\nA 0.1 0.2\nB 0.3\n", "doc 'B': expected 2 values, got 1"),
            ("2 2\nA 0.1 0.2\nB 0.3 1d5\n", "doc 'B': malformed float"),
            ("3 2\nA 0.1 0.2\nB 0.3 0.4\n", "unexpected end of file in document block"),
            ("1 2\nA 0.1 0.2\nB 0.3 0.4\n", "unexpected extra line 'B 0.3 0.4'"),
        ],
    )
    def test_docvec_malformed_names_path_and_doc(self, tmp_path, body, error):
        path = tmp_path / "d.vec"
        path.write_text("trendlens-docvec 1 " + body)
        with pytest.raises(ModelFormatError, match=re.escape(f"{path}: {error}")):
            load_document_vectors(path)

    def test_file_embedder_reproduces_reference_extraction(self, tmp_path):
        model = random_model(40, 6, seed=5)
        rng = np.random.default_rng(6)
        streams = [
            TokenStream(f"D{i}", tuple(rng.choice([f"w{j:03d}" for j in range(40)], size=12)))
            for i in range(10)
        ]
        reference = ReferenceEmbedder(model)
        doc_path, word_path = tmp_path / "d.vec", tmp_path / "w.vec"
        save_document_vectors(document_vectors(reference, streams), doc_path)
        save_model(model, word_path)
        from_files = FileEmbedder.from_files(doc_path, word_path)
        for s in streams:
            assert extract_keywords(s, reference, 5) == extract_keywords(s, from_files, 5)

    def test_file_embedder_keeps_only_the_rows_of_its_words(self, tmp_path):
        model = random_model(60, 6, seed=7)
        rng = np.random.default_rng(8)
        lexicon = [f"w{j:03d}" for j in range(0, 60, 2)] + ["oov"]  # half the model's words, and one it lacks
        streams = [TokenStream(f"D{i}", tuple(rng.choice(lexicon, size=12))) for i in range(10)]
        doc_path, word_path = tmp_path / "d.vec", tmp_path / "w.vec"
        save_document_vectors(document_vectors(ReferenceEmbedder(model), streams), doc_path)
        save_model(model, word_path)
        words = {t for s in streams for t in s.tokens}
        partial = FileEmbedder.from_files(doc_path, word_path, words)
        assert partial.model.vocab.words == tuple(w for w in model.vocab.words if w in words)
        whole = FileEmbedder.from_files(doc_path, word_path)
        for s in streams:
            assert extract_keywords(s, partial, 5) == extract_keywords(s, whole, 5)


class TestExtract:
    def test_single_repeated_token_scores_one(self):
        model = model_from({"solar": [3.0, 4.0]})
        result = extract_keywords(stream("solar", "solar", "solar"), ReferenceEmbedder(model), 5)
        assert [(ks.keyword, ks.score) for ks in result.keywords] == [("solar", 1.0)]

    def test_matches_brute_force_oracle(self):
        model = random_model(60, 8, seed=3)
        rng = np.random.default_rng(4)
        vocab_words = list(model.vocab.words)
        for i in range(100):
            tokens = tuple(rng.choice(vocab_words + ["oov1", "oov2"], size=15))
            doc = TokenStream(f"D{i}", tokens)
            result = extract_keywords(doc, ReferenceEmbedder(model), 5)

            # independent oracle: score every candidate, fully sort, truncate
            known = sorted({t for t in tokens if t in model.vocab.index})
            rows = [model.vector(t) for t in tokens if t in model.vocab.index]
            doc_vec = np.mean(rows, axis=0)
            scored = []
            for t in known:
                v = model.vector(t)
                scored.append((t, float(v @ doc_vec / (np.linalg.norm(v) * np.linalg.norm(doc_vec)))))
            scored.sort(key=lambda ts: (-ts[1], ts[0]))
            assert [(k.keyword, k.score) for k in result.keywords] == scored[:5]

    def test_ties_break_lexicographically(self):
        shared = [0.6, 0.8]
        model = model_from({"zeta": shared, "alpha": shared, "mid": [1.0, 0.0]})
        result = extract_keywords(stream("zeta", "alpha", "mid"), ReferenceEmbedder(model), 3)
        keywords = [ks.keyword for ks in result.keywords]
        assert keywords.index("alpha") < keywords.index("zeta")

    def test_stopwords_excluded_from_candidates(self):
        model = model_from({"the": [1.0, 0.0], "signal": [0.9, 0.1]})
        stop = StopwordList(("the",))
        result = extract_keywords(filter_stopwords(stream("the", "signal"), stop), ReferenceEmbedder(model), 5)
        assert [ks.keyword for ks in result.keywords] == ["signal"]

    def test_no_candidates_warns_not_raises(self):
        model = model_from({"a": [1.0, 0.0]})
        result = extract_keywords(stream("x", "y"), ReferenceEmbedder(model), 5)
        assert result.keywords == ()
        assert result.warning is not None

    def test_all_stopwords_warns(self):
        model = model_from({"a": [1.0, 0.0]})
        stop = StopwordList(("a",))
        result = extract_keywords(filter_stopwords(stream("a", "a"), stop), ReferenceEmbedder(model), 5)
        assert result.keywords == () and result.warning

    def test_top_n_truncates(self):
        model = random_model(20, 4, seed=8)
        doc = TokenStream("D", tuple(model.vocab.words))
        result = extract_keywords(doc, ReferenceEmbedder(model), 3)
        assert len(result.keywords) == 3

    def test_invalid_top_n(self):
        model = model_from({"a": [1.0, 0.0]})
        with pytest.raises(ValueError):
            extract_keywords(stream("a"), ReferenceEmbedder(model), 0)

    def test_order_of_duplicate_tokens_irrelevant(self):
        model = random_model(10, 4, seed=9)
        words = list(model.vocab.words)[:6]
        tokens = words + words[:3]
        a = extract_keywords(TokenStream("D", tuple(tokens)), ReferenceEmbedder(model), 4)
        b = extract_keywords(TokenStream("D", tuple(reversed(tokens))), ReferenceEmbedder(model), 4)
        assert a.keywords == b.keywords

    def test_ranking_invariant_under_uniform_scaling(self):
        base = random_model(30, 6, seed=10)
        scaled = model_from({w: 3.5 * base.vector(w) for w in base.vocab.words})
        rng = np.random.default_rng(11)
        tokens = tuple(rng.choice(base.vocab.words, size=12))
        doc = TokenStream("D", tokens)
        a = extract_keywords(doc, ReferenceEmbedder(base), 6)
        b = extract_keywords(doc, ReferenceEmbedder(scaled), 6)
        assert [k.keyword for k in a.keywords] == [k.keyword for k in b.keywords]

    def test_result_invariants(self):
        model = random_model(25, 5, seed=12)
        rng = np.random.default_rng(13)
        stop = StopwordList(("w001", "w002"))
        for i in range(20):
            tokens = tuple(rng.choice(model.vocab.words, size=10))
            doc = filter_stopwords(TokenStream(f"D{i}", tokens), stop)
            result = extract_keywords(doc, ReferenceEmbedder(model), 4)
            scores = [ks.score for ks in result.keywords]
            assert scores == sorted(scores, reverse=True)
            assert len({ks.keyword for ks in result.keywords}) == len(result.keywords)
            for ks in result.keywords:
                assert ks.keyword in tokens
                assert ks.keyword not in stop
                assert -1.0 - 1e-12 <= ks.score <= 1.0 + 1e-12


class TestBatchedScoresMatchOracle:
    """Every score of extract_keywords equals the per-candidate
    cosine_similarity loop bit for bit, and the same inputs fail."""

    def assert_matches(self, embedder, streams):
        for s in streams:
            everything = len(set(s.tokens)) + 1  # compare every candidate's score
            assert extract_keywords(s, embedder, everything) == oracle_extract(s, embedder, everything)
            assert extract_keywords(s, embedder, 3) == oracle_extract(s, embedder, 3)

    def random_streams(self, words, seed, n=30, oov=("oov1", "oov2")):
        rng = np.random.default_rng(seed)
        pool = list(words) + list(oov)
        return [
            TokenStream(f"D{i}", tuple(rng.choice(pool, size=int(rng.integers(1, 40)))))
            for i in range(n)
        ]

    @pytest.mark.parametrize("seed, V, D", [(0, 50, 8), (1, 200, 64), (2, 30, 300), (3, 5, 1)])
    def test_random_reference_models(self, seed, V, D):
        model = random_model(V, D, seed)
        model.input_vectors[V // 2] = 0.0  # a zero row is never a candidate
        self.assert_matches(ReferenceEmbedder(model), self.random_streams(model.vocab.words, seed + 100))

    def test_planted_ties_and_repeated_tokens(self):
        rng = np.random.default_rng(21)
        shared, other = rng.normal(size=6), rng.normal(size=6)
        vectors = {f"t{i}": shared for i in range(6)}  # exact ties, broken by token
        vectors.update({f"s{i}": (i + 1) * other for i in range(4)})  # ties up to rounding
        vectors.update({f"w{i}": rng.normal(size=6) for i in range(10)})
        model = model_from(vectors)
        words = sorted(vectors)
        streams = [TokenStream("rep", tuple(words[:3] * 7 + words))]
        streams += self.random_streams(words, 22, oov=())
        self.assert_matches(ReferenceEmbedder(model), streams)

    def test_hand_embedder_with_float32_rows(self):
        model = random_model(40, 12, seed=31)
        words = {w: model.vector(w).astype(np.float32) for w in model.vocab.words}
        for s in self.random_streams(model.vocab.words, 32):
            doc = np.mean([words[t] for t in s.tokens if t in words], axis=0, dtype=np.float32)
            hand = HandEmbedder(words, doc, dim=12)
            assert extract_keywords(s, hand, 100) == oracle_extract(s, hand, 100)

    def test_file_embedder(self, tmp_path):
        model = random_model(60, 10, seed=41)
        streams = self.random_streams(model.vocab.words, 42)
        doc_path, word_path = tmp_path / "d.vec", tmp_path / "w.vec"
        save_document_vectors(document_vectors(ReferenceEmbedder(model), streams), doc_path)
        save_model(model, word_path)
        self.assert_matches(FileEmbedder.from_files(doc_path, word_path), streams)

    def test_word_norm_underflow_is_zero_norm_error(self):
        model = model_from({"big": [1.0, 0.0], "tiny": [1e-200, 0.0]})
        doc = stream("big", "tiny")
        for extract in (extract_keywords, oracle_extract):
            with pytest.raises(ValueError, match="zero-norm"):
                extract(doc, ReferenceEmbedder(model), 5)

    @pytest.mark.parametrize("words", [
        {"a": np.ones(3), "b": np.ones(3)},  # every word 3-d, the document 2-d
        {"a": np.ones(2), "b": np.ones(3)},  # words of two lengths
    ])
    def test_mismatched_shapes_fail(self, words):
        hand = HandEmbedder(words, np.ones(2))
        for extract in (extract_keywords, oracle_extract):
            with pytest.raises(ValueError):
                extract(stream("a", "b"), hand, 5)


class TestExtractionCsv:
    def test_round_trip_keywords(self, tmp_path):
        results = [
            ExtractionResult("D1", ()),  # empty extraction leaves no rows
            ExtractionResult("D2", (KeywordScore("alpha", 0.75), KeywordScore("beta", 0.5))),
        ]
        path = tmp_path / "k.csv"
        save_extractions(results, path)
        loaded = load_extractions(path)
        assert [r.doc_id for r in loaded] == ["D2"]
        assert [ks.keyword for ks in loaded[0].keywords] == ["alpha", "beta"]

    def test_scores_written_six_decimals(self, tmp_path):
        path = tmp_path / "k.csv"
        save_extractions([ExtractionResult("D", (KeywordScore("a", 1 / 3),))], path)
        assert "0.333333" in path.read_text()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError, match="header"):
            load_extractions(path)

    @pytest.mark.parametrize(
        "row, error",
        [
            ("D2,1,beta,abc", "score 'abc' is not a finite number"),
            ("D2,1,beta", "expected 4 fields, got 3"),
            ("D2,1,beta,nan", "score 'nan' is not a finite number"),
            ("D2,1,beta,-inf", "score '-inf' is not a finite number"),
            ("D2,x,beta,0.4", "rank 'x', expected 1"),
            ("D2,2,beta,0.4", "rank '2', expected 1"),
            ("D1,1,beta,0.4", "rank '1', expected 2"),
            ("D1,3,beta,0.4", "rank '3', expected 2"),
            ("D1, 2,beta,0.4", "rank ' 2', expected 2"),
            ("D2,1,beta,0.4\nD1,2,gamma,0.3", "rows of doc_id 'D1' are not contiguous"),
        ],
    )
    def test_malformed_row_names_path_and_line(self, tmp_path, row, error):
        """Each row fails on the last line it adds after the header and D1's
        first row; ranks run 1, 2, ... within a document whose rows are
        contiguous."""
        path = tmp_path / "k.csv"
        path.write_text(f"doc_id,rank,keyword,score\nD1,1,alpha,0.5\n{row}\n")
        line = 3 + row.count("\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {error}")):
            load_extractions(path)

    @pytest.mark.parametrize("row, error", [
        ('D2,1,"beta,0.4\nD3,1,gamma,0.3', "unexpected end of data"),
        ("D2,1,beta," + "1" * 140_000, "field larger than field limit (131072)"),
    ])
    def test_strict_csv_names_path_and_line(self, tmp_path, row, error):
        """An unterminated quote fails at the end of the file, not by
        swallowing later rows; an over-long field fails on its line."""
        path = tmp_path / "k.csv"
        path.write_text(f"doc_id,rank,keyword,score\nD1,1,alpha,0.5\n{row}\n")
        line = 3 + row.count("\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {error}")):
            load_extractions(path)
