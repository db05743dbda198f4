import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trendlens.corpus import Corpus, PatentDocument
from trendlens.keywords import ExtractionResult, KeywordScore
from trendlens.textprep import StopwordList, TokenStream, filter_stopwords, tokenize
from trendlens.trends import (
    KeywordFrequencyTable,
    ProjectedPoint,
    aggregate_keywords,
    cluster_points,
    fit_pca,
    generate_stopword_candidates,
    pairwise_distances,
    project,
    select_top_percent,
)


def doc(doc_id, industry, abstract="placeholder text"):
    return PatentDocument(doc_id, industry, 2018, "", abstract)


def base_streams(corpus, base):
    """Each document's tokens with the base stopwords removed."""
    return [filter_stopwords(TokenStream(d.id, tuple(tokenize(d.abstract))), base) for d in corpus]


def extraction(doc_id, *keywords):
    return ExtractionResult(doc_id, tuple(KeywordScore(k, 0.9) for k in keywords))


class TestAggregate:
    def test_document_frequency(self):
        corpus = Corpus((doc("A", "medical"), doc("B", "medical")))
        tables = aggregate_keywords([extraction("A", "medical"), extraction("B", "medical")], corpus)
        assert tables["medical"].counts == {"medical": 2}
        assert tables["medical"].total_docs == 2

    def test_empty_results_give_empty_tables(self):
        corpus = Corpus((doc("A", "medical"), doc("B", "security")))
        tables = aggregate_keywords([], corpus)
        assert set(tables) == {"medical", "security"}
        assert all(not t.counts for t in tables.values())

    def test_hand_tally_two_industries(self):
        corpus = Corpus(
            tuple(doc(f"M{i}", "medical") for i in range(6))
            + tuple(doc(f"S{i}", "security") for i in range(4))
        )
        results = [
            extraction("M0", "imaging", "patient"),
            extraction("M1", "imaging"),
            extraction("M2", "patient", "scan"),
            extraction("M3", "imaging", "patient"),
            extraction("M4", "scan"),
            extraction("M5", "imaging"),
            extraction("S0", "threat"),
            extraction("S1", "threat", "malware"),
            extraction("S2", "threat"),
            extraction("S3", "malware"),
        ]
        # brute-force tally by hand: imaging 4, patient 3, scan 2 / threat 3, malware 2
        tables = aggregate_keywords(results, corpus)
        assert tables["medical"].counts == {"imaging": 4, "patient": 3, "scan": 2}
        assert tables["security"].counts == {"threat": 3, "malware": 2}
        assert tables["medical"].total_docs == 6
        assert tables["security"].total_docs == 4

    def test_unknown_doc_id_rejected(self):
        corpus = Corpus((doc("A", "medical"),))
        with pytest.raises(ValueError, match="unknown"):
            aggregate_keywords([extraction("ghost", "x")], corpus)

    def test_duplicate_keyword_in_one_doc_counts_once(self):
        corpus = Corpus((doc("A", "medical"),))
        result = ExtractionResult("A", (KeywordScore("x", 0.9), KeywordScore("x", 0.8)))
        tables = aggregate_keywords([result], corpus)
        assert tables["medical"].counts == {"x": 1}

    def test_total_mass_bounded(self):
        corpus = Corpus(tuple(doc(f"D{i}", "medical") for i in range(5)))
        top_n = 3
        rng = np.random.default_rng(0)
        results = [
            extraction(f"D{i}", *rng.choice(list("abcdefgh"), size=top_n, replace=False))
            for i in range(5)
        ]
        tables = aggregate_keywords(results, corpus)
        assert sum(tables["medical"].counts.values()) <= 5 * top_n


class TestSelectTopPercent:
    def table(self, counts):
        return KeywordFrequencyTable("medical", counts, total_docs=100)

    def test_five_percent_of_hundred(self):
        counts = {f"k{i:03d}": 100 - i for i in range(100)}
        assert len(select_top_percent(self.table(counts), 5.0)) == 5

    def test_floor_of_one(self):
        counts = {f"k{i}": 10 - i for i in range(10)}
        assert select_top_percent(self.table(counts), 5.0) == ["k0"]

    def test_ceil_and_tie_break(self):
        counts = {"a": 3, "b": 3, "c": 1}
        assert select_top_percent(self.table(counts), 67.0) == ["a", "b", "c"]
        assert select_top_percent(self.table(counts), 34.0) == ["a", "b"]

    def test_ordered_by_count_then_keyword(self):
        counts = {"z": 5, "m": 7, "a": 5, "q": 2}
        assert select_top_percent(self.table(counts), 100.0) == ["m", "a", "z", "q"]

    def test_exact_boundary_percentages(self):
        counts = {f"k{i:03d}": 1 for i in range(100)}
        # 5% of 100 must be exactly 5, not a float-rounding 6
        assert len(select_top_percent(self.table(counts), 5.0)) == 5
        assert len(select_top_percent(self.table(counts), 100.0)) == 100

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            select_top_percent(self.table({}), 5.0)

    def test_bad_percent_rejected(self):
        with pytest.raises(ValueError):
            select_top_percent(self.table({"a": 1}), 0.0)
        with pytest.raises(ValueError):
            select_top_percent(self.table({"a": 1}), 101.0)

    @given(
        st.dictionaries(st.sampled_from([f"k{i}" for i in range(30)]), st.integers(1, 9), min_size=1),
        st.floats(0.5, 100.0),
    )
    def test_size_formula(self, counts, percent):
        import math

        selected = select_top_percent(self.table(counts), percent)
        assert len(selected) == max(1, math.ceil(percent * len(counts) / 100.0))
        chosen = [counts[k] for k in selected]
        assert chosen == sorted(chosen, reverse=True)


class HandEmbedder:
    """Dict-backed embedder; the document vector is the mean, as extraction expects."""

    def __init__(self, vectors):
        self.vectors = {k: np.asarray(v, dtype=np.float64) for k, v in vectors.items()}
        self.dim = len(next(iter(self.vectors.values())))

    def embed_word(self, token):
        return self.vectors.get(token)

    def embed_document(self, stream):
        rows = [self.vectors[t] for t in stream.tokens if t in self.vectors]
        return np.mean(rows, axis=0) if rows else None


class TestStopwordCandidates:
    def test_boilerplate_token_in_candidates(self):
        # 'method' occurs in every abstract and its vector sits on every
        # document's mean direction, so it lands in every top-n
        vectors = {"method": [1.0, 0.0]}
        docs = []
        for i in range(8):
            word = f"topic{i}"
            vectors[word] = [0.8, 0.6] if i % 2 == 0 else [0.8, -0.6]
            docs.append(doc(f"D{i}", "medical", f"method {word} {word}"))
        corpus = Corpus(tuple(docs))
        base = StopwordList((), "base")
        candidates = generate_stopword_candidates(
            base_streams(corpus, base), HandEmbedder(vectors), top_k=30, top_n=5
        )
        ranked = dict(candidates)
        assert ranked["method"] == 8  # document frequency equals corpus size

    def test_single_doc_candidates_subset_of_its_keywords(self):
        vectors = {"alpha": [1.0, 0.0], "beta": [0.0, 1.0]}
        corpus = Corpus((doc("D0", "medical", "alpha beta"),))
        candidates = generate_stopword_candidates(
            base_streams(corpus, StopwordList((), "base")), HandEmbedder(vectors), top_k=30, top_n=5
        )
        assert {k for k, _ in candidates} <= {"alpha", "beta"}

    def test_curated_list_suppresses_token(self):
        from trendlens.keywords import extract_keywords

        vectors = {"method": [1.0, 0.0], "scan": [0.8, 0.6], "image": [0.6, 0.8]}
        corpus = Corpus(tuple(doc(f"D{i}", "medical", "method scan image") for i in range(4)))
        embedder = HandEmbedder(vectors)
        base = StopwordList((), "base")
        candidates = generate_stopword_candidates(base_streams(corpus, base), embedder, top_k=30)
        assert "method" in {k for k, _ in candidates}

        curated = StopwordList(("method",), "curated")
        for d in corpus:
            stream = filter_stopwords(TokenStream(d.id, tuple(tokenize(d.abstract))), base, curated)
            result = extract_keywords(stream, embedder, 5)
            assert "method" not in {ks.keyword for ks in result.keywords}

    def test_top_k_truncates(self):
        vectors = {f"w{i:02d}": [1.0, i / 50.0] for i in range(40)}
        docs = [doc(f"D{i}", "m", " ".join(f"w{j:02d}" for j in range(i, i + 10))) for i in range(30)]
        corpus = Corpus(tuple(docs))
        candidates = generate_stopword_candidates(
            base_streams(corpus, StopwordList((), "base")), HandEmbedder(vectors), top_k=30, top_n=10
        )
        assert len(candidates) == 30

    def test_top_k_below_one_rejected(self):
        corpus = Corpus((doc("D0", "medical", "alpha beta"),))
        streams = base_streams(corpus, StopwordList((), "base"))
        for top_k in (0, -1):
            with pytest.raises(ValueError, match=f"top_k must be >= 1, got {top_k}"):
                generate_stopword_candidates(streams, HandEmbedder({"alpha": [1.0, 0.0]}), top_k=top_k)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            generate_stopword_candidates(
                base_streams(Corpus(()), StopwordList((), "base")), HandEmbedder({"a": [1.0, 0.0]})
            )


class TestPca:
    def test_rank_one_line_padded_to_high_dim(self):
        D = 8
        points = np.zeros((3, D))
        points[0, :2] = (-1.0, -1.0)
        points[1, :2] = (1.0, 1.0)
        basis = fit_pca(points)
        expected = np.zeros(D)
        expected[:2] = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(basis.components[0], expected, atol=1e-12)
        assert basis.explained_variance[0] == pytest.approx(2.0)
        assert basis.explained_variance[1] == pytest.approx(0.0, abs=1e-12)

    def test_isotropic_variances_comparable(self):
        rng = np.random.default_rng(17)
        points = rng.normal(size=(10_000, 2))
        basis = fit_pca(points)
        ratio = basis.explained_variance[0] / basis.explained_variance[1]
        assert 0.5 <= ratio <= 2.0

    def test_rank_two_data_distances_preserved(self):
        rng = np.random.default_rng(18)
        flat = rng.normal(size=(40, 2)) @ rng.normal(size=(2, 64))
        basis = fit_pca(flat)
        projected = np.array([project(basis, p) for p in flat])
        full = np.linalg.norm(flat[:, None] - flat[None, :], axis=-1)
        low = np.linalg.norm(projected[:, None] - projected[None, :], axis=-1)
        off = ~np.eye(len(flat), dtype=bool)
        np.testing.assert_allclose(low[off] / full[off], 1.0, atol=1e-8)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(19)
        basis = fit_pca(rng.normal(size=(30, 12)))
        gram = basis.components @ basis.components.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)

    def test_variances_ordered_and_nonnegative(self):
        rng = np.random.default_rng(20)
        basis = fit_pca(rng.normal(size=(25, 6)) * np.array([5, 1, 1, 1, 1, 1]))
        assert basis.explained_variance[0] >= basis.explained_variance[1] >= 0.0

    def test_sign_convention(self):
        rng = np.random.default_rng(21)
        basis = fit_pca(rng.normal(size=(30, 5)))
        for comp in basis.components:
            assert comp[int(np.argmax(np.abs(comp)))] > 0

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(22)
        data = rng.normal(size=(20, 10))
        a, b = fit_pca(data), fit_pca(data)
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.mean, b.mean)
        assert a.explained_variance == b.explained_variance

    def test_too_few_vectors_rejected(self):
        with pytest.raises(ValueError, match="3"):
            fit_pca(np.ones((2, 4)))

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            fit_pca(np.ones((5, 4)))


class TestProject:
    def test_mean_maps_to_origin(self):
        rng = np.random.default_rng(23)
        data = rng.normal(size=(10, 6))
        basis = fit_pca(data)
        assert project(basis, basis.mean) == (0.0, 0.0)

    def test_component_maps_to_unit_axis(self):
        rng = np.random.default_rng(24)
        basis = fit_pca(rng.normal(size=(10, 6)))
        x, y = project(basis, basis.mean + basis.components[0])
        assert (x, y) == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-12))

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(25)
        data = rng.normal(size=(12, 7))
        basis = fit_pca(data)
        vec = rng.normal(size=7)
        expected = basis.components @ (vec - basis.mean)
        assert project(basis, vec) == (expected[0], expected[1])


def points_from(coords, names=None):
    names = names or [f"kw{i:02d}" for i in range(len(coords))]
    return [ProjectedPoint(n, (float(x), float(y))) for n, (x, y) in zip(names, coords)]


class TestDistances:
    def test_three_four_five(self):
        d = pairwise_distances(points_from([(0, 0), (3, 4)]))
        assert d[0, 1] == d[1, 0] == 5.0

    def test_identical_points(self):
        d = pairwise_distances(points_from([(1, 1), (1, 1)]))
        assert d[0, 1] == 0.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(26)
        coords = rng.normal(size=(5, 2))
        d = pairwise_distances(points_from(coords))
        for i in range(5):
            assert d[i, i] == 0.0
            for j in range(5):
                expected = ((coords[i, 0] - coords[j, 0]) ** 2 + (coords[i, 1] - coords[j, 1]) ** 2) ** 0.5
                assert d[i, j] == pytest.approx(expected, abs=1e-12)
                assert d[i, j] == d[j, i]

    def test_triangle_inequality(self):
        rng = np.random.default_rng(27)
        d = pairwise_distances(points_from(rng.normal(size=(8, 2))))
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def union_find_components(coords, threshold):
    """Independent union-find oracle over the threshold graph."""
    parent = list(range(len(coords)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            dx = coords[i][0] - coords[j][0]
            dy = coords[i][1] - coords[j][1]
            if (dx * dx + dy * dy) ** 0.5 <= threshold:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(coords)):
        groups.setdefault(find(i), []).append(i)
    return {frozenset(g) for g in groups.values()}


class TestClustering:
    def test_far_points_are_singletons(self):
        points = points_from([(0, 0), (10, 0)])
        assignment = cluster_points(points, 1.0)
        assert [members for _, members in assignment.clusters] == [("kw00",), ("kw01",)]

    def test_chain_is_transitive(self):
        points = points_from([(0, 0), (0, 0.9), (0, 1.8)])
        assignment = cluster_points(points, 1.0)
        assert len(assignment.clusters) == 1
        assert assignment.clusters[0][1] == ("kw00", "kw01", "kw02")

    def test_threshold_above_diameter_gives_one_cluster(self):
        rng = np.random.default_rng(28)
        points = points_from(rng.normal(size=(10, 2)))
        d = pairwise_distances(points)
        assignment = cluster_points(points, float(d.max()) + 0.1)
        assert len(assignment.clusters) == 1

    def test_ids_ordered_by_smallest_member(self):
        points = points_from([(0, 0), (10, 0), (20, 0)], names=["zebra", "apple", "mango"])
        assignment = cluster_points(points, 1.0)
        assert [m[0] for _, m in assignment.clusters] == ["apple", "mango", "zebra"]
        assert [cid for cid, _ in assignment.clusters] == [0, 1, 2]

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            coords = rng.uniform(-1, 1, size=(n, 2))
            threshold = float(rng.uniform(0.05, 1.0))
            assignment = cluster_points(points_from(coords), threshold)
            ours = {frozenset(members) for _, members in assignment.clusters}
            names = [f"kw{i:02d}" for i in range(n)]
            oracle = {
                frozenset(names[i] for i in group)
                for group in union_find_components(coords.tolist(), threshold)
            }
            assert ours == oracle

    @settings(deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_invariant_under_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        coords = rng.uniform(-1, 1, size=(n, 2))
        points = points_from(coords)
        threshold = float(rng.uniform(0.05, 1.5))
        base = cluster_points(points, threshold)
        perm = rng.permutation(n)
        shuffled = cluster_points([points[i] for i in perm], threshold)
        assert base.clusters == shuffled.clusters

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            cluster_points(points_from([(0, 0)]), 0.0)
