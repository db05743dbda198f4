"""Per-industry trend analysis: keyword frequency aggregation, top-percent
selection, stopword candidate generation, 2-D PCA projection, and
threshold clustering."""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .keywords import Embedder, ExtractionResult, extract_keywords
from .textprep import TokenStream

__all__ = [
    "KeywordFrequencyTable",
    "PcaBasis",
    "ProjectedPoint",
    "ClusterAssignment",
    "aggregate_keywords",
    "select_top_percent",
    "generate_stopword_candidates",
    "fit_pca",
    "project",
    "pairwise_distances",
    "cluster_points",
    "save_candidates",
]

DEFAULT_TOP_K = 30  # stopword candidates kept for curation
DEFAULT_TOP_N = 5  # keywords kept per document

@dataclass(frozen=True)
class KeywordFrequencyTable:
    """Document frequency of extracted keywords within one industry."""

    industry: str
    counts: dict[str, int]
    total_docs: int


def aggregate_keywords(
    results: Sequence[ExtractionResult], corpus: Corpus
) -> dict[str, KeywordFrequencyTable]:
    """Count, per industry, the number of documents whose extraction
    contains each keyword (document frequency, not occurrences)."""
    by_id = {doc.id: doc for doc in corpus.documents}
    industry_docs = Counter(doc.industry for doc in corpus.documents)
    counters: dict[str, Counter] = {industry: Counter() for industry in corpus.industries}
    for result in results:
        doc = by_id.get(result.doc_id)
        if doc is None:
            raise ValueError(f"extraction result for unknown document id {result.doc_id!r}")
        counters[doc.industry].update({ks.keyword for ks in result.keywords})
    return {
        industry: KeywordFrequencyTable(industry, dict(counters[industry]), industry_docs[industry])
        for industry in corpus.industries
    }


def select_top_percent(table: KeywordFrequencyTable, percent: float) -> list[str]:
    """The max(1, ceil(percent% of distinct keywords)) most frequent
    keywords, ordered by (count desc, keyword asc)."""
    if not 0 < percent <= 100:
        raise ValueError("percent must be in (0, 100]")
    if not table.counts:
        raise ValueError(f"industry {table.industry!r} has no extracted keywords")
    m = max(1, math.ceil(percent * len(table.counts) / 100.0))
    ranked = sorted(table.counts.items(), key=lambda kc: (-kc[1], kc[0]))
    return [keyword for keyword, _ in ranked[:m]]


def generate_stopword_candidates(
    streams: Sequence[TokenStream],
    embedder: Embedder,
    top_k: int = DEFAULT_TOP_K,
    top_n: int = DEFAULT_TOP_N,
) -> list[tuple[str, int]]:
    """Corpus-wide stopword candidates: extract keywords from every
    stream, then rank by document frequency.

    ``streams`` are the documents' tokens with the base stopwords already
    removed.  The output is meant for human curation; nothing is
    auto-promoted to a stopword list.
    """
    if not streams:
        raise ValueError("no token streams")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k!r}")
    freq: Counter = Counter()
    for stream in streams:
        result = extract_keywords(stream, embedder, top_n)
        freq.update({ks.keyword for ks in result.keywords})
    ranked = sorted(freq.items(), key=lambda kc: (-kc[1], kc[0]))
    return ranked[:top_k]


def save_candidates(candidates: Sequence[tuple[str, int]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["keyword", "doc_frequency"])
        writer.writerows(candidates)


@dataclass(frozen=True)
class PcaBasis:
    """Mean and top-2 orthonormal principal directions of a point cloud.

    Sign convention: each component's largest-magnitude entry is positive.
    """

    mean: np.ndarray
    components: np.ndarray  # (2, D)
    explained_variance: tuple[float, float]


def fit_pca(vectors: Sequence[np.ndarray]) -> PcaBasis:
    """Fit the top-2 PCA basis from the eigendecomposition of the sample
    covariance.  Needs at least 3 distinct points and dimension >= 2.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 3:
        raise ValueError("PCA needs at least 3 vectors")
    if X.shape[1] < 2:
        raise ValueError("PCA needs dimension >= 2")
    mean = X.mean(axis=0)
    centered = X - mean
    if not centered.any():
        raise ValueError("all points are identical; covariance is zero")
    cov = centered.T @ centered / (X.shape[0] - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)  # ascending
    components = eigenvectors.T[[-1, -2]]  # top two, largest first
    pivots = np.abs(components).argmax(axis=1)
    components *= np.sign(components[[0, 1], pivots])[:, None]
    variances = np.maximum(eigenvalues[[-1, -2]], 0.0)
    return PcaBasis(mean, components, (float(variances[0]), float(variances[1])))


def project(basis: PcaBasis, vector: np.ndarray) -> tuple[float, float]:
    """Coordinates of ``vector`` in the fitted 2-D basis."""
    xy = basis.components @ (np.asarray(vector, dtype=np.float64) - basis.mean)
    return float(xy[0]), float(xy[1])


@dataclass(frozen=True)
class ProjectedPoint:
    keyword: str
    xy: tuple[float, float]


def pairwise_distances(points: Sequence[ProjectedPoint]) -> np.ndarray:
    """Symmetric matrix of 2-D Euclidean distances; zero diagonal."""
    coords = np.asarray([p.xy for p in points], dtype=np.float64)
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


@dataclass(frozen=True)
class ClusterAssignment:
    """Partition of a point set; ids 0..k-1 ordered by smallest member."""

    clusters: tuple[tuple[int, tuple[str, ...]], ...]
    threshold: float

    def labels(self) -> dict[str, int]:
        return {kw: cid for cid, members in self.clusters for kw in members}


def cluster_points(points: Sequence[ProjectedPoint], threshold: float) -> ClusterAssignment:
    """Group points into connected components of the graph linking pairs
    within ``threshold`` (single-linkage with a distance cutoff).

    Implemented as breadth-first traversal over the threshold graph; two
    points share a cluster exactly when a chain of short hops joins them.
    The result does not depend on input order.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    n = len(points)
    dist = pairwise_distances(points)
    unvisited = set(range(n))
    groups: list[list[str]] = []
    while unvisited:
        start = min(unvisited)
        unvisited.discard(start)
        component = [start]
        frontier = [start]
        while frontier:
            i = frontier.pop()
            linked = [j for j in unvisited if dist[i, j] <= threshold]
            for j in linked:
                unvisited.discard(j)
            component.extend(linked)
            frontier.extend(linked)
        groups.append(sorted(points[i].keyword for i in component))
    groups.sort(key=lambda members: members[0])
    clusters = tuple((cid, tuple(members)) for cid, members in enumerate(groups))
    return ClusterAssignment(clusters, threshold)
