"""Per-industry trend analysis: keyword frequency aggregation, top-percent
selection, stopword candidate generation, 2-D PCA projection, and
threshold clustering."""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .keywords import Embedder, ExtractionResult, extract_keywords
from .textprep import TokenStream, _write_csv

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
    _write_csv(path, ["keyword", "doc_frequency"], candidates)


@dataclass(frozen=True)
class PcaBasis:
    """Mean and top-2 orthonormal principal directions of a point cloud.

    Sign convention: each component's largest-magnitude entry is positive.
    """

    mean: np.ndarray
    components: np.ndarray  # (2, D)
    explained_variance: tuple[float, float]


def fit_pca(vectors: Sequence[np.ndarray]) -> PcaBasis:
    """Fit the top-2 PCA basis of the sample covariance.  Needs at least 3
    distinct points and dimension >= 2.

    For k points in D dimensions the top two eigenpairs come from the
    smaller of the k x k Gram matrix of the centered points and their D x D
    scatter matrix.  Only elementwise numpy and single-threaded dot products
    are used, so the bits do not depend on the BLAS thread count.  Below
    rank 2 the second component is the unit vector orthogonal to the first
    that Gram-Schmidt makes from the standard basis vector at the first's
    smallest-magnitude entry.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 3:
        raise ValueError("PCA needs at least 3 vectors")
    if X.shape[1] < 2:
        raise ValueError("PCA needs dimension >= 2")
    # the points themselves, as a mean that does not round back to them leaves rounding noise
    if (X == X[0]).all():
        raise ValueError("all points are identical; covariance is zero")
    k, D = X.shape
    mean = X.mean(axis=0)
    centered = X - mean
    rows = centered if k <= D else np.ascontiguousarray(centered.T)
    inner = np.empty((len(rows), len(rows)))
    for i, row in enumerate(rows):  # one triangle; dot(a, b) and dot(b, a) have the same bits
        inner[i, i:] = inner[i:, i] = _dots(row, rows[i:])
    if not inner.any():  # distinct points closer than ~1e-154, whose squared differences underflow
        raise ValueError("all points are identical; covariance is zero")
    eigenvalues, eigenvectors = _top_two(inner)
    rank = 2 if eigenvalues[1] > len(rows) * _EPS * eigenvalues[0] else 1
    components = eigenvectors[:rank]
    if k <= D:  # a unit eigenvector u of the Gram matrix gives C^T u / sqrt(lambda)
        components = _dots(centered.T, components[:, None, :]) / np.sqrt(eigenvalues[:rank])[:, None]
    if rank == 1:
        first = components[0]
        j = np.abs(first).argmin()
        second = -first[j] * first
        second[j] += 1.0
        components = np.stack([first, second / np.linalg.norm(second)])
    pivots = np.abs(components).argmax(axis=1)
    components *= np.sign(components[[0, 1], pivots])[:, None]
    variances = np.maximum(eigenvalues, 0.0) / (k - 1)
    return PcaBasis(mean, components, (float(variances[0]), float(variances[1])))


_EPS = float(np.finfo(np.float64).eps)
# OpenBLAS splits a dot product longer than 10,000 elements over its threads,
# which changes the bits of the sum; shorter pieces keep it on one thread
_DOT_CHUNK = 8192


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.vecdot(a, b)``, summed over pieces of the last axis in order."""
    n = a.shape[-1]
    return sum(np.vecdot(a[..., i:i + _DOT_CHUNK], b[..., i:i + _DOT_CHUNK]) for i in range(0, n, _DOT_CHUNK))


def _top_two(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two largest eigenvalues of the symmetric matrix ``A`` (s x s,
    s >= 2), largest first, and unit eigenvectors for them as the rows of
    a (2, s) array.

    Householder tridiagonalization, Sturm-sequence bisection for the two
    eigenvalues and inverse iteration for their vectors, the second kept
    orthogonal to the first (Golub & Van Loan, Matrix Computations, 8.3
    and 8.4).
    """
    s = len(A)
    exponent = math.frexp(float(np.abs(A).max()))[1]
    A = np.ldexp(A, -exponent)  # exact scaling into [-1, 1], so no square under- or overflows
    diag, off, reflectors = [], [], []
    for j in range(s - 2):
        x = A[j + 1:, j]
        norm = float(np.linalg.norm(x))
        diag.append(float(A[j, j]))
        off.append(-math.copysign(norm, x[0]))
        if norm == 0.0:  # the column is already reduced
            continue
        v = x.copy()
        v[0] -= off[-1]
        beta = 2.0 / float(np.vecdot(v, v))
        rest = A[j + 1:, j + 1:]
        p = beta * np.vecdot(rest, v)
        w = p - (beta * float(np.vecdot(p, v)) / 2.0) * v
        rest -= v[:, None] * w + w[:, None] * v
        reflectors.append((j + 1, beta, v))
    diag += [float(A[-2, -2]), float(A[-1, -1])]
    off.append(float(A[-1, -2]))

    # Gershgorin bounds hold every eigenvalue; bisect to an absolute width
    # of a few ulps of the largest bound
    radius = [abs(a) + abs(b) for a, b in zip([0.0] + off, off + [0.0])]
    lo = min(d - r for d, r in zip(diag, radius))
    hi = max(d + r for d, r in zip(diag, radius))
    scale = max(abs(lo), abs(hi))
    width = 4.0 * _EPS * scale
    off2 = [0.0] + [b * b for b in off]
    pivmin = sys.float_info.min * max(1.0, max(off2))
    values = []
    for nth in (1, 2):  # the nth largest: fewer than s - nth + 1 eigenvalues lie below it
        a, b = lo, hi + width
        while b - a > width:
            mid = (a + b) / 2.0
            if _count_below(diag, off2, mid, pivmin) <= s - nth:
                a = mid
            else:
                b = mid
        values.append((a + b) / 2.0)

    # fixed starts spread like random ones (a Weyl sequence); numpy.random
    # would cost a run that trains nothing ~5 MiB of RSS to import
    starts = np.arange(1.0, 2 * s + 1).reshape(2, s) * 0.6180339887498949 % 1.0 - 0.5
    vectors: list[np.ndarray] = []
    for value, y in zip(values, starts):
        for _ in range(3):
            y = np.array(_solve_shifted(diag, off, value, _EPS * scale, y.tolist()))
            for u in vectors:
                y -= float(np.vecdot(y, u)) * u
            y /= np.linalg.norm(y)
        vectors.append(y)
    V = np.array(vectors)
    for j, beta, v in reversed(reflectors):
        V[:, j:] -= (beta * np.vecdot(V[:, j:], v))[:, None] * v
    return np.ldexp(values, exponent), V


def _count_below(diag: list[float], off2: list[float], x: float, pivmin: float) -> int:
    """How many eigenvalues of the symmetric tridiagonal matrix with
    diagonal ``diag`` and squared off-diagonal ``off2[1:]`` lie below ``x``:
    the negative pivots of its LDL^T factorization less ``x``."""
    count, q = 0, 1.0
    for d, b2 in zip(diag, off2):
        q = d - x - b2 / q
        if abs(q) < pivmin:
            q = -pivmin
        count += q < 0
    return count


def _solve_shifted(diag: list[float], off: list[float], shift: float, floor: float, b: list[float]) -> list[float]:
    """Solve ``(T - shift I) y = b`` for the symmetric tridiagonal ``T`` by
    Gaussian elimination with partial pivoting, overwriting ``b``.  A pivot
    smaller than ``floor`` is raised to it, so a (nearly) singular shift, as
    inverse iteration uses, still gives a finite solution."""
    n = len(diag)
    upper = []  # the rows of U: a pivot and the two entries right of it
    d, e = diag[0] - shift, off[0]  # the pivot row, from its diagonal on
    for i in range(1, n):
        sub, below_d, below_e = off[i - 1], diag[i] - shift, off[i] if i < n - 1 else 0.0
        if abs(d) < abs(sub):  # rows i - 1 and i swap
            upper.append((sub, below_d, below_e))
            b[i - 1], b[i] = b[i], b[i - 1]
            m = d / sub
            d, e = e - m * below_d, -m * below_e
        else:
            upper.append((d, e, 0.0))
            m = sub / d if d else 0.0
            d, e = below_d - m * e, below_e
        b[i] -= m * b[i - 1]
    upper.append((d, 0.0, 0.0))
    y = [0.0] * (n + 2)
    for i in range(n - 1, -1, -1):
        p, e1, e2 = upper[i]
        y[i] = (b[i] - e1 * y[i + 1] - e2 * y[i + 2]) / (p if abs(p) >= floor else math.copysign(floor, p))
    return y[:n]


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
    return ClusterAssignment(clusters)
