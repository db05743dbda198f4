"""Keyword extraction: rank a document's words by cosine similarity to the
document's own embedding and keep the top n.

The procedure is embedder-agnostic.  ``ReferenceEmbedder`` derives both
sides from a trained skip-gram model (document vector = mean of in-vocab
word vectors); ``FileEmbedder`` serves vectors produced elsewhere (for
example by a transformer) from two text files, so swapping the embedding
source changes nothing downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Mapping, Protocol, Sequence

import numpy as np

from .embedding import (
    EmbeddingModel,
    ModelFormatError,
    load_document_vectors,
    load_model,
    save_document_vectors,
)
from .textprep import TokenStream, _csv_table, _write_csv

__all__ = [
    "Embedder",
    "ReferenceEmbedder",
    "FileEmbedder",
    "KeywordScore",
    "ExtractionResult",
    "extract_keywords",
    "save_extractions",
    "load_extractions",
    "save_document_vectors",
    "load_document_vectors",
]

class Embedder(Protocol):
    """Vector source for documents and words sharing one dimension."""

    def embed_document(self, stream: TokenStream) -> np.ndarray | None: ...

    def embed_word(self, token: str) -> np.ndarray | None: ...


@dataclass(frozen=True)
class KeywordScore:
    keyword: str
    score: float


@dataclass(frozen=True)
class ExtractionResult:
    """Top keywords of one document, strictly sorted by (score desc, keyword asc)."""

    doc_id: str
    keywords: tuple[KeywordScore, ...]
    warning: str | None = None


class ReferenceEmbedder:
    """Embedder backed by a trained model; the document vector is the mean
    of its in-vocabulary token vectors, so repeated words pull the mean."""

    def __init__(self, model: EmbeddingModel):
        self.model = model
        self._index = model.vocab.index
        self._nonzero = model.input_vectors.any(axis=1).tolist()

    def embed_word(self, token: str) -> np.ndarray | None:
        i = self._index.get(token)
        if i is None or not self._nonzero[i]:
            return None
        return self.model.input_vectors[i]

    def embed_document(self, stream: TokenStream) -> np.ndarray:
        ids = [self._index[t] for t in stream.tokens if t in self._index]
        if not ids:
            raise ValueError(f"document {stream.doc_id!r} has no in-vocabulary tokens")
        return self.model.input_vectors[ids].mean(axis=0)


class FileEmbedder(ReferenceEmbedder):
    """Embedder backed by externally produced vector files.

    Word vectors come from a model file and are looked up as
    :class:`ReferenceEmbedder` does; document vectors are keyed by doc id,
    and an unknown doc id has none.  With the set ``words``, only their rows
    of the word-vector file are kept, as ``load_model(path, words)`` keeps them.
    """

    def __init__(self, model: EmbeddingModel, doc_vectors: Mapping[str, np.ndarray]):
        super().__init__(model)
        self._docs = doc_vectors

    @classmethod
    def from_files(cls, doc_vectors_path: str | Path, word_vectors_path: str | Path,
                   words: Collection[str] | None = None) -> "FileEmbedder":
        docs, doc_dim = load_document_vectors(doc_vectors_path)
        model = load_model(word_vectors_path, words)
        if doc_dim != model.dim:
            raise ModelFormatError(
                f"dimension mismatch: document vectors are {doc_dim}-d, word vectors are {model.dim}-d"
            )
        return cls(model, docs)

    def embed_document(self, stream: TokenStream) -> np.ndarray | None:
        return self._docs.get(stream.doc_id)


def extract_keywords(stream: TokenStream, embedder: Embedder, top_n: int) -> ExtractionResult:
    """Score the document's candidate words against its document vector.

    Streams arrive stopword-filtered (see ``filter_stopwords``), so every
    token counts: candidates are the unique tokens the embedder knows, and
    the document vector is taken over the whole stream.  A document with
    nothing scoreable yields an empty result carrying a warning instead of
    an error.
    """
    if top_n < 1:
        raise ValueError("top_n must be positive")
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
    tokens, vecs = zip(*candidates)
    W = np.array(vecs, dtype=np.float64)
    d = np.asarray(doc_vec, dtype=np.float64)
    if d.ndim != 1 or W.shape[1:] != d.shape:
        raise ValueError(f"vectors must share one dimension (got {W.shape[1:]} and {d.shape})")
    # cosine_similarity's scores bit for bit: np.vecdot runs the dot loop of a
    # 1-D a @ b, and norm(a) is sqrt(a.dot(a)); W @ d (BLAS gemv) would not be
    norms = np.sqrt(np.vecdot(W, W))
    if not norms.all():
        raise ValueError("cosine similarity is undefined for zero-norm vectors")
    scores = np.vecdot(W, d) / (norms * float(np.linalg.norm(d)))
    scored = sorted(zip(tokens, scores.tolist()), key=lambda ts: (-ts[1], ts[0]))
    top = tuple(KeywordScore(t, s) for t, s in scored[:top_n])
    return ExtractionResult(stream.doc_id, top)


def save_extractions(results: Sequence[ExtractionResult], path: str | Path) -> None:
    """Write per-document keywords as CSV: doc_id,rank,keyword,score."""
    rows = ([r.doc_id, rank, ks.keyword, f"{ks.score:.6f}"]
            for r in results for rank, ks in enumerate(r.keywords, 1))
    _write_csv(path, ["doc_id", "rank", "keyword", "score"], rows)


def load_extractions(path: str | Path) -> list[ExtractionResult]:
    """Read an extraction CSV back; documents keep file order.

    A bad header, a wrong field count, an empty doc id or keyword, a score
    that is not a finite number, a document's rows split by another's, or
    ranks other than 1, 2, ... in each document's row order fail with
    ``path:line``.
    """
    grouped: dict[str, list[KeywordScore]] = {}
    previous = None
    for where, (doc_id, rank, keyword, score) in _csv_table(path, ["doc_id", "rank", "keyword", "score"]):
        if not doc_id or not keyword:
            raise ValueError(f"{where}: empty {'doc_id' if not doc_id else 'keyword'}")
        kws = grouped.setdefault(doc_id, [])
        if kws and doc_id != previous:
            raise ValueError(f"{where}: rows of doc_id {doc_id!r} are not contiguous")
        if rank != str(len(kws) + 1):
            raise ValueError(f"{where}: rank {rank!r}, expected {len(kws) + 1}")
        previous = doc_id
        try:
            value = float(score)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{where}: score {score!r} is not a finite number")
        kws.append(KeywordScore(keyword, value))
    return [ExtractionResult(doc_id, tuple(kws)) for doc_id, kws in grouped.items()]
