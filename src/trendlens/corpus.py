"""Patent corpus loading, validation, and query filtering."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

from .query import QueryExpr, eval_query

__all__ = [
    "PatentDocument",
    "Corpus",
    "CorpusError",
    "load_corpus",
    "save_corpus",
    "filter_corpus",
]

FORMATS = ("jsonl", "csv")  # the corpus file formats, and the --format choices
_FIELDS = ("id", "industry", "year", "title", "abstract")
_YEAR_RANGE = (1900, 2100)


class CorpusError(ValueError):
    """Malformed corpus file or record."""


@dataclass(frozen=True)
class PatentDocument:
    """One patent record; the abstract is the analysis text, the title is metadata."""

    id: str
    industry: str
    year: int
    title: str
    abstract: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be non-empty")
        if not self.abstract:
            raise ValueError(f"document {self.id!r}: abstract must be non-empty")
        if not isinstance(self.year, int) or isinstance(self.year, bool):
            raise ValueError(f"document {self.id!r}: year must be an integer")
        if not _YEAR_RANGE[0] <= self.year <= _YEAR_RANGE[1]:
            raise ValueError(
                f"document {self.id!r}: year {self.year} outside [{_YEAR_RANGE[0]}, {_YEAR_RANGE[1]}]"
            )


@dataclass(frozen=True)
class Corpus:
    """An ordered, id-unique collection of patent documents."""

    documents: tuple[PatentDocument, ...]

    def __post_init__(self):
        seen = set()
        for doc in self.documents:
            if doc.id in seen:
                raise CorpusError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)

    @property
    def industries(self) -> tuple[str, ...]:
        return tuple(sorted({doc.industry for doc in self.documents}))

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)


def _record_to_document(record: dict, where: str) -> PatentDocument:
    missing = [f for f in _FIELDS if f not in record]
    if missing:
        raise CorpusError(f"{where}: missing field(s) {', '.join(missing)}")
    extra = [k for k in record if k not in _FIELDS]
    if extra:
        raise CorpusError(f"{where}: unexpected field(s) {', '.join(sorted(extra))}")
    for key in ("id", "industry", "title", "abstract"):
        if not isinstance(record[key], str):
            raise CorpusError(f"{where}: field {key!r} must be a string")
    year = record["year"]
    if isinstance(year, str):
        try:
            year = int(year)
        except ValueError:
            raise CorpusError(f"{where}: year {year!r} is not an integer") from None
    try:
        return PatentDocument(record["id"], record["industry"], year, record["title"], record["abstract"])
    except ValueError as exc:
        raise CorpusError(f"{where}: {exc}") from None


def load_corpus(path: str | Path, format: str | None = None) -> Corpus:
    """Load a corpus from a JSONL or CSV file.

    ``format`` is "jsonl" or "csv"; when omitted it is inferred from the
    file suffix (.csv means CSV, anything else means JSONL).  Errors name
    the offending line.
    """
    path = Path(path)
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    if format not in FORMATS:
        raise CorpusError(f"unknown corpus format {format!r}")
    docs = _load_jsonl(path) if format == "jsonl" else _load_csv(path)
    if not docs:
        raise CorpusError(f"{path}: empty corpus file")
    seen = set()
    for doc, where in docs:
        if doc.id in seen:
            raise CorpusError(f"{where}: duplicate id {doc.id!r}")
        seen.add(doc.id)
    return Corpus(tuple(doc for doc, _ in docs))


def _load_jsonl(path: Path) -> list[tuple[PatentDocument, str]]:
    docs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{where}: invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise CorpusError(f"{where}: expected a JSON object")
            docs.append((_record_to_document(record, where), where))
    return docs


def _load_csv(path: Path) -> list[tuple[PatentDocument, str]]:
    docs = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return []
        if set(reader.fieldnames) != set(_FIELDS) or len(reader.fieldnames) != len(_FIELDS):
            raise CorpusError(
                f"{path}:1: header must contain exactly the columns {', '.join(_FIELDS)}"
            )
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if None in row.values() or None in row:
                raise CorpusError(f"{where}: expected exactly {len(_FIELDS)} fields")
            docs.append((_record_to_document(dict(row), where), where))
    return docs


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus as canonical JSONL (fixed key order, UTF-8)."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            record = {f: getattr(doc, f) for f in _FIELDS}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def filter_corpus(corpus: Corpus, expr: QueryExpr) -> Corpus:
    """Keep the documents matching ``expr``, preserving load order."""
    return Corpus(tuple(doc for doc in corpus.documents if eval_query(expr, doc)))
