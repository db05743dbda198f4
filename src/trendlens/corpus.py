"""Patent corpus loading and validation."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .textprep import _csv_rows, _json_lines, _write_json_lines

__all__ = [
    "PatentDocument",
    "Corpus",
    "CorpusError",
    "load_corpus",
    "save_corpus",
]

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
        if not self.industry:
            raise ValueError(f"document {self.id!r}: industry must be non-empty")
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


def _record_to_document(record, where: str) -> PatentDocument:
    if not isinstance(record, dict):
        raise CorpusError(f"{where}: expected a JSON object")
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


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus from a CSV file (a name ending in .csv, in any case)
    or a JSONL file (any other name).  Errors name the offending line."""
    return Corpus(tuple(_documents(path)))


def _documents(path: str | Path) -> Iterator[PatentDocument]:
    """The documents of :func:`load_corpus` one at a time, each record
    checked as it is read; only the ids seen so far are held, and a file
    with no record fails after its last line."""
    path = Path(path)
    seen: set[str] = set()
    records = _csv_records(path) if path.suffix.lower() == ".csv" else _json_lines(path, CorpusError)
    for where, record in records:
        doc = _record_to_document(record, where)
        if doc.id in seen:
            raise CorpusError(f"{where}: duplicate id {doc.id!r}")
        seen.add(doc.id)
        yield doc
    if not seen:
        raise CorpusError(f"{path}: empty corpus file")


def _csv_records(path: Path):
    """Each non-blank row of a corpus CSV as ``(path:line, record)``; the
    header names the fields in any order."""
    rows = _csv_rows(path, CorpusError)
    where, header = next(rows, (f"{path}:1", _FIELDS))
    if set(header) != set(_FIELDS) or len(header) != len(_FIELDS):
        raise CorpusError(f"{where}: header must contain exactly the columns {', '.join(_FIELDS)}")
    for where, row in rows:
        if not row:
            continue
        if len(row) != len(_FIELDS):
            raise CorpusError(f"{where}: expected exactly {len(_FIELDS)} fields")
        yield where, dict(zip(header, row))


def _document_record(doc: PatentDocument) -> dict:
    return {f: getattr(doc, f) for f in _FIELDS}


def save_corpus(documents: Iterable[PatentDocument], path: str | Path) -> None:
    """Write a corpus, or any documents, as canonical JSONL (fixed key order, UTF-8)."""
    _write_json_lines(path, map(_document_record, documents))

