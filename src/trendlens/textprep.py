"""Tokenization and stopword filtering, the one reader and writer of each JSONL and CSV file shape,
and :func:`_replacing`, the one writer, which opens every file trendlens writes."""

from __future__ import annotations

import csv
import errno
import json
import os
import re
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import count, filterfalse
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "TokenStream",
    "StopwordList",
    "tokenize",
    "filter_stopwords",
    "load_stopword_list",
    "load_base_stopwords",
    "load_token_streams",
    "save_token_streams",
]

# a run of characters for which str.isalnum() is true: \w less the underscore
_WORD = re.compile(r"[^\W_]+")


def _json_object(pairs: list) -> dict:
    """The JSON readers' object_pairs_hook: a repeated key fails instead of keeping its last value."""
    keys = [k for k, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return dict(pairs)


def _text_lines(fh, path, error=ValueError):
    """Binary file ``fh``'s lines as a newline="" text file splits them, each
    decoded alone, so that a bad byte fails as ``error`` at ``path``:line."""
    # at \n, \r\n or \r: a binary read ends lines at \n, so only a line holding \r splits again
    lines = (line for raw in fh for line in (raw.splitlines(keepends=True) if b"\r" in raw else (raw,)))
    for lineno, line in enumerate(lines, 1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}:{lineno}: {exc}") from None


def _json_lines(path, error=ValueError):
    """Each non-blank line of JSONL file ``path`` as ``(path:line, value)``; lines end at LF only (a
    lone CR is JSON whitespace), and a bad byte, bad JSON or a repeated key fails as ``error`` there."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            try:
                value = json.loads(raw.decode("utf-8"), object_pairs_hook=_json_object)
            except ValueError as exc:
                raise error(f"{path}:{lineno}: invalid JSON: {exc}") from None
            yield f"{path}:{lineno}", value


_TEMP_IDS = count()  # one temporary name per output of a process, even for one path given twice


@contextmanager
def _replacing(path, newline=None):
    """A UTF-8 text file open for the output ``path``.  An output that is a
    regular file or missing is written to a new file beside it (beside a
    symlink's target), renamed over it with its mode when the block ends and
    removed when the block raises, so a failed write leaves no output and any
    earlier ``path`` as it was.  Any other output, such as ``/dev/null`` or a
    FIFO, is opened and written in place."""
    try:
        mode = os.stat(path).st_mode
    except OSError:  # missing, or unreachable: the temporary file's open names the fault
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        return
    if mode is not None and not os.access(path, os.W_OK):  # as opening it for writing would fail
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
    target = Path(os.path.realpath(path))
    temp = target.with_name(f".{target.name}.{os.getpid()}.{next(_TEMP_IDS)}.tmp")
    try:
        fh = open(temp, "w", encoding="utf-8", newline=newline)
    except OSError as exc:  # named as the output, not its temporary file
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        if mode is not None:
            os.chmod(temp, stat.S_IMODE(mode))
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


@contextmanager
def _json_lines_out(path):
    """A function writing one record to ``path`` as a line of UTF-8 JSON, non-ASCII characters
    unescaped, through :func:`_replacing`; with no ``path`` it writes nothing."""
    if path is None:
        yield lambda record: None
        return
    with _replacing(path) as fh:
        yield lambda record: fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _write_json_lines(path, records) -> None:
    """Write each of ``records`` to ``path`` as :func:`_json_lines_out` does."""
    with _json_lines_out(path) as write:
        for record in records:
            write(record)


def _csv_rows(path, error=ValueError):
    """Each row of strict RFC-4180 CSV file ``path``, header included, as ``(path:line, row)`` at the
    row's last line; a bad byte, an unterminated quote or an over-long field fails as ``error`` there."""
    with open(path, "rb") as fh:
        reader = csv.reader(_text_lines(fh, path, error), strict=True)
        try:
            for row in reader:
                yield f"{path}:{reader.line_num}", row
        except csv.Error as exc:
            raise error(f"{path}:{reader.line_num}: {exc}") from None


def _csv_table(path, header: Sequence[str]):
    """The rows after ``header`` of CSV file ``path`` as ``(path:line, row)``; another first row, or a
    row of another length, fails naming its last line (``path:1`` for an empty file)."""
    rows = _csv_rows(path)
    where, first = next(rows, (f"{path}:1", None))
    if first != list(header):
        raise ValueError(f"{where}: expected header {','.join(header)}")
    for where, row in rows:
        if len(row) != len(header):
            raise ValueError(f"{where}: expected {len(header)} fields, got {len(row)}")
        yield where, row


def _write_csv(path, header: Sequence[str], rows) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as UTF-8 CSV in the csv module's default dialect,
    through :func:`_replacing`."""
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split it into alphanumeric tokens.

    Every character that is not a Unicode letter or digit acts as a
    separator, so "Deep-Learning, (AI)!" becomes [deep, learning, ai].
    """
    return _WORD.findall(text.lower())


@dataclass(frozen=True)
class TokenStream:
    """Ordered lowercase tokens of one document's analysis text; where this package holds many
    streams, each distinct token is one string object (see :func:`_interned`)."""

    doc_id: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class StopwordList:
    """Deduplicated, ordered lowercase stop tokens."""

    entries: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for entry in self.entries:
            if not entry or not all(ch.isalnum() for ch in entry):
                raise ValueError(f"stopword entry {entry!r} contains whitespace or punctuation")
            if entry != entry.lower():
                raise ValueError(f"stopword entry {entry!r} is not lowercase")
            if entry in seen:
                raise ValueError(f"duplicate stopword entry {entry!r}")
            seen.add(entry)

    @cached_property
    def _set(self) -> frozenset:
        return frozenset(self.entries)

    def __contains__(self, token: str) -> bool:
        return token in self._set

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def union(cls, *lists: StopwordList) -> StopwordList:
        """Every entry of ``lists`` once, in order."""
        return cls(tuple(dict.fromkeys(e for sl in lists for e in sl.entries)))


def filter_stopwords(stream: TokenStream, *lists: StopwordList) -> TokenStream:
    """Drop every token that appears in any of the given lists."""
    stop = lists[0]._set if len(lists) == 1 else frozenset().union(*(sl._set for sl in lists))
    return TokenStream(stream.doc_id, tuple(filterfalse(stop.__contains__, stream.tokens)))


def load_stopword_list(path: str | Path) -> StopwordList:
    """Read one token per line; ``#`` lines are comments, duplicates collapse."""
    entries: list[str] = []
    seen = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(_text_lines(fh, path), 1):
            if lineno == 1 and raw.startswith("\ufeff"):
                raise ValueError(f"{path}:1: unexpected UTF-8 byte-order mark")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            entry = line.lower()
            if not all(ch.isalnum() for ch in entry):
                raise ValueError(f"{path}:{lineno}: stopword {line!r} contains whitespace or punctuation")
            if entry not in seen:
                seen.add(entry)
                entries.append(entry)
    return StopwordList(tuple(entries))


def load_base_stopwords() -> StopwordList:
    """The bundled general-English stopword list."""
    ref = resources.files("trendlens").joinpath("data/english_stopwords.txt")
    with resources.as_file(ref) as path:
        return load_stopword_list(path)


def _stream_record(stream: TokenStream) -> dict:
    return {"id": stream.doc_id, "tokens": list(stream.tokens)}


def save_token_streams(streams: Iterable[TokenStream], path: str | Path) -> None:
    """Write streams as JSONL records {"id": ..., "tokens": [...]}."""
    _write_json_lines(path, map(_stream_record, streams))


def load_token_streams(path: str | Path) -> list[TokenStream]:
    """Read streams written by :func:`save_token_streams`.  A malformed record,
    a repeated id, or a token a model file cannot hold (empty or not lowercase
    alphanumeric, the rule of StopwordList entries), fails with ``path:line``."""
    return _interned(_token_streams(path))


def _token_streams(path) -> Iterator[TokenStream]:
    """The streams of :func:`load_token_streams` one at a time, each record
    checked as it is read; only the ids seen so far are held."""
    seen: set[str] = set()
    for where, record in _json_lines(path):
        if not isinstance(record, dict) or set(record) != {"id", "tokens"}:
            raise ValueError(f"{where}: expected keys 'id' and 'tokens'")
        doc_id, tokens = record["id"], record["tokens"]
        if not isinstance(doc_id, str) or not doc_id:
            raise ValueError(f"{where}: 'id' must be a non-empty string")
        if doc_id in seen:
            raise ValueError(f"{where}: duplicate id {doc_id!r}")
        seen.add(doc_id)
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ValueError(f"{where}: 'tokens' must be a list of strings")
        bad = next((t for t in tokens if not (t.isalnum() and t == t.lower())), None)
        if bad is not None:
            raise ValueError(f"{where}: token {bad!r} is not lowercase alphanumeric")
        yield TokenStream(doc_id, tuple(tokens))


def _interned(streams: Iterable[TokenStream]) -> list[TokenStream]:
    """``streams`` as a list in which each distinct token is one string
    object, so that a word many streams hold is stored once.  The table is
    the call's own and freed on return, where the interpreter's table that
    ``sys.intern`` fills never shrinks.  Streams that are made and dropped,
    as ``ingest`` and ``extract`` make them, need no interning."""
    table: dict[str, str] = {}
    return [TokenStream(s.doc_id, tuple(map(table.setdefault, s.tokens, s.tokens))) for s in streams]
