"""Hypothesis fuzzers of the corpus (JSONL and CSV), extraction CSV and
projection CSV readers, in the form of ``TestTokenStreamFileFuzz``.

A mutated file loads the records it still holds, or fails with the reader's
error type naming ``path:line``, and then the CLI stage that reads it exits 1
logging that same message.  The mutations: truncation at any byte (so also
inside a multibyte character), a dropped field, a mistyped value, NaN or
infinity, a repeated id, a BOM, other line ends, and an unterminated quote.

The ``.w2v``, docvec, stopword-list and config fuzzers follow the same form
with their own mutations, and the streamed stages (``ingest``, ``query``,
``extract``) are fuzzed with one fault at a drawn line of their input.
"""

import csv
import dataclasses
import io
import json
import math
import re
import tempfile
from collections import Counter
from itertools import accumulate
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trendlens import cli
from trendlens.cli import EXIT_FAILURE, main
from trendlens.corpus import CorpusError, PatentDocument, load_corpus, save_corpus, Corpus
from trendlens.embedding import (
    EmbeddingModel, ModelFormatError, Vocabulary, load_document_vectors, load_model, save_document_vectors, save_model
)
from trendlens.keywords import ExtractionResult, KeywordScore, load_extractions, save_extractions
from trendlens.pipeline import _NULLABLE, _TYPES, _safe_name, plot_projection, resolve_config
from trendlens.textprep import _write_csv, load_stopword_list, load_token_streams

_MUTATIONS = ["truncate", "drop_field", "wrong_type", "nan", "repeat_id", "bom", "line_ends", "open_quote"]
_NON_FINITE = ["nan", "NaN", "inf", "-inf", "Infinity"]
# free text with CSV's special characters and 2-, 3- and 4-byte UTF-8 characters
_TEXT = "ab ,\"\n\ré日😀"
_WORD = "abzé日9"


class Outcome:
    """What a reader must make of a mutated file: the data rows a load keeps,
    the lines an error may name (none where the file must load), how many
    records a load may add to the kept ones, and the error's text after its
    location where the mutation fixes it."""

    def __init__(self, data: bytes, keep: int, lines=(), extra: float = 0, message: str | None = None):
        self.data, self.keep, self.lines, self.extra, self.message = data, keep, lines, extra, message


def check(path: Path, outcome: Outcome, load, expect, error: type, argv: list, empty: str | None = None):
    """Load ``outcome.data`` from ``path`` and hold the result to ``outcome``.

    ``expect(keep)`` is what a load of the first ``keep`` records gives;
    ``empty`` is the message of a reader that rejects a file with no record."""
    path.write_bytes(outcome.data)
    try:
        loaded = load(path)
    except error as exc:
        message = str(exc)
        if message != empty or outcome.keep:
            assert any(message.startswith(f"{path}:{line}: ") for line in outcome.lines), message
            assert outcome.message is None or message.endswith(f": {outcome.message}"), message
        with patch.object(cli.log, "error") as logged:
            assert main(argv) == EXIT_FAILURE
        assert str(logged.call_args.args[1]) == message
    else:
        kept = expect(outcome.keep)
        if outcome.extra:  # a cut row, or rows an opened quote took in, may load as records of their own
            assert len(loaded) <= outcome.keep + outcome.extra and not Counter(kept) - Counter(loaded)
        else:
            assert loaded == kept


# ---- JSONL

_BAD_JSON = {
    "id": [5, None, "", ["P"]],
    "industry": [None, 5, ""],
    "title": [None, 7],
    "year": ["soon", 2018.5, True, None, "", 1800],
    "abstract": ["", 5, None],
}


def _jsonl(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def mutate_jsonl(records: list[dict], draw) -> Outcome:
    """One mutation of the corpus JSONL file holding ``records``."""
    lines = [json.dumps(record, ensure_ascii=False) for record in records]
    data, n = _jsonl(lines), len(lines)
    kind = draw(st.sampled_from(_MUTATIONS + ["repeat_key"]))
    if kind == "truncate":  # at a byte, so possibly inside a character
        cut = draw(st.integers(0, len(data) - 1))
        whole = data[: cut + 1].count(b"\n")  # a line cut at its newline is whole
        partial = data[cut:cut + 1] != b"\n" and data[:cut].rsplit(b"\n", 1)[-1]
        return Outcome(data[:cut], whole, {whole + 1} if partial else ())
    if kind == "bom":
        return Outcome("\ufeff".encode() + data, n, {1})
    if kind == "line_ends":
        return Outcome(data.replace(b"\n", b"\r\n"), n)
    i = draw(st.integers(0, n - 1))
    if kind == "repeat_id":  # a copy of line i, after it
        j = draw(st.integers(i + 1, n))
        lines.insert(j, lines[i])
        return Outcome(_jsonl(lines), n, {j + 1})
    record = dict(records[i])
    key = draw(st.sampled_from(sorted(_BAD_JSON)))
    if kind == "drop_field":
        del record[key]
    elif kind == "wrong_type":
        record[key] = draw(st.sampled_from(_BAD_JSON[key]))
    elif kind == "nan":
        record["year"] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    line = json.dumps(record, ensure_ascii=False)
    if kind == "repeat_key":
        line = line[:-1] + f", {json.dumps(key)}: {json.dumps(draw(st.sampled_from([record[key], 'other', 2018])))}}}"
    elif kind == "open_quote":  # a string value's closing quote dropped
        key = draw(st.sampled_from(["id", "industry", "title", "abstract"]))
        pair = f"{json.dumps(key)}: {json.dumps(record[key], ensure_ascii=False)}"
        end = line.index(pair) + len(pair)
        line = line[: end - 1] + line[end:]
    lines[i] = line
    return Outcome(_jsonl(lines), n, {i + 1})


# ---- CSV


def _csv_row(fields) -> bytes:
    """One row as the program's CSV writer writes it (minimal quoting, CRLF)."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue().encode()


def _field(text: str) -> bytes:
    """One field of a row as the CSV writer writes it."""
    return _csv_row(["x", text])[2:-2]


def _lines(data: bytes) -> int:
    """The lines a reader counts in ``data``: they end at \\n, \\r\\n or a lone \\r."""
    return len(data.splitlines())


def _closes(rest: bytes) -> bool:
    """Whether a quoted field whose text starts ``rest`` is closed before the data ends."""
    return re.match(rb'(?:[^"]|"")*"(?!")', rest) is not None


def mutate_csv(table: list[list[str]], draw, bad: dict[str, list[str]], numeric: list[str]) -> Outcome:
    """One mutation of the CSV file holding ``table``, its header first.

    ``bad`` maps a column to values that make its row fail, ``numeric`` names
    the columns that hold numbers."""
    header, n = table[0], len(table) - 1
    chunks = [_csv_row(row) for row in table]

    def line_of(rows, r):  # the last line of row r, where an error in it is named
        return _lines(b"".join(_csv_row(row) for row in rows[: r + 1]))

    kind = draw(st.sampled_from(_MUTATIONS))
    if kind == "truncate":
        data = b"".join(chunks)
        cut = draw(st.integers(0, len(data) - 1))
        starts = [0, *accumulate(map(len, chunks))]
        whole = sum(end - 2 <= cut for end in starts[1:])  # a row cut in its CRLF is whole
        if whole == len(table):
            return Outcome(data[:cut], n)
        if cut == starts[whole] and whole:
            return Outcome(data[:cut], whole - 1)
        # a row cut in its last field may still read as a whole row: CSV marks no row's end
        last = starts[whole + 1] - 2 - len(_field(table[whole][-1]))
        may_load = whole and cut >= last and (data[last:last + 1] != b'"' or _closes(data[last + 1:cut]))
        return Outcome(data[:cut], max(whole - 1, 0), {max(_lines(data[:cut]), 1)}, 1 if may_load else 0)
    if kind == "bom":
        return Outcome("\ufeff".encode() + b"".join(chunks), n, {1})
    if kind == "line_ends":
        ends = draw(st.lists(st.sampled_from(["\r\n", "\n", "\r"]), min_size=len(table), max_size=len(table)))
        return Outcome(b"".join(chunk[:-2] + end.encode() for chunk, end in zip(chunks, ends)), n)
    rows = [list(row) for row in table]
    if kind == "drop_field":
        r, k = draw(st.integers(0, n)), draw(st.integers(0, len(header) - 1))
        del rows[r][k]
        return Outcome(b"".join(_csv_row(row) for row in rows), n, {line_of(rows, r)})
    r = draw(st.integers(1, n))
    if kind == "repeat_id":  # a copy of row r, after it
        j = draw(st.integers(r + 1, n + 1))
        rows.insert(j, rows[r])
        return Outcome(b"".join(_csv_row(row) for row in rows), n, {line_of(rows, j)})
    if kind == "open_quote":  # a field's closing quote dropped, or an opening one added
        k = draw(st.integers(0, len(header) - 1))
        fields = [_field(f) for f in rows[r]]
        fields[k] = fields[k][:-1] if fields[k].startswith(b'"') else b'"' + fields[k]
        head = b"".join(chunks[:r])
        data = head + b",".join(fields) + b"\r\n" + b"".join(chunks[r + 1:])
        if not _closes(data[len(head) + sum(len(f) + 1 for f in fields[:k]) + 1:]):
            return Outcome(data, n, {_lines(data)})  # the quote runs to the end of the file
        # a later quote closes it, and what follows is read on from there
        return Outcome(data, r - 1, range(_lines(head) + 1, _lines(data) + 1), math.inf)
    column = draw(st.sampled_from(sorted(bad) if kind == "wrong_type" else numeric))
    rows[r][header.index(column)] = draw(st.sampled_from(bad[column] if kind == "wrong_type" else _NON_FINITE))
    return Outcome(b"".join(_csv_row(row) for row in rows), n, {line_of(rows, r)})


_DOCS = st.lists(
    st.tuples(
        st.sampled_from(["medical", "bio tech", "security"]),
        st.integers(1900, 2100),
        st.text(_TEXT, max_size=6),
        st.text(_TEXT, min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=4,
)


def _documents(draws) -> list[PatentDocument]:
    return [PatentDocument(f"P{i}", industry, year, title, abstract)
            for i, (industry, year, title, abstract) in enumerate(draws)]


def _load_documents(path) -> list[PatentDocument]:
    return list(load_corpus(path).documents)


_CORPUS_FIELDS = ["id", "industry", "year", "title", "abstract"]


class TestCorpusJsonlFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_DOCS, st.data())
    def test_mutated_file_loads_or_names_line(self, draws, data):
        docs = _documents(draws)
        records = [{f: getattr(d, f) for f in _CORPUS_FIELDS} for d in docs]
        outcome = mutate_jsonl(records, data.draw)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.jsonl"
            save_corpus(Corpus(tuple(docs)), path)
            assert path.read_bytes() == _jsonl([json.dumps(r, ensure_ascii=False) for r in records])
            check(path, outcome, _load_documents, lambda keep: docs[:keep], CorpusError,
                  ["ingest", "--input", str(path)], empty=f"{path}: empty corpus file")


class TestCorpusCsvFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_DOCS, st.data())
    def test_mutated_file_loads_or_names_line(self, draws, data):
        docs = _documents(draws)
        table = [_CORPUS_FIELDS] + [[getattr(d, f) if f != "year" else str(d.year) for f in _CORPUS_FIELDS]
                                    for d in docs]
        bad = {"id": [""], "industry": [""], "year": ["soon", "2018.5", "", "1800", "2101", "true"], "abstract": [""]}
        outcome = mutate_csv(table, data.draw, bad, ["year"])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.csv"
            check(path, outcome, _load_documents, lambda keep: docs[:keep], CorpusError,
                  ["ingest", "--input", str(path)], empty=f"{path}: empty corpus file")


class TestExtractionCsvFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.text(_WORD, min_size=1, max_size=4), min_size=1, max_size=3, unique=True),
                    min_size=1, max_size=3),
           st.data())
    def test_mutated_file_loads_or_names_line(self, keyword_lists, data):
        scores = st.floats(-1, 1)
        results = [ExtractionResult(f"D{i}", tuple(KeywordScore(k, data.draw(scores)) for k in kws))
                   for i, kws in enumerate(keyword_lists)]
        rows = [[r.doc_id, str(rank), ks.keyword, f"{ks.score:.6f}"]
                for r in results for rank, ks in enumerate(r.keywords, 1)]
        table = [["doc_id", "rank", "keyword", "score"]] + rows
        bad = {"doc_id": [""], "rank": ["x", "0", "", "1.0", " 1"], "keyword": [""], "score": ["abc", "", "1e", "--1"]}
        outcome = mutate_csv(table, data.draw, bad, ["score"])
        expected = [(d, int(rank), k, float(score)) for d, rank, k, score in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "k.csv"
            save_extractions(results, path)
            assert path.read_bytes() == b"".join(map(_csv_row, table))

            def load(path):
                return [(r.doc_id, rank, ks.keyword, ks.score)
                        for r in load_extractions(path) for rank, ks in enumerate(r.keywords, 1)]

            corpus = Path(tmp) / "c.jsonl"
            save_corpus(Corpus((PatentDocument("D0", "medical", 2018, "", "alpha"),)), corpus)
            # the model is read after the keywords, so a keywords fault stops the run before it
            argv = ["analyze", "--keywords", str(path), "--corpus", str(corpus), "--model", str(Path(tmp) / "m.w2v"),
                    "--out-dir", str(Path(tmp) / "out")]
            check(path, outcome, load, lambda keep: expected[:keep], ValueError, argv)


def _plotted(path) -> list[tuple]:
    """The points ``plot_projection`` draws from ``path``: plot file, keyword, xy and cluster id, in drawing order."""
    drawn = []

    def capture(points, cluster_ids, svg_path):
        drawn.extend((Path(svg_path).name, p.keyword, p.xy, cluster_ids[p.keyword]) for p in points)

    with patch("trendlens.pipeline.emit_scatter_svg", capture):
        plot_projection(path, path.parent / "plots")
    return drawn


class TestProjectionCsvFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from(["medical", "bio tech", "security"]),
                           st.lists(st.text(_WORD, min_size=1, max_size=4), min_size=1, max_size=3, unique=True),
                           min_size=1),
           st.data())
    def test_mutated_file_loads_or_names_line(self, keywords, data):
        coordinate = st.floats(-5, 5).map(lambda v: f"{v:.6f}")
        rows = [[industry, k, data.draw(coordinate), data.draw(coordinate), str(data.draw(st.integers(0, 3)))]
                for industry, kws in keywords.items() for k in kws]
        table = [["industry", "keyword", "x", "y", "cluster_id"]] + rows
        bad = {"industry": [""], "keyword": [""], "x": ["abc", "", "1..2"], "y": ["abc", ""],
               "cluster_id": ["x", "1.5", "", "nan"]}
        outcome = mutate_csv(table, data.draw, bad, ["x", "y"])

        def drawn(rows):  # by industry, then in file order
            return [(f"scatter_{_safe_name(i)}.svg", k, (float(x), float(y)), int(c))
                    for i, k, x, y, c in sorted(rows, key=lambda row: row[0])]

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "projection.csv"
            _write_csv(path, table[0], rows)
            assert path.read_bytes() == b"".join(map(_csv_row, table))
            argv = ["plot", "--projection", str(path), "--out-dir", str(Path(tmp) / "out")]
            check(path, outcome, _plotted, lambda keep: drawn(rows[:keep]), ValueError, argv)


# ---- streamed stages

_STAGE_FAULTS = {
    "jsonl": ["bad_json", "drop_field", "repeat_id", "empty_industry", "bad_byte"],
    "csv": ["drop_field", "repeat_id", "empty_industry", "bad_byte"],
    "tokens": ["bad_json", "drop_field", "repeat_id", "bad_byte", "bad_token"],
}
_STAGE_WORDS = ["alpha", "beta", "gamma", "delta", "épée", "日本"]
_STAGE_OUTPUTS = {"ingest": ["out.jsonl", "tokens.jsonl"], "query": ["out.jsonl"], "extract": ["k.csv"]}


def stage_input(kind: str, docs: list[PatentDocument], fault: str | None = None, i: int = 0):
    """A corpus (``jsonl``, ``csv``) or tokens file of ``docs``, with ``fault``
    in record ``i``: its bytes, the line of the fault and the start of the
    message a reader gives there after ``path:line: ``."""
    if kind == "tokens":
        records = [{"id": d.id, "tokens": d.abstract.split()} for d in docs]
    else:
        records = [{f: getattr(d, f) for f in _CORPUS_FIELDS} for d in docs]
    record, line = records[i], i + 1 + (kind == "csv")
    message = {
        None: None,
        "bad_json": "invalid JSON: ",
        "drop_field": {"jsonl": "missing field(s) industry", "csv": "expected exactly 5 fields",
                       "tokens": "expected keys 'id' and 'tokens'"}[kind],
        "repeat_id": f"duplicate id {records[0]['id']!r}",
        "empty_industry": f"document {record['id']!r}: industry must be non-empty",
        "bad_byte": ("" if kind == "csv" else "invalid JSON: ") + "'utf-8' codec can't decode byte 0xff in position",
        "bad_token": "token 'Beta' is not lowercase alphanumeric",
    }[fault]
    if fault == "drop_field":
        del record["tokens" if kind == "tokens" else "industry"]
    elif fault == "repeat_id":
        record["id"] = records[0]["id"]
    elif fault == "empty_industry":
        record["industry"] = ""
    elif fault == "bad_token":
        record["tokens"].append("Beta")
    if kind == "csv":
        lines = [_csv_row(_CORPUS_FIELDS)] + [_csv_row([str(r[f]) for f in _CORPUS_FIELDS if f in r]) for r in records]
    else:
        lines = [json.dumps(r, ensure_ascii=False).encode() + b"\n" for r in records]
    if fault == "bad_json":  # the record cut before its closing characters
        lines[line - 1] = lines[line - 1][:-3] + b"\n"
    elif fault == "bad_byte":
        lines[line - 1] = lines[line - 1].replace(b"alpha", b"al\xffpha", 1)
    return b"".join(lines), line, message


class TestStreamedStageFaults:
    """``ingest``, ``query`` and ``extract`` read their input one record at a
    time and write each output to a file beside it that is renamed into place
    only on success.  A fault at any line fails with the whole-file reader's
    ``path:line`` message and exit 1, and leaves no output, no temporary file
    and any output that was there before as it was; a query that matches
    nothing fails as such once the whole input is read."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(_STAGE_WORDS), max_size=5), min_size=2, max_size=6),
           st.sampled_from(["ingest-jsonl", "ingest-csv", "query-jsonl", "query-csv", "extract-tokens"]),
           st.data())
    def test_a_fault_names_its_line_and_leaves_no_output(self, abstracts, case, data):
        stage, kind = case.split("-")
        docs = [PatentDocument(f"P{i}", "medical", 2018, "t", " ".join(["alpha", *words]))
                for i, words in enumerate(abstracts)]
        fault = data.draw(st.sampled_from([*_STAGE_FAULTS[kind], None]))
        i = data.draw(st.integers(1 if fault == "repeat_id" else 0, len(docs) - 1))  # record 0's id, repeated later
        matches = stage != "query" or data.draw(st.booleans())
        existing = data.draw(st.booleans())
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            path = tmp / ("in.csv" if kind == "csv" else "in.jsonl")
            content, line, message = stage_input(kind, docs, fault, i)
            path.write_bytes(content)
            (tmp / "stop.txt").write_text("the\n", encoding="utf-8")
            vectors = np.arange(1.0, 13.0).reshape(6, 2)
            save_model(EmbeddingModel(Vocabulary(tuple(_STAGE_WORDS)), vectors, vectors, seed=1), tmp / "m.w2v")
            if existing:
                for name in _STAGE_OUTPUTS[stage]:
                    (tmp / name).write_bytes(b"earlier " + name.encode())
            argv = {
                "ingest": ["ingest", "--input", str(path), "--out", str(tmp / "out.jsonl"),
                           "--tokens-out", str(tmp / "tokens.jsonl"), "--base-stopwords", str(tmp / "stop.txt")],
                "query": ["query", "--input", str(path), "--query", "alpha" if matches else "zeta",
                          "--out", str(tmp / "out.jsonl")],
                "extract": ["extract", "--input", str(path), "--model", str(tmp / "m.w2v"), "--out", str(tmp / "k.csv")],
            }[stage]
            before = {p.name: p.read_bytes() for p in tmp.iterdir()}
            with patch.object(cli.log, "error") as logged:
                code = main(argv)
            after = {p.name: p.read_bytes() for p in tmp.iterdir()}
            if fault is None and matches:
                assert code == 0 and set(after) == {*before, *_STAGE_OUTPUTS[stage]}
                if stage != "extract":
                    assert after["out.jsonl"] == _jsonl([json.dumps({f: getattr(d, f) for f in _CORPUS_FIELDS},
                                                                    ensure_ascii=False) for d in docs])
                return
            assert code == EXIT_FAILURE
            logged_message = str(logged.call_args.args[1])
            if fault is None:
                assert logged_message == "query matched no documents"
            else:
                assert logged_message.startswith(f"{path}:{line}: {message}"), logged_message
                with pytest.raises(ValueError) as whole:
                    (load_token_streams if kind == "tokens" else load_corpus)(path)
                assert str(whole.value) == logged_message
            assert after == before  # no output, no temporary file, and earlier outputs unchanged


# ---- model and docvec rows

# the whitespace a row may hold between its values: str.split()'s, as one
# space is what the writers put there
_SEPARATORS = ["\t", "\x0b", "\x1c", "\x85", "\xa0", "　"]
_ROW_MUTATIONS = ["cut_character", "drop_value", "non_finite", "repeat_label", "bom", "crlf", "separator"]


def mutate_rows(lines: list[str], labels: list[str], dim: int, what: str, draw):
    """One mutation of the model or docvec file of header and row ``lines``,
    whose labels are ``what`` (word, doc): its bytes, the start of the message
    a load fails with after ``path: `` or ``path:line: ``, and that line; no
    message for a file that loads the rows it was written with."""
    kind = draw(st.sampled_from(_ROW_MUTATIONS))
    data = "".join(lines).encode()
    if kind == "cut_character":  # at a continuation byte, inside a multibyte character
        cut = draw(st.sampled_from([i for i, byte in enumerate(data) if 0x80 <= byte < 0xC0]))
        return data[:cut], "'utf-8' codec can't decode byte", data[:cut].count(b"\n") + 1
    if kind == "bom":
        return "\ufeff".encode() + data, "bad header", None
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n"), None, None
    r = draw(st.integers(1, len(labels)))
    fields, label = lines[r].rstrip("\n").split(" "), labels[r - 1]
    if kind == "separator":
        k = draw(st.integers(0, dim - 1))
        fields[k] += draw(st.sampled_from(_SEPARATORS)) + fields.pop(k + 1)
        message = None
    elif kind == "drop_value":
        del fields[draw(st.integers(1, dim))]
        message = f"{what} {label!r}: expected {dim} values, got {dim - 1}"
    elif kind == "non_finite":
        fields[draw(st.integers(1, dim))] = draw(st.sampled_from(_NON_FINITE))
        message = f"{what} {label!r}: non-finite value"
    elif r == 1:  # repeat_label, which the first row cannot
        return data, None, None
    else:  # repeat_label: an earlier row's
        fields[0] = labels[draw(st.integers(0, r - 2))]
        message = f"duplicate {what} {fields[0]!r}"
    lines = lines[:r] + [" ".join(fields) + "\n"] + lines[r + 1:]
    return "".join(lines).encode(), message, None


_ROWS = st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.tuples(st.text("abzé", max_size=3),
              st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim)),
    min_size=1, max_size=5))


def _labelled(rows) -> tuple[list[str], np.ndarray]:
    """Unique labels (a word, then the row's index; the first holds a three-byte character) and the matrix."""
    labels = [("日" if i == 0 else "") + f"{word}{i}" for i, (word, _) in enumerate(rows)]
    return labels, np.array([values for _, values in rows], dtype=np.float64)


def check_rows(path: Path, data: bytes, message, line, load, argv: list) -> None:
    """``load(path)`` of ``data`` fails with ``path`` (and ``line``), then
    ``message``, and the CLI stage ``argv`` exits 1 logging the same error;
    with no ``message`` nothing is checked here."""
    path.write_bytes(data)
    if message is None:
        return
    with pytest.raises(ModelFormatError) as failed:
        load(path)
    error = str(failed.value)
    assert error.startswith(f"{path}{'' if line is None else f':{line}'}: {message}"), error
    with patch.object(cli.log, "error") as logged:
        assert main(argv) == EXIT_FAILURE
    assert str(logged.call_args.args[1]) == error


class TestModelFileFuzz:
    """A mutated ``.w2v`` file fails with its documented message, naming
    the file and the word (a bad byte: the file and line), and ``extract``
    exits 1 logging it; or it loads the rows it was written with, in full
    or only those of a set of words.  CRLF line ends and any whitespace
    ``str.split()`` knows between values load."""

    @settings(max_examples=200, deadline=None)
    @given(_ROWS, st.data())
    def test_mutated_model_loads_or_fails_as_documented(self, rows, data):
        labels, matrix = _labelled(rows)
        dim = matrix.shape[1]
        keep = data.draw(st.sets(st.sampled_from(labels))) if data.draw(st.booleans()) else None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.w2v"
            save_model(EmbeddingModel(Vocabulary(tuple(labels)), matrix, matrix, seed=4), path)
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            mutated, message, line = mutate_rows(lines, labels, dim, "word", data.draw)
            tokens = Path(tmp) / "t.jsonl"
            tokens.write_text(json.dumps({"id": "D", "tokens": sorted(keep or labels)}, ensure_ascii=False) + "\n",
                              encoding="utf-8")
            argv = ["extract", "--input", str(tokens), "--model", str(path), "--out", str(Path(tmp) / "k.csv")]
            check_rows(path, mutated, message, line, lambda p: load_model(p, keep), argv)
            if message is None:
                model = load_model(path, keep)
                kept = [i for i, label in enumerate(labels) if keep is None or label in keep]
                assert model.vocab.words == tuple(labels[i] for i in kept)
                assert model.input_vectors.tobytes() == matrix[kept].tobytes()


class TestDocvecFileFuzz:
    """A mutated docvec file fails as a model file does, naming the doc id,
    and ``extract --doc-vectors`` exits 1 logging it; or it loads its rows."""

    @settings(max_examples=200, deadline=None)
    @given(_ROWS, st.data())
    def test_mutated_docvec_loads_or_fails_as_documented(self, rows, data):
        labels, matrix = _labelled(rows)
        dim = matrix.shape[1]
        with tempfile.TemporaryDirectory() as tmp:
            path, words = Path(tmp) / "d.vec", Path(tmp) / "w.w2v"
            save_document_vectors(dict(zip(labels, matrix)), path)
            save_model(EmbeddingModel(Vocabulary(("w",)), np.ones((1, dim)), np.ones((1, dim)), seed=1), words)
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            mutated, message, line = mutate_rows(lines, labels, dim, "doc", data.draw)
            tokens = Path(tmp) / "t.jsonl"
            tokens.write_text(json.dumps({"id": "D", "tokens": ["w"]}) + "\n", encoding="utf-8")
            argv = ["extract", "--input", str(tokens), "--doc-vectors", str(path), "--word-vectors", str(words),
                    "--out", str(Path(tmp) / "k.csv")]
            check_rows(path, mutated, message, line, load_document_vectors, argv)
            if message is None:
                vectors, loaded_dim = load_document_vectors(path)
                assert loaded_dim == dim and list(vectors) == labels
                assert np.array(list(vectors.values())).tobytes() == matrix.tobytes()


# ---- stopword lists

_STOP_ENTRY = st.text(_WORD, min_size=2, max_size=4)
_STOP_LINE = st.one_of(_STOP_ENTRY, st.just(""), st.text("ab ,é日😀", max_size=4).map(lambda t: "# " + t))
# inside an entry: str.strip()'s whitespace, which ends no line of the list, and punctuation
_INNER = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u3000", ",", ".", "-", "_", "'", "#"]
_STOP_MUTATIONS = ["truncate", "inner", "bom", "line_ends", "upper", "repeat"]


def mutate_stopwords(lines: list[str], draw) -> Outcome:
    """One mutation of the stopword list of ``lines`` (entries, comments and
    blank lines); ``keep`` counts the whole lines a load reads."""
    data, n = _jsonl(lines), len(lines)
    kind = draw(st.sampled_from(_STOP_MUTATIONS))
    if kind == "truncate":  # at a byte, so possibly inside a character; a cut entry loads as a shorter one
        cut = draw(st.integers(0, len(data) - 1))
        whole = data[: cut + 1].count(b"\n")
        partial = data[cut:cut + 1] != b"\n" and data[:cut].rsplit(b"\n", 1)[-1]
        return Outcome(data[:cut], whole, {whole + 1} if partial else (), 1 if partial else 0)
    if kind == "bom":
        return Outcome("\ufeff".encode() + data, n, {1}, message="unexpected UTF-8 byte-order mark")
    if kind == "line_ends":
        ends = draw(st.lists(st.sampled_from(["\r\n", "\n", "\r"]), min_size=n, max_size=n))
        return Outcome("".join(line + end for line, end in zip(lines, ends)).encode(), n)
    entries = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    if not entries:
        return Outcome(data, n)
    i = draw(st.sampled_from(entries))
    lines = list(lines)
    if kind == "inner":
        k = draw(st.integers(1, len(lines[i]) - 1))
        lines[i] = lines[i][:k] + draw(st.sampled_from(_INNER)) + lines[i][k:]
        return Outcome(_jsonl(lines), n, {i + 1})
    if kind == "upper":  # folded to the entry it was
        lines[i] = lines[i].upper()
    else:  # repeat: a copy, maybe in capitals, on a later line is folded into the first
        lines.insert(draw(st.integers(i + 1, n)), draw(st.sampled_from([str.upper, str.lower]))(lines[i]))
    return Outcome(_jsonl(lines), n)


class TestStopwordListFuzz:
    """A mutated stopword list loads its entries once each, lowercased and in
    order, or fails with ValueError naming ``path:line``; then ``ingest``
    given it as ``--base-stopwords`` or ``--extra-stopwords`` exits 1 logging
    the same message."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_STOP_LINE, min_size=1, max_size=6), st.sampled_from(["--base-stopwords", "--extra-stopwords"]),
           st.data())
    def test_mutated_list_loads_or_names_line(self, lines, flag, data):
        outcome = mutate_stopwords(lines, data.draw)

        def expect(keep):
            return list(dict.fromkeys(line for line in lines[:keep] if line and not line.startswith("#")))

        with tempfile.TemporaryDirectory() as tmp:
            path, corpus = Path(tmp) / "stop.txt", Path(tmp) / "c.jsonl"
            save_corpus(Corpus((PatentDocument("D0", "medical", 2018, "t", "alpha"),)), corpus)
            argv = ["ingest", "--input", str(corpus), "--tokens-out", str(Path(tmp) / "t.jsonl"), flag, str(path)]
            check(path, outcome, lambda p: list(load_stopword_list(p).entries), expect, ValueError, argv)


# ---- config JSON

_CONFIG = dict(
    corpus="c.jsonl", query="'épée' OR 日本", base_stopwords="base.txt", extra_stopwords=["x.txt"],
    model=None, top_n=3, top_percent=50.0, cluster_threshold=1.5, anchors={"médical": "日本"}, out_dir="out-日",
    dim=4, window=2, epochs=1, learning_rate=0.05, min_count=1, mode="full_softmax", negatives=2, seed=3,
)
_FLOAT_KEYS = ["learning_rate", "top_percent", "cluster_threshold"]
_MISTYPED = {str: [5, True, ["x"]], int: [2.5, "3", True, [3]], float: ["0.5", False, [0.5]],
             list: ["x.txt", [5], {}], dict: [["a"], {"a": 5}, "a"]}
_CONFIG_MUTATIONS = ["truncate", "drop_key", "wrong_type", "non_finite", "repeat_key", "bom", "line_ends"]


def _settings(config) -> dict:
    """A resolved config's values, the training ones among them."""
    values = dataclasses.asdict(config)
    train = values.pop("train")
    return {**values, **train}


_DEFAULTS = _settings(resolve_config(None, {"corpus": "c.jsonl"}))


def mutate_config(draw, path: Path) -> tuple[bytes, str | None, dict]:
    """One mutation of ``_CONFIG`` as ``path`` holds it: the bytes, and the
    start of the message resolving them fails with, or None and the changes
    to the resolved values of ``_CONFIG`` that they load as."""
    text = json.dumps(_CONFIG, indent=1, ensure_ascii=False) + "\n"
    data = text.encode()
    kind = draw(st.sampled_from(_CONFIG_MUTATIONS))
    if kind == "truncate":  # at a byte, so possibly inside a character; only the final newline may go
        cut = draw(st.integers(0, len(data) - 1))
        line = data[:cut].count(b"\n") + 1
        return data[:cut], f"{path}:{line}: " if cut < len(data) - 1 else None, {}
    if kind == "bom":
        return "\ufeff".encode() + data, f"{path}:1: invalid JSON: Unexpected UTF-8 BOM", {}
    if kind == "line_ends":
        lines = text.splitlines()
        ends = draw(st.lists(st.sampled_from(["\r\n", "\n", "\r"]), min_size=len(lines), max_size=len(lines)))
        return "".join(line + end for line, end in zip(lines, ends)).encode(), None, {}
    key = draw(st.sampled_from(_FLOAT_KEYS if kind == "non_finite" else list(_CONFIG)))
    config = dict(_CONFIG)
    if kind == "repeat_key":  # a second pair for the key, first in the object
        pair = f"{json.dumps(key)}: {json.dumps(draw(st.sampled_from([_CONFIG[key], 4, 'x'])))},"
        return text.replace("{\n", "{\n " + pair + "\n", 1).encode(), f"{path}: invalid JSON: repeated key {key!r}", {}
    if kind == "drop_key":
        del config[key]
        message = f"{path}: missing the 'corpus' path" if key == "corpus" else None
        changes = {} if key == "corpus" else {key: _DEFAULTS[key]}
    elif kind == "wrong_type":
        wrong = _MISTYPED[_TYPES[key]] + ([] if key in _NULLABLE else [None])
        config[key] = draw(st.sampled_from(wrong))
        message, changes = f"{path}: {key!r} must be of type ", {}
    else:  # non_finite: README's ranges let +inf through for the cluster threshold only
        config[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        loads = config[key] == math.inf and key == "cluster_threshold"
        message, changes = (None, {key: math.inf}) if loads else (f"{path}: {key!r} must be ", {})
    return (json.dumps(config, indent=1, ensure_ascii=False) + "\n").encode(), message, changes


class TestConfigFuzz:
    """A mutated config fails in ``resolve_config`` with ValueError naming
    ``cfg.json:line`` or the file and the key, and ``pipeline --config``
    exits 1 logging the same message; or it resolves to the values written,
    a dropped key to its default."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_config_resolves_or_names_file(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(_CONFIG), encoding="utf-8")
            written = _settings(resolve_config(path))
            paths = dict(corpus=str(path.parent / "c.jsonl"), base_stopwords=str(path.parent / "base.txt"),
                         extra_stopwords=(str(path.parent / "x.txt"),))
            assert written == {**_CONFIG, **paths}  # relative to the config's directory
            mutated, message, changes = mutate_config(data.draw, path)
            path.write_bytes(mutated)
            if message is None:
                assert _settings(resolve_config(path)) == {**written, **changes}
                return
            with pytest.raises(ValueError) as failed:
                resolve_config(path)
            assert str(failed.value).startswith(message), str(failed.value)
            with patch.object(cli.log, "error") as logged:
                assert main(["pipeline", "--config", str(path)]) == EXIT_FAILURE
            assert str(logged.call_args.args[1]) == str(failed.value)

    def test_infinity_where_the_range_lets_it_through(self, tmp_path):
        """With ``cluster_threshold: Infinity`` each industry's keywords form
        one cluster, and ``config.resolved`` records the value."""
        fixture = Path(__file__).resolve().parents[1] / "src" / "trendlens" / "data" / "fixture"
        config = json.loads((fixture / "config.json").read_text(encoding="utf-8"))
        config.update({"cluster_threshold": math.inf, "corpus": str(fixture / "corpus.jsonl"),
                       "extra_stopwords": [str(fixture / "curated_stopwords.txt")], "dim": 8, "epochs": 1})
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["pipeline", "--config", str(path), "--out-dir", str(out)]) == 0
        assert '"cluster_threshold": Infinity' in (out / "config.resolved").read_text(encoding="utf-8")
        rows = list(csv.DictReader((out / "projection.csv").read_text(encoding="utf-8").splitlines()))
        assert rows and {row["cluster_id"] for row in rows} == {"0"}
