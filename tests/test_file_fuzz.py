"""Hypothesis fuzzers of the corpus (JSONL and CSV), extraction CSV and
projection CSV readers, in the form of ``TestTokenStreamFileFuzz``.

A mutated file loads the records it still holds, or fails with the reader's
error type naming ``path:line``, and then the CLI stage that reads it exits 1
logging that same message.  The mutations: truncation at any byte (so also
inside a multibyte character), a dropped field, a mistyped value, NaN or
infinity, a repeated id, a BOM, other line ends, and an unterminated quote.
"""

import csv
import io
import json
import math
import re
import tempfile
from collections import Counter
from itertools import accumulate
from pathlib import Path
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from trendlens import cli
from trendlens.cli import EXIT_FAILURE, main
from trendlens.corpus import CorpusError, PatentDocument, load_corpus, save_corpus, Corpus
from trendlens.keywords import ExtractionResult, KeywordScore, load_extractions, save_extractions
from trendlens.pipeline import _safe_name, plot_projection
from trendlens.textprep import _write_csv

_MUTATIONS = ["truncate", "drop_field", "wrong_type", "nan", "repeat_id", "bom", "line_ends", "open_quote"]
_NON_FINITE = ["nan", "NaN", "inf", "-inf", "Infinity"]
# free text with CSV's special characters and 2-, 3- and 4-byte UTF-8 characters
_TEXT = "ab ,\"\n\ré日😀"
_WORD = "abzé日9"


class Outcome:
    """What a reader must make of a mutated file: the data rows a load keeps,
    the lines an error may name (none where the file must load), and how many
    records a load may add to the kept ones."""

    def __init__(self, data: bytes, keep: int, lines=(), extra: float = 0):
        self.data, self.keep, self.lines, self.extra = data, keep, lines, extra


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
