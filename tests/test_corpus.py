import json
import re

import pytest

from trendlens.cli import EXIT_FAILURE, main
from trendlens.corpus import Corpus, CorpusError, PatentDocument, load_corpus, save_corpus
from trendlens.pipeline import _query
from trendlens.query import parse_query, eval_query


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def record(i, industry="medical", **overrides):
    base = {
        "id": f"P{i}",
        "industry": industry,
        "year": 2018,
        "title": f"title {i}",
        "abstract": f"abstract text {i}",
    }
    base.update(overrides)
    return base


class TestLoadJsonl:
    def test_four_industries(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(
            path,
            [record(i, industry) for i, industry in enumerate(["medical", "security", "factory", "transport"])],
        )
        corpus = load_corpus(path)
        assert len(corpus) == 4
        assert corpus.industries == ("factory", "medical", "security", "transport")

    def test_paper_style_industry_labels(self, tmp_path):
        # capitalized labels stay distinct labels
        path = tmp_path / "c.jsonl"
        labels = ["Medical", "Security", "Factory", "Transport"]
        write_jsonl(path, [record(i, label) for i, label in enumerate(labels)])
        corpus = load_corpus(path)
        assert set(corpus.industries) == set(labels)
        assert len(corpus.industries) == 4

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = record(2)
        del bad["abstract"]
        write_jsonl(path, [record(1), bad])
        with pytest.raises(CorpusError, match=r":2: missing field\(s\) abstract"):
            load_corpus(path)

    def test_unexpected_field_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(1, claims="x")])
        with pytest.raises(CorpusError, match="unexpected field"):
            load_corpus(path)

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(1), record(1)])
        with pytest.raises(CorpusError, match=":2: duplicate id 'P1'"):
            load_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(CorpusError, match="empty corpus"):
            load_corpus(path)

    def test_year_out_of_range(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(1, year=1800)])
        with pytest.raises(CorpusError, match=":1: .*1800"):
            load_corpus(path)

    def test_year_must_be_integer(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(1, year=2018.5)])
        with pytest.raises(CorpusError, match="year"):
            load_corpus(path)

    @pytest.mark.parametrize("line, error", [
        ("{oops", ""),
        (json.dumps(record(2))[:-1] + ', "abstract": "again"}', ": repeated key 'abstract'"),
    ])
    def test_invalid_json_names_line(self, tmp_path, line, error):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record(1)) + "\n" + line + "\n")
        with pytest.raises(CorpusError, match=":2: invalid JSON" + error):
            load_corpus(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record(1)) + "\n\n" + json.dumps(record(2)) + "\n")
        assert len(load_corpus(path)) == 2

    def test_load_order_preserved(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(3), record(1), record(2)])
        assert [d.id for d in load_corpus(path)] == ["P3", "P1", "P2"]


class TestLoadCsv:
    def test_round_data(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            'id,industry,year,title,abstract\n'
            'P1,medical,2016,"Title, with comma","deep learning scan"\n'
            "P2,security,2017,t2,threat detection\n"
        )
        corpus = load_corpus(path)
        assert [d.id for d in corpus] == ["P1", "P2"]
        assert corpus.documents[0].title == "Title, with comma"
        assert corpus.documents[0].year == 2016

    def test_format_inferred_from_suffix(self, tmp_path):
        # the suffix is the only format rule: a name ending in .csv, in any case, is CSV; any other name is JSONL
        rows = "id,industry,year,title,abstract\nP1,m,2018,t,a\n"
        for name in ("c.csv", "c.CSV", "c.Csv"):
            (tmp_path / name).write_text(rows)
            assert [d.id for d in load_corpus(tmp_path / name)] == ["P1"]
        for name in ("c.txt", "c.csv.bak", "csv"):
            write_jsonl(tmp_path / name, [record(1)])
            assert [d.id for d in load_corpus(tmp_path / name)] == ["P1"]
        (tmp_path / "rows.txt").write_text(rows)  # CSV under another name is read, and fails, as JSONL
        with pytest.raises(CorpusError, match=f"^{re.escape(str(tmp_path / 'rows.txt'))}:1: invalid JSON"):
            load_corpus(tmp_path / "rows.txt")

    @pytest.mark.parametrize("text, line", [
        ("id,industry,year,title\nP1,m,2018,t\n", 1),
        ('"id\nx",industry,year,title,abstract\nP1,m,2018,t,a\n', 2),  # a quoted field spans two lines
    ])
    def test_wrong_header(self, tmp_path, text, line):
        path = tmp_path / "c.csv"
        path.write_text(text)
        with pytest.raises(CorpusError, match="header") as err:
            load_corpus(path)
        assert str(err.value).startswith(f"{path}:{line}: header")

    def test_non_integer_year(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,industry,year,title,abstract\nP1,m,soon,t,a\n")
        with pytest.raises(CorpusError, match="year"):
            load_corpus(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,industry,year,title,abstract\nP1,m,2018,t\n")
        with pytest.raises(CorpusError, match="fields"):
            load_corpus(path)

    @pytest.mark.parametrize("data, line", [
        (b"id,industry,year,title,abstract\nP1,m,2018,t,caf\xc3(\n", 2),
        (b"id,industry,year,title,abstract\nP1,m,2018,\"t\ntwo\",a\nP2,m,2018,t,caf\xc3", 4),
        (b"id,industry,year,title,abstract\xff\n", 1),
    ])
    def test_invalid_utf8_names_line(self, tmp_path, data, line):
        # one bad byte, a quoted field over two lines before it, a file cut inside a character
        path = tmp_path / "c.csv"
        path.write_bytes(data)
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:{line}: 'utf-8' codec"):
            load_corpus(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_endings(self, tmp_path, newline):
        path = tmp_path / "c.csv"
        rows = ["id,industry,year,title,abstract", 'P1,m,2018,"t1', 'line two",a', "P2,m,2019,t2,b"]
        path.write_bytes(newline.join(rows).encode() + b"\n")
        docs = load_corpus(path).documents
        assert [(d.id, d.title) for d in docs] == [("P1", f"t1{newline}line two"), ("P2", "t2")]


    def test_unterminated_quote_fails_at_end_of_data(self, tmp_path):
        # a lenient reader took the rest of the file as one abstract and loaded one document
        path = tmp_path / "q.csv"
        path.write_text('id,industry,year,title,abstract\nd1,m,2018,t,"abc\nd2,m,2019,t,def\n')
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:3: unexpected end of data$"):
            load_corpus(path)
        assert main(["ingest", "--input", str(path)]) == EXIT_FAILURE

    def test_over_long_field_names_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(f"id,industry,year,title,abstract\nd1,m,2018,t,a\nd2,m,2018,t,{'a' * 140_000}\n")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:3: field larger than field limit"):
            load_corpus(path)
        assert main(["ingest", "--input", str(path)]) == EXIT_FAILURE


class TestSaveRoundTrip:
    def test_save_then_load(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(1), record(2, "security")])
        corpus = load_corpus(path)
        out = tmp_path / "out.jsonl"
        save_corpus(corpus, out)
        assert load_corpus(out) == corpus


def make_corpus(abstracts):
    return Corpus(
        tuple(
            PatentDocument(f"P{i}", "medical", 2018, "", abstract)
            for i, abstract in enumerate(abstracts)
        )
    )


class TestFilter:
    """``pipeline._query``, the one query filter of ``pipeline`` and the ``query`` subcommand."""

    def test_identity_when_all_match(self):
        corpus = make_corpus(["shared alpha", "shared beta"])
        assert Corpus(tuple(_query(corpus, "shared OR missing"))) == corpus

    def test_hand_enumerated_subset(self):
        # brute-force eval over every document picks exactly [P0, P2, P3]
        corpus = make_corpus(
            [
                "deep learning for medical imaging",   # P0: learn* and medical
                "statistical method for finance",      # P1: neither
                "machine learning healthcare records", # P2: learn* and healthcare
                "medical deep learning scan",          # P3
                "deep learning for factories",         # P4: no medical/healthcare
            ]
        )
        source = "(deep learn* OR machine learn*) AND ('medical' OR 'healthcare')"
        expected = [d.id for d in corpus if eval_query(parse_query(source), d)]
        assert expected == ["P0", "P2", "P3"]
        assert [d.id for d in _query(corpus, source)] == expected

    def test_subsequence_and_idempotent(self):
        corpus = make_corpus(["alpha one", "beta two", "alpha three"])
        once = tuple(_query(corpus, "alpha"))
        ids = [d.id for d in once]
        assert ids == [d.id for d in corpus if d.id in set(ids)]  # order preserved
        assert tuple(_query(once, "alpha")) == once

    def test_industries_recomputed(self):
        docs = (
            PatentDocument("A", "medical", 2018, "", "alpha"),
            PatentDocument("B", "security", 2018, "", "beta"),
        )
        kept = Corpus(tuple(_query(Corpus(docs), "alpha")))
        assert kept.industries == ("medical",)


class TestTypes:
    def test_duplicate_ids_rejected_at_construction(self):
        doc = PatentDocument("X", "m", 2018, "", "a")
        with pytest.raises(CorpusError, match="duplicate"):
            Corpus((doc, doc))

    def test_document_validation(self):
        with pytest.raises(ValueError):
            PatentDocument("", "m", 2018, "", "a")
        with pytest.raises(ValueError):
            PatentDocument("X", "m", 2018, "", "")
        with pytest.raises(ValueError, match="^document 'X': industry must be non-empty$"):
            PatentDocument("X", "", 2018, "", "a")
        with pytest.raises(ValueError):
            PatentDocument("X", "m", 2101, "", "a")
