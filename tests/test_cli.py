import argparse
import csv
import dataclasses
import errno
import json
import os
import re
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest

from trendlens import embedding
from trendlens.cli import EXIT_CURATION, EXIT_FAILURE, EXIT_OK, EXIT_USAGE, build_parser, main
from trendlens.corpus import load_corpus
from trendlens.embedding import MODES, TrainConfig, load_model
from trendlens.keywords import save_document_vectors
from trendlens.pipeline import PipelineConfig, resolve_config
from trendlens.textprep import tokenize

FIXTURE = Path("src/trendlens/data/fixture").resolve()


def write_corpus(path, n=6):
    industries = ["medical", "security"]
    with open(path, "w") as fh:
        for i in range(n):
            fh.write(
                json.dumps(
                    {
                        "id": f"P{i}",
                        "industry": industries[i % 2],
                        "year": 2018,
                        "title": "",
                        "abstract": f"method alpha{i % 3} beta{i % 2} gamma delta system",
                    }
                )
                + "\n"
            )


class TestExitCodes:
    def test_usage_error_is_64(self, capsys):
        assert main(["train"]) == EXIT_USAGE  # missing required flags
        assert main(["no-such-command"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE
        # the threaded trainer and its flag are gone
        stale = ["train", "--input", "c.jsonl", "--out", "m.w2v", "--workers", "2"]
        assert main(stale) == EXIT_USAGE
        # full softmax's vocabulary cap is a constant, and --mode takes only a mode
        assert main(["train", "--input", "c.jsonl", "--out", "m.w2v", "--full-softmax-cap", "3"]) == EXIT_USAGE
        assert main(["train", "--input", "c.jsonl", "--out", "m.w2v", "--mode", "hier_softmax"]) == EXIT_USAGE
        # a model file holds the word vectors alone, so the flag that added the output matrix is gone
        assert main(["train", "--input", "c.jsonl", "--out", "m.w2v", "--full"]) == EXIT_USAGE
        # a corpus file's suffix is its only format rule, so no subcommand takes --format
        for argv in (
            ["ingest", "--input", "c.csv"],
            ["query", "--input", "c.csv", "--query", "a", "--out", "q.jsonl"],
            ["stopwords", "--input", "c.csv", "--out", "s.csv"],
            ["train", "--input", "c.csv", "--out", "m.w2v"],
            ["extract", "--input", "c.csv", "--model", "m.w2v", "--out", "k.csv"],
            ["analyze", "--keywords", "k.csv", "--corpus", "c.csv", "--model", "m.w2v", "--out-dir", "o"],
            ["pipeline", "--corpus", "c.csv"],
        ):
            assert main([*argv, "--format", "csv"]) == EXIT_USAGE, argv[0]
        # the candidate count is the constant pipeline keeps, so stopwords takes no --top-k
        assert main(["stopwords", "--input", "c.jsonl", "--out", "s.csv", "--top-k", "5"]) == EXIT_USAGE
        # a query has one flag, --query, and one config key, "query"
        assert main(["query", "--input", "c.jsonl", "--query-file", "q.txt", "--out", "q.jsonl"]) == EXIT_USAGE
        assert main(["pipeline", "--corpus", "c.jsonl", "--query-file", "q.txt"]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        for sub in ("ingest", "query", "stopwords", "train", "extract", "analyze", "plot", "pipeline"):
            assert main([sub, "--help"]) == 0
            assert sub in capsys.readouterr().out

    def test_stage_failure_is_1(self, tmp_path):
        assert main(["ingest", "--input", str(tmp_path / "missing.jsonl")]) == EXIT_FAILURE

    def test_empty_industry_fails_at_its_line(self, tmp_path, caplog):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus)
        lines = corpus.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"industry": "security"', '"industry": ""')
        corpus.write_text("".join(lines))
        out_dir = tmp_path / "out"
        argv = ["pipeline", "--corpus", str(corpus), "--epochs", "0", "--min-count", "1", "--out-dir", str(out_dir)]
        assert main(argv) == EXIT_FAILURE
        assert f"{corpus}:2: document 'P1': industry must be non-empty" in caplog.text
        assert not list(out_dir.rglob("scatter_*.svg"))

    def test_curation_required_is_2(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus)
        code = main(
            [
                "pipeline",
                "--corpus",
                str(corpus),
                "--dim",
                "8",
                "--epochs",
                "1",
                "--min-count",
                "1",
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_CURATION
        candidates = (tmp_path / "out" / "stopword_candidates.csv").read_text()
        assert candidates.startswith("keyword,doc_frequency")


class TestIngest:
    def test_normalizes_and_tokenizes(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus)
        out = tmp_path / "norm.jsonl"
        tokens = tmp_path / "tokens.jsonl"
        assert (
            main(["ingest", "--input", str(corpus), "--out", str(out), "--tokens-out", str(tokens)])
            == EXIT_OK
        )
        assert len(out.read_text().splitlines()) == 6
        first = json.loads(tokens.read_text().splitlines()[0])
        assert set(first) == {"id", "tokens"}
        assert "method" in first["tokens"]  # no curated list supplied

    def test_tokens_respect_extra_stopwords(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus)
        stops = tmp_path / "stops.txt"
        stops.write_text("method\nsystem\n")
        tokens = tmp_path / "tokens.jsonl"
        assert (
            main(
                [
                    "ingest",
                    "--input",
                    str(corpus),
                    "--tokens-out",
                    str(tokens),
                    "--extra-stopwords",
                    str(stops),
                ]
            )
            == EXIT_OK
        )
        for line in tokens.read_text().splitlines():
            assert "method" not in json.loads(line)["tokens"]

    @pytest.mark.parametrize("flag", ["--extra-stopwords", "--base-stopwords"])
    def test_stopword_flag_without_tokens_out_fails(self, tmp_path, caplog, flag):
        # only --tokens-out reads the lists, so a list given without it would go unread
        corpus, out = tmp_path / "c.jsonl", tmp_path / "norm.jsonl"
        write_corpus(corpus)
        argv = ["ingest", "--input", str(corpus), "--out", str(out), flag, "/nonexistent.txt"]
        assert main(argv) == EXIT_FAILURE
        assert "flags: stopword lists are unused without --tokens-out" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("name, flag", [("c.csv", "--input"), ("s.txt", "--extra-stopwords")])
    def test_invalid_utf8_names_path_and_line(self, tmp_path, caplog, name, flag):
        corpus, bad = tmp_path / "c.jsonl", tmp_path / name
        write_corpus(corpus)
        bad.write_bytes(b"id,industry,year,title,abstract\nP1,m,2018,t,caf\xc3(\n" if name == "c.csv"
                        else b"method\ncaf\xc3(\n")
        out, tokens = tmp_path / "norm.jsonl", tmp_path / "t.jsonl"
        argv = ["ingest", "--input", str(corpus), "--out", str(out), "--tokens-out", str(tokens), flag, str(bad)]
        assert main(argv) == EXIT_FAILURE
        assert f"{bad}:2: 'utf-8' codec can't decode byte 0xc3" in caplog.text
        assert not out.exists() and not tokens.exists()  # a bad list, too, leaves no output

    def test_an_output_that_cannot_be_made_is_named(self, tmp_path, caplog):
        # the output is written to a temporary file beside it, but the error names the output
        corpus, out = tmp_path / "c.jsonl", tmp_path / "missing" / "norm.jsonl"
        write_corpus(corpus)
        assert main(["ingest", "--input", str(corpus), "--out", str(out)]) == EXIT_FAILURE
        assert caplog.messages[-1] == f"[Errno 2] No such file or directory: '{out}'"

    def test_one_file_for_both_outputs_holds_the_tokens(self, tmp_path):
        corpus, out, both = tmp_path / "c.jsonl", tmp_path / "t.jsonl", tmp_path / "both.jsonl"
        write_corpus(corpus)
        assert main(["ingest", "--input", str(corpus), "--tokens-out", str(out)]) == EXIT_OK
        assert main(["ingest", "--input", str(corpus), "--out", str(both), "--tokens-out", str(both)]) == EXIT_OK
        assert both.read_bytes() == out.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["both.jsonl", "c.jsonl", "t.jsonl"]



class TestOutputsRenamedIntoPlace:
    """A regular or missing output is written beside it and renamed over it; anything else is written in place."""

    TRAIN = ["--dim", "4", "--epochs", "0", "--min-count", "1"]  # a quick model of the 6-document corpus

    @pytest.mark.parametrize("command, flags", [
        ("ingest", ["--out", "/dev/null", "--tokens-out", "/dev/null"]),
        ("train", ["--out", "/dev/null", *TRAIN]),
    ])
    def test_dev_null_is_written_through(self, tmp_path, monkeypatch, command, flags):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus)
        before = os.stat("/dev/null")
        replace = os.replace

        def guarded(src, dst):  # renaming over /dev/null would replace the device node
            assert not str(dst).startswith("/dev/"), dst
            replace(src, dst)

        monkeypatch.setattr(os, "replace", guarded)
        assert main([command, "--input", str(corpus), *flags]) == EXIT_OK
        after = os.stat("/dev/null")
        assert stat.S_ISCHR(after.st_mode) and (after.st_ino, after.st_rdev) == (before.st_ino, before.st_rdev)
        assert not [name for name in os.listdir("/dev") if name.startswith(".null.")]

    @pytest.mark.parametrize("command, flags", [("ingest", []), ("train", TRAIN)])
    def test_a_symlinked_output_updates_its_target(self, tmp_path, command, flags):
        corpus, plain, target = tmp_path / "c.jsonl", tmp_path / "plain.out", tmp_path / "real.out"
        write_corpus(corpus)
        (tmp_path / "links").mkdir()
        link = tmp_path / "links" / "link.out"
        target.write_text("old\n")
        link.symlink_to(target)
        assert main([command, "--input", str(corpus), "--out", str(plain), *flags]) == EXIT_OK
        assert main([command, "--input", str(corpus), "--out", str(link), *flags]) == EXIT_OK
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == plain.read_bytes()
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.jsonl", "link.out", "links", "plain.out", "real.out"]

    def test_a_model_write_failing_part_way_keeps_the_old_model(self, tmp_path, monkeypatch, caplog):
        corpus, model = tmp_path / "c.jsonl", tmp_path / "model.w2v"
        write_corpus(corpus)
        model.write_text("old\n")
        write_rows = embedding._write_rows

        def one_row_then_fail(fh, labels, matrix):
            write_rows(fh, list(labels)[:1], matrix[:1])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(embedding, "_write_rows", one_row_then_fail)
        assert main(["train", "--input", str(corpus), "--out", str(model), *self.TRAIN]) == EXIT_FAILURE
        assert os.strerror(errno.ENOSPC) in caplog.text
        assert model.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "model.w2v"]  # no .model.w2v.*.tmp

    def test_an_output_keeps_its_mode(self, tmp_path):
        corpus, out = tmp_path / "c.jsonl", tmp_path / "norm.jsonl"
        write_corpus(corpus)
        out.write_text("old\n")
        out.chmod(0o640)
        assert main(["ingest", "--input", str(corpus), "--out", str(out)]) == EXIT_OK
        assert stat.S_IMODE(out.stat().st_mode) == 0o640 and out.read_text() != "old\n"

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
    def test_a_read_only_output_is_refused(self, tmp_path, caplog):
        corpus, out = tmp_path / "c.jsonl", tmp_path / "norm.jsonl"
        write_corpus(corpus)
        out.write_text("old\n")
        out.chmod(0o444)
        assert main(["ingest", "--input", str(corpus), "--out", str(out)]) == EXIT_FAILURE
        assert caplog.messages[-1] == f"[Errno 13] Permission denied: '{out}'"
        assert out.read_text() == "old\n"


class TestQuerySubcommand:
    def test_filters_corpus(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus)
        out = tmp_path / "kept.jsonl"
        assert (
            main(["query", "--input", str(corpus), "--query", "alpha0", "--out", str(out)]) == EXIT_OK
        )
        kept = [json.loads(l)["id"] for l in out.read_text().splitlines()]
        assert kept == ["P0", "P3"]

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_a_multi_line_query_keeps_its_text(self, tmp_path, source):
        # a long query goes in the config's query key or in --query "$(cat q.txt)"
        corpus, config = tmp_path / "c.jsonl", tmp_path / "config.json"
        write_corpus(corpus)
        query = "alpha0\nOR\nalpha1"
        config.write_text(json.dumps({"query": query} if source == "config" else {}))
        out_dir = tmp_path / "run"
        argv = ["pipeline", "--config", str(config), "--corpus", str(corpus), "--out-dir", str(out_dir),
                "--epochs", "0", "--min-count", "1", *(["--query", query] if source == "flag" else [])]
        assert main(argv) == EXIT_CURATION
        assert json.loads((out_dir / "config.resolved").read_text())["query"] == query
        kept = tmp_path / "kept.jsonl"
        assert main(["query", "--input", str(corpus), "--query", query, "--out", str(kept)]) == EXIT_OK
        assert len(kept.read_text().splitlines()) == 4

    def test_bad_query_is_failure(self, tmp_path, caplog):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus)
        assert (
            main(["query", "--input", str(corpus), "--query", "(oops", "--out", str(tmp_path / "x")])
            == EXIT_FAILURE
        )
        assert "unbalanced parentheses (at offset 0)" in caplog.text
        caplog.clear()
        argv = ["pipeline", "--corpus", str(corpus), "--query", "a AND", "--out-dir", str(tmp_path / "o")]
        assert main(argv) == EXIT_FAILURE
        assert "stage 'query' failed: dangling operator (at offset 5)" in caplog.text

    def test_no_match_fails_as_in_pipeline(self, tmp_path, caplog):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus)
        out = tmp_path / "kept.jsonl"
        assert main(["query", "--input", str(corpus), "--query", "zeta", "--out", str(out)]) == EXIT_FAILURE
        assert "query matched no documents" in caplog.text
        assert not out.exists()
        caplog.clear()
        argv = ["pipeline", "--corpus", str(corpus), "--query", "zeta", "--out-dir", str(tmp_path / "o")]
        assert main(argv) == EXIT_FAILURE
        assert "stage 'query' failed: query matched no documents" in caplog.text


class TestTrainSubcommand:
    def test_writes_model_with_requested_dim_and_seed(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, n=8)
        model = tmp_path / "model.w2v"
        code = main(
            [
                "train",
                "--input",
                str(corpus),
                "--dim",
                "12",
                "--epochs",
                "1",
                "--min-count",
                "1",
                "--seed",
                "7",
                "--out",
                str(model),
            ]
        )
        assert code == EXIT_OK
        header = model.read_text().splitlines()[0].split()
        assert header[0] == "trendlens-w2v"
        assert header[3] == "12" and header[4] == "7"

    def test_seed_env_is_not_read(self, tmp_path, monkeypatch):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, n=8)
        monkeypatch.setenv("TRENDLENS_SEED", "99")
        model = tmp_path / "model.w2v"
        assert (
            main(
                ["train", "--input", str(corpus), "--dim", "4", "--epochs", "0", "--min-count", "1", "--out", str(model)]
            )
            == EXIT_OK
        )
        assert model.read_text().splitlines()[0].split()[4] == str(TrainConfig.seed)

    def test_negative_seed_env_is_not_read(self, tmp_path, monkeypatch):
        corpus, stops = tmp_path / "c.jsonl", tmp_path / "stops.txt"
        write_corpus(corpus, n=8)
        stops.write_text("method\n")
        monkeypatch.setenv("TRENDLENS_SEED", "-3")
        out = tmp_path / "out"
        for argv in (["train", "--input", str(corpus), "--out", str(out / "m.w2v")],
                     ["pipeline", "--corpus", str(corpus), "--extra-stopwords", str(stops),
                      "--top-percent", "100", "--out-dir", str(out)]):
            out.mkdir(exist_ok=True)
            assert main([*argv, "--dim", "4", "--epochs", "0", "--min-count", "1"]) == EXIT_OK, argv[0]

    def test_tokens_file_mentioning_abstract_is_read_as_tokens(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, n=8)
        lines = corpus.read_text().splitlines()
        first = json.loads(lines[0])
        first["abstract"] = "an abstract method " + first["abstract"]
        corpus.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
        tokens = tmp_path / "t.jsonl"
        assert main(["ingest", "--input", str(corpus), "--tokens-out", str(tokens)]) == EXIT_OK
        assert "abstract" in json.loads(tokens.read_text().splitlines()[0])["tokens"]
        model = tmp_path / "model.w2v"
        assert (
            main(["train", "--input", str(tokens), "--dim", "4", "--epochs", "0", "--min-count", "1",
                  "--out", str(model)])
            == EXIT_OK
        )
        assert "abstract" in {line.split()[0] for line in model.read_text().splitlines()[1:]}

    @pytest.mark.parametrize("first, error", [
        ({"id": "D0"}, "expected keys 'id' and 'tokens'"),
        ({"id": "D0", "tokens": ["alpha"], "lang": "en"}, "expected keys 'id' and 'tokens'"),
        ({"tokens": ["alpha"]}, "expected keys 'id' and 'tokens'"),
        ({"id": "D0", "industry": "medical", "title": "t", "abstract": "alpha"}, "missing field(s) year"),
    ])
    @pytest.mark.parametrize("command", ["train", "extract"])
    def test_first_record_names_the_file_kind(self, tmp_path, caplog, first, error, command):
        """A first record with a 'tokens' key, or with no corpus field but
        'id', marks a tokens file; one with some corpus fields, a corpus."""
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(first) + '\n{"id": "D1", "tokens": ["alpha"]}\n')
        argv = [command, "--input", str(path), "--out", str(tmp_path / "out"), "--model", str(tmp_path / "m.w2v")]
        assert main(argv if command == "extract" else argv[:-2]) == EXIT_FAILURE
        assert f"{path}:1: {error}" in caplog.text


    def test_stopword_flags_apply_to_tokens_file(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, n=8)
        tokens = tmp_path / "t.jsonl"
        assert main(["ingest", "--input", str(corpus), "--tokens-out", str(tokens)]) == EXIT_OK
        stop = tmp_path / "s.txt"
        stop.write_text("gamma\n")
        base = tmp_path / "base.txt"
        base.write_text("delta\n")
        common = ["--dim", "4", "--epochs", "0", "--min-count", "1"]

        def vocab(*argv):
            model = tmp_path / "model.w2v"
            assert main(["train", *argv, *common, "--out", str(model)]) == EXIT_OK
            return {line.split()[0] for line in model.read_text().splitlines()[1:]}

        assert {"gamma", "delta"} <= vocab("--input", str(tokens))
        from_tokens = vocab("--input", str(tokens), "--extra-stopwords", str(stop))
        assert "gamma" not in from_tokens and "delta" in from_tokens
        assert from_tokens == vocab("--input", str(corpus), "--extra-stopwords", str(stop))
        assert "delta" not in vocab("--input", str(tokens), "--base-stopwords", str(base))

        model = tmp_path / "full.w2v"
        assert main(["train", "--input", str(corpus), *common, "--out", str(model)]) == EXIT_OK
        out = tmp_path / "k.csv"
        argv = ["extract", "--input", str(tokens), "--model", str(model), "--extra-stopwords", str(stop)]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        keywords = {row["keyword"] for row in csv.DictReader(out.read_text().splitlines())}
        assert keywords and "gamma" not in keywords


@pytest.mark.parametrize("mode", ["full_softmax", "negative_sampling"])
class TestTrainingDivergence:
    """A learning rate of 1e18 overflows the weights within the first epoch."""

    FLAGS = ["--dim", "4", "--epochs", "50", "--learning-rate", "1e18"]

    def run_quietly(self, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        return code

    def test_train_fails_and_writes_no_model(self, tmp_path, caplog, mode):
        model = tmp_path / "model.w2v"
        argv = ["train", "--input", str(FIXTURE / "corpus.jsonl"), *self.FLAGS, "--mode", mode]
        assert self.run_quietly([*argv, "--out", str(model)]) == EXIT_FAILURE
        assert re.search(r"training diverged \(non-finite loss\) at epoch \d+, step \d+", caplog.text)
        assert not model.exists()

    def test_pipeline_fails_in_train_stage(self, tmp_path, caplog, mode):
        out_dir = tmp_path / "out"
        argv = ["pipeline", "--config", str(FIXTURE / "config.json"), *self.FLAGS, "--mode", mode]
        assert self.run_quietly([*argv, "--out-dir", str(out_dir)]) == EXIT_FAILURE
        assert "stage 'train' failed: training diverged (non-finite loss) at epoch" in caplog.text
        assert not (out_dir / "model.w2v").exists()


class TestExtractSubcommand:
    def setup_model(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, n=8)
        model = tmp_path / "model.w2v"
        main(
            ["train", "--input", str(corpus), "--dim", "8", "--epochs", "2", "--min-count", "1",
             "--seed", "3", "--out", str(model)]
        )
        return corpus, model

    def test_non_finite_model_is_failure(self, tmp_path, caplog):
        corpus, model = self.setup_model(tmp_path)
        lines = model.read_text().splitlines()
        word, *values = lines[3].split()
        lines[3] = " ".join([word, "nan", *values[1:]])
        model.write_text("\n".join(lines) + "\n")
        out = tmp_path / "k.csv"
        argv = ["extract", "--input", str(corpus), "--model", str(model), "--out", str(out)]
        assert main(argv) == EXIT_FAILURE
        assert f"{model}: word '{word}': non-finite value" in caplog.text
        assert not out.exists()

    def test_word_vectors_keep_only_the_stream_tokens(self, tmp_path, monkeypatch):
        corpus, model = self.setup_model(tmp_path)
        few = tmp_path / "few.jsonl"
        few.write_text("".join(corpus.read_text().splitlines(keepends=True)[:2]))
        docs = tmp_path / "d.vec"
        save_document_vectors({"P0": np.full(8, 0.5), "P1": np.full(8, -0.25)}, docs)
        loaded = []
        monkeypatch.setattr("trendlens.keywords.load_model", lambda *a: loaded.append(load_model(*a)) or loaded[-1])
        argv = ["extract", "--input", str(few), "--doc-vectors", str(docs), "--word-vectors", str(model)]
        assert main([*argv, "--out", str(tmp_path / "part.csv")]) == EXIT_OK
        tokens = {t for doc in load_corpus(few) for t in tokenize(doc.abstract)}
        assert set(loaded[0].vocab.words) == tokens & set(load_model(model).vocab.words)
        assert len(loaded[0].vocab) < loaded[0].file_words
        monkeypatch.setattr("trendlens.keywords.load_model", lambda path, words=None: load_model(path))
        assert main([*argv, "--out", str(tmp_path / "whole.csv")]) == EXIT_OK
        assert (tmp_path / "part.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_at_most_top_n_rows_per_doc(self, tmp_path):
        corpus, model = self.setup_model(tmp_path)
        out = tmp_path / "k.csv"
        assert (
            main(["extract", "--input", str(corpus), "--model", str(model), "--top-n", "2", "--out", str(out)])
            == EXIT_OK
        )
        rows = list(csv.DictReader(out.read_text().splitlines()))
        per_doc = {}
        for row in rows:
            per_doc[row["doc_id"]] = per_doc.get(row["doc_id"], 0) + 1
            assert row["rank"] in {"1", "2"}
        assert all(count <= 2 for count in per_doc.values())

    def test_model_and_vector_files_mutually_exclusive(self, tmp_path):
        corpus, model = self.setup_model(tmp_path)
        code = main(
            ["extract", "--input", str(corpus), "--model", str(model), "--doc-vectors", "x",
             "--word-vectors", "y", "--out", str(tmp_path / "k.csv")]
        )
        assert code == EXIT_FAILURE

    def test_embedder_source_required(self, tmp_path):
        corpus, _ = self.setup_model(tmp_path)
        assert main(["extract", "--input", str(corpus), "--out", str(tmp_path / "k.csv")]) == EXIT_FAILURE


class TestAnalyzeSubcommand:
    def test_top_percent_sizes_follow_ceil_rule(self, tmp_path):
        import math

        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, n=10)
        model = tmp_path / "model.w2v"
        keywords = tmp_path / "k.csv"
        main(["train", "--input", str(corpus), "--dim", "8", "--epochs", "2", "--min-count", "1",
              "--seed", "3", "--out", str(model)])
        main(["extract", "--input", str(corpus), "--model", str(model), "--top-n", "4", "--out", str(keywords)])
        out_dir = tmp_path / "out"
        assert (
            main(["analyze", "--keywords", str(keywords), "--corpus", str(corpus), "--model", str(model),
                  "--top-percent", "50", "--cluster-threshold", "0.5", "--out-dir", str(out_dir)])
            == EXIT_OK
        )
        # distinct keyword counts per industry from the extraction file
        distinct = {}
        for row in csv.DictReader(keywords.read_text().splitlines()):
            industry = "medical" if int(row["doc_id"][1:]) % 2 == 0 else "security"
            distinct.setdefault(industry, set()).add(row["keyword"])
        selected = {}
        for row in csv.DictReader((out_dir / "frequencies.csv").read_text().splitlines()):
            selected.setdefault(row["industry"], set()).add(row["keyword"])
        for industry, kws in selected.items():
            assert len(kws) == max(1, math.ceil(50 * len(distinct[industry]) / 100.0))

    def test_keyword_missing_from_model_or_empty_is_failure(self, tmp_path, caplog):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, n=10)
        model = tmp_path / "model.w2v"
        assert main(["train", "--input", str(corpus), "--dim", "4", "--epochs", "0", "--min-count", "1",
                     "--out", str(model)]) == EXIT_OK
        keywords = tmp_path / "k.csv"
        cases = [
            ("P0,1,zzznotaword,0.9", "keyword 'zzznotaword' of industry 'medical' is not in the model"),
            ("P0,1,,0.9", f"{keywords}:2: empty keyword"),
            (",1,method,0.9", f"{keywords}:2: empty doc_id"),
        ]
        out_dir = tmp_path / "out"
        for row, error in cases:
            keywords.write_text(f"doc_id,rank,keyword,score\n{row}\n")
            caplog.clear()
            assert main(["analyze", "--keywords", str(keywords), "--corpus", str(corpus), "--model", str(model),
                         "--out-dir", str(out_dir)]) == EXIT_FAILURE
            assert error in caplog.text
            assert not out_dir.exists()


class TestPlotSubcommand:
    def test_header_only_projection_is_a_no_op(self, tmp_path):
        projection = tmp_path / "projection.csv"
        projection.write_text("industry,keyword,x,y,cluster_id\r\n")
        out_dir = tmp_path / "plots"
        assert main(["plot", "--projection", str(projection), "--out-dir", str(out_dir)]) == EXIT_OK
        assert not out_dir.exists() or not list(out_dir.iterdir())

    def test_malformed_header_is_failure(self, tmp_path, caplog):
        # a bad header or a bad row fails with the file and line
        projection = tmp_path / "projection.csv"
        header, good = "industry,keyword,x,y,cluster_id\n", "medical,drug,0.1,0.2,0\n"
        cases = [
            ("wrong,header\n", 1),
            ("", 1),
            ('"industry\nx",keyword,x,y,cluster_id\n' + good, 2),  # the header's quoted field spans two lines
            (header + good + "medical,dose,0.1,0.2\n", 3),  # a field short
            (header + good + "medical,dose,zz,0.2,0\n", 3),  # non-numeric x
            (header + good + "medical,dose,0.1,0.2,1.5\n", 3),  # non-integer cluster id
            (header + good + "medical,dose,nan,0.2,0\n", 3),  # non-finite coordinates
            (header + good + "medical,dose,0.1,inf,0\n", 3),
            (header + good + "medical,dose,-inf,0.2,0\n", 3),
        ]
        out_dir = tmp_path / "plots"
        for text, line in cases:
            projection.write_text(text)
            caplog.clear()
            assert main(["plot", "--projection", str(projection), "--out-dir", str(out_dir)]) == EXIT_FAILURE
            assert f"{projection}:{line}:" in caplog.text, text
            assert not out_dir.exists(), text

    @pytest.mark.parametrize("row, line, error", [
        ('medical,"dose,0.1,0.2,0\nmedical,drug,0.3,0.4,1', 4, "unexpected end of data"),
        ("medical,dose,0.1,0.2," + "1" * 140_000, 3, "field larger than field limit (131072)"),
        ("medical,drug,0.3,0.4,1", 3, "repeated keyword 'drug' for industry 'medical'"),
        (",,0.1,0.2,0", 3, "empty industry"),
        ("medical,,0.1,0.2,0", 3, "empty keyword"),
    ])
    def test_strict_csv_and_repeated_keyword_name_line(self, tmp_path, caplog, row, line, error):
        projection = tmp_path / "projection.csv"
        projection.write_text(f"industry,keyword,x,y,cluster_id\nmedical,drug,0.1,0.2,0\n{row}\n")
        out_dir = tmp_path / "plots"
        assert main(["plot", "--projection", str(projection), "--out-dir", str(out_dir)]) == EXIT_FAILURE
        assert f"{projection}:{line}: {error}" in caplog.text
        assert not out_dir.exists()

    def test_colliding_plot_names_fail_before_any_plot(self, tmp_path, caplog):
        projection = tmp_path / "projection.csv"
        rows = ["industry,keyword,x,y,cluster_id"]
        for industry in ("Med-A", "Med A"):
            rows += [f"{industry},w{i},0.{i},0.{i},0" for i in range(3)]
        projection.write_text("\n".join(rows) + "\n")
        out_dir = tmp_path / "plots"
        assert main(["plot", "--projection", str(projection), "--out-dir", str(out_dir)]) == EXIT_FAILURE
        assert f"{projection}: industries 'Med A' and 'Med-A'" in caplog.text
        assert "scatter_med_a.svg" in caplog.text
        assert not out_dir.exists() or not list(out_dir.iterdir())


class TestInvalidUtf8NamesPathAndLine:
    """The model, docvec, extraction CSV, projection CSV and config readers
    decode per line, so a bad byte fails naming its file and line (exit 1)."""

    @pytest.mark.parametrize("reader", ["model", "docvec", "keywords", "projection", "config"])
    def test_bad_byte(self, tmp_path, caplog, reader):
        corpus, model = TestExtractSubcommand().setup_model(tmp_path)
        keywords, out_dir = tmp_path / "k.csv", tmp_path / "out"
        assert main(["extract", "--input", str(corpus), "--model", str(model), "--out", str(keywords)]) == EXIT_OK
        bad = tmp_path / "bad"
        if reader == "model":
            lines = model.read_bytes().splitlines(keepends=True)
            bad.write_bytes(b"".join([lines[0], b"caf\xc3 " + lines[1].split(b" ", 1)[1], *lines[2:]]))
            argv = ["extract", "--input", str(corpus), "--model", str(bad), "--out", str(tmp_path / "o.csv")]
        elif reader == "docvec":
            bad.write_bytes(b"trendlens-docvec 1 1 8\nP\xc30 " + b"0.5 " * 8 + b"\n")
            argv = ["extract", "--input", str(corpus), "--doc-vectors", str(bad), "--word-vectors", str(model),
                    "--out", str(tmp_path / "o.csv")]
        elif reader == "keywords":
            lines = keywords.read_bytes().splitlines(keepends=True)
            bad.write_bytes(b"".join([lines[0], b"P0,1,caf\xc3,0.5\n", *lines[1:]]))
            argv = ["analyze", "--keywords", str(bad), "--corpus", str(corpus), "--model", str(model),
                    "--out-dir", str(out_dir)]
        elif reader == "projection":
            bad.write_bytes(b"industry,keyword,x,y,cluster_id\nmedical,caf\xc3,0.1,0.2,0\n")
            argv = ["plot", "--projection", str(bad), "--out-dir", str(out_dir)]
        else:
            bad.write_bytes(b'{"corpus": "c.jsonl",\n "query": "caf\xc3("}\n')
            argv = ["pipeline", "--config", str(bad), "--out-dir", str(out_dir)]
        assert main(argv) == EXIT_FAILURE
        assert f"{bad}:2: 'utf-8' codec can't decode byte 0xc3" in caplog.text
        assert not out_dir.exists() and not (tmp_path / "o.csv").exists()


class TestPipelineConfigPrecedence:
    def test_flags_override_config(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, n=8)
        stops = tmp_path / "stops.txt"
        stops.write_text("method\nsystem\n")
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "corpus": corpus.name,  # relative to the config directory
                    "extra_stopwords": [stops.name],
                    "dim": 8,
                    "epochs": 1,
                    "min_count": 1,
                    "seed": 5,
                    "top_percent": 100.0,
                    "cluster_threshold": 0.5,
                }
            )
        )
        out_dir = tmp_path / "out"
        assert (
            main(["pipeline", "--config", str(config), "--dim", "6", "--out-dir", str(out_dir)])
            == EXIT_OK
        )
        resolved = json.loads((out_dir / "config.resolved").read_text())
        assert resolved["train"]["dim"] == 6  # flag wins
        assert resolved["train"]["seed"] == 5  # config wins over default
        model_header = (out_dir / "model.w2v").read_text().splitlines()[0].split()
        assert model_header[3] == "6"

    def test_unknown_config_key_rejected(self, tmp_path, caplog):
        config = tmp_path / "config.json"
        for extra in ({"typo_key": 1}, {"workers": 2}):
            config.write_text(json.dumps({"corpus": "x.jsonl", **extra}))
            caplog.clear()
            assert main(["pipeline", "--config", str(config)]) == EXIT_FAILURE
            assert f"unknown config key(s): {next(iter(extra))}" in caplog.text

    @pytest.mark.parametrize("text, error", [
        ('{"corpus": "x.jsonl",\n  dim: 4}\n', ":2: invalid JSON: Expecting property name"),
        ('{"corpus": "x.jsonl",\n "top_n": 3, "top_n": 4}\n', ": invalid JSON: repeated key 'top_n'"),
    ])
    def test_invalid_json_config_is_failure_naming_line(self, tmp_path, caplog, text, error):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert main(["pipeline", "--config", str(config)]) == EXIT_FAILURE
        assert f"{config}{error}" in caplog.text

    def test_mistyped_config_value_is_failure(self, tmp_path, caplog):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"corpus": "x.jsonl", "top_n": "abc"}))
        assert main(["pipeline", "--config", str(config)]) == EXIT_FAILURE
        assert f"{config}: 'top_n' must be of type int, got 'abc'" in caplog.text

    def test_tokens_file_token_a_model_cannot_hold_is_failure(self, tmp_path, caplog):
        tokens, model = tmp_path / "tokens.jsonl", tmp_path / "model.w2v"
        tokens.write_text(
            '{"id": "a", "tokens": ["solar", "cell", "solar", "cell"]}\n'
            '{"id": "b", "tokens": ["solar cell", "solar", "cell"]}\n'
        )
        argv = ["train", "--input", str(tokens), "--dim", "4", "--epochs", "1", "--out", str(model)]
        assert main(argv) == EXIT_FAILURE
        assert f"{tokens}:2: token 'solar cell'" in caplog.text
        assert not model.exists()

    def test_tokens_file_duplicate_id_is_failure(self, tmp_path, caplog):
        tokens, model = tmp_path / "tokens.jsonl", tmp_path / "model.w2v"
        records = ['{"id": "a", "tokens": ["solar", "cell", "solar"]}', '{"id": "b", "tokens": ["cell"]}']
        tokens.write_text("\n".join(records) + "\n")
        argv = ["train", "--input", str(tokens), "--dim", "4", "--epochs", "1", "--min-count", "1"]
        assert main([*argv, "--out", str(model)]) == EXIT_OK
        tokens.write_text("\n".join([*records, records[0]]) + "\n")
        assert main([*argv, "--out", str(tmp_path / "m2.w2v")]) == EXIT_FAILURE
        assert f"{tokens}:3: duplicate id 'a'" in caplog.text
        assert not (tmp_path / "m2.w2v").exists()
        caplog.clear()
        out = tmp_path / "k.csv"
        argv = ["extract", "--input", str(tokens), "--model", str(model), "--out", str(out)]
        assert main(argv) == EXIT_FAILURE
        assert f"{tokens}:3: duplicate id 'a'" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value", [("top_n", 0), ("top_percent", 0), ("top_percent", -5), ("cluster_threshold", -1)]
    )
    def test_analysis_value_out_of_range_fails_before_training(self, tmp_path, caplog, key, value):
        config = tmp_path / "config.json"
        values = json.loads((FIXTURE / "config.json").read_text())
        values.update(
            corpus=str(FIXTURE / "corpus.jsonl"),
            extra_stopwords=[str(FIXTURE / "curated_stopwords.txt")],
            dim=8,
            epochs=1,
        )
        config.write_text(json.dumps({**values, key: value}))
        out_dir = tmp_path / "out"
        assert main(["pipeline", "--config", str(config), "--out-dir", str(out_dir)]) == EXIT_FAILURE
        assert f"{config}: '{key}' must be" in caplog.text
        assert not out_dir.exists()


class TestAnalysisFlagRanges:
    @pytest.mark.parametrize(
        "command, flags, error",
        [
            ("stopwords", ["--top-n", "0"], "'top_n' must be >= 1, got 0"),
            ("extract", ["--model", "m.w2v", "--top-n", "-1"], "'top_n' must be >= 1, got -1"),
            ("pipeline", ["--top-n", "0"], "'top_n' must be >= 1, got 0"),
            ("analyze", ["--top-percent", "0"], "'top_percent' must be in (0, 100], got 0.0"),
            ("analyze", ["--top-percent", "101"], "'top_percent' must be in (0, 100], got 101.0"),
            ("pipeline", ["--top-percent", "-5"], "'top_percent' must be in (0, 100], got -5.0"),
            ("analyze", ["--cluster-threshold", "-1"], "'cluster_threshold' must be > 0, got -1.0"),
            ("pipeline", ["--cluster-threshold", "0"], "'cluster_threshold' must be > 0, got 0.0"),
            ("train", ["--dim", "0"], "'dim' must be >= 1, got 0"),
            ("train", ["--window", "0"], "'window' must be >= 1, got 0"),
            ("train", ["--epochs", "-1"], "'epochs' must be >= 0, got -1"),
            ("train", ["--learning-rate", "0"], "'learning_rate' must be > 0 and finite, got 0.0"),
            ("train", ["--learning-rate", "inf"], "'learning_rate' must be > 0 and finite, got inf"),
            ("train", ["--min-count", "0"], "'min_count' must be >= 1, got 0"),
            ("train", ["--negatives", "0"], "'negatives' must be >= 1, got 0"),
            ("train", ["--seed", "-1"], "'seed' must be >= 0, got -1"),
            ("stopwords", ["--model", "m.w2v", "--dim", "0"], "'dim' must be >= 1, got 0"),
            ("pipeline", ["--learning-rate", "-0.5"], "'learning_rate' must be > 0 and finite, got -0.5"),
            ("pipeline", ["--learning-rate", "inf"], "'learning_rate' must be > 0 and finite, got inf"),
        ],
    )
    def test_out_of_range_flag_is_failure_naming_flag(self, tmp_path, caplog, command, flags, error):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, n=8)
        out = tmp_path / "out"
        inputs = {
            "stopwords": ["--input", str(corpus), "--dim", "4", "--min-count", "1", "--out", str(out)],
            "train": ["--input", str(tmp_path / "missing.jsonl"), "--out", str(out)],  # checked before read
            "extract": ["--input", str(corpus), "--out", str(out)],
            "analyze": ["--keywords", "k.csv", "--corpus", str(corpus), "--model", "m.w2v",
                        "--out-dir", str(out)],
            "pipeline": ["--corpus", str(corpus), "--dim", "4", "--min-count", "1", "--out-dir", str(out)],
        }[command]
        assert main([command, *inputs, *flags]) == EXIT_FAILURE
        assert f"flags: {error}" in caplog.text
        assert not out.exists()


class TestEmptyStringIsSet:
    """Only None is unset: an empty string given as a flag is a value, so it
    fails where the value is used instead of falling back to a default."""

    def test_empty_query_fails_in_query_and_pipeline(self, tmp_path, caplog):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, n=8)
        out = tmp_path / "q.jsonl"
        assert main(["query", "--input", str(corpus), "--query", "", "--out", str(out)]) == EXIT_FAILURE
        assert "empty query (at offset 0)" in caplog.text
        assert not out.exists()
        caplog.clear()
        argv = ["pipeline", "--corpus", str(corpus), "--query", "", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_FAILURE
        assert "stage 'query' failed: empty query (at offset 0)" in caplog.text

    def test_empty_config_query_fails_in_pipeline(self, tmp_path, caplog):
        corpus, config = tmp_path / "c.jsonl", tmp_path / "config.json"
        write_corpus(corpus, n=8)
        config.write_text(json.dumps({"corpus": str(corpus), "query": ""}))
        out_dir = tmp_path / "out"
        assert main(["pipeline", "--config", str(config), "--out-dir", str(out_dir)]) == EXIT_FAILURE
        assert "stage 'query' failed: empty query (at offset 0)" in caplog.text

    @pytest.mark.parametrize("flag, key", [("--model", "model"), ("--base-stopwords", "base_stopwords")])
    def test_empty_pipeline_path_is_a_missing_file(self, tmp_path, caplog, flag, key):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, n=8)
        out_dir = tmp_path / "out"
        assert main(["pipeline", "--corpus", str(corpus), flag, "", "--out-dir", str(out_dir)]) == EXIT_FAILURE
        assert f"stage 'config' failed: missing input file(s): {key}: \n" in caplog.text
        assert not out_dir.exists()

    def test_empty_stopwords_model_takes_no_training_flags(self, tmp_path, caplog):
        corpus, out = tmp_path / "c.jsonl", tmp_path / "s.csv"
        write_corpus(corpus, n=8)
        assert main(["stopwords", "--input", str(corpus), "--model", "", "--dim", "8", "--out", str(out)]) == EXIT_FAILURE
        assert "flags: training key(s) unused with a pretrained model: dim" in caplog.text
        assert not out.exists()

    def test_empty_ingest_stopword_list_is_unused_without_tokens_out(self, tmp_path, caplog):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, n=8)
        assert main(["ingest", "--input", str(corpus), "--base-stopwords", ""]) == EXIT_FAILURE
        assert "flags: stopword lists are unused without --tokens-out" in caplog.text


class TestPretrainedModelTakesNoTrainingFlags:
    """A run with a pretrained model trains nothing, so a training flag next
    to it fails before any input is opened; the config file may still hold
    training keys."""

    UNUSED = "flags: training key(s) unused with a pretrained model: "

    def test_stopwords_model_flag(self, tmp_path, caplog):
        out = tmp_path / "s.csv"
        argv = ["stopwords", "--input", str(tmp_path / "missing.jsonl"), "--model", "m.w2v",
                "--dim", "50", "--mode", "full_softmax", "--out", str(out)]
        assert main(argv) == EXIT_FAILURE
        assert self.UNUSED + "dim, mode" in caplog.text
        assert not out.exists()

    def test_pipeline_model_flag(self, tmp_path, caplog):
        out_dir = tmp_path / "out"
        argv = ["pipeline", "--corpus", str(tmp_path / "missing.jsonl"), "--model", "m.w2v",
                "--dim", "50", "--out-dir", str(out_dir)]
        assert main(argv) == EXIT_FAILURE
        assert self.UNUSED + "dim" in caplog.text
        assert not out_dir.exists()

    def test_pipeline_config_model(self, tmp_path, caplog):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"corpus": "missing.jsonl", "model": "m.w2v", "epochs": 2}))
        out_dir = tmp_path / "out"
        argv = ["pipeline", "--config", str(config), "--seed", "3", "--window", "2",
                "--out-dir", str(out_dir)]
        assert main(argv) == EXIT_FAILURE
        assert self.UNUSED + "seed, window" in caplog.text
        assert not out_dir.exists()
        with pytest.raises(ValueError, match=re.escape(self.UNUSED + "dim")):
            resolve_config(None, {"corpus": "c.jsonl", "model": "m.w2v", "dim": 4})

    def test_config_training_keys_stay_allowed(self, tmp_path):
        corpus, model, stops = tmp_path / "c.jsonl", tmp_path / "m.w2v", tmp_path / "stops.txt"
        write_corpus(corpus, n=8)
        stops.write_text("method\nsystem\n")
        train = ["train", "--input", str(corpus), "--dim", "4", "--epochs", "1", "--min-count", "1"]
        assert main([*train, "--seed", "11", "--out", str(model)]) == EXIT_OK
        argv = ["stopwords", "--input", str(corpus), "--model", str(model)]
        assert main([*argv, "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": corpus.name, "model": model.name, "extra_stopwords": [stops.name],
            "dim": 50, "epochs": 9, "top_percent": 100.0, "cluster_threshold": 0.5,
        }))
        out_dir = tmp_path / "out"
        assert main(["pipeline", "--config", str(config), "--out-dir", str(out_dir)]) == EXIT_OK
        resolved = json.loads((out_dir / "config.resolved").read_text())
        assert resolved["model"] == str(model) and "train" not in resolved
        assert not (out_dir / "model.w2v").exists()



def test_flag_defaults_are_the_owning_defaults():
    """Each analysis flag defaults to PipelineConfig's value; pipeline
    leaves them unset (None) so that resolve_config supplies the same values."""
    owning = {
        "top_n": PipelineConfig.top_n,
        "top_percent": PipelineConfig.top_percent,
        "cluster_threshold": PipelineConfig.cluster_threshold,
    }
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = set()
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest in owning:
                found.add((command, action.dest))
                expected = None if command == "pipeline" else owning[action.dest]
                assert action.default == expected, (command, action.dest)
    assert found == {
        ("stopwords", "top_n"), ("extract", "top_n"),
        ("analyze", "top_percent"), ("analyze", "cluster_threshold"),
        ("pipeline", "top_n"), ("pipeline", "top_percent"), ("pipeline", "cluster_threshold"),
    }
    analysis = ("top_n", "top_percent", "cluster_threshold")
    args = parser.parse_args(["pipeline", "--corpus", "x.jsonl"])
    config = resolve_config(None, {k: getattr(args, k) for k in ("corpus", *analysis)})
    assert all(getattr(config, k) == owning[k] for k in analysis)


def test_training_flags_are_the_train_config_fields():
    """train, stopwords and pipeline take one flag per TrainConfig field,
    each unset (None) so that TrainConfig or a config file supplies it."""
    fields = [f.name for f in dataclasses.fields(TrainConfig)]
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("train", "stopwords", "pipeline"):
        actions = {a.dest: a for a in subparsers.choices[command]._actions}
        training = [dest for dest in actions if hasattr(TrainConfig, dest)]
        assert training == fields, command
        for name in fields:
            assert actions[name].option_strings == ["--" + name.replace("_", "-")], (command, name)
            assert actions[name].default is None, (command, name)
            assert actions[name].type is type(getattr(TrainConfig, name)), (command, name)
        assert actions["mode"].choices == MODES
    for command in ("ingest", "query", "extract", "analyze", "plot"):
        assert not any(hasattr(TrainConfig, a.dest) for a in subparsers.choices[command]._actions), command
