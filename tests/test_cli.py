import argparse
import csv
import inspect
import json
import re
import warnings
from pathlib import Path

import pytest

from trendlens.cli import EXIT_CURATION, EXIT_FAILURE, EXIT_OK, EXIT_USAGE, build_parser, main
from trendlens.pipeline import PipelineConfig, resolve_config
from trendlens.trends import generate_stopword_candidates

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

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        for sub in ("ingest", "query", "stopwords", "train", "extract", "analyze", "plot", "pipeline"):
            assert main([sub, "--help"]) == 0
            assert sub in capsys.readouterr().out

    def test_stage_failure_is_1(self, tmp_path):
        assert main(["ingest", "--input", str(tmp_path / "missing.jsonl")]) == EXIT_FAILURE

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

    def test_query_file_flag(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus)
        qfile = tmp_path / "q.txt"
        qfile.write_text("alpha0 OR alpha1\n")
        out = tmp_path / "kept.jsonl"
        assert main(["query", "--input", str(corpus), "--query-file", str(qfile), "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 4

    def test_bad_query_is_failure(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus)
        assert (
            main(["query", "--input", str(corpus), "--query", "(oops", "--out", str(tmp_path / "x")])
            == EXIT_FAILURE
        )

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

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
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
        assert model.read_text().splitlines()[0].split()[4] == "99"

    def test_negative_seed_env_is_failure_naming_variable(self, tmp_path, monkeypatch, caplog):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, n=8)
        monkeypatch.setenv("TRENDLENS_SEED", "-3")
        out = tmp_path / "out"
        for argv in (["train", "--input", str(corpus), "--out", str(out)],
                     ["pipeline", "--corpus", str(corpus), "--out-dir", str(out)]):
            caplog.clear()
            assert main([*argv, "--dim", "4", "--epochs", "0", "--min-count", "1"]) == EXIT_FAILURE
            assert "TRENDLENS_SEED: 'seed' must be >= 0, got -3" in caplog.text
            assert not out.exists()

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

    def test_invalid_json_config_is_failure_naming_line(self, tmp_path, caplog):
        config = tmp_path / "config.json"
        config.write_text('{"corpus": "x.jsonl",\n  dim: 4}\n')
        assert main(["pipeline", "--config", str(config)]) == EXIT_FAILURE
        assert f"{config}:2: invalid JSON: Expecting property name" in caplog.text

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
            ("stopwords", ["--top-k", "0"], "'top_k' must be >= 1, got 0"),
            ("stopwords", ["--top-k", "-1"], "'top_k' must be >= 1, got -1"),
            ("train", ["--dim", "0"], "'dim' must be >= 1, got 0"),
            ("train", ["--window", "0"], "'window' must be >= 1, got 0"),
            ("train", ["--epochs", "-1"], "'epochs' must be >= 0, got -1"),
            ("train", ["--learning-rate", "0"], "'learning_rate' must be > 0, got 0.0"),
            ("train", ["--min-count", "0"], "'min_count' must be >= 1, got 0"),
            ("train", ["--negatives", "0"], "'negatives' must be >= 1, got 0"),
            ("train", ["--seed", "-1"], "'seed' must be >= 0, got -1"),
            ("stopwords", ["--model", "m.w2v", "--dim", "0"], "'dim' must be >= 1, got 0"),
            ("pipeline", ["--learning-rate", "-0.5"], "'learning_rate' must be > 0, got -0.5"),
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


class TestPretrainedModelTakesNoTrainingFlags:
    """A run with a pretrained model trains nothing, so a training flag next
    to it fails before any input is opened; the config file may still hold
    training keys, and TRENDLENS_SEED may be set."""

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

    def test_config_training_keys_and_seed_env_stay_allowed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRENDLENS_SEED", "11")
        corpus, model, stops = tmp_path / "c.jsonl", tmp_path / "m.w2v", tmp_path / "stops.txt"
        write_corpus(corpus, n=8)
        stops.write_text("method\nsystem\n")
        train = ["train", "--input", str(corpus), "--dim", "4", "--epochs", "1", "--min-count", "1"]
        assert main([*train, "--out", str(model)]) == EXIT_OK
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
    """Each analysis flag defaults to PipelineConfig's value, and --top-k to
    generate_stopword_candidates'; pipeline leaves them unset (None) so that
    resolve_config supplies the same values."""
    owning = {
        "top_n": PipelineConfig.top_n,
        "top_percent": PipelineConfig.top_percent,
        "cluster_threshold": PipelineConfig.cluster_threshold,
        "top_k": inspect.signature(generate_stopword_candidates).parameters["top_k"].default,
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
        ("stopwords", "top_k"), ("stopwords", "top_n"), ("extract", "top_n"),
        ("analyze", "top_percent"), ("analyze", "cluster_threshold"),
        ("pipeline", "top_n"), ("pipeline", "top_percent"), ("pipeline", "cluster_threshold"),
    }
    analysis = ("top_n", "top_percent", "cluster_threshold")
    args = parser.parse_args(["pipeline", "--corpus", "x.jsonl"])
    config = resolve_config(None, {k: getattr(args, k) for k in ("corpus", *analysis)})
    assert all(getattr(config, k) == owning[k] for k in analysis)
