import csv
import json

from trendlens.cli import EXIT_CURATION, EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main


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

    def test_at_most_top_n_rows_per_doc(self, tmp_path):
        corpus, model = self.setup_model(tmp_path)
        out = tmp_path / "k.csv"
        assert (
            main(["extract", "--input", str(corpus), "--model", str(model), "--top-n", "2", "--out", str(out)])
            == EXIT_OK
        )
        rows = list(csv.DictReader(open(out)))
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
        for row in csv.DictReader(open(keywords)):
            industry = "medical" if int(row["doc_id"][1:]) % 2 == 0 else "security"
            distinct.setdefault(industry, set()).add(row["keyword"])
        selected = {}
        for row in csv.DictReader(open(out_dir / "frequencies.csv")):
            selected.setdefault(row["industry"], set()).add(row["keyword"])
        for industry, kws in selected.items():
            assert len(kws) == max(1, math.ceil(50 * len(distinct[industry]) / 100.0))


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
        ]
        for text, line in cases:
            projection.write_text(text)
            caplog.clear()
            assert main(["plot", "--projection", str(projection), "--out-dir", str(tmp_path)]) == EXIT_FAILURE
            assert f"{projection}:{line}:" in caplog.text, text


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
