import csv
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from trendlens import embedding, pipeline
from trendlens.cli import EXIT_FAILURE, EXIT_OK, main
from trendlens.corpus import load_corpus
from trendlens.embedding import TrainConfig, train
from trendlens.keywords import ExtractionResult, KeywordScore, load_extractions
from trendlens.pipeline import (
    CurationRequired,
    PipelineConfig,
    PipelineStageError,
    _analysis_words,
    _prep_streams,
    resolve_config,
    run_pipeline,
)
from trendlens.textprep import tokenize

FIXTURE = Path("src/trendlens/data/fixture")

FINAL_OUTPUTS = [
    "frequencies.csv",
    "projection.csv",
    "anchor_similarity.csv",
    "trend_report.json",
    "scatter_factory.svg",
    "scatter_medical.svg",
    "scatter_security.svg",
    "scatter_transport.svg",
]


def read_rows(path) -> list[dict[str, str]]:
    return list(csv.DictReader(path.read_text().splitlines()))


def fixture_config(out_dir) -> PipelineConfig:
    return resolve_config(FIXTURE / "config.json", {"out_dir": str(out_dir)})


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    report = run_pipeline(fixture_config(out_dir))
    return out_dir, report


class TestFixtureRun:
    def test_epoch_log_lines_unchanged_and_loss_falls(self, caplog):
        # the fixture's per-epoch losses, pinned; no epoch warns of a rising loss
        config = fixture_config("unused")
        corpus = load_corpus(config.corpus)
        streams = _prep_streams(corpus, config.base_stopwords, config.extra_stopwords)
        with caplog.at_level("INFO", logger="trendlens.embedding"):
            train(streams, config.train)
        assert [r.getMessage().split(",")[0] for r in caplog.records] == [
            "epoch 1/5: mean loss 3.814391",
            "epoch 2/5: mean loss 2.701748",
            "epoch 3/5: mean loss 2.460940",
            "epoch 4/5: mean loss 2.054708",
            "epoch 5/5: mean loss 1.897513",
        ]

    def test_emits_all_report_files(self, fixture_run):
        out_dir, _ = fixture_run
        for name in FINAL_OUTPUTS + ["config.resolved", "keywords.csv", "model.w2v"]:
            assert (out_dir / name).exists(), name

    def test_report_is_internally_consistent(self, fixture_run):
        _, report = fixture_run
        assert set(report.industries) == {"factory", "medical", "security", "transport"}
        for trend in report.industries.values():
            selected = {k for k, _ in trend.keywords}
            projected = {p.keyword for p in trend.points}
            assert projected <= selected
            if trend.clusters is not None:
                clustered = {kw for _, members in trend.clusters.clusters for kw in members}
                assert clustered == projected

    def test_curated_stopwords_never_emitted(self, fixture_run):
        out_dir, _ = fixture_run
        curated = {
            line.strip()
            for line in (FIXTURE / "curated_stopwords.txt").read_text().splitlines()
            if line.strip() and not line.startswith("#")
        }
        keywords = {row["keyword"] for row in read_rows(out_dir / "keywords.csv")}
        assert not keywords & curated

    def test_frequencies_have_ranked_rows(self, fixture_run):
        out_dir, _ = fixture_run
        rows = read_rows(out_dir / "frequencies.csv")
        by_industry = {}
        for row in rows:
            by_industry.setdefault(row["industry"], []).append(row)
        for industry_rows in by_industry.values():
            ranks = [int(r["rank"]) for r in industry_rows]
            counts = [int(r["count"]) for r in industry_rows]
            assert ranks == list(range(1, len(ranks) + 1))
            assert counts == sorted(counts, reverse=True)

    def test_projection_rows_reference_frequency_keywords(self, fixture_run):
        out_dir, _ = fixture_run
        freq = {(r["industry"], r["keyword"]) for r in read_rows(out_dir / "frequencies.csv")}
        for row in read_rows(out_dir / "projection.csv"):
            assert (row["industry"], row["keyword"]) in freq
            float(row["x"]), float(row["y"])  # six-decimal floats parse
            int(row["cluster_id"])

    def test_medical_keywords_drawn_from_medical_vocabulary(self, fixture_run):
        # trend keywords for the medical industry come from that industry's
        # clinical vocabulary, not from other industries' terms
        _, report = fixture_run
        medical_pool = {
            "patient", "medical", "imaging", "image", "diagnosis", "diagnostic",
            "healthcare", "clinical", "monitoring", "disease", "treatment",
            "records", "scan", "therapy", "hospital",
        }
        keywords = {k for k, _ in report.industries["medical"].keywords}
        assert keywords
        assert keywords <= medical_pool

    def test_config_resolved_echoed(self, fixture_run):
        out_dir, _ = fixture_run
        resolved = json.loads((out_dir / "config.resolved").read_text())
        assert resolved["train"]["dim"] == 32
        assert resolved["train"]["seed"] == 7
        assert resolved["top_percent"] == 75.0


class TestDeterminism:
    def test_rerun_is_byte_identical(self, fixture_run, tmp_path):
        first, _ = fixture_run
        second = tmp_path / "rerun"
        run_pipeline(fixture_config(second))
        for name in FINAL_OUTPUTS + ["keywords.csv", "model.w2v"]:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_staged_subcommands_reproduce_pipeline(self, fixture_run, tmp_path):
        pipeline_dir, _ = fixture_run
        staged = tmp_path / "staged"
        staged.mkdir()
        config = json.loads((FIXTURE / "config.json").read_text())
        train_flags = [
            "--dim", str(config["dim"]),
            "--window", str(config["window"]),
            "--epochs", str(config["epochs"]),
            "--learning-rate", str(config["learning_rate"]),
            "--min-count", str(config["min_count"]),
            "--mode", config["mode"],
            "--negatives", str(config["negatives"]),
            "--seed", str(config["seed"]),
        ]
        corpus = str(FIXTURE / "corpus.jsonl")
        curated = str(FIXTURE / "curated_stopwords.txt")
        norm = staged / "corpus.norm.jsonl"
        tokens = staged / "tokens.jsonl"
        model = staged / "model.w2v"
        keywords = staged / "keywords.csv"
        out_dir = staged / "out"

        assert main(["ingest", "--input", corpus, "--out", str(norm),
                     "--tokens-out", str(tokens), "--extra-stopwords", curated]) == EXIT_OK
        assert main(["train", "--input", str(tokens), "--out", str(model), *train_flags]) == EXIT_OK
        assert main(["extract", "--input", str(tokens), "--model", str(model),
                     "--top-n", str(config["top_n"]), "--out", str(keywords)]) == EXIT_OK
        assert main(["analyze", "--keywords", str(keywords), "--corpus", str(norm),
                     "--model", str(model), "--top-percent", str(config["top_percent"]),
                     "--cluster-threshold", str(config["cluster_threshold"]),
                     "--out-dir", str(out_dir)]) == EXIT_OK
        assert main(["plot", "--projection", str(out_dir / "projection.csv"),
                     "--out-dir", str(out_dir)]) == EXIT_OK

        assert (pipeline_dir / "model.w2v").read_bytes() == model.read_bytes()
        assert (pipeline_dir / "keywords.csv").read_bytes() == keywords.read_bytes()
        for name in FINAL_OUTPUTS:
            assert (pipeline_dir / name).read_bytes() == (out_dir / name).read_bytes(), name

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Two fresh processes under different string hash seeds, each in its
        own working directory with the same relative --out-dir, write the
        same bytes to every output, config.resolved included."""
        config = (FIXTURE / "config.json").resolve()
        runs = {}
        for seed in ("0", "12345"):
            cwd = tmp_path / f"hash{seed}"
            cwd.mkdir()
            env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()), PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-m", "trendlens", "pipeline", "--config", str(config),
                                   "--out-dir", "out"], cwd=cwd, env=env, capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == EXIT_OK, proc.stderr
            runs[seed] = {p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())}
        assert sorted(runs["0"]) == sorted(["config.resolved", "keywords.csv", "model.w2v", *FINAL_OUTPUTS])
        assert runs["0"] == runs["12345"]


class TestPretrainedRunKeepsTheRowsItLooksUp:
    """A pretrained run loads only the model rows of its stream tokens and
    anchors, and writes what a full load and the staged chain write."""

    def test_partial_load_matches_full_load_and_staged_chain(self, fixture_run, tmp_path, caplog, monkeypatch):
        pipeline_dir, _ = fixture_run
        records = [json.loads(line) for line in (FIXTURE / "corpus.jsonl").read_text().splitlines()]
        for record in records:
            if record["industry"] == "transport":
                record["industry"] = "Quantum optics"  # anchored by its name's first token
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert not {"quantum", "xylophone"} & {t for r in records for t in tokenize(r["abstract"])}
        # the anchors and two words no run looks up, spread through a copy of the trained model
        header, *rows = (pipeline_dir / "model.w2v").read_text().splitlines()
        magic, version, n, dim, seed = header.split()
        extra = [w + " " + rows[i].split(" ", 1)[1] for i, w in enumerate(["quantum", "zz1", "xylophone", "zz2"])]
        rows = [extra[0], *rows[:5], extra[1], *rows[5:9], extra[2], *rows[9:], extra[3]]
        model = tmp_path / "model.w2v"
        model.write_text("\n".join([f"{magic} {version} {int(n) + 4} {dim} {seed}", *rows]) + "\n")
        config = json.loads((FIXTURE / "config.json").read_text())
        anchors = {"medical": "xylophone"}

        def run(out_dir):
            overrides = {"corpus": str(corpus), "model": str(model), "anchors": anchors, "out_dir": str(out_dir)}
            run_pipeline(resolve_config(FIXTURE / "config.json", overrides))
            return {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != "config.resolved"}

        with caplog.at_level("INFO", logger="trendlens.pipeline"):
            partial = run(tmp_path / "partial")
        assert f"model loaded: {int(n) + 4} words ({int(n) + 2} kept for this run), {dim} dimensions" in caplog.messages
        anchor_rows = read_rows(tmp_path / "partial" / "anchor_similarity.csv")
        assert {"quantum", "xylophone"} <= {r["anchor"] for r in anchor_rows}
        assert json.loads(partial["trend_report.json"])["model"]["vocabulary"] == int(n) + 4

        with monkeypatch.context() as m:
            m.setattr("trendlens.pipeline.load_model", lambda path, words=None: embedding.load_model(path))
            assert run(tmp_path / "full") == partial

        staged = tmp_path / "staged"
        norm, tokens, keywords = staged / "norm.jsonl", staged / "tokens.jsonl", staged / "keywords.csv"
        staged.mkdir()
        curated = str(FIXTURE / "curated_stopwords.txt")
        assert main(["ingest", "--input", str(corpus), "--out", str(norm),
                     "--tokens-out", str(tokens), "--extra-stopwords", curated]) == EXIT_OK
        assert main(["extract", "--input", str(tokens), "--model", str(model),
                     "--top-n", str(config["top_n"]), "--out", str(keywords)]) == EXIT_OK
        assert main(["analyze", "--keywords", str(keywords), "--corpus", str(norm), "--model", str(model),
                     "--top-percent", str(config["top_percent"]),
                     "--cluster-threshold", str(config["cluster_threshold"]),
                     "--anchor", "medical=xylophone", "--out-dir", str(staged / "out")]) == EXIT_OK
        assert main(["plot", "--projection", str(staged / "out" / "projection.csv"),
                     "--out-dir", str(staged / "out")]) == EXIT_OK
        chain = {p.name: p.read_bytes() for p in (staged / "out").iterdir()}
        assert {"keywords.csv": keywords.read_bytes(), **chain} == partial


class TestAnalysisHoldsOnlyTheRowsItReads:
    """The analysis gets a copy of the rows of its selected keywords and
    anchors: a pretrained run frees the loaded matrix before the analysis
    starts, and the staged analyze loads the same rows."""

    ANCHORS = {"medical": "patient"}

    def run(self, model, tmp_path, monkeypatch):
        """A pretrained run at 20 percent; the model each analysis receives,
        and whether each array the model load returned was freed by then."""
        loaded, seen = [], []

        def load(path, words=None):
            model = embedding.load_model(path, words)
            loaded.extend(weakref.ref(a) for a in (model.input_vectors, model.input_vectors.base) if a is not None)
            return model

        analyze = pipeline.analyze_extractions

        def analyze_with_probe(results, corpus, model, *args):
            seen.append((model, [ref() is None for ref in loaded]))
            return analyze(results, corpus, model, *args)

        monkeypatch.setattr("trendlens.pipeline.load_model", load)
        monkeypatch.setattr("trendlens.pipeline.analyze_extractions", analyze_with_probe)
        overrides = {"model": str(model), "top_percent": 20.0, "anchors": self.ANCHORS, "out_dir": str(tmp_path)}
        run_pipeline(resolve_config(FIXTURE / "config.json", overrides))
        return seen

    def staged_analyze(self, model, keywords, out_dir, monkeypatch):
        """The exit code of ``trendlens analyze`` on the run's keywords, and the model it loads."""
        loaded = []
        monkeypatch.setattr("trendlens.cli.load_model", lambda *a: loaded.append(embedding.load_model(*a)) or loaded[-1])
        code = main(["analyze", "--keywords", str(keywords), "--corpus", str(FIXTURE / "corpus.jsonl"),
                     "--model", str(model), "--top-percent", "20", "--cluster-threshold", "0.08",
                     "--anchor", "medical=patient", "--out-dir", str(out_dir)])
        return code, loaded[0]

    def test_the_loaded_matrix_is_freed_before_the_analysis(self, fixture_run, tmp_path, monkeypatch):
        (_, freed), = self.run(fixture_run[0] / "model.w2v", tmp_path, monkeypatch)
        assert len(freed) == 2 and all(freed)

    def test_the_analysis_model_holds_the_rows_of_its_words(self, fixture_run, tmp_path, monkeypatch):
        path = fixture_run[0] / "model.w2v"
        (model, _), = self.run(path, tmp_path / "out", monkeypatch)
        results = load_extractions(tmp_path / "out" / "keywords.csv")
        words = _analysis_words(results, load_corpus(FIXTURE / "corpus.jsonl"), 20.0, self.ANCHORS)
        full = embedding.load_model(path)
        rows = [i for i, w in enumerate(full.vocab.words) if w in words]
        assert "patient" in words and 0 < len(rows) < len({ks.keyword for r in results for ks in r.keywords})
        assert model.vocab.words == tuple(full.vocab.words[i] for i in rows)
        assert model.input_vectors.tobytes() == full.input_vectors[rows].tobytes()
        assert model.output_vectors.shape == model.input_vectors.shape and not model.output_vectors.any()
        assert not model.output_vectors.flags.writeable
        assert (model.file_words, model.seed) == (full.file_words, full.seed)
        code, staged = self.staged_analyze(path, tmp_path / "out" / "keywords.csv", tmp_path / "staged", monkeypatch)
        assert code == EXIT_OK
        assert staged.vocab.words == model.vocab.words
        assert staged.input_vectors.tobytes() == model.input_vectors.tobytes()
        for name in ("frequencies.csv", "projection.csv", "anchor_similarity.csv", "trend_report.json"):
            assert (tmp_path / "staged" / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name

    def test_a_trained_run_analyzes_a_copy_of_its_rows(self, tmp_path, monkeypatch):
        seen = []
        analyze = pipeline.analyze_extractions
        monkeypatch.setattr("trendlens.pipeline.analyze_extractions",
                            lambda results, corpus, model, *a: seen.append(model) or analyze(results, corpus, model, *a))
        config = fixture_config(tmp_path)
        config.train = TrainConfig(dim=8, epochs=1, seed=3)
        run_pipeline(config)
        model, = seen
        full = embedding.load_model(tmp_path / "model.w2v")
        words = _analysis_words(load_extractions(tmp_path / "keywords.csv"), load_corpus(config.corpus), 75.0, {})
        assert set(model.vocab.words) == words & set(full.vocab.words)
        assert json.loads((tmp_path / "trend_report.json").read_text())["model"]["vocabulary"] == len(full.vocab)

    def test_a_selected_keyword_missing_from_the_model_fails_naming_it(self, fixture_run, tmp_path, monkeypatch, caplog):
        # every document also extracts a word the model lacks, so each industry selects it
        extract = pipeline.extract_keywords

        def extract_with_absent(stream, embedder, top_n):
            result = extract(stream, embedder, top_n)
            return ExtractionResult(result.doc_id, (*result.keywords, KeywordScore("zzabsent", 0.0)))

        monkeypatch.setattr("trendlens.pipeline.extract_keywords", extract_with_absent)
        error = "keyword 'zzabsent' of industry 'factory' is not in the model"
        path = fixture_run[0] / "model.w2v"
        with pytest.raises(PipelineStageError, match=re.escape(f"stage 'analyze' failed: {error}")):
            self.run(path, tmp_path / "out", monkeypatch)
        code, _ = self.staged_analyze(path, tmp_path / "out" / "keywords.csv", tmp_path / "staged", monkeypatch)
        assert code == EXIT_FAILURE and error in caplog.text


class TestGoldenPlot:
    def test_fixture_svg_matches_frozen_golden(self, fixture_run):
        out_dir, _ = fixture_run
        golden = Path("tests/data/golden_scatter_medical.svg")
        assert (out_dir / "scatter_medical.svg").read_bytes() == golden.read_bytes()


class TestCurationGate:
    def test_missing_curated_list_halts_with_candidates(self, tmp_path):
        config = PipelineConfig(
            corpus=str(FIXTURE / "corpus.jsonl"),
            train=TrainConfig(dim=8, epochs=1, min_count=2, seed=7),
            out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(CurationRequired):
            run_pipeline(config)
        candidates = tmp_path / "out" / "stopword_candidates.csv"
        rows = read_rows(candidates)
        assert 0 < len(rows) <= 30
        frequencies = [int(r["doc_frequency"]) for r in rows]
        assert frequencies == sorted(frequencies, reverse=True)
        assert all(r["keyword"].isalnum() and r["keyword"].islower() for r in rows)
        # the model is built before the halt but neither saved nor used to extract
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == ["config.resolved", "stopword_candidates.csv"]

    def test_unwritable_candidates_file_fails_in_candidates_stage(self, tmp_path):
        out_dir = tmp_path / "out"
        (out_dir / "stopword_candidates.csv").mkdir(parents=True)
        config = PipelineConfig(
            corpus=str(FIXTURE / "corpus.jsonl"),
            train=TrainConfig(dim=8, epochs=1, min_count=2, seed=7),
            out_dir=str(out_dir),
        )
        with pytest.raises(PipelineStageError, match="stage 'candidates'") as err:
            run_pipeline(config)
        assert isinstance(err.value.__cause__, IsADirectoryError)

    def test_halting_run_reports_a_bad_model_in_train_stage(self, tmp_path):
        model = tmp_path / "bad.w2v"
        model.write_text("not a model\n")
        config = PipelineConfig(
            corpus=str(FIXTURE / "corpus.jsonl"), model=str(model), out_dir=str(tmp_path / "o")
        )
        with pytest.raises(PipelineStageError, match="stage 'train'"):
            run_pipeline(config)

    def test_curated_list_changes_downstream_keywords(self, fixture_run):
        # the fixture's curated file screens corpus-generic AI terms out of
        # training and extraction, so none may reappear as trend keywords
        _, report = fixture_run
        curated = {
            line.strip()
            for line in (FIXTURE / "curated_stopwords.txt").read_text().splitlines()
            if line.strip() and not line.startswith("#")
        }
        for trend in report.industries.values():
            assert not curated & {k for k, _ in trend.keywords}

    def test_stopwords_subcommand_matches_halt_output(self, tmp_path):
        # the standalone candidates stage reproduces the curation-halt file
        train_flags = [
            "--dim", "16", "--window", "3", "--epochs", "2", "--min-count", "2", "--seed", "7",
        ]
        halt_dir = tmp_path / "halt"
        assert main(["pipeline", "--corpus", str(FIXTURE / "corpus.jsonl"),
                     "--out-dir", str(halt_dir), *train_flags]) == 2
        candidates = tmp_path / "candidates.csv"
        assert main(["stopwords", "--input", str(FIXTURE / "corpus.jsonl"),
                     "--out", str(candidates), *train_flags]) == EXIT_OK
        assert (halt_dir / "stopword_candidates.csv").read_bytes() == candidates.read_bytes()

    def test_missing_input_files_fail_before_any_stage(self, tmp_path):
        config = PipelineConfig(
            corpus=str(tmp_path / "missing.jsonl"),
            extra_stopwords=(str(tmp_path / "also_missing.txt"),),
            out_dir=str(tmp_path / "o"),
        )
        with pytest.raises(PipelineStageError, match="stage 'config'") as err:
            run_pipeline(config)
        assert "missing.jsonl" in str(err.value.__cause__)
        assert "also_missing.txt" in str(err.value.__cause__)
        assert not (tmp_path / "o").exists()  # nothing written for a bad config

    def test_colliding_plot_names_fail_in_report_stage(self, fixture_run, tmp_path):
        # two industries whose names map to one scatter file
        pipeline_dir, _ = fixture_run
        records = [json.loads(line) for line in (FIXTURE / "corpus.jsonl").read_text().splitlines()]
        medical = [r for r in records if r["industry"] == "medical"]
        for i, record in enumerate(medical):
            record["industry"] = "Med-A" if i % 2 else "Med A"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
        config = fixture_config(tmp_path / "o")
        config.corpus, config.model = str(corpus), str(pipeline_dir / "model.w2v")
        with pytest.raises(PipelineStageError, match="stage 'report'") as err:
            run_pipeline(config)
        assert "'Med A' and 'Med-A'" in str(err.value.__cause__)
        assert not list((tmp_path / "o").glob("*.svg"))

    def test_stage_errors_name_the_stage(self, tmp_path):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("{not json\n")
        config = PipelineConfig(corpus=str(corpus), out_dir=str(tmp_path / "o"))
        with pytest.raises(PipelineStageError, match="stage 'load'"):
            run_pipeline(config)


class TestResolveConfig:
    def test_flag_beats_config(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"corpus": "x.jsonl", "seed": 5}))
        assert resolve_config(config_path, {}).train.seed == 5
        assert resolve_config(config_path, {"seed": 2}).train.seed == 2

    def test_relative_paths_anchor_to_config_dir(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"corpus": "data.jsonl", "extra_stopwords": ["s.txt"]}))
        config = resolve_config(config_path, {})
        assert config.corpus == str(tmp_path / "data.jsonl")
        assert config.extra_stopwords == (str(tmp_path / "s.txt"),)

    # a repeated key is named, but the JSON parser gives its hook no line
    @pytest.mark.parametrize("text, line, error", [
        ('{"corpus": "x.jsonl",\n  dim: 4}\n', ":2", "Expecting property name enclosed in double quotes"),
        ('\ufeff{"corpus": "x.jsonl"}\n', ":1", "Unexpected UTF-8 BOM"),
        ('{"corpus": "x.jsonl",\n "top_n": 3, "top_n": 4}\n', "", "repeated key 'top_n'"),
    ])
    def test_invalid_json_names_file_and_line(self, tmp_path, text, line, error):
        config_path = tmp_path / "c.json"
        config_path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{config_path}{line}: invalid JSON: {error}")):
            resolve_config(config_path, {})

    def test_empty_string_is_set(self, tmp_path):
        # only None is unset: an empty query or path is kept, and fails where it is used
        corpus = (FIXTURE / "corpus.jsonl").resolve()
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"corpus": str(corpus), "query": ""}))
        config = resolve_config(config_path, {"out_dir": str(tmp_path / "o")})
        assert config.query == ""
        with pytest.raises(PipelineStageError, match=re.escape("stage 'query' failed: empty query (at offset 0)")):
            run_pipeline(config)
        config_path.write_text(json.dumps({"corpus": str(corpus), "base_stopwords": ""}))
        config = resolve_config(config_path, {"out_dir": str(tmp_path / "o2")})
        assert config.base_stopwords == ""  # not anchored to the config file's directory
        with pytest.raises(PipelineStageError, match="stage 'config'") as err:
            run_pipeline(config)
        assert str(err.value.__cause__) == "missing input file(s): base_stopwords: "
        config_path.write_text(json.dumps({"corpus": str(corpus), "extra_stopwords": ["", "x.txt"]}))
        assert resolve_config(config_path).extra_stopwords == ("", str(tmp_path / "x.txt"))
        config = resolve_config(None, {"corpus": str(corpus), "model": "", "out_dir": str(tmp_path / "o3")})
        assert "train" not in json.loads(config.to_json())
        with pytest.raises(PipelineStageError, match="stage 'config'") as err:
            run_pipeline(config)
        assert str(err.value.__cause__) == "missing input file(s): model: "
        assert not (tmp_path / "o2").exists() and not (tmp_path / "o3").exists()
        with pytest.raises(ValueError, match=re.escape("training key(s) unused with a pretrained model: dim")):
            resolve_config(None, {"corpus": str(corpus), "model": "", "dim": 4})

    def test_missing_corpus_key_rejected(self):
        with pytest.raises(ValueError, match="corpus"):
            resolve_config(None, {})

    def test_mistyped_train_values_name_key_and_file(self, tmp_path):
        config_path = tmp_path / "c.json"
        for key, value in (("dim", "32"), ("epochs", True), ("learning_rate", "0.1"), ("mode", 1)):
            config_path.write_text(json.dumps({"corpus": "x.jsonl", key: value}))
            with pytest.raises(ValueError, match=re.escape(f"{config_path}: '{key}' must be")):
                resolve_config(config_path, {})
            with pytest.raises(ValueError, match=re.escape(f"flags: '{key}' must be")):
                resolve_config(None, {"corpus": "x.jsonl", key: value})
        config_path.write_text(json.dumps({"corpus": "x.jsonl", "learning_rate": 1}))
        assert resolve_config(config_path, {}).train.learning_rate == 1

    @pytest.mark.parametrize("key, value", [
        ("top_n", "abc"),
        ("top_n", 2.9),
        ("top_n", None),
        ("top_percent", "5"),
        ("cluster_threshold", True),
        ("extra_stopwords", "curated_stopwords.txt"),
        ("extra_stopwords", [1]),
        ("anchors", ["medical"]),
        ("anchors", {"medical": 1}),
        ("corpus", None),
        ("out_dir", 3),
    ])
    def test_mistyped_top_level_values_name_key_and_file(self, tmp_path, key, value):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"corpus": "x.jsonl", key: value}))
        with pytest.raises(ValueError, match=re.escape(f"{config_path}: '{key}' must be")):
            resolve_config(config_path, {})
        if value is not None:  # an override of None is unset; see below
            with pytest.raises(ValueError, match=re.escape(f"flags: '{key}' must be")):
                resolve_config(None, {"corpus": "x.jsonl", key: value})

    def test_none_override_is_unset(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"corpus": "x.jsonl", "top_n": 3}))
        config = resolve_config(config_path, {"corpus": None, "top_n": None})
        assert (config.corpus, config.top_n) == (str(tmp_path / "x.jsonl"), 3)
        assert resolve_config(None, {"corpus": "x.jsonl", "top_n": None}).top_n == PipelineConfig.top_n
        with pytest.raises(ValueError, match="missing the 'corpus' path"):
            resolve_config(None, {"corpus": None})

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ValueError, match=re.escape("flags: unknown config key(s): bogus, typo")):
            resolve_config(None, {"corpus": "x.jsonl", "typo": 1, "bogus": [2]})

    def test_format_key_is_unknown(self, tmp_path):
        # the file suffix is the only corpus format rule; a stale format key fails like any unknown key
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"corpus": "x.csv", "format": "csv"}))
        with pytest.raises(ValueError, match=re.escape(f"{config_path}: unknown config key(s): format")):
            resolve_config(config_path, {})
        assert main(["pipeline", "--config", str(config_path), "--out-dir", str(tmp_path / "out")]) == EXIT_FAILURE
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValueError, match=re.escape("flags: unknown config key(s): format")):
            resolve_config(None, {"corpus": "x.csv", "format": "csv"})

    def test_unknown_override_key_set_to_none_rejected(self):
        with pytest.raises(ValueError, match=re.escape("flags: unknown config key(s): bogus")):
            resolve_config(None, {"corpus": "x.jsonl", "bogus": None})

    @pytest.mark.parametrize("key, value, bound", [
        ("top_n", 0, ">= 1"),
        ("top_n", -3, ">= 1"),
        ("top_percent", 0, "in (0, 100]"),
        ("top_percent", -5, "in (0, 100]"),
        ("top_percent", 100.5, "in (0, 100]"),
        ("top_percent", float("nan"), "in (0, 100]"),
        ("cluster_threshold", 0, "> 0"),
        ("cluster_threshold", -1, "> 0"),
        ("dim", 0, ">= 1"),
        ("window", 0, ">= 1"),
        ("epochs", -1, ">= 0"),
        ("learning_rate", 0, "> 0 and finite"),
        ("learning_rate", float("nan"), "> 0 and finite"),
        ("learning_rate", float("inf"), "> 0 and finite"),
        ("min_count", 0, ">= 1"),
        ("mode", "hier_softmax", "one of full_softmax, negative_sampling"),
        ("negatives", 0, ">= 1"),
        ("seed", -3, ">= 0"),
    ])
    def test_analysis_value_out_of_range_names_key_and_source(self, tmp_path, key, value, bound):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"corpus": "x.jsonl", key: value}))
        error = f"'{key}' must be {bound}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(f"{config_path}: {error}")):
            resolve_config(config_path, {})
        with pytest.raises(ValueError, match=re.escape(f"flags: {error}")):
            resolve_config(None, {"corpus": "x.jsonl", key: value})

    def test_analysis_range_bounds_accepted(self):
        values = {"top_n": 1, "top_percent": 100.0, "cluster_threshold": 1e-9}
        config = resolve_config(None, {"corpus": "x.jsonl", **values})
        assert (config.top_n, config.top_percent, config.cluster_threshold) == tuple(values.values())

    def test_null_allowed_for_optional_keys_only(self, tmp_path):
        config_path = tmp_path / "c.json"
        optional = {"query": None, "base_stopwords": None, "model": None}
        config_path.write_text(json.dumps({"corpus": "x.jsonl", **optional, "top_percent": 5}))
        config = resolve_config(config_path, {})
        assert (config.query, config.base_stopwords, config.model) == (None,) * 3
        assert config.top_percent == 5.0 and isinstance(config.top_percent, float)
