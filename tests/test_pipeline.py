import csv
import json
import re
from pathlib import Path

import pytest

from trendlens.cli import EXIT_OK, main
from trendlens.corpus import load_corpus
from trendlens.embedding import TrainConfig, train
from trendlens.pipeline import (
    CurationRequired,
    PipelineConfig,
    PipelineStageError,
    _prep_streams,
    resolve_config,
    run_pipeline,
)

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
    def test_env_seed_fallback(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"corpus": "x.jsonl"}))
        config = resolve_config(config_path, {}, env_seed="123")
        assert config.train.seed == 123

    def test_flag_beats_config_beats_env(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"corpus": "x.jsonl", "seed": 5}))
        assert resolve_config(config_path, {}, env_seed="9").train.seed == 5
        assert resolve_config(config_path, {"seed": 2}, env_seed="9").train.seed == 2

    def test_relative_paths_anchor_to_config_dir(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"corpus": "data.jsonl", "extra_stopwords": ["s.txt"]}))
        config = resolve_config(config_path, {})
        assert config.corpus == str(tmp_path / "data.jsonl")
        assert config.extra_stopwords == (str(tmp_path / "s.txt"),)

    @pytest.mark.parametrize("text, line, error", [
        ('{"corpus": "x.jsonl",\n  dim: 4}\n', 2, "Expecting property name enclosed in double quotes"),
        ('\ufeff{"corpus": "x.jsonl"}\n', 1, "Unexpected UTF-8 BOM"),
    ])
    def test_invalid_json_names_file_and_line(self, tmp_path, text, line, error):
        config_path = tmp_path / "c.json"
        config_path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{config_path}:{line}: invalid JSON: {error}")):
            resolve_config(config_path, {})

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
        ("format", 1),
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
        ("learning_rate", 0, "> 0"),
        ("learning_rate", float("nan"), "> 0"),
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
        optional = {"format": None, "query": None, "base_stopwords": None, "model": None}
        config_path.write_text(json.dumps({"corpus": "x.jsonl", **optional, "top_percent": 5}))
        config = resolve_config(config_path, {})
        assert (config.format, config.query, config.base_stopwords, config.model) == (None,) * 4
        assert config.top_percent == 5.0 and isinstance(config.top_percent, float)
