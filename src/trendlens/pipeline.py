"""End-to-end orchestration: load, filter, tokenize, stopword curation
gate, train, extract, aggregate, project, cluster, and report emission.

Every stage failure is wrapped in :class:`PipelineStageError` naming the
stage.  A run without a curated stopword list stops after writing
``stopword_candidates.csv`` and raises :class:`CurationRequired`; the CLI
maps that to exit code 2.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from .corpus import Corpus, load_corpus, filter_corpus
from .embedding import EmbeddingModel, TrainConfig, cosine_similarity, load_model, save_model, train
from .keywords import ExtractionResult, ReferenceEmbedder, extract_keywords, save_extractions
from .query import parse_query
from .svgplot import emit_scatter_svg
from .textprep import (
    StopwordList,
    TokenStream,
    filter_stopwords,
    load_base_stopwords,
    load_stopword_list,
    tokenize,
)
from .trends import (
    ClusterAssignment,
    ProjectedPoint,
    aggregate_keywords,
    cluster_points,
    fit_pca,
    generate_stopword_candidates,
    project,
    save_candidates,
    select_top_percent,
)

__all__ = [
    "PipelineConfig",
    "TrendReport",
    "IndustryTrend",
    "PipelineStageError",
    "CurationRequired",
    "resolve_config",
    "run_pipeline",
]

log = logging.getLogger(__name__)

CANDIDATES_FILENAME = "stopword_candidates.csv"


class PipelineStageError(RuntimeError):
    """A stage failed; ``stage`` names it, ``__cause__`` holds the error."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.__cause__ = cause


class CurationRequired(RuntimeError):
    """No curated stopword list was supplied; candidates were written."""

    def __init__(self, candidates_path: Path):
        super().__init__(
            f"stopword candidates written to {candidates_path}; curate them into a stopword "
            "file and rerun with --extra-stopwords"
        )
        self.candidates_path = candidates_path


@dataclass
class PipelineConfig:
    """Fully resolved parameters of one pipeline run."""

    corpus: str
    format: str | None = None
    query: str | None = None
    base_stopwords: str | None = None  # None selects the bundled list
    extra_stopwords: tuple[str, ...] = ()
    model: str | None = None  # pretrained model path; skips training
    train: TrainConfig = field(default_factory=TrainConfig)
    top_n: int = 5
    top_percent: float = 5.0
    cluster_threshold: float = 1.0
    anchors: dict[str, str] = field(default_factory=dict)
    out_dir: str = "trendlens-out"

    def to_json(self) -> str:
        data = dataclasses.asdict(self)
        data["extra_stopwords"] = list(self.extra_stopwords)
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


_TRAIN_TYPES = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
_TOP_KEYS = {
    "corpus",
    "format",
    "query",
    "base_stopwords",
    "extra_stopwords",
    "model",
    "top_n",
    "top_percent",
    "cluster_threshold",
    "anchors",
    "out_dir",
}


def _train_config(values: dict[str, Any], env_seed: str | None, source: str) -> TrainConfig:
    """The TrainConfig for explicit ``values`` (defaults fill the rest).

    TRENDLENS_SEED (``env_seed``) supplies the seed when ``values`` has
    none.  A value of the wrong type is reported with its key and
    ``source``.
    """
    values = dict(values)
    if "seed" not in values and env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"TRENDLENS_SEED must be an integer, got {env_seed!r}") from None
    for key, value in values.items():
        expected = _TRAIN_TYPES[key]
        allowed = (int, float) if expected is float else expected
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValueError(
                f"{source}: {key!r} must be of type {expected.__name__}, got {value!r}"
            )
    config = TrainConfig(**values)
    config.validate()
    return config


def _load_stopwords(
    base_path: str | None, extra_paths: Iterable[str]
) -> tuple[StopwordList, list[StopwordList]]:
    """The base list (bundled when ``base_path`` is None) and the curated lists."""
    base = load_stopword_list(base_path, "base") if base_path else load_base_stopwords()
    return base, [load_stopword_list(path, "curated") for path in extra_paths]


def _prep_streams(corpus: Corpus, *stopwords: StopwordList) -> list[TokenStream]:
    """Tokenize each document's abstract and drop its stopwords, in one pass.

    Kept private so that the perfbench tracer, which wraps public
    functions only, still sees tokenize and filter_stopwords as called by
    run_pipeline or the CLI handler and counts them as the text stage.
    """
    return [
        filter_stopwords(TokenStream(d.id, tuple(tokenize(d.abstract))), *stopwords)
        for d in corpus
    ]


def resolve_config(
    config_path: str | Path | None,
    overrides: dict[str, Any] | None = None,
    env_seed: str | None = None,
) -> PipelineConfig:
    """Merge defaults, a flat JSON config file, and CLI overrides.

    Precedence: overrides (flags) > config file > TRENDLENS_SEED (for the
    seed only) > built-in defaults.  Relative input paths in the config
    file resolve against the config file's directory; the output directory
    resolves against the working directory.
    """
    file_values: dict[str, Any] = {}
    base_dir: Path | None = None
    if config_path is not None:
        config_path = Path(config_path)
        base_dir = config_path.parent
        with open(config_path, encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"{config_path}: config must be a JSON object")
        unknown = set(file_values) - _TOP_KEYS - _TRAIN_TYPES.keys()
        if unknown:
            raise ValueError(f"{config_path}: unknown config key(s): {', '.join(sorted(unknown))}")

    merged: dict[str, Any] = dict(file_values)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    if "corpus" not in merged:
        raise ValueError("config is missing the 'corpus' path")

    def _resolve_path(key: str, value: str) -> str:
        # flag-provided paths are used verbatim; file-provided ones anchor
        # to the config file so a config directory is self-contained
        if overrides and overrides.get(key) is not None:
            return value
        if base_dir is not None and key in file_values:
            return str(base_dir / value)
        return value

    train_values = {k: merged[k] for k in _TRAIN_TYPES if k in merged}
    config = PipelineConfig(
        corpus=_resolve_path("corpus", merged["corpus"]),
        format=merged.get("format"),
        query=merged.get("query"),
        base_stopwords=(
            _resolve_path("base_stopwords", merged["base_stopwords"])
            if merged.get("base_stopwords")
            else None
        ),
        extra_stopwords=tuple(
            _resolve_path("extra_stopwords", p) for p in merged.get("extra_stopwords", ())
        ),
        model=_resolve_path("model", merged["model"]) if merged.get("model") else None,
        train=_train_config(train_values, env_seed, str(config_path or "config")),
        top_n=int(merged.get("top_n", 5)),
        top_percent=float(merged.get("top_percent", 5.0)),
        cluster_threshold=float(merged.get("cluster_threshold", 1.0)),
        anchors=dict(merged.get("anchors", {})),
        out_dir=str(merged.get("out_dir", "trendlens-out")),
    )
    return config


@dataclass
class IndustryTrend:
    industry: str
    keywords: list[tuple[str, int]]  # (keyword, document frequency), ranked
    points: list[ProjectedPoint]
    clusters: ClusterAssignment | None
    anchor: str | None
    anchor_similarity: dict[str, float]


@dataclass
class TrendReport:
    industries: dict[str, IndustryTrend]
    corpus_stats: dict[str, Any]
    model_meta: dict[str, Any]

    def to_json(self) -> str:
        payload = {
            "corpus": self.corpus_stats,
            "model": self.model_meta,
            "industries": {
                name: {
                    "keywords": [
                        {"keyword": k, "count": c} for k, c in trend.keywords
                    ],
                    "points": [
                        {"keyword": p.keyword, "x": round(p.xy[0], 6), "y": round(p.xy[1], 6)}
                        for p in trend.points
                    ],
                    "clusters": (
                        [
                            {"cluster_id": cid, "members": list(members)}
                            for cid, members in trend.clusters.clusters
                        ]
                        if trend.clusters is not None
                        else []
                    ),
                    "anchor": trend.anchor,
                    "anchor_similarity": {
                        k: round(v, 6) for k, v in trend.anchor_similarity.items()
                    },
                }
                for name, trend in self.industries.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sixdec(value: float) -> float:
    """The float a 6-decimal CSV field parses back to; plots use these so
    staged runs reading the CSV reproduce the pipeline's bytes."""
    return float(f"{value:.6f}")


def _safe_name(industry: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in industry.lower())


def write_frequencies_csv(report: TrendReport, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["industry", "keyword", "count", "rank"])
        for industry in sorted(report.industries):
            for rank, (keyword, count) in enumerate(report.industries[industry].keywords, 1):
                writer.writerow([industry, keyword, count, rank])


def write_projection_csv(report: TrendReport, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["industry", "keyword", "x", "y", "cluster_id"])
        for industry in sorted(report.industries):
            trend = report.industries[industry]
            if trend.clusters is None:
                continue
            labels = trend.clusters.labels()
            for point in trend.points:
                writer.writerow(
                    [
                        industry,
                        point.keyword,
                        f"{point.xy[0]:.6f}",
                        f"{point.xy[1]:.6f}",
                        labels[point.keyword],
                    ]
                )


def write_anchor_csv(report: TrendReport, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["industry", "keyword", "anchor", "cosine"])
        for industry in sorted(report.industries):
            trend = report.industries[industry]
            if trend.anchor is None:
                continue
            for keyword, value in trend.anchor_similarity.items():
                writer.writerow([industry, keyword, trend.anchor, f"{value:.6f}"])


def write_report_files(report: TrendReport, out_dir: Path) -> list[Path]:
    """Emit CSVs, the JSON report, and one SVG per projected industry."""
    written = []
    freq_path = out_dir / "frequencies.csv"
    write_frequencies_csv(report, freq_path)
    written.append(freq_path)
    proj_path = out_dir / "projection.csv"
    write_projection_csv(report, proj_path)
    written.append(proj_path)
    anchor_path = out_dir / "anchor_similarity.csv"
    write_anchor_csv(report, anchor_path)
    written.append(anchor_path)
    report_path = out_dir / "trend_report.json"
    report_path.write_text(report.to_json(), encoding="utf-8")
    written.append(report_path)
    for industry in sorted(report.industries):
        trend = report.industries[industry]
        if trend.clusters is None or not trend.points:
            continue
        svg_path = out_dir / f"scatter_{_safe_name(industry)}.svg"
        plot_points = [
            ProjectedPoint(p.keyword, None, (_sixdec(p.xy[0]), _sixdec(p.xy[1])))
            for p in trend.points
        ]
        emit_scatter_svg(plot_points, trend.clusters.labels(), svg_path)
        written.append(svg_path)
    return written


def analyze_extractions(
    results: list[ExtractionResult],
    corpus: Corpus,
    model: EmbeddingModel,
    top_percent: float,
    cluster_threshold: float,
    anchors: dict[str, str] | None = None,
) -> TrendReport:
    """Aggregate extractions into the per-industry trend report.

    Industries whose selection yields fewer than 3 keywords keep their
    frequency table but skip projection and clustering (PCA needs 3
    points).
    """
    anchors = anchors or {}
    tables = aggregate_keywords(results, corpus)
    industries: dict[str, IndustryTrend] = {}
    for industry in corpus.industries:
        table = tables[industry]
        if not table.counts:
            log.warning("industry %r has no extracted keywords; skipping", industry)
            continue
        selected = select_top_percent(table, top_percent)
        keywords = [(k, table.counts[k]) for k in selected]

        anchor_token = anchors.get(industry)
        if anchor_token is None:
            industry_tokens = tokenize(industry)
            anchor_token = industry_tokens[0] if industry_tokens else None
        anchor_sims: dict[str, float] = {}
        anchor_used: str | None = None
        if anchor_token and anchor_token in model:
            anchor_used = anchor_token
            anchor_vec = model.vector(anchor_token)
            anchor_sims = {k: cosine_similarity(model.vector(k), anchor_vec) for k in selected}

        points: list[ProjectedPoint] = []
        clusters: ClusterAssignment | None = None
        if len(selected) >= 3:
            vectors = [model.vector(k) for k in selected]
            basis = fit_pca(vectors)
            points = [
                ProjectedPoint(k, vec, project(basis, vec)) for k, vec in zip(selected, vectors)
            ]
            clusters = cluster_points(points, cluster_threshold)
        else:
            log.warning(
                "industry %r selected only %d keyword(s); skipping projection and clustering",
                industry,
                len(selected),
            )
        industries[industry] = IndustryTrend(
            industry, keywords, points, clusters, anchor_used, anchor_sims
        )

    return TrendReport(
        industries=industries,
        corpus_stats={
            "documents": len(corpus),
            "industries": {
                industry: sum(1 for d in corpus if d.industry == industry)
                for industry in corpus.industries
            },
        },
        # only fields the model file itself carries, so a report built from a
        # reloaded model matches one built from the freshly trained model
        model_meta={
            "vocabulary": len(model.vocab),
            "dim": model.dim,
            "seed": model.seed,
        },
    )


def _check_input_files(config: PipelineConfig) -> None:
    referenced = [("corpus", config.corpus)]
    if config.base_stopwords:
        referenced.append(("base_stopwords", config.base_stopwords))
    referenced.extend(("extra_stopwords", path) for path in config.extra_stopwords)
    if config.model:
        referenced.append(("model", config.model))
    missing = [f"{key}: {path}" for key, path in referenced if not Path(path).is_file()]
    if missing:
        raise FileNotFoundError("missing input file(s): " + "; ".join(missing))


def run_pipeline(config: PipelineConfig) -> TrendReport:
    """Run every stage and emit all report files into ``config.out_dir``.

    All referenced input files must exist up front; the output directory
    is created if absent.
    """
    try:
        _check_input_files(config)
    except FileNotFoundError as exc:
        raise PipelineStageError("config", exc) from exc
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved").write_text(config.to_json(), encoding="utf-8")

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CurationRequired:
            raise
        except Exception as exc:
            raise PipelineStageError(name, exc) from exc

    corpus = stage("load", load_corpus, config.corpus, config.format)
    log.info("loaded %d documents across %d industries", len(corpus), len(corpus.industries))
    if config.query:
        expr = stage("query", parse_query, config.query)
        corpus = stage("query", filter_corpus, corpus, expr)
        log.info("query kept %d documents", len(corpus))
        if len(corpus) == 0:
            raise PipelineStageError("query", ValueError("query matched no documents"))

    base, extras = stage(
        "stopwords", _load_stopwords, config.base_stopwords, config.extra_stopwords
    )
    streams = _prep_streams(corpus, base, *extras)

    def build_model() -> EmbeddingModel:
        if config.model:
            return load_model(config.model)
        return train(streams, config.train)

    if not extras:
        interim = stage("candidates", build_model)
        candidates = stage(
            "candidates",
            generate_stopword_candidates,
            corpus,
            ReferenceEmbedder(interim),
            base,
            30,
            config.top_n,
        )
        candidates_path = out_dir / CANDIDATES_FILENAME
        save_candidates(candidates, candidates_path)
        raise CurationRequired(candidates_path)

    model = stage("train", build_model)
    if config.model:
        log.info("model loaded: %d words, %d dimensions", len(model.vocab), model.dim)
    else:
        stage("train", save_model, model, out_dir / "model.w2v")
        log.info(
            "model trained: %d words, %d dimensions (from %d streams, %d tokens)",
            len(model.vocab),
            model.dim,
            model.train_streams,
            model.train_tokens,
        )

    embedder = ReferenceEmbedder(model)
    results = stage(
        "extract",
        lambda: [extract_keywords(s, embedder, (), config.top_n) for s in streams],
    )
    stage("extract", save_extractions, results, out_dir / "keywords.csv")

    report = stage(
        "analyze",
        analyze_extractions,
        results,
        corpus,
        model,
        config.top_percent,
        config.cluster_threshold,
        config.anchors,
    )
    stage("report", write_report_files, report, out_dir)
    log.info("reports written to %s", out_dir)
    return report
