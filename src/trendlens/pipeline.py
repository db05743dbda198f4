"""End-to-end orchestration: load, filter, tokenize, stopword curation
gate, train, extract, aggregate, project, cluster, and report emission.

Every stage failure is wrapped in :class:`PipelineStageError` naming the
stage.  A run without a curated stopword list stops after writing
``stopword_candidates.csv`` and raises :class:`CurationRequired`; the CLI
maps that to exit code 2.  That halt and the ``stopwords`` subcommand
share one step that ranks and writes the candidates.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from .corpus import Corpus, load_corpus, filter_corpus
from .embedding import TRAIN_RANGES, EmbeddingModel, TrainConfig, cosine_similarity, load_model, save_model, train
from .keywords import Embedder, ExtractionResult, ReferenceEmbedder, extract_keywords, save_extractions
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
    DEFAULT_TOP_K,
    DEFAULT_TOP_N,
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
    "plot_projection",
]

log = logging.getLogger(__name__)

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
    top_n: int = DEFAULT_TOP_N
    top_percent: float = 5.0
    cluster_threshold: float = 1.0
    anchors: dict[str, str] = field(default_factory=dict)
    out_dir: str = "trendlens-out"

    def __post_init__(self):
        # a JSON config gives a list for the tuple and may give an int for a float
        self.extra_stopwords = tuple(self.extra_stopwords)
        self.top_percent = float(self.top_percent)
        self.cluster_threshold = float(self.cluster_threshold)

    def to_json(self) -> str:
        values = dataclasses.asdict(self)
        if self.model:  # a pretrained model was not trained
            del values["train"]
        return json.dumps(values, indent=2, sort_keys=True) + "\n"


_TRAIN_TYPES = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
# every config key and its type; only the _NULLABLE ones may be null
_TYPES = dict(
    corpus=str, format=str, query=str, base_stopwords=str, extra_stopwords=list, model=str,
    top_n=int, top_percent=float, cluster_threshold=float, anchors=dict, out_dir=str,
    **_TRAIN_TYPES,
)
_NULLABLE = {"format", "query", "base_stopwords", "model"}
_TYPE_NAMES = {list: "list of strings", dict: "object of strings"}
# the values their stages accept, checked before anything is loaded; top_k,
# the stopwords subcommand's candidate count, is a flag and no config key
_RANGES = dict(
    top_n=(lambda v: v >= 1, ">= 1"),
    top_percent=(lambda v: 0 < v <= 100, "in (0, 100]"),
    cluster_threshold=(lambda v: v > 0, "> 0"),
    top_k=(lambda v: v >= 1, ">= 1"),
    **TRAIN_RANGES,
)
_FLAG_TYPES = {**_TYPES, "top_k": int}


def _check(values: dict[str, Any], source: str, types: dict[str, type] = _TYPES) -> None:
    """Raise ValueError naming ``source`` for a key not in ``types``, a
    mistyped value or a value out of its range.  A float key takes any
    number, a list holds strings, a dict maps to strings, and no key takes a
    bool."""
    unknown = values.keys() - types.keys()
    if unknown:
        raise ValueError(f"{source}: unknown config key(s): {', '.join(sorted(unknown))}")
    for key, value in values.items():
        if value is None and key in _NULLABLE:
            continue
        expected = types[key]
        allowed = (int, float) if expected is float else expected
        ok = isinstance(value, allowed) and not isinstance(value, bool)
        if ok and expected in (list, dict):
            ok = all(isinstance(v, str) for v in (value.values() if expected is dict else value))
        if not ok:
            name = _TYPE_NAMES.get(expected, expected.__name__)
            raise ValueError(f"{source}: {key!r} must be of type {name}, got {value!r}")
        if key in _RANGES and not _RANGES[key][0](value):
            raise ValueError(f"{source}: {key!r} must be {_RANGES[key][1]}, got {value!r}")


def _train_config(values: dict[str, Any], env_seed: str | None) -> TrainConfig:
    """The TrainConfig for checked ``values`` (defaults fill the rest).

    TRENDLENS_SEED (``env_seed``) supplies the seed when ``values`` has
    none; a bad one fails naming the variable.
    """
    values = dict(values)
    if "seed" not in values and env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"TRENDLENS_SEED must be an integer, got {env_seed!r}") from None
        _check({"seed": values["seed"]}, "TRENDLENS_SEED")
    return TrainConfig(**values)


def _unused_training(keys: Iterable[str]) -> None:
    """Fail naming the training flags among ``keys``; a pretrained model trains nothing."""
    unused = sorted(_TRAIN_TYPES.keys() & set(keys))
    if unused:
        raise ValueError(
            f"flags: training key(s) unused with a pretrained model: {', '.join(unused)}"
        )


def _prep_streams(corpus: Corpus, base: str | None, extras: Iterable[str]) -> list[TokenStream]:
    """Tokenize each abstract and drop the stopwords of the ``base`` list file
    (the bundled list when None) and the curated ``extras``, in one pass.

    Kept private so that the perfbench tracer, which wraps public
    functions only, still sees tokenize and filter_stopwords as called by
    run_pipeline or the CLI handler and counts them as the text stage.
    """
    base_list = load_stopword_list(base, "base") if base else load_base_stopwords()
    stop = StopwordList.union(base_list, *(load_stopword_list(p, "curated") for p in extras))
    return [filter_stopwords(TokenStream(d.id, tuple(tokenize(d.abstract))), stop) for d in corpus]


def _candidates(
    streams: list[TokenStream], model: EmbeddingModel, path: str | Path, top_k: int, top_n: int
) -> None:
    """Rank, save and count the stopword candidates; private as :func:`_prep_streams` is."""
    candidates = generate_stopword_candidates(streams, ReferenceEmbedder(model), top_k, top_n)
    save_candidates(candidates, path)
    log.info("wrote %d candidates to %s", len(candidates), path)


def _extract(
    streams: list[TokenStream], embedder: Embedder, top_n: int, path: str | Path
) -> list[ExtractionResult]:
    """Extract, save to ``path`` and log how many documents had nothing to
    score; private for the reason :func:`_prep_streams` is."""
    results = [extract_keywords(s, embedder, top_n) for s in streams]
    save_extractions(results, path)
    skipped = sum(1 for r in results if r.warning)
    if skipped:
        log.warning("%d document(s) had no scoreable keywords", skipped)
    return results


def resolve_config(
    config_path: str | Path | None,
    overrides: dict[str, Any] | None = None,
    env_seed: str | None = None,
) -> PipelineConfig:
    """Merge defaults, a flat JSON config file, and CLI overrides.

    Precedence: overrides (flags) > config file > TRENDLENS_SEED (for the
    seed only) > the defaults of PipelineConfig and TrainConfig.  An
    override of None is unset.  Relative input paths in the config file
    resolve against the config file's directory; the output directory and
    override paths resolve against the working directory.  An unknown key,
    a mistyped value, or a value out of range fails naming its key and
    source: the config file, ``flags`` for the overrides, or
    TRENDLENS_SEED.  A config file that is not valid JSON fails naming
    ``path:line``.
    """
    values: dict[str, Any] = {}
    if config_path is not None:
        config_path = Path(config_path)
        try:
            values = json.loads(config_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{config_path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
        if not isinstance(values, dict):
            raise ValueError(f"{config_path}: config must be a JSON object")
        _check(values, str(config_path))
        # anchored to the config file so a config directory is self-contained
        base_dir = config_path.parent
        for key in ("corpus", "base_stopwords", "model"):
            if values.get(key):
                values[key] = str(base_dir / values[key])
        if "extra_stopwords" in values:
            values["extra_stopwords"] = [str(base_dir / p) for p in values["extra_stopwords"]]
    # None means unset, but only for a key that exists: a misspelt one fails
    flags = {k: v for k, v in (overrides or {}).items() if v is not None or k not in _TYPES}
    _check(flags, "flags")
    values.update(flags)
    if values.get("model"):
        _unused_training(flags)
    if "corpus" not in values:
        raise ValueError("config is missing the 'corpus' path")
    train_values = {key: values.pop(key) for key in _TRAIN_TYPES if key in values}
    return PipelineConfig(**values, train=_train_config(train_values, env_seed))


def _query(corpus: Corpus, source: str) -> Corpus:
    """The documents of ``corpus`` that the query ``source`` matches; none
    matching fails.  Shared by run_pipeline and the ``query`` subcommand."""
    kept = filter_corpus(corpus, parse_query(source))
    log.info("query kept %d of %d documents", len(kept), len(corpus))
    if len(kept) == 0:
        raise ValueError("query matched no documents")
    return kept


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
    names = ("frequencies.csv", "projection.csv", "anchor_similarity.csv", "trend_report.json")
    freq_path, proj_path, anchor_path, report_path = (out_dir / name for name in names)
    write_frequencies_csv(report, freq_path)
    write_projection_csv(report, proj_path)
    write_anchor_csv(report, anchor_path)
    report_path.write_text(report.to_json(), encoding="utf-8")
    return [freq_path, proj_path, anchor_path, report_path, *plot_projection(proj_path, out_dir)]


def plot_projection(path: str | Path, out_dir: str | Path) -> list[Path]:
    """Render one scatter SVG per industry of a projection CSV.

    Plots read the 6-decimal coordinates the CSV holds, so the pipeline
    and a staged ``plot`` write the same bytes.  A header-only file plots
    nothing; a malformed header or row, or a coordinate that is not finite,
    fails with ``path:line``, and two industries whose names map to one plot
    file fail before any is written.
    """
    by_industry: dict[str, tuple[list[ProjectedPoint], dict[str, int]]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["industry", "keyword", "x", "y", "cluster_id"]:
            raise ValueError(f"{path}:1: expected header industry,keyword,x,y,cluster_id")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != 5:
                raise ValueError(f"{where}: expected 5 fields, got {len(row)}")
            industry, keyword, x, y, cluster_id = row
            try:
                xy, label = (float(x), float(y)), int(cluster_id)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if not (math.isfinite(xy[0]) and math.isfinite(xy[1])):
                raise ValueError(f"{where}: coordinates ({x}, {y}) are not finite")
            points, labels = by_industry.setdefault(industry, ([], {}))
            points.append(ProjectedPoint(keyword, xy))
            labels[keyword] = label
    plots: dict[str, str] = {}  # file name -> industry
    for industry in sorted(by_industry):
        name = f"scatter_{_safe_name(industry)}.svg"
        if name in plots:
            raise ValueError(
                f"{path}: industries {plots[name]!r} and {industry!r} would both plot to {name}"
            )
        plots[name] = industry
    written = []
    for name, industry in plots.items():
        svg_path = Path(out_dir) / name
        svg_path.parent.mkdir(parents=True, exist_ok=True)
        emit_scatter_svg(*by_industry[industry], svg_path)
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
    points).  A selected keyword the model lacks fails naming it and its
    industry.
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
        missing = [k for k in selected if k not in model]
        if missing:
            raise ValueError(f"keyword {missing[0]!r} of industry {industry!r} is not in the model")
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
            points = [ProjectedPoint(k, project(basis, vec)) for k, vec in zip(selected, vectors)]
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
            "industries": {industry: tables[industry].total_docs for industry in corpus.industries},
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
        except Exception as exc:
            raise PipelineStageError(name, exc) from exc

    corpus = stage("load", load_corpus, config.corpus, config.format)
    log.info("loaded %d documents across %d industries", len(corpus), len(corpus.industries))
    if config.query:
        corpus = stage("query", _query, corpus, config.query)

    streams = stage(
        "stopwords", _prep_streams, corpus, config.base_stopwords, config.extra_stopwords
    )
    model = stage(
        "train", lambda: load_model(config.model) if config.model else train(streams, config.train)
    )
    if not config.extra_stopwords:
        # with no curated lists, streams hold the base-filtered tokens
        path = out_dir / "stopword_candidates.csv"
        stage("candidates", _candidates, streams, model, path, DEFAULT_TOP_K, config.top_n)
        raise CurationRequired(path)

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

    results = stage(
        "extract", _extract, streams, ReferenceEmbedder(model), config.top_n, out_dir / "keywords.csv"
    )

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
