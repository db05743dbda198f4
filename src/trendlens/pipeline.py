"""End-to-end orchestration: load, filter, tokenize, stopword curation
gate, train, extract, aggregate, project, cluster, and report emission.

Every stage failure is wrapped in :class:`PipelineStageError` naming the
stage.  A run without a curated stopword list stops after writing
``stopword_candidates.csv`` and raises :class:`CurationRequired`; the CLI
maps that to exit code 2.  That halt and the ``stopwords`` subcommand
share one step that ranks and writes the candidates.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from .corpus import Corpus, PatentDocument, load_corpus
from .embedding import (
    TRAIN_RANGES, EmbeddingModel, TrainConfig, _keep_rows, cosine_similarity, load_model, save_model, train
)
from .keywords import Embedder, ExtractionResult, ReferenceEmbedder, extract_keywords, save_extractions
from .query import eval_query, parse_query
from .svgplot import emit_scatter_svg
from .textprep import (
    StopwordList,
    TokenStream,
    _csv_table,
    _interned,
    _json_object,
    _replacing,
    _text_lines,
    _write_csv,
    filter_stopwords,
    load_base_stopwords,
    load_stopword_list,
    tokenize,
)
from .trends import (
    DEFAULT_TOP_K,
    DEFAULT_TOP_N,
    ClusterAssignment,
    KeywordFrequencyTable,
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
        if self.model is not None:  # a pretrained model was not trained
            del values["train"]
        return json.dumps(values, indent=2, sort_keys=True) + "\n"


_TRAIN_TYPES = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
# every config key and its type; only the _NULLABLE ones may be null
_TYPES = dict(
    corpus=str, query=str, base_stopwords=str, extra_stopwords=list, model=str,
    top_n=int, top_percent=float, cluster_threshold=float, anchors=dict, out_dir=str,
    **_TRAIN_TYPES,
)
_NULLABLE = {"query", "base_stopwords", "model"}
_TYPE_NAMES = {list: "list of strings", dict: "object of strings"}
# the values their stages accept, checked before anything is loaded
_RANGES = dict(
    top_n=(lambda v: v >= 1, ">= 1"),
    top_percent=(lambda v: 0 < v <= 100, "in (0, 100]"),
    cluster_threshold=(lambda v: v > 0, "> 0"),
    **TRAIN_RANGES,
)


def _check(values: dict[str, Any], source: str) -> None:
    """Raise ValueError naming ``source`` for a key not in ``_TYPES``, a
    mistyped value or a value out of its range.  A float key takes any
    number, a list holds strings, a dict maps to strings, and no key takes a
    bool."""
    unknown = values.keys() - _TYPES.keys()
    if unknown:
        raise ValueError(f"{source}: unknown config key(s): {', '.join(sorted(unknown))}")
    for key, value in values.items():
        if value is None and key in _NULLABLE:
            continue
        expected = _TYPES[key]
        allowed = (int, float) if expected is float else expected
        ok = isinstance(value, allowed) and not isinstance(value, bool)
        if ok and expected in (list, dict):
            ok = all(isinstance(v, str) for v in (value.values() if expected is dict else value))
        if not ok:
            name = _TYPE_NAMES.get(expected, expected.__name__)
            raise ValueError(f"{source}: {key!r} must be of type {name}, got {value!r}")
        if key in _RANGES and not _RANGES[key][0](value):
            raise ValueError(f"{source}: {key!r} must be {_RANGES[key][1]}, got {value!r}")


def _unused_training(keys: Iterable[str]) -> None:
    """Fail naming the training flags among ``keys``; a pretrained model trains nothing."""
    unused = sorted(_TRAIN_TYPES.keys() & set(keys))
    if unused:
        raise ValueError(
            f"flags: training key(s) unused with a pretrained model: {', '.join(unused)}"
        )


def _stopwords(base: str | None, extras: Iterable[str]) -> StopwordList:
    """The stopwords of the ``base`` list file (the bundled list when None) and the curated ``extras``."""
    base_list = load_base_stopwords() if base is None else load_stopword_list(base)
    return StopwordList.union(base_list, *(load_stopword_list(p) for p in extras))


def _prep_streams(
    documents: Iterable[PatentDocument], base: str | None, extras: Iterable[str]
) -> Iterator[TokenStream]:
    """The token stream of each document, made as it is drawn; the stopword
    lists (see :func:`_stopwords`) are read at the call, before any document.
    A stage that holds the streams wraps them in :func:`_interned`.

    Kept private so that the perfbench tracer, which wraps public
    functions only, still sees tokenize and filter_stopwords as called by
    run_pipeline or the CLI handler and counts them as the text stage.
    """
    stop = _stopwords(base, extras)
    return (filter_stopwords(TokenStream(d.id, tuple(tokenize(d.abstract))), stop) for d in documents)


def _candidates(streams: list[TokenStream], model: EmbeddingModel, path: str | Path, top_n: int) -> None:
    """Rank, save and count the stopword candidates; private as :func:`_prep_streams` is."""
    candidates = generate_stopword_candidates(streams, ReferenceEmbedder(model), DEFAULT_TOP_K, top_n)
    save_candidates(candidates, path)
    log.info("wrote %d candidates to %s", len(candidates), path)


def _extract(streams: Iterable[TokenStream], embedder: Embedder, top_n: int) -> Iterator[ExtractionResult]:
    """Each stream's keywords, extracted as it is drawn; after the last one
    the documents that had nothing to score are counted in the log.
    Private for the reason :func:`_prep_streams` is."""
    skipped = 0
    for stream in streams:
        result = extract_keywords(stream, embedder, top_n)
        skipped += result.warning is not None
        yield result
    if skipped:
        log.warning("%d document(s) had no scoreable keywords", skipped)


def resolve_config(config_path: str | Path | None, overrides: dict[str, Any] | None = None) -> PipelineConfig:
    """Merge defaults, a flat JSON config file, and CLI overrides.

    Precedence: overrides (flags) > config file > the defaults of
    PipelineConfig and TrainConfig.  An override of None is unset; any
    other value, an empty string too, is set.  Relative input paths in the config file
    resolve against the config file's directory, and an empty one stays empty; the
    output directory and override paths resolve against the working directory.  An unknown key,
    a mistyped value, or a value out of range fails naming its key and
    source: the config file, or ``flags`` for the overrides.  A config
    file that is not valid JSON fails naming ``path:line``.
    """
    values: dict[str, Any] = {}
    if config_path is not None:
        config_path = Path(config_path)
        with open(config_path, "rb") as fh:  # decoded per line, so a bad byte fails naming its line
            text = "".join(_text_lines(fh, config_path)).replace("\r\n", "\n").replace("\r", "\n")
        try:
            values = json.loads(text, object_pairs_hook=_json_object)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{config_path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
        except ValueError as exc:  # a repeated key, which the hook cannot place on a line
            raise ValueError(f"{config_path}: invalid JSON: {exc}") from None
        if not isinstance(values, dict):
            raise ValueError(f"{config_path}: config must be a JSON object")
        _check(values, str(config_path))
        # anchored to the config file so a config directory is self-contained; an empty path stays empty
        base_dir = config_path.parent
        for key in ("corpus", "base_stopwords", "model"):
            if values.get(key):
                values[key] = str(base_dir / values[key])
        if "extra_stopwords" in values:
            values["extra_stopwords"] = [p and str(base_dir / p) for p in values["extra_stopwords"]]
    # None means unset, but only for a key that exists: a misspelt one fails
    flags = {k: v for k, v in (overrides or {}).items() if v is not None or k not in _TYPES}
    _check(flags, "flags")
    values.update(flags)
    if values.get("model") is not None:
        _unused_training(flags)
    if "corpus" not in values:
        raise ValueError(f"{config_path or 'flags'}: missing the 'corpus' path")
    train_values = {key: values.pop(key) for key in _TRAIN_TYPES if key in values}
    return PipelineConfig(**values, train=TrainConfig(**train_values))


def _query(documents: Iterable[PatentDocument], source: str) -> Iterator[PatentDocument]:
    """The documents the query ``source`` matches, in order, as they are
    drawn; after the last one the counts are logged, and none matching
    fails.  Shared by run_pipeline and the ``query`` subcommand."""
    expr = parse_query(source)
    total = kept = 0
    for doc in documents:
        total += 1
        if eval_query(expr, doc):
            kept += 1
            yield doc
    log.info("query kept %d of %d documents", kept, total)
    if not kept:
        raise ValueError("query matched no documents")


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
    rows = (
        [industry, keyword, count, rank]
        for industry in sorted(report.industries)
        for rank, (keyword, count) in enumerate(report.industries[industry].keywords, 1)
    )
    _write_csv(path, ["industry", "keyword", "count", "rank"], rows)


def write_projection_csv(report: TrendReport, path: Path) -> None:
    rows = (
        [industry, p.keyword, f"{p.xy[0]:.6f}", f"{p.xy[1]:.6f}", labels[p.keyword]]
        for industry, trend in sorted(report.industries.items())
        if trend.clusters is not None
        for labels in [trend.clusters.labels()]  # once per industry
        for p in trend.points
    )
    _write_csv(path, ["industry", "keyword", "x", "y", "cluster_id"], rows)


def write_anchor_csv(report: TrendReport, path: Path) -> None:
    rows = (
        [industry, keyword, trend.anchor, f"{value:.6f}"]
        for industry, trend in sorted(report.industries.items())
        if trend.anchor is not None
        for keyword, value in trend.anchor_similarity.items()
    )
    _write_csv(path, ["industry", "keyword", "anchor", "cosine"], rows)


def write_report_files(report: TrendReport, out_dir: Path) -> list[Path]:
    """Emit CSVs, the JSON report, and one SVG per projected industry."""
    names = ("frequencies.csv", "projection.csv", "anchor_similarity.csv", "trend_report.json")
    freq_path, proj_path, anchor_path, report_path = (out_dir / name for name in names)
    write_frequencies_csv(report, freq_path)
    write_projection_csv(report, proj_path)
    write_anchor_csv(report, anchor_path)
    with _replacing(report_path) as fh:
        fh.write(report.to_json())
    return [freq_path, proj_path, anchor_path, report_path, *plot_projection(proj_path, out_dir)]


def plot_projection(path: str | Path, out_dir: str | Path) -> list[Path]:
    """Render one scatter SVG per industry of a projection CSV.

    Plots read the 6-decimal coordinates the CSV holds, so the pipeline
    and a staged ``plot`` write the same bytes.  A header-only file plots
    nothing; a malformed header or row, an empty industry or keyword, a non-finite
    coordinate or a keyword repeated in an industry fails with ``path:line``, and
    two industries whose names map to one plot file fail before any is written.
    """
    by_industry: dict[str, tuple[list[ProjectedPoint], dict[str, int]]] = {}
    rows = _csv_table(path, ["industry", "keyword", "x", "y", "cluster_id"])
    for where, (industry, keyword, x, y, cluster_id) in rows:
        if not industry or not keyword:
            raise ValueError(f"{where}: empty {'industry' if not industry else 'keyword'}")
        try:
            xy, label = (float(x), float(y)), int(cluster_id)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if not (math.isfinite(xy[0]) and math.isfinite(xy[1])):
            raise ValueError(f"{where}: coordinates ({x}, {y}) are not finite")
        points, labels = by_industry.setdefault(industry, ([], {}))
        if keyword in labels:
            raise ValueError(f"{where}: repeated keyword {keyword!r} for industry {industry!r}")
        points.append(ProjectedPoint(keyword, xy))
        labels[keyword] = label
    plots: dict[str, str] = {}  # file name -> industry
    for industry in sorted(by_industry):
        name = f"scatter_{_safe_name(industry)}.svg"
        if name in plots:
            raise ValueError(f"{path}: industries {plots[name]!r} and {industry!r} would both plot to {name}")
        plots[name] = industry
    written = []
    for name, industry in plots.items():
        svg_path = Path(out_dir) / name
        svg_path.parent.mkdir(parents=True, exist_ok=True)
        emit_scatter_svg(*by_industry[industry], svg_path)
        written.append(svg_path)
    return written


def _anchor(industry: str, anchors: dict[str, str]) -> str | None:
    """The anchor token of ``industry``: its configured one, else the first token of its name."""
    token = anchors.get(industry)
    return token if token is not None else next(iter(tokenize(industry)), None)


def _lookups(tokens: Iterable[str], corpus: Corpus, anchors: dict[str, str] | None) -> set[str]:
    """The words a run looks up in a model: ``tokens`` and each industry's anchor."""
    return {*tokens, *filter(None, (_anchor(i, anchors or {}) for i in corpus.industries))}


def _selections(
    results: list[ExtractionResult], corpus: Corpus, top_percent: float
) -> tuple[dict[str, KeywordFrequencyTable], dict[str, list[str]]]:
    """Each industry's keyword table, and the top-percent keywords of each
    industry that has any: one selection rule for the analysis and the words it looks up."""
    tables = aggregate_keywords(results, corpus)
    return tables, {i: select_top_percent(t, top_percent) for i, t in tables.items() if t.counts}


def _analysis_words(
    results: list[ExtractionResult], corpus: Corpus, top_percent: float, anchors: dict[str, str] | None
) -> set[str]:
    """The words :func:`analyze_extractions` looks up: the selected keywords and the anchors."""
    _, selections = _selections(results, corpus, top_percent)
    return _lookups((k for selected in selections.values() for k in selected), corpus, anchors)


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
    tables, selections = _selections(results, corpus, top_percent)
    industries: dict[str, IndustryTrend] = {}
    for industry in corpus.industries:
        table = tables[industry]
        if industry not in selections:
            log.warning("industry %r has no extracted keywords; skipping", industry)
            continue
        selected = selections[industry]
        missing = [k for k in selected if k not in model]
        if missing:
            raise ValueError(f"keyword {missing[0]!r} of industry {industry!r} is not in the model")
        keywords = [(k, table.counts[k]) for k in selected]

        anchor_token = _anchor(industry, anchors)
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
            "vocabulary": model.file_words or len(model.vocab),
            "dim": model.dim,
            "seed": model.seed,
        },
    )


def _check_input_files(config: PipelineConfig) -> None:
    referenced = [("corpus", config.corpus)]
    if config.base_stopwords is not None:
        referenced.append(("base_stopwords", config.base_stopwords))
    referenced.extend(("extra_stopwords", path) for path in config.extra_stopwords)
    if config.model is not None:
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
    with _replacing(out_dir / "config.resolved") as fh:
        fh.write(config.to_json())

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise PipelineStageError(name, exc) from exc

    corpus = stage("load", load_corpus, config.corpus)
    log.info("loaded %d documents across %d industries", len(corpus), len(corpus.industries))
    if config.query is not None:
        corpus = stage("query", lambda docs: Corpus(tuple(_query(docs, config.query))), corpus)

    streams = stage(
        "stopwords", lambda: _interned(_prep_streams(corpus, config.base_stopwords, config.extra_stopwords))
    )
    if config.model is not None:
        words = _lookups((t for s in streams for t in s.tokens), corpus, config.anchors)
        model = stage("train", load_model, config.model, words)
    else:
        model = stage("train", train, streams, config.train)
    if not config.extra_stopwords:
        # with no curated lists, streams hold the base-filtered tokens
        path = out_dir / "stopword_candidates.csv"
        stage("candidates", _candidates, streams, model, path, config.top_n)
        raise CurationRequired(path)

    if config.model is not None:
        log.info("model loaded: %d words (%d kept for this run), %d dimensions",
                 model.file_words, len(model.vocab), model.dim)
    else:
        stage("train", save_model, model, out_dir / "model.w2v")
        log.info(
            "model trained: %d words, %d dimensions (from %d streams, %d tokens)",
            len(model.vocab),
            model.dim,
            model.train_streams,
            model.train_tokens,
        )

    results = stage("extract", lambda: list(_extract(streams, ReferenceEmbedder(model), config.top_n)))
    stage("extract", save_extractions, results, out_dir / "keywords.csv")

    # the rows the analysis reads, copied so the full matrix is freed before PCA
    words = stage("analyze", _analysis_words, results, corpus, config.top_percent, config.anchors)
    model = stage("analyze", _keep_rows, model, words)
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
