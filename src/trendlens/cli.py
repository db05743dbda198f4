"""Command-line interface.

Each subcommand covers one pipeline stage and the stages compose through
the documented file formats, so ``pipeline`` and a chain of stage calls
produce the same outputs.  Exit codes: 0 success, 1 stage failure, 2
stopword curation required, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .corpus import FORMATS, load_corpus, save_corpus
from .embedding import MODES, TrainConfig, load_model, save_model, train
from .keywords import FileEmbedder, ReferenceEmbedder, load_extractions
from .pipeline import (
    _FLAG_TYPES,
    _RANGES,
    _TRAIN_TYPES,
    _TYPES,
    CurationRequired,
    PipelineConfig,
    _candidates,
    _check,
    _extract,
    _prep_streams,
    _query,
    _train_config,
    _unused_training,
    analyze_extractions,
    plot_projection,
    resolve_config,
    run_pipeline,
    write_report_files,
)
from .textprep import (
    StopwordList,
    TokenStream,
    filter_stopwords,
    load_stopword_list,
    load_token_streams,
    save_token_streams,
)
from .trends import DEFAULT_TOP_K

log = logging.getLogger("trendlens")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CURATION = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 64 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_stopword_flags(parser):
    parser.add_argument(
        "--base-stopwords", metavar="FILE", help="base English stopword list (default: bundled)"
    )
    parser.add_argument(
        "--extra-stopwords",
        metavar="FILE",
        action="append",
        default=[],
        help="curated stopword list; repeatable",
    )


def _add_train_flags(parser):
    # unset flags stay None, so TrainConfig or a pipeline config supplies them
    parser.add_argument("--dim", type=int)
    parser.add_argument("--window", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--learning-rate", type=float)
    parser.add_argument("--min-count", type=int)
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--negatives", type=int)
    parser.add_argument("--seed", type=int, help=f"default: $TRENDLENS_SEED or {TrainConfig.seed}")


def _flag_train_config(args) -> TrainConfig:
    """The TrainConfig for the training flags given on the command line."""
    flags = {k: getattr(args, k) for k in _TRAIN_TYPES if getattr(args, k) is not None}
    return _train_config(flags, os.environ.get("TRENDLENS_SEED"))


def _read_query(args) -> str | None:
    if getattr(args, "query", None):
        return args.query
    if getattr(args, "query_file", None):
        return Path(args.query_file).read_text(encoding="utf-8").strip()
    return None


def _input_streams(args) -> list[TokenStream]:
    """Token streams from either a corpus file or a tokens JSONL file.

    The kind comes from the first record: a JSON object with exactly the
    keys 'id' and 'tokens' marks a tokens file.  Its streams were filtered
    when they were written, so only the stopword lists given here
    explicitly are applied again.  Anything else is read as a corpus, then
    tokenized and stopword-filtered.
    """
    with open(args.input, encoding="utf-8") as fh:
        first = next((line for line in fh if line.strip()), "")
    try:
        record = json.loads(first)
    except ValueError:
        record = None
    if isinstance(record, dict) and set(record) == {"id", "tokens"}:
        streams = load_token_streams(args.input)
        lists = [load_stopword_list(args.base_stopwords, "base")] if args.base_stopwords else []
        lists += [load_stopword_list(path, "curated") for path in args.extra_stopwords]
        if lists:
            stop = StopwordList.union(*lists)
            streams = [filter_stopwords(s, stop) for s in streams]
        return streams
    corpus = load_corpus(args.input, getattr(args, "format", None))
    return _prep_streams(corpus, args.base_stopwords, args.extra_stopwords)


def cmd_ingest(args) -> int:
    corpus = load_corpus(args.input, args.format)
    log.info("loaded %d documents (%d industries)", len(corpus), len(corpus.industries))
    if args.out:
        save_corpus(corpus, args.out)
    if args.tokens_out:
        streams = _prep_streams(corpus, args.base_stopwords, args.extra_stopwords)
        save_token_streams(streams, args.tokens_out)
    return EXIT_OK


def cmd_query(args) -> int:
    save_corpus(_query(load_corpus(args.input, args.format), _read_query(args)), args.out)
    return EXIT_OK


def cmd_stopwords(args) -> int:
    if args.model:
        _unused_training(k for k, v in vars(args).items() if v is not None)
    streams = _prep_streams(load_corpus(args.input, args.format), args.base_stopwords, ())
    model = load_model(args.model) if args.model else train(streams, _flag_train_config(args))
    _candidates(streams, model, args.out, args.top_k, args.top_n)
    return EXIT_OK


def cmd_train(args) -> int:
    config = _flag_train_config(args)
    model = train(_input_streams(args), config)
    save_model(model, args.out, full=args.full)
    log.info("trained %d-word, %d-d model -> %s", len(model.vocab), model.dim, args.out)
    return EXIT_OK


def cmd_extract(args) -> int:
    if args.model and (args.doc_vectors or args.word_vectors):
        raise ValueError("use either --model or --doc-vectors/--word-vectors, not both")
    if args.model:
        embedder = ReferenceEmbedder(load_model(args.model))
    elif args.doc_vectors and args.word_vectors:
        embedder = FileEmbedder.from_files(args.doc_vectors, args.word_vectors)
    else:
        raise ValueError("--model or both --doc-vectors and --word-vectors are required")
    _extract(_input_streams(args), embedder, args.top_n, args.out)
    return EXIT_OK


def _parse_anchor_flags(pairs):
    anchors = {}
    for spec in pairs:
        industry, sep, token = spec.partition("=")
        if not sep or not industry or not token:
            raise ValueError(f"--anchor expects INDUSTRY=TOKEN, got {spec!r}")
        anchors[industry] = token
    return anchors


def cmd_analyze(args) -> int:
    corpus = load_corpus(args.corpus, args.format)
    model = load_model(args.model)
    results = load_extractions(args.keywords)
    report = analyze_extractions(
        results,
        corpus,
        model,
        args.top_percent,
        args.cluster_threshold,
        _parse_anchor_flags(args.anchor),
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = write_report_files(report, out_dir)
    log.info("wrote %s", ", ".join(p.name for p in written))
    return EXIT_OK


def cmd_plot(args) -> int:
    written = plot_projection(args.projection, args.out_dir)
    if not written:
        # a header-only projection is what the pipeline emits when every
        # industry was too small to project; succeeding with no plots keeps
        # staged output identical to the single-shot run
        log.warning("%s: no projected points; nothing to plot", args.projection)
        return EXIT_OK
    log.info("wrote %d plot(s) to %s", len(written), args.out_dir)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    # every flag named after a config key; None (and an empty list) is unset
    overrides = {key: value for key, value in vars(args).items() if key in _TYPES}
    overrides.update(
        query=_read_query(args),
        extra_stopwords=args.extra_stopwords or None,
        anchors=_parse_anchor_flags(args.anchor) or None,
    )
    config = resolve_config(args.config, overrides, os.environ.get("TRENDLENS_SEED"))
    run_pipeline(config)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="trendlens", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("ingest", help="validate a corpus file; optionally emit tokens")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--out", metavar="FILE", help="write normalized corpus JSONL")
    p.add_argument("--tokens-out", metavar="FILE", help="write stopword-filtered token streams")
    _add_stopword_flags(p)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("query", help="filter a corpus with a boolean query")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--format", choices=FORMATS, default=None)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", metavar="EXPR")
    group.add_argument("--query-file", metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(handler=cmd_query)

    p = sub.add_parser("stopwords", help="emit stopword candidates for curation")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--model", metavar="FILE", help="existing model (otherwise trains one)")
    p.add_argument("--base-stopwords", metavar="FILE")
    p.add_argument("--top-k", type=int, default=DEFAULT_TOP_K)
    p.add_argument("--top-n", type=int, default=PipelineConfig.top_n)
    p.add_argument("--out", required=True, metavar="FILE")
    _add_train_flags(p)
    p.set_defaults(handler=cmd_stopwords)

    p = sub.add_parser("train", help="train skip-gram embeddings")
    p.add_argument("--input", required=True, metavar="FILE", help="corpus JSONL/CSV or tokens JSONL")
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--full", action="store_true", help="also store the output matrix")
    _add_stopword_flags(p)
    _add_train_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("extract", help="extract top keywords per document")
    p.add_argument("--input", required=True, metavar="FILE", help="corpus JSONL/CSV or tokens JSONL")
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--model", metavar="FILE")
    p.add_argument("--doc-vectors", metavar="FILE", help="external document vectors")
    p.add_argument("--word-vectors", metavar="FILE", help="external word vectors")
    p.add_argument("--top-n", type=int, default=PipelineConfig.top_n)
    p.add_argument("--out", required=True, metavar="FILE")
    _add_stopword_flags(p)
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("analyze", help="aggregate, select, project, and cluster keywords")
    p.add_argument("--keywords", required=True, metavar="FILE", help="extraction CSV")
    p.add_argument("--corpus", required=True, metavar="FILE")
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--top-percent", type=float, default=PipelineConfig.top_percent)
    p.add_argument("--cluster-threshold", type=float, default=PipelineConfig.cluster_threshold)
    p.add_argument("--anchor", action="append", default=[], metavar="INDUSTRY=TOKEN")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("plot", help="render SVG scatter plots from a projection CSV")
    p.add_argument("--projection", required=True, metavar="FILE")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.set_defaults(handler=cmd_plot)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--config", metavar="FILE", help="flat JSON config; flags override")
    p.add_argument("--corpus", metavar="FILE")
    p.add_argument("--format", choices=FORMATS, default=None)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--query", metavar="EXPR")
    group.add_argument("--query-file", metavar="FILE")
    p.add_argument("--model", metavar="FILE", help="pretrained model; skips training")
    # unset flags stay None, so the config file or PipelineConfig supplies them
    p.add_argument("--top-n", type=int)
    p.add_argument("--top-percent", type=float)
    p.add_argument("--cluster-threshold", type=float)
    p.add_argument("--anchor", action="append", default=[], metavar="INDUSTRY=TOKEN")
    p.add_argument("--out-dir", metavar="DIR")
    _add_stopword_flags(p)
    _add_train_flags(p)
    p.set_defaults(handler=cmd_pipeline)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        flags = {k: getattr(args, k) for k in _RANGES if getattr(args, k, None) is not None}
        _check(flags, "flags", _FLAG_TYPES)
        return args.handler(args)
    except CurationRequired as exc:
        log.error("%s", exc)
        return EXIT_CURATION
    except Exception as exc:
        log.error("%s", exc)
        return EXIT_FAILURE


def entrypoint() -> None:
    sys.exit(main())
