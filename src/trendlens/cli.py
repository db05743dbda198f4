"""Command-line interface.

Each subcommand covers one pipeline stage and the stages compose through
the documented file formats, so ``pipeline`` and a chain of stage calls
produce the same outputs.  Exit codes: 0 success, 1 stage failure, 2
stopword curation required, 64 usage error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections import Counter, deque
from pathlib import Path
from typing import Iterator

from . import __version__
from .corpus import _FIELDS, _documents, _document_record, load_corpus, save_corpus
from .embedding import MODES, TrainConfig, load_model, save_model, train
from .keywords import FileEmbedder, ReferenceEmbedder, load_extractions, save_extractions
from .pipeline import (
    _RANGES,
    _TRAIN_TYPES,
    _TYPES,
    CurationRequired,
    PipelineConfig,
    _candidates,
    _check,
    _analysis_words,
    _extract,
    _prep_streams,
    _query,
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
    _interned,
    _json_lines,
    _json_lines_out,
    _stream_record,
    _token_streams,
    filter_stopwords,
    load_stopword_list,
)

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
    # one flag per TrainConfig field; unset flags stay None, so TrainConfig or a pipeline config supplies them
    for key, kind in _TRAIN_TYPES.items():
        parser.add_argument(
            "--" + key.replace("_", "-"),
            type=kind,
            choices=MODES if key == "mode" else None,
        )


def _flag_train_config(args) -> TrainConfig:
    """The TrainConfig for the training flags given on the command line."""
    return TrainConfig(**{k: getattr(args, k) for k in _TRAIN_TYPES if getattr(args, k) is not None})


def _input_streams(args) -> Iterator[TokenStream]:
    """Token streams from either a corpus file or a tokens JSONL file, made
    one at a time as they are drawn; the stopword lists are read at the call.

    The kind comes from the first record: a JSON object with a 'tokens'
    key, or with none of the corpus fields 'industry', 'year', 'title' and
    'abstract', marks a tokens file, and the tokens reader names any fault
    in it.  Its streams were filtered when they were written, so only the
    stopword lists given here explicitly are applied again.  Anything else
    is read as a corpus, then tokenized and stopword-filtered.
    """
    try:
        record = next(_json_lines(args.input), (None, None))[1]
    except ValueError:  # not JSONL, or bad at its first record: the corpus reader names the fault
        record = None
    if isinstance(record, dict) and ("tokens" in record or record.keys().isdisjoint(set(_FIELDS) - {"id"})):
        streams = _token_streams(args.input)
        lists = [] if args.base_stopwords is None else [load_stopword_list(args.base_stopwords)]
        lists += [load_stopword_list(path) for path in args.extra_stopwords]
        if lists:
            stop = StopwordList.union(*lists)
            streams = (filter_stopwords(s, stop) for s in streams)
        return streams
    documents = _documents(args.input)
    return _prep_streams(documents, args.base_stopwords, args.extra_stopwords)


def cmd_ingest(args) -> int:
    if args.tokens_out is None and (args.base_stopwords is not None or args.extra_stopwords):
        raise ValueError("flags: stopword lists are unused without --tokens-out")
    industries = Counter()
    # one document at a time; the tokens file is renamed into place last, as it was written last
    with _json_lines_out(args.tokens_out) as put_stream, _json_lines_out(args.out) as put_document:
        def documents():
            for doc in _documents(args.input):
                industries[doc.industry] += 1
                put_document(_document_record(doc))
                yield doc

        if args.tokens_out is not None:
            for stream in _prep_streams(documents(), args.base_stopwords, args.extra_stopwords):
                put_stream(_stream_record(stream))
        else:
            deque(documents(), maxlen=0)
    log.info("loaded %d documents (%d industries)", industries.total(), len(industries))
    return EXIT_OK


def cmd_query(args) -> int:
    save_corpus(_query(_documents(args.input), args.query), args.out)
    return EXIT_OK


def cmd_stopwords(args) -> int:
    if args.model is not None:
        _unused_training(k for k, v in vars(args).items() if v is not None)
    streams = _interned(_prep_streams(_documents(args.input), args.base_stopwords, ()))
    model = (load_model(args.model, {t for s in streams for t in s.tokens}) if args.model is not None
             else train(streams, _flag_train_config(args)))
    _candidates(streams, model, args.out, args.top_n)
    return EXIT_OK


def cmd_train(args) -> int:
    config = _flag_train_config(args)
    model = train(_interned(_input_streams(args)), config)
    save_model(model, args.out)
    log.info("trained %d-word, %d-d model -> %s", len(model.vocab), model.dim, args.out)
    return EXIT_OK


def cmd_extract(args) -> int:
    vectors = (args.doc_vectors, args.word_vectors)
    if args.model is not None and vectors != (None, None):
        raise ValueError("use either --model or --doc-vectors/--word-vectors, not both")
    if args.model is None and None in vectors:
        raise ValueError("--model or both --doc-vectors and --word-vectors are required")
    # two passes over the input: its token set for the model rows, then one document at a time
    tokens = {t for s in _input_streams(args) for t in s.tokens}
    if args.model is not None:
        embedder = ReferenceEmbedder(load_model(args.model, tokens))
    else:
        embedder = FileEmbedder.from_files(args.doc_vectors, args.word_vectors, tokens)
    save_extractions(_extract(_input_streams(args), embedder, args.top_n), args.out)
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
    anchors = _parse_anchor_flags(args.anchor)
    corpus = load_corpus(args.corpus)
    results = load_extractions(args.keywords)
    model = load_model(args.model, _analysis_words(results, corpus, args.top_percent, anchors))
    report = analyze_extractions(
        results,
        corpus,
        model,
        args.top_percent,
        args.cluster_threshold,
        anchors,
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
        extra_stopwords=args.extra_stopwords or None,
        anchors=_parse_anchor_flags(args.anchor) or None,
    )
    config = resolve_config(args.config, overrides)
    run_pipeline(config)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="trendlens", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("ingest", help="validate a corpus file; optionally emit tokens")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE", help="write normalized corpus JSONL")
    p.add_argument("--tokens-out", metavar="FILE", help="write stopword-filtered token streams")
    _add_stopword_flags(p)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("query", help="filter a corpus with a boolean query")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--query", required=True, metavar="EXPR")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(handler=cmd_query)

    p = sub.add_parser("stopwords", help="emit stopword candidates for curation")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--model", metavar="FILE", help="existing model (otherwise trains one)")
    p.add_argument("--base-stopwords", metavar="FILE")
    p.add_argument("--top-n", type=int, default=PipelineConfig.top_n)
    p.add_argument("--out", required=True, metavar="FILE")
    _add_train_flags(p)
    p.set_defaults(handler=cmd_stopwords)

    p = sub.add_parser("train", help="train skip-gram embeddings")
    p.add_argument("--input", required=True, metavar="FILE", help="corpus JSONL/CSV or tokens JSONL")
    p.add_argument("--out", required=True, metavar="FILE")
    _add_stopword_flags(p)
    _add_train_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("extract", help="extract top keywords per document")
    p.add_argument("--input", required=True, metavar="FILE", help="corpus JSONL/CSV or tokens JSONL")
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
    p.add_argument("--query", metavar="EXPR")
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
        _check(flags, "flags")
        return args.handler(args)
    except CurationRequired as exc:
        log.error("%s", exc)
        return EXIT_CURATION
    except Exception as exc:
        log.error("%s", exc)
        return EXIT_FAILURE


def entrypoint() -> None:
    sys.exit(main())
