"""In-memory span tracer for one benchmark run, and the per-layer metrics
derived from its spans.

``Tracer.install`` replaces every public module-level function of the
trendlens layers with a wrapper that records one span per call: name,
start, end, parent span and run id.  It rebinds the name in every trendlens
module namespace that holds the function, so calls between modules and
within a module both go through the wrapper; the package's source is not
touched.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import csv
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("corpus", "query", "textprep", "embedding", "keywords", "trends",
          "pipeline", "svgplot", "cli")

# Spans that call stages directly: the single-shot pipeline and the CLI.  A
# stage span is one whose parent is one of these (or none), which keeps e.g.
# the tokenize calls inside query evaluation out of the text-preparation time.
def is_orchestrator(name: str) -> bool:
    return name == "pipeline.run_pipeline" or name.startswith("cli.")


# Counts recorded at span end, from the call's arguments and result.
COUNTERS = {
    "corpus.load_corpus": lambda a, k, r: len(r),
    "corpus.filter_corpus": lambda a, k, r: len(r),
    "textprep.filter_stopwords": lambda a, k, r: len(r.tokens),
    "embedding.build_vocab": lambda a, k, r: len(r),
    "embedding.generate_pairs": lambda a, k, r: len(r),
    "embedding.train": lambda a, k, r: (k.get("config") or a[1]).epochs,
    "embedding.save_model": lambda a, k, r: os.path.getsize(k.get("path") or a[1]),
    "embedding.load_model": lambda a, k, r: os.path.getsize(k.get("path") or a[0]),
    "keywords.extract_keywords": lambda a, k, r: 1 if r.keywords else 0,
    "pipeline.analyze_extractions": lambda a, k, r: sum(
        1 for t in r.industries.values() if t.clusters is not None
    ),
}

_MIB = float(1 << 20)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: dict[int, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                self.counts[idx] = counter(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer."""
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in LAYERS]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrapped[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in wrapped:
                    namespace[attr] = wrapped[id(value)]

    def durations(self) -> list[float]:
        return [(e - s) / 1e9 for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover.

        Calls nest strictly in one thread, so children never overlap."""
        own = self.durations()
        for dur, parent in zip(self.durations(), self.parents):
            if parent >= 0:
                own[parent] -= dur
        return own

    def summary(self) -> dict:
        """Per function: calls, inclusive seconds and self seconds."""
        table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, dur, own in zip(self.names, self.durations(), self.self_times()):
            row = table[name]
            row[0] += 1
            row[1] += dur
            row[2] += own
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(table.items())}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "span", "parent", "name", "start_ns", "end_ns", "count"])
            for i, (name, parent, start, end) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends)):
                writer.writerow([self.run_id, i, parent, name, start, end,
                                 self.counts.get(i, "")])

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, from this run's spans."""
        durs = self.durations()
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(self.names):
            by_name[name].append(i)

        def spans(name, stage_only=False):
            return [i for i in by_name.get(name, ())
                    if not stage_only or self.parents[i] < 0
                    or is_orchestrator(self.names[self.parents[i]])]

        def total(*names, stage_only=False):
            return sum(durs[i] for n in names for i in spans(n, stage_only))

        def count(name, stage_only=False):
            return sum(self.counts.get(i, 0) for i in spans(name, stage_only))

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        docs = max((self.counts[i] for i in spans("corpus.load_corpus")), default=0)
        kept = count("corpus.filter_corpus")
        # train time is what train spends outside vocabulary and pair building:
        # initialisation, the pair array and SGD
        train_s = total("embedding.train")
        train_pairs = 0
        for i in spans("embedding.build_vocab") + spans("embedding.generate_pairs"):
            parent = self.parents[i]
            if parent >= 0 and self.names[parent] == "embedding.train":
                train_s -= durs[i]
                if self.names[i] == "embedding.generate_pairs":
                    train_pairs += self.counts[parent] * self.counts[i]  # epochs x pairs
        extract_s = total("keywords.extract_keywords")
        extracted = len(spans("keywords.extract_keywords"))
        save_s, load_s = total("embedding.save_model"), total("embedding.load_model")
        model_bytes = count("embedding.save_model")
        return {
            "corpus.load_s": total("corpus.load_corpus"),
            "corpus.docs": docs,
            "query.filter_s": total("query.parse_query", "corpus.filter_corpus"),
            "query.kept_ratio": kept / docs if spans("corpus.filter_corpus") and docs else 1.0,
            "textprep.prep_s": total("textprep.tokenize", "textprep.filter_stopwords",
                                     stage_only=True),
            "textprep.tokens": count("textprep.filter_stopwords", stage_only=True),
            "textprep.tokens_io_s": total("textprep.save_token_streams",
                                          "textprep.load_token_streams"),
            "embedding.vocab_s": total("embedding.build_vocab"),
            "embedding.vocab_size": max(
                (self.counts[i] for i in spans("embedding.build_vocab")), default=0),
            "embedding.pairs_s": total("embedding.generate_pairs"),
            "embedding.pairs": count("embedding.generate_pairs"),
            "embedding.train_s": train_s,
            "embedding.train_pairs_per_s": rate(train_pairs, train_s),
            "embedding.save_s": save_s,
            "embedding.model_bytes": model_bytes,
            "embedding.save_mb_per_s": rate(model_bytes / _MIB, save_s),
            "embedding.load_s": load_s,
            "embedding.load_mb_per_s": rate(count("embedding.load_model") / _MIB, load_s),
            "keywords.extract_s": extract_s,
            "keywords.extract_docs_per_s": rate(extracted, extract_s),
            "keywords.scored_ratio": count("keywords.extract_keywords") / extracted
            if extracted else 0.0,
            "keywords.io_s": total("keywords.save_extractions", "keywords.load_extractions"),
            "pipeline.analyze_s": total("pipeline.analyze_extractions"),
            "pipeline.industries_projected": count("pipeline.analyze_extractions"),
            "pipeline.report_s": total("pipeline.write_report_files"),
            "svgplot.emit_s": total("svgplot.emit_scatter_svg"),
            **{f"cli.{c}_s": total(f"cli.cmd_{c}")
               for c in ("ingest", "train", "extract", "analyze", "plot")},
            "trace.spans": len(self.names),
        }
