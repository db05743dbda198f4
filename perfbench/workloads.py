"""The three benchmark workloads: their inputs, configs and output checks.

fixture      the shipped 60-document fixture and config through run_pipeline.
             Skip-gram SGD is ~99% of the run, so trainer changes show here.
bulk-query   a synthetic 2,000-document corpus, a boolean query keeping about
             half of it, and a pretrained 15k-word dim-300 model, through
             run_pipeline.
             Nothing is trained: corpus load, query, tokenizing, model-text
             parsing and extraction do the work.  It bypasses the trainer.
staged-cold  a synthetic 700-document corpus through the staged CLI chain
             ingest -> train (--epochs 0) -> extract -> analyze -> plot.
             Vocabulary, pair generation, model save and reload, and the
             token and keyword files written and read back do the work.

All paths handed to the program are relative to the checkout root (the
children run there), so ``config.resolved`` and the output digests do not
depend on where the checkout lives.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = "src/trendlens/data/fixture"
GOLDEN_SVG = "tests/data/golden_scatter_medical.svg"
WORK_DIR = ".perfbench_work"
CACHE_DIR = ".perfbench_cache"
NAMES = ("fixture", "bulk-query", "staged-cold")

# The pretrained model does not depend on the workload seed (only the corpus
# does), so it is written once per checkout and reused.
LEXICON_SEED = 2111
SIZES = {
    "full": {
        "bulk-query": dict(docs=2000, vocab=20000, doc_tokens=150, model_words=15000, dim=300),
        "staged-cold": dict(docs=700, vocab=20000, doc_tokens=150, dim=100),
    },
    "smoke": {
        "bulk-query": dict(docs=80, vocab=3000, doc_tokens=60, model_words=2000, dim=16),
        "staged-cold": dict(docs=60, vocab=3000, doc_tokens=60, dim=16),
    },
}
ANALYSIS = {"top_n": 5, "top_percent": 5.0, "cluster_threshold": 0.1}


@dataclass
class Workload:
    name: str
    mode: str  # "pipeline" or "staged"
    config: str
    docs: int
    inputs: dict[str, str]  # role -> path of each input file
    params: dict
    expected_docs_kept: int | None = None
    reference: dict[str, str] = field(default_factory=dict)  # output -> sha256

    def input_digests(self) -> dict[str, str]:
        return {role: gen.sha256_file(ROOT / path) for role, path in sorted(self.inputs.items())}


def prepare(name: str, seed: int, size: str) -> Workload:
    """Generate the workload's inputs under the work directory."""
    work = Path(WORK_DIR) / name
    (ROOT / work).mkdir(parents=True, exist_ok=True)
    if name == "fixture":
        config = f"{FIXTURE_DIR}/config.json"
        return Workload(name, "pipeline", config, docs=60, params={"config": config},
                        inputs={"config": config, "corpus": f"{FIXTURE_DIR}/corpus.jsonl",
                                "stopwords": f"{FIXTURE_DIR}/curated_stopwords.txt"})

    params = dict(SIZES[size][name], seed=seed, lexicon_seed=LEXICON_SEED)
    corpus, stopwords = work / "corpus.jsonl", work / "boilerplate.txt"
    gen.write_stopwords(ROOT / stopwords)
    config = {"corpus": corpus.name, "extra_stopwords": [stopwords.name], **ANALYSIS}
    inputs = {"corpus": str(corpus), "stopwords": str(stopwords)}
    if name == "bulk-query":
        kept = gen.make_corpus(ROOT / corpus, 2 * seed, LEXICON_SEED, params["docs"],
                               params["vocab"], params["doc_tokens"])
        model = _cached_model(params)
        config.update(query=gen.QUERY, model=os.path.relpath(model, work))
        inputs["model"] = str(model)
        mode = "pipeline"
        params.update(query=gen.QUERY, query_matches=kept)
    elif name == "staged-cold":
        gen.make_corpus(ROOT / corpus, 2 * seed + 1, LEXICON_SEED, params["docs"],
                        params["vocab"], params["doc_tokens"])
        config.update(dim=params["dim"], epochs=0, seed=seed)
        mode, kept = "staged", None
    else:
        raise ValueError(f"unknown workload {name!r}")
    config_path = work / "config.json"
    (ROOT / config_path).write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    inputs["config"] = str(config_path)
    return Workload(name, mode, str(config_path), params["docs"], inputs, params, kept)


def _cached_model(params: dict) -> Path:
    path = Path(CACHE_DIR) / "model-{vocab}-{model_words}-{dim}-{lexicon_seed}.w2v".format(**params)
    if not (ROOT / path).is_file():
        (ROOT / CACHE_DIR).mkdir(exist_ok=True)
        partial = ROOT / path.with_suffix(".partial")
        gen.make_model(partial, params["lexicon_seed"], params["vocab"],
                       params["model_words"], params["dim"])
        partial.replace(ROOT / path)
    return path


def output_digests(out_dir: Path) -> dict[str, str]:
    return {str(p.relative_to(out_dir)): gen.sha256_file(p)
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def check_outputs(workload: Workload, out_dir: Path, digests: dict[str, str]) -> list[str]:
    """Problems with one run's outputs beyond digest stability (checked by
    the caller against the first run)."""
    problems = []
    if workload.name == "fixture":
        golden = (ROOT / GOLDEN_SVG).read_bytes()
        svg = out_dir / "scatter_medical.svg"
        if not svg.is_file() or svg.read_bytes() != golden:
            problems.append(f"scatter_medical.svg differs from {GOLDEN_SVG}")
    report = out_dir / "trend_report.json"
    if not report.is_file():
        problems.append("trend_report.json was not written")
    elif workload.expected_docs_kept is not None:
        kept = json.loads(report.read_text(encoding="utf-8"))["corpus"]["documents"]
        if kept != workload.expected_docs_kept:
            problems.append(f"query kept {kept} documents, expected {workload.expected_docs_kept}")
    for name, digest in workload.reference.items():
        if digests.get(name) != digest:
            problems.append(f"{name} differs from the single-shot run_pipeline output")
    return problems
