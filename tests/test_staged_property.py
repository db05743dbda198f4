"""Staged equals single-shot, as a property over generated inputs.

Hypothesis draws a small corpus over a fixed lexicon, in JSONL or CSV, and
a value (or the default) for every config key: the training keys in both
modes, the analysis cut-offs, a query (the empty one too), anchors, stopword lists and a
pretrained model.  ``pipeline --config`` then runs it once, and the staged
chain (``query``, ``ingest``, ``train``, ``extract``, ``analyze``, ``plot``,
or ``stopwords`` when no curated list halts the run) runs it again.  Either
both write the same bytes, or both fail with exit 1 and the same message,
the staged one from the command that does the failing stage's work.  A
second ``run_pipeline`` call writes the same bytes as the first.
"""

import dataclasses
import json
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings, strategies as st

from trendlens import cli
from trendlens.cli import EXIT_CURATION, EXIT_FAILURE, EXIT_OK, main
from trendlens.corpus import PatentDocument
from trendlens.embedding import MODES, EmbeddingModel, TrainConfig, Vocabulary, save_model
from trendlens.pipeline import CurationRequired, PipelineStageError, resolve_config, run_pipeline
from trendlens.textprep import _write_csv, load_base_stopwords

LEXICON = (
    "sensor neural network patient imaging robot vehicle battery signal smart "
    "diagnosis therapy scanner camera lidar radar traffic engine fleet charging "
    "grid solar turbine inverter firewall malware intrusion token ledger encryption "
    "laser optics fiber antenna modem drone gripper conveyor weld spindle "
    "vaccine genome protein enzyme catalyst polymer membrane filter pump valve"
).split()
INDUSTRIES = ("medical", "security", "Smart factory")  # the last one anchored by its first word
assert len(set(LEXICON)) == 50 and not set(LEXICON) & set(load_base_stopwords().entries)

# the staged commands that do the work of each pipeline stage
COMMANDS = {
    "load": {"query", "ingest", "stopwords"},
    "query": {"query"},
    "stopwords": {"ingest", "stopwords"},
    "train": {"train", "extract", "stopwords"},
    "candidates": {"stopwords"},
    "extract": {"extract"},
    "analyze": {"analyze"},
    "report": {"analyze"},
}

# half the words come from the lexicon's first ten, which the queries use, so that
# queries match and words repeat past min_count in most examples
_word = st.sampled_from(LEXICON[:10]) | st.sampled_from(LEXICON)
_words = st.lists(_word, min_size=2, max_size=10).map(" ".join)
_documents = st.lists(st.tuples(st.sampled_from(INDUSTRIES), st.integers(1990, 2020), _words, _words),
                      min_size=1, max_size=12)
_word_lists = st.lists(st.sampled_from(LEXICON), min_size=1, max_size=4, unique=True)


@st.composite
def _queries(draw):
    a, b, c = (draw(st.sampled_from(LEXICON[:10])) for _ in range(3))
    # the empty query is set, not unset, so both runs fail on it alike
    return draw(st.sampled_from(["", f"'{a}'", f"{a} OR {b}", f"{a} AND {b}", f"{a[:3]}*", f"({a} OR {b}) AND {c}"]))


def _maybe(strategy):
    """A drawn value, or None for a key left to its default."""
    return st.one_of(st.none(), strategy)


# every config key but the paths, which each example writes itself; None leaves a key unset
_SETTINGS = st.fixed_dictionaries({
    "query": _maybe(_queries()),
    "top_n": _maybe(st.integers(1, 4)),
    "top_percent": _maybe(st.sampled_from([40.0, 62.5, 100.0])),
    "cluster_threshold": _maybe(st.sampled_from([0.05, 0.5, 1.0, 3.0, float("inf")])),
    "anchors": _maybe(st.dictionaries(st.sampled_from(INDUSTRIES), _word, max_size=2)),
    "dim": _maybe(st.integers(2, 6)),
    "window": _maybe(st.integers(1, 4)),
    "epochs": _maybe(st.integers(0, 2)),
    "learning_rate": _maybe(st.sampled_from([0.01, 0.2, 1e18])),
    "min_count": _maybe(st.integers(1, 4)),
    "mode": _maybe(st.sampled_from(MODES)),
    "negatives": _maybe(st.integers(1, 3)),
    "seed": _maybe(st.integers(0, 50)),
})
_INPUTS = st.fixed_dictionaries({
    "suffix": st.sampled_from([".jsonl", ".csv", ".CSV"]),
    "base_stopwords": _maybe(_word_lists),
    "extra_stopwords": st.lists(_word_lists, max_size=2),  # none halts the run for curation
    "model": _maybe(st.tuples(st.sets(_word, min_size=1) | st.just(set(LEXICON)), st.integers(2, 5), st.integers(0, 9))),
})


def _write_inputs(tmp: Path, documents, inputs) -> dict:
    """The input files of one example, as a config's path keys."""
    corpus = tmp / ("corpus" + inputs["suffix"])
    records = [PatentDocument(f"D{i}", *doc) for i, doc in enumerate(documents)]
    fields = ["id", "industry", "year", "title", "abstract"]
    if inputs["suffix"] == ".jsonl":
        corpus.write_text("".join(json.dumps({f: getattr(d, f) for f in fields}) + "\n" for d in records))
    else:
        _write_csv(corpus, fields, ([getattr(d, f) for f in fields] for d in records))
    paths = {"corpus": str(corpus), "extra_stopwords": []}
    if inputs["base_stopwords"]:
        paths["base_stopwords"] = str(tmp / "base.txt")
        Path(paths["base_stopwords"]).write_text("\n".join(inputs["base_stopwords"]) + "\n")
    for i, words in enumerate(inputs["extra_stopwords"]):
        paths["extra_stopwords"].append(str(tmp / f"extra{i}.txt"))
        Path(paths["extra_stopwords"][-1]).write_text("# curated\n" + "\n".join(words) + "\n")
    if inputs["model"]:
        words, dim, seed = inputs["model"]
        words = sorted(words)
        vectors = np.random.default_rng(seed).standard_normal((len(words), dim))
        paths["model"] = str(tmp / "pretrained.w2v")
        save_model(EmbeddingModel(Vocabulary(tuple(words)), vectors, np.zeros_like(vectors), seed), paths["model"])
    return paths


def _run(argv) -> tuple[int, str | None]:
    """The exit code of one CLI call, and the message it logged as an error."""
    with patch.object(cli.log, "error") as logged:
        code = main(argv)
    return code, str(logged.call_args.args[1]) if logged.called else None


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _staged(config: dict, tmp: Path, out: Path) -> tuple[int, str | None, str | None]:
    """Run the staged chain for ``config``; the exit code, and the command and
    message of a failure."""
    corpus, model = config["corpus"], config.get("model")
    train_flags = [] if model else [
        arg for field in dataclasses.fields(TrainConfig) if field.name in config
        for arg in (_flag(field.name), str(config[field.name]))
    ]
    analysis = {k: [_flag(k), str(config[k])] for k in ("top_n", "top_percent", "cluster_threshold") if k in config}
    base = ["--base-stopwords", config["base_stopwords"]] if "base_stopwords" in config else []
    extras = [arg for path in config["extra_stopwords"] for arg in ("--extra-stopwords", path)]
    chain = []
    if "query" in config:
        chain.append(["query", "--input", corpus, "--query", config["query"], "--out", str(tmp / "q.jsonl")])
        corpus = str(tmp / "q.jsonl")
    if not extras:
        chain.append(["stopwords", "--input", corpus, *base, *(["--model", model] if model else train_flags),
                      *analysis.get("top_n", []), "--out", str(out / "stopword_candidates.csv")])
    else:
        norm, tokens = str(tmp / "norm.jsonl"), str(tmp / "tokens.jsonl")
        chain.append(["ingest", "--input", corpus, "--out", norm, "--tokens-out", tokens, *base, *extras])
        if not model:
            model = str(out / "model.w2v")
            chain.append(["train", "--input", tokens, "--out", model, *train_flags])
        chain.append(["extract", "--input", tokens, "--model", model, *analysis.get("top_n", []),
                      "--out", str(out / "keywords.csv")])
        anchors = [arg for item in config.get("anchors", {}).items() for arg in ("--anchor", "=".join(item))]
        chain.append(["analyze", "--keywords", str(out / "keywords.csv"), "--corpus", norm, "--model", model,
                      *analysis.get("top_percent", []), *analysis.get("cluster_threshold", []), *anchors,
                      "--out-dir", str(out)])
        chain.append(["plot", "--projection", str(out / "projection.csv"), "--out-dir", str(out)])
    out.mkdir()
    for argv in chain:
        code, message = _run(argv)
        if code != EXIT_OK:
            return code, argv[0], message
    return EXIT_OK, None, None


def _outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "config.resolved"}


@settings(max_examples=25, deadline=None)
@given(_documents, _SETTINGS, _INPUTS)
def test_staged_chain_equals_single_shot(documents, drawn, inputs):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = {**{k: v for k, v in drawn.items() if v is not None}, **_write_inputs(tmp, documents, inputs)}
        config_path = tmp / "config.json"
        config_path.write_text(json.dumps(config))

        code, message = _run(["pipeline", "--config", str(config_path), "--out-dir", str(tmp / "single")])
        staged_code, command, staged_message = _staged(config, tmp, tmp / "staged")
        if code == EXIT_FAILURE:
            stage, _, cause = message.removeprefix("stage '").partition("' failed: ")
            assert (staged_code, staged_message) == (EXIT_FAILURE, cause), (message, command, staged_message)
            assert command in COMMANDS[stage], (stage, command)
        else:
            assert code == (EXIT_OK if config["extra_stopwords"] else EXIT_CURATION), message
            assert staged_code == EXIT_OK, (command, staged_message)
            assert _outputs(tmp / "single") == _outputs(tmp / "staged")

        # run_pipeline again: the same bytes, or the same failure
        again = tmp / "again"
        try:
            run_pipeline(resolve_config(config_path, {"out_dir": str(again)}))
        except PipelineStageError as exc:
            assert str(exc) == message
        except CurationRequired:
            assert code == EXIT_CURATION
        else:
            assert code == EXIT_OK
        resolved = json.loads((tmp / "single" / "config.resolved").read_text())
        assert json.loads((again / "config.resolved").read_text()) == {**resolved, "out_dir": str(again)}
        if code != EXIT_FAILURE:
            assert _outputs(again) == _outputs(tmp / "single")
