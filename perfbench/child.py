"""One workload run in a fresh process.

Usage: python3 perfbench/child.py SPEC_JSON RESULT_JSON [SPANS_CSV]

SPEC_JSON names the mode ("pipeline", "staged" or "setup"), the config
file and the output directory.  The child times ``import trendlens`` plus
config resolution (set-up), then the run itself (wall), reads its peak RSS
and writes these to RESULT_JSON.  With SPANS_CSV the run is traced: every
public layer function records a span, the spans are written to SPANS_CSV
and the per-layer metrics derived from them go into the result.  The parent
checks the outputs; the child only produces them.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def staged_argv(config, out: Path) -> list[list[str]]:
    """The staged CLI chain equivalent to ``run_pipeline(config)``."""
    train = config.train
    stop = [a for path in config.extra_stopwords for a in ("--extra-stopwords", path)]
    norm, tokens, model, keywords = (str(out / n) for n in (
        "norm.jsonl", "tokens.jsonl", "model.w2v", "keywords.csv"))
    return [
        ["ingest", "--input", config.corpus, "--out", norm, "--tokens-out", tokens, *stop],
        ["train", "--input", tokens, "--out", model, "--dim", str(train.dim),
         "--window", str(train.window), "--epochs", str(train.epochs),
         "--learning-rate", repr(train.learning_rate), "--min-count", str(train.min_count),
         "--mode", train.mode, "--negatives", str(train.negatives), "--seed", str(train.seed)],
        ["extract", "--input", tokens, "--model", model, "--top-n", str(config.top_n),
         "--out", keywords],
        ["analyze", "--keywords", keywords, "--corpus", norm, "--model", model,
         "--top-percent", repr(config.top_percent),
         "--cluster-threshold", repr(config.cluster_threshold), "--out-dir", str(out)],
        ["plot", "--projection", str(out / "projection.csv"), "--out-dir", str(out)],
    ]


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result_path = Path(argv[1])
    spans_path = Path(argv[2]) if len(argv) > 2 else None

    import trendlens
    import trendlens.cli

    out = Path(spec["out_dir"])
    config = trendlens.resolve_config(spec["config"], {"out_dir": str(out)})
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}
    if spec["mode"] == "setup":
        result_path.write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if spans_path is not None:
        from spans import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install(trendlens)

    start = time.perf_counter()
    if spec["mode"] == "pipeline":
        trendlens.run_pipeline(config)
    else:
        out.mkdir(parents=True, exist_ok=True)
        for stage in staged_argv(config, out):
            code = trendlens.cli.main(stage)
            if code != 0:
                raise RuntimeError(f"trendlens {stage[0]} exited with {code}")
    result["wall_s"] = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["cpu_s"] = usage.ru_utime + usage.ru_stime  # whole process, import included

    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["self_times"] = tracer.summary()
        tracer.dump(spans_path)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
