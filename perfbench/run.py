"""Benchmark for trendlens: end-to-end wall time, throughput, memory and
set-up cost per workload, or per-layer numbers from traced runs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Load is a closed loop of one client: one workload run at a time, each in a
fresh child process (perfbench/child.py), the next started when the last
has ended, until ``--seconds`` would be exceeded.  Every run's outputs are
checked.  With ``--trace 0`` all runs are untraced and the last output line
carries the end-to-end metrics; with ``--trace 1`` untraced and traced runs
alternate, traced runs must reproduce the untraced output digests, and the
last line carries the per-layer metrics, tracing overhead included.  The
line before it is the full record (environment, input parameters and
digests, output digests, per-run samples, per-function self times), also
written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import ROOT, Workload

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
TIME_LIMIT_S = 170.0  # the whole invocation, set-up included
# End-to-end metrics in the record but not in BENCHMARK.json: error_rate is 0
# on a correct program (failures go to attempted/failed instead), and
# docs_per_s is a per-workload constant over wall_s, so gating it would test
# the same noise twice.
RECORD_ONLY = {"docs_per_s": "docs/s", "error_rate": "fraction"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({name: "1" for name in BLAS_THREADS})  # no threads beyond the one run
    return env


def environment(seed: int) -> dict:
    import numpy

    env = child_env()
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {name: env[name] for name in BLAS_THREADS},
        "seed": seed,
    }


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Runner:
    """Runs children for one workload and checks what they write."""

    def __init__(self, workload: Workload, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.dir = ROOT / workloads.WORK_DIR / workload.name
        self.env = child_env()
        self.count = 0

    def child(self, mode: str, traced: bool = False) -> dict:
        """One fresh child; returns its result or raises with its log tail."""
        self.count += 1
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        spec = {"mode": mode, "config": self.workload.config,
                "out_dir": str(out.relative_to(ROOT)),
                "run_id": f"{self.workload.name}-{self.seed}-{self.count}"}
        spec_path, result_path = self.dir / "spec.json", self.dir / "result.json"
        spans_path, log_path = self.dir / "spans.csv", self.dir / "child.log"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)]
        if traced:
            cmd.append(str(spans_path))
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        if proc.returncode != 0 or not result_path.is_file():
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise ChildFailed(f"child exited with {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if mode != "setup":
            result["digests"] = workloads.output_digests(out)
            result["problems"] = workloads.check_outputs(self.workload, out, result["digests"])
        return result


class ChildFailed(RuntimeError):
    pass


def measure(name: str, seed: int, seconds: float, trace: bool, bench: dict,
            size: str = "full") -> dict:
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    shutil.rmtree(ROOT / workloads.WORK_DIR / name, ignore_errors=True)
    workload = workloads.prepare(name, seed, size)
    runner = Runner(workload, seed, deadline)

    setup_samples = [runner.child("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    if workload.mode == "staged":
        single_shot = runner.child("pipeline")
        if single_shot["problems"]:
            raise ChildFailed("single-shot reference run: " + "; ".join(single_shot["problems"]))
        workload.reference = {k: v for k, v in single_shot["digests"].items()
                              if k != "config.resolved"}
    setup_done = time.monotonic()

    runs: list[dict] = []
    reference_digests = None
    while True:
        traced = trace and len(runs) % 2 == 1
        began = time.monotonic()
        try:
            run = runner.child(workload.mode, traced)
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            run = {"problems": [str(exc)], "digests": {}}
        run["traced"] = traced
        run["round_trip_s"] = time.monotonic() - began
        if reference_digests is None:
            if not run["problems"]:
                reference_digests = run["digests"]
        elif run["digests"] != reference_digests:
            run["problems"].append("output digests differ from the first run's")
        runs.append(run)
        elapsed = time.monotonic() - setup_done
        next_run = statistics.median(r["round_trip_s"] for r in runs)
        enough = len(runs) >= (2 if trace else 3)
        if (enough and elapsed + next_run > seconds) or time.monotonic() + next_run > deadline:
            break
    if trace:
        (ROOT / OUT_DIR).mkdir(exist_ok=True)
        spans = runner.dir / "spans.csv"
        if spans.is_file():
            spans.replace(ROOT / OUT_DIR / f"spans-{name}-seed{seed}.csv")
    record = summarize(workload, seed, seconds, trace, runs, setup_samples, bench)
    shutil.rmtree(runner.dir, ignore_errors=True)
    return record


def summarize(workload: Workload, seed: int, seconds: float, trace: bool,
              runs: list[dict], setup_samples: list[float], bench: dict) -> dict:
    ok = [r for r in runs if not r["problems"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    walls = [r["wall_s"] for r in plain]
    setup_samples = setup_samples + [r["setup_s"] for r in ok]
    wall = statistics.median(walls) if walls else 0.0
    end_to_end = {
        "wall_s": wall,
        "docs_per_s": workload.docs / wall if wall else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain) if plain else 0.0,
        "setup_s": statistics.median(setup_samples),
        "error_rate": (len(runs) - len(ok)) / len(runs),
    }
    per_layer = {}
    if traced:
        per_layer = {k: statistics.median(r["layers"][k] for r in traced)
                     for k in traced[-1]["layers"]}
        per_layer["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(RECORD_ONLY)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "inputs": {"params": workload.params, "sha256": workload.input_digests()},
        "attempted": len(runs),
        "failed": len(runs) - len(ok),
        "problems": sorted({p for r in runs for p in r["problems"]}),
        "wall_s": timing_summary(walls),
        "samples": [{"traced": r["traced"], "wall_s": r.get("wall_s"), "cpu_s": r.get("cpu_s"),
                     "setup_s": r.get("setup_s"), "peak_rss_mb": r.get("peak_rss_mb"),
                     "outputs_sha256": _digest_of(r["digests"])} for r in runs],
        "setup_samples": setup_samples,
        "output_sha256": runs[0]["digests"],
        "self_times": traced[-1]["self_times"] if traced else {},
        "metrics": {
            group: {name: {"value": value, "unit": units.get(name)}
                    for name, value in values.items()}
            for group, values in (("end_to_end", end_to_end), ("per_layer", per_layer))
        },
    }


def _digest_of(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def timing_summary(values: list[float]) -> dict:
    """Median, maximum and the highest percentile with at least ten samples
    beyond it (none below 20 samples), with the sample count."""
    n = len(values)
    ordered = sorted(values)
    high = None
    if n >= 20:
        q = 100.0 * (1 - 10 / n)
        high = {"percentile": q, "value": ordered[min(n - 1, int(q / 100 * n))]}
    return {"n": n, "median": statistics.median(ordered) if n else None,
            "max": ordered[-1] if n else None, "highest_supported_percentile": high}


def contract_line(record: dict, bench: dict) -> dict:
    group = "per_layer" if record["trace"] else "end_to_end"
    measured = record["metrics"][group]
    # a metric is missing only when every run failed, and then correct is false
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": measured.get(m["name"], {}).get("value", 0.0),
                                "unit": m["unit"]}
                    for m in bench[group]},
    }


def smoke(bench: dict) -> int:
    """Each workload once untraced and once traced at tiny size; fails unless
    every run is correct and reports exactly the metrics of BENCHMARK.json
    (plus RECORD_ONLY), each with its unit."""
    failures = []
    for name in workloads.NAMES:
        record = measure(name, 1, 0, True, bench, size="smoke")
        for group in ("end_to_end", "per_layer"):
            expected = {m["name"]: m["unit"] for m in bench[group]}
            if group == "end_to_end":
                expected.update(RECORD_ONLY)
            got = {k: v["unit"] for k, v in record["metrics"][group].items()}
            if got != expected:
                failures.append(f"{name}: {group} metrics {sorted(set(got) ^ set(expected))} "
                                "missing, unexpected or without their unit")
        if record["failed"]:
            failures.append(f"{name}: {'; '.join(record['problems'])}")
        print(f"{name}: {record['attempted']} runs, {record['failed']} failed, "
              f"wall {record['metrics']['end_to_end']['wall_s']['value']:.3f} s", flush=True)
    for failure in failures:
        print("FAIL", failure, file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "trendlens" / "__init__.py").is_file():
        print(f"perfbench: no trendlens source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.smoke:
        return smoke(bench)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), bench)
    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    out = ROOT / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(contract_line(record, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
