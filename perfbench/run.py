"""Benchmark for deutschpaths: one workload per call, or all of them.

    python3 perfbench/run.py --workload session --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from anywhere; the checkout is the parent of this directory, and its
``src`` is imported through PYTHONPATH (nothing is installed).  With
``--trace 0`` the last line of standard output is one JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run plus ``trace.overhead_ratio``, the traced wall time over that
of an untraced run of the same stream.  Each run of a workload happens in a
fresh worker process.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("session", "cli_cold", "cli_cache", "verify")
END_TO_END_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
#: Fresh interpreters timed in each set-up group; a run times one group
#: before each pass and one after the last.
SETUP_STARTS = 4
#: Passes a run makes at least.  Every pass runs the same list in the same
#: order in a fresh worker; further passes start while the run's seconds
#: still hold one more pass as fast as the fastest so far.  A cli pass of a
#: hundred child commands fills a run by itself.
MIN_PASSES = {"session": 2, "cli_cold": 1, "cli_cache": 1, "verify": 2}
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("DEUTSCHPATHS_CACHE_DIR", None)
    return env


def setup_times(env: dict) -> list[float]:
    """Times of SETUP_STARTS fresh interpreters that import deutschpaths.cli, scaled by refclock."""
    times, chunks = [], []
    for _ in range(SETUP_STARTS):
        chunks.append(refclock.gap_ms())
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import deutschpaths.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    chunks.append(refclock.gap_ms())
    return refclock.scale(times, chunks)


def run_worker(env: dict, workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd + (["--trace"] if traced else []), env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "seed": seed,
    }


def measure(env: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One result: correct, attempted, failed and metrics, plus the failure details.

    Every time is scaled to the host's nominal speed by the reference chunks
    timed around it (refclock.py).  Untraced, the run makes passes over one
    request list, each in a fresh worker and in the same order, for about
    ``seconds`` seconds.  Wall time is the median over the passes; the
    percentiles are taken over the latencies of every pass; peak memory is
    the median over the passes; set-up time is the median of the fresh
    interpreters timed before each pass and after the last.  Traced, the
    list runs once untraced and once traced.
    """
    if trace:
        runs = [run_worker(env, workload, seed, traced) for traced in (False, True)]
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in runs[1]["layers"].items()}
        metrics["trace.overhead_ratio"] = {"value": runs[1]["wall_s"] / runs[0]["wall_s"], "unit": "ratio"}
        detail = {}
    else:
        t0 = time.perf_counter()
        starts, runs, fastest_pass = [], [], float("inf")
        while len(runs) < MIN_PASSES[workload] or time.perf_counter() - t0 + fastest_pass < seconds:
            p0 = time.perf_counter()
            starts += setup_times(env)
            runs.append(run_worker(env, workload, seed, False))
            fastest_pass = min(fastest_pass, time.perf_counter() - p0)
        starts += setup_times(env)
        latencies = [t for r in runs for t in r["latencies_ms"]]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": statistics.quantiles(latencies, n=10)[-1],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "setup_s": statistics.median(starts),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        detail = {
            "passes": len(runs),
            "latency_samples": len(latencies),
            "setup_starts": len(starts),
            "raw_wall_s": [r["raw_wall_s"] for r in runs],
            "chunk_ms": [r["chunk_ms"] for r in runs],
        }
    return {
        "correct": all(r["mismatches"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
        "failures": [f for r in runs for f in r["failures"]],
        "detail": detail,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="how long an untraced run of one workload keeps making passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "deutschpaths" / "cli.py").is_file():
        print(f"error: no deutschpaths sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = worker_env()
    print(json.dumps({"provenance": provenance(args.seed)}))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = measure(env, name, args.seed, args.seconds, bool(args.trace))
        for f in result.pop("failures"):
            print(f"{name}: failed: {f['request']}: {f['why']}", file=sys.stderr)
        print(json.dumps({"workload": name, **result.pop("detail")}))
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        attempted, failed = result["attempted"], result["failed"]
        print(f"{name}: correct={result['correct']} attempted={attempted} failed={failed} "
              f"error_rate={failed / attempted:.4f} ratio")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
