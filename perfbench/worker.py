"""Run one benchmark workload in this (fresh) process; print its result as JSON.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  The
timed loop runs the request list one request at a time (a closed loop with
one client) and times the reference chunk (refclock.py) before each request
and after the last; each latency is reported scaled to the host's nominal
speed.  Outputs are kept compressed and checked only after the loop, so
checking neither counts in the timings nor warms the caches the timed
requests use.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import deutschpaths  # noqa: E402

import refclock  # noqa: E402
from checks import Checker, phi_sums, psi_sums  # noqa: E402
from spans import Tracer, layer_metrics, merge  # noqa: E402
from streams import BLOCKS, SESSION_SCALE, SHELL_SCALE, query_stream, verify_stream  # noqa: E402

CHILD_TIMEOUT_S = 60
CACHE_FILE = "algebra_cache.json"


def build_stream(workload: str, seed: int):
    """The request list: the fixed batteries, or BLOCKS blocks of the query mix."""
    if workload == "verify":
        return verify_stream(seed)
    return query_stream(seed, BLOCKS, SESSION_SCALE if workload == "session" else SHELL_SCALE)


def _verify_call(req):
    from deutschpaths import bijection, formulas, matrices, selftest

    if req.call == "phi_sums":
        return phi_sums(*req.args)
    if req.call == "psi_sums":
        return psi_sums(*req.args)
    if req.call == "oracle_check":
        enum_max, dp_max, h_max = req.args
        return formulas.oracle_check(enum_max=enum_max, dp_max=dp_max, h_max=h_max)
    module = next(m for m in (matrices, bijection, selftest) if hasattr(m, req.call))
    return getattr(module, req.call)(*req.args)


def run_in_process(stream, tracer):
    """session and verify: call the public entry points directly."""
    from deutschpaths import cli

    outcomes, latencies, chunks = [], [], []
    with contextlib.redirect_stderr(io.StringIO()):
        for i, req in enumerate(stream):
            chunks.append(refclock.gap_ms())
            if tracer:
                tracer.request = i
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                result = _verify_call(req) if req.kind == "verify" else cli.main(list(req.argv), out=buf)
            except (Exception, SystemExit) as exc:
                result = exc
            latencies.append(time.perf_counter() - t0)
            if req.kind == "verify":
                outcomes.append(result)
            else:
                code = result if isinstance(result, int) else repr(result)[:200]
                outcomes.append((code, zlib.compress(buf.getvalue().encode(), 1)))
        chunks.append(refclock.gap_ms())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return outcomes, latencies, chunks, rss_mb, {}


def run_children(stream, env_cache_dir, traced, work):
    """cli_cold and cli_cache: one ``python -m deutschpaths.cli`` child per request."""
    outcomes, latencies, chunks, agg = [], [], [], {}
    for i, req in enumerate(stream):
        chunks.append(refclock.gap_ms())
        argv = list(req.argv) + (["--cache-dir", str(env_cache_dir)] if env_cache_dir else [])
        spans_file = work / f"spans-{i}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), str(i), *argv]
        else:
            cmd = [sys.executable, "-m", "deutschpaths.cli", *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
            code, out = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            code, out = "timeout", b""
        latencies.append(time.perf_counter() - t0)
        outcomes.append((code, zlib.compress(out, 1)))
        if traced and spans_file.exists():
            merge(agg, json.loads(spans_file.read_text()))
            spans_file.unlink()
    chunks.append(refclock.gap_ms())
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return outcomes, latencies, chunks, rss_mb, agg


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=("session", "cli_cold", "cli_cache", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(deutschpaths.__file__).resolve().parents:
        raise SystemExit(f"deutschpaths imported from {deutschpaths.__file__}, not from {src}")

    stream = build_stream(args.workload, args.seed)
    tracer = Tracer() if args.trace and args.workload in ("session", "verify") else None
    (ROOT / ".perfbench-tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench-tmp"))
    cache_mb = 0.0
    try:
        if tracer:
            tracer.install()
        if args.workload in ("session", "verify"):
            outcomes, latencies, chunks, rss_mb, agg = run_in_process(stream, tracer)
        else:
            cache_dir = work / "cache" if args.workload == "cli_cache" else None
            outcomes, latencies, chunks, rss_mb, agg = run_children(stream, cache_dir, args.trace, work)
            if cache_dir and (cache_dir / CACHE_FILE).exists():
                cache_mb = (cache_dir / CACHE_FILE).stat().st_size / 2**20
        if tracer:
            tracer.uninstall()
            agg = tracer.aggregate()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once empty

    # A failure is a crash, a nonzero exit or a failed check; a mismatch is a
    # wrong answer: a check failing on an output the program stood behind.
    checker = Checker(ROOT)
    failures = []
    mismatches = 0
    for req, outcome in zip(stream, outcomes):
        if req.kind != "verify":
            code, packed = outcome
            outcome = (code, zlib.decompress(packed).decode())
        reason = checker.check(req, outcome)
        if reason:
            failures.append({"request": " ".join(req.argv or (req.call, *map(str, req.args)))[:160], "why": reason})
            mismatches += req.kind == "verify" or outcome[0] == 0

    scaled_ms = refclock.scale([t * 1000 for t in latencies], chunks)
    result = {
        "attempted": len(stream),
        "failed": len(failures),
        "mismatches": mismatches,
        "wall_s": sum(scaled_ms) / 1000,
        "latencies_ms": scaled_ms,
        "raw_wall_s": sum(latencies),
        "chunk_ms": statistics.median(chunks),
        "peak_rss_mb": rss_mb,
        "failures": failures,
    }
    if args.trace:
        layers = layer_metrics(agg)
        layers["algebra.cache_file_mb"] = cache_mb
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
