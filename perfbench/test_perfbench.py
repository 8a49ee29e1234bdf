"""Tests of the benchmark itself: PYTHONPATH=src python3 -m pytest -q perfbench"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import checks
import refclock
import run
import spans
import streams
from deutschpaths import cli
from deutschpaths.formulas import FormulaId
from deutschpaths.paths import PathFamilyQuery, count_dp, validate_path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _streams(seed):
    return [
        streams.query_stream(seed, 3, streams.SESSION_SCALE),
        streams.query_stream(seed, 3, streams.SHELL_SCALE),
        streams.verify_stream(seed),
    ]


def test_streams_are_deterministic_per_seed():
    assert _streams("7:0") == _streams("7:0")
    for a, b in zip(_streams("7:0"), _streams("8:0")):
        assert a != b


@pytest.mark.parametrize("scale", [streams.SESSION_SCALE, streams.SHELL_SCALE])
def test_streams_hold_only_valid_requests(scale):
    parser = cli.build_parser()
    stream = streams.query_stream("3:1", 6, scale)
    assert len(stream) >= 6 * 15
    seen = set()
    for req in stream:
        args = parser.parse_args(list(req.argv))
        words, opts = checks.parse_argv(req.argv)
        if args.subcommand == "biject":
            validate_path(args.path, "motzkin" if args.inverse else "deutsch")
        elif args.subcommand in ("count", "enumerate"):
            PathFamilyQuery(args.family, args.n, args.end_level, args.max_height)
        elif args.subcommand == "series" and req.kind == "series":
            FormulaId.parse(args.formula)
        assert words[0] == args.subcommand
        seen.add(req.kind)
    assert seen == {"series", "height_sum", "stats", "count", "biject", "enumerate"}
    repeats = len(stream) - len(set(stream))
    assert 0.15 < repeats / len(stream) < 0.35


@pytest.mark.parametrize("scale", [streams.SESSION_SCALE, streams.SHELL_SCALE])
def test_every_list_keeps_the_known_failing_inputs(scale):
    for seed in range(5):
        stream = streams.query_stream(seed, streams.BLOCKS, scale)
        assert len(stream) >= 100
        heights = [int(checks.parse_argv(r.argv)[1]["--n"]) for r in stream if r.argv[:2] == ("stats", "height")]
        assert max(heights) > 9100  # the exact value has more than 4300 digits
        lengths = [len(checks.parse_argv(r.argv)[1]["--path"].split()) for r in stream if r.kind == "biject"]
        assert max(lengths) >= streams.SHAPED_LENGTH[0]


def _run(stream, tracer=None):
    outputs = []
    if tracer:
        tracer.install()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            for req in stream:
                buf = io.StringIO()
                try:
                    code = cli.main(list(req.argv), out=buf)
                except (RecursionError, ValueError) as exc:  # the known failures
                    code = type(exc).__name__
                payload = json.loads(buf.getvalue())["payload"] if code == 0 else None
                outputs.append((code, payload))
    finally:
        if tracer:
            tracer.uninstall()
    return outputs


def test_traced_run_gives_the_untraced_outputs():
    stream = streams.query_stream("5:0", 1, streams.SHELL_SCALE)
    original = cli.main
    tracer = spans.Tracer()
    assert _run(stream, tracer) == _run(stream)
    assert cli.main is original
    agg = tracer.aggregate()
    assert agg["cli.main.calls"] == len(stream)
    assert all(agg[f"{name}.self_s"] >= 0 for name in ("cli.main", "formulas.formula"))


def test_checker_accepts_right_and_rejects_wrong_answers():
    checker = checks.Checker(ROOT)
    req = streams.Request("count", ("count", "--family", "deutsch", "--n", "6", "--end-level", "0", "--json"))
    buf = io.StringIO()
    assert cli.main(list(req.argv), out=buf) == 0
    assert checker.check(req, (0, buf.getvalue())) == ""
    wrong = buf.getvalue().replace('"count": "15"', '"count": "16"')
    assert checker.check(req, (0, wrong)) != ""
    assert checker.check(req, (1, "")) != ""


def test_scaling_follows_the_chunks_around_each_item():
    nominal = refclock.NOMINAL_MS
    chunks = [nominal] * 5 + [2 * nominal] * 6  # the host halves its speed after item 3
    scaled = refclock.scale([1.0] * 10, chunks)
    assert scaled[0] == 1.0 and scaled[-1] == 0.5
    assert all(a >= b for a, b in zip(scaled, scaled[1:]))
    with pytest.raises(AssertionError):
        refclock.scale([1.0] * 10, chunks[:-1])


def test_strip_count_agrees_with_the_package():
    assert [checks.strip_count("motzkin", n, 100) for n in range(7)] == [1, 1, 2, 4, 9, 21, 51]
    assert [checks.strip_count("deutsch", n, 100) for n in range(7)] == [1, 1, 2, 4, 9, 21, 51]
    for family in ("deutsch", "reversed", "motzkin"):
        for n, h in ((0, 0), (5, 1), (9, 3), (14, 6)):
            want = count_dp(PathFamilyQuery(family, n, max_height=h))
            assert checks.strip_count(family, n, h) == want, (family, n, h)


def test_every_emitted_metric_is_declared():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    layers = spans.layer_metrics({})
    layers["algebra.cache_file_mb"] = 0.0
    emitted = {name: run._layer_unit(name) for name in layers}
    emitted["trace.overhead_ratio"] = "ratio"
    assert emitted == per_layer
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
