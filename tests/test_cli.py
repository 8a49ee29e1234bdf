"""Command-line interface: envelopes, formats, exit codes, cache."""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from deutschpaths import __version__, cli, formulas, paths, stats
from deutschpaths.cli import _num_str, build_parser, main
from deutschpaths.formulas import coeff_closed, coeff_open, height_sum_closed
from deutschpaths.paths import (
    DEFAULT_DP_BOUND,
    DEFAULT_ENUM_BOUND,
    PathFamilyQuery,
    _prefix,
    count_dp,
)

SCHEMA_PATH = (
    Path(__file__).parent.parent
    / "src"
    / "deutschpaths"
    / "schemas"
    / "output_envelope.schema.json"
)
SCHEMA = json.loads(SCHEMA_PATH.read_text())
CLI_DOC = Path(__file__).parent.parent / "docs" / "cli.md"


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv + ["--json"])
    return code, json.loads(text)


def forbid_work(monkeypatch):
    """Make the work of every handler fail if it starts, where the handler looks it up.

    count, enumerate and biject bind their paths functions in cli; the algebra
    routes (closed forms, series, the oracle battery) are looked up in
    formulas when they run.
    """

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"work started on {args} {kwargs}")

    for key in cli._CLOSED_FORMS:
        monkeypatch.setitem(cli._CLOSED_FORMS, key, must_not_run)
    for name in ("count_dp", "enumerate_paths"):
        monkeypatch.setattr(cli, name, must_not_run)
    monkeypatch.setattr(paths, "count_dp", must_not_run)
    for name in ("z_series", "coeff_closed", "coeff_open", "oracle_check"):
        monkeypatch.setattr(formulas, name, must_not_run)
    for name, law in stats.LAWS.items():
        monkeypatch.setitem(stats.LAWS, name, law._replace(exact=must_not_run))
    for target, battery in cli._BATTERIES.items():
        monkeypatch.setitem(cli._BATTERIES, target, (must_not_run, *battery[1:]))


def assert_out_of_range(argv, flag, value, least, most, capsys, default=None):
    """argv, whose flag has the given value, exits 2 with the range hint and no output."""
    code, text = run(argv)
    side = f">= {least}" if value < least else f"<= {most}"
    hint = f"pass {flag} N with {least} <= N <= {most}"
    if default is not None:
        hint += f", or omit it for the default {default}"
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {flag} must be {side}, got {value}\nhint: {hint}\n"


#: Every bounded flag but verify's --max-n, by case name: the command line
#: before the value, the flag, and the least and the most it accepts.  count
#: runs each of its three routes: a closed form for closed and for open
#: paths, and the DP.  stats --n has a least per family: there is no closed
#: path of length 1.
RANGES = {
    "count_closed": (["count", "--family", "deutsch", "--end-level", "0"], "--n", 0, DEFAULT_DP_BOUND),
    "count_open": (["count", "--family", "deutsch"], "--n", 0, DEFAULT_DP_BOUND),
    "count_dp": (["count", "--family", "deutsch", "--max-height", "3"], "--n", 0, DEFAULT_DP_BOUND),
    "count_end": (["count", "--family", "deutsch", "--n", "3"], "--end-level", 0, DEFAULT_DP_BOUND),
    "count_height": (["count", "--family", "reversed", "--n", "3"], "--max-height", 0, DEFAULT_DP_BOUND),
    "enumerate": (["enumerate", "--family", "deutsch"], "--n", 0, DEFAULT_ENUM_BOUND),
    "enumerate_end": (["enumerate", "--family", "deutsch", "--n", "3"], "--end-level", 0, DEFAULT_DP_BOUND),
    "enumerate_height": (
        ["enumerate", "--family", "reversed", "--n", "3"], "--max-height", 0, DEFAULT_DP_BOUND
    ),
    "series_area": (["series", "--formula", "area"], "--terms", 0, DEFAULT_DP_BOUND),
    "series_sum": (["series", "--formula", "height_sum_closed"], "--terms", 0, DEFAULT_DP_BOUND),
    "stats_height": (["stats", "height"], "--n", 2, DEFAULT_DP_BOUND),
    "stats_height_open": (["stats", "height", "--family", "open"], "--n", 1, DEFAULT_DP_BOUND),
    "stats_area": (["stats", "area"], "--n", 2, DEFAULT_DP_BOUND),
}


def int_of(text: str) -> int:
    """Parse decimal digits of any length, in pieces below int()'s digit limit."""
    value = 0
    for i in range(0, len(text), 600):
        piece = text[i : i + 600]
        value = value * 10 ** len(piece) + int(piece)
    return value


class TestEnvelope:
    def test_structure_and_schema(self):
        code, env = run_json(["count", "--family", "deutsch", "--n", "6"])
        assert code == 0
        jsonschema.validate(env, SCHEMA)
        assert env["tool"] == "deutschpaths"
        assert env["version"] == __version__
        assert env["command"]["subcommand"] == "count"
        assert env["command"]["args"]["n"] == 6
        assert env["payload"]["count"] == "51"

    def test_every_subcommand_validates(self):
        cases = [
            ["count", "--family", "motzkin", "--n", "5"],
            ["enumerate", "--family", "deutsch", "--n", "3"],
            ["series", "--formula", "closed", "--terms", "6"],
            ["biject", "--path", "U U D2"],
            ["verify", "det", "--max-n", "4"],
            ["stats", "height", "--n", "30"],
        ]
        for argv in cases:
            code, env = run_json(argv)
            assert code == 0, argv
            jsonschema.validate(env, SCHEMA)

    def test_envelope_is_reproducible_modulo_timing(self):
        for argv in (["count", "--family", "deutsch", "--n", "9"], ["selftest"]):
            _, a = run_json(argv)
            _, b = run_json(argv)
            a.pop("elapsed_seconds")
            b.pop("elapsed_seconds")
            assert a == b, argv


class TestCount:
    def test_human_output(self):
        code, text = run(["count", "--family", "deutsch", "--n", "6", "--end-level", "0"])
        assert (code, text) == (0, "15\n")

    def test_bounded(self):
        code, env = run_json(
            ["count", "--family", "deutsch", "--n", "6", "--end-level", "0", "--max-height", "2"]
        )
        assert env["payload"]["count"] == "5"

    def test_big_count_survives_json(self):
        code, env = run_json(["count", "--family", "deutsch", "--n", "500"])
        assert code == 0
        assert int(env["payload"]["count"]) > 10**200

    def test_reversed_unbounded_open_rejected(self):
        code, text = run(["count", "--family", "reversed", "--n", "4"])
        assert code == 2

    @pytest.mark.parametrize(
        "family, end",
        [("deutsch", 0), ("deutsch", None), ("reversed", 0), ("motzkin", None)],
    )
    def test_closed_form_counts_match_level_vector_dp(self, family, end):
        # the unbounded queries answered by a trinomial closed form, against
        # the level-vector sweep count_dp runs, read at every length
        n_max = 300
        want = _prefix(PathFamilyQuery(family, n_max, end_level=end))
        end_flag = [] if end is None else ["--end-level", str(end)]
        for n in range(n_max + 1):
            code, env = run_json(["count", "--family", family, "--n", str(n)] + end_flag)
            assert code == 0 and env["payload"]["count"] == str(want[n]), (family, end, n)
        for n in (0, 1, 2, 57, n_max):
            assert want[n] == count_dp(PathFamilyQuery(family, n, end_level=end))

    @pytest.mark.parametrize(
        "flags, cap",
        [
            (["--family", "deutsch", "--n", "10000", "--max-height", "10000"], 10000),
            (["--family", "deutsch", "--n", "10000", "--end-level", "1"], 10000),
            (["--family", "motzkin", "--n", "2000", "--max-height", "1999"], 1999),
            (["--family", "reversed", "--n", "2000", "--end-level", "1"], 2001),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_dp_past_the_cell_bound_refused_before_the_sweep(self, flags, cap, monkeypatch, capsys):
        def no_sweep(*args):
            raise AssertionError("the DP sweep started")

        monkeypatch.setattr(paths, "_dp_vector", no_sweep)
        n = int(flags[3])
        assert run(["count", *flags]) == (2, "")
        assert capsys.readouterr().err == (
            f"error: n={n} with height cap {cap} needs {(n + 1) * (cap + 1)} DP cells, "
            "more than 4000000\n"
            "hint: lower --n or --max-height: (n+1)*(cap+1) must be at most 4000000\n"
        )

    def test_dp_at_the_cell_bound_answers(self):
        # (1999+1) * (1999+1) cells, the most the DP sweeps
        code, text = run(["count", "--family", "motzkin", "--n", "1999", "--max-height", "1999"])
        assert code == 0
        assert int_of(text.strip()) == coeff_open(1999)

    def test_count_past_the_digit_limit(self, fresh_rows):
        code, text = run(["count", "--family", "deutsch", "--n", "9990", "--end-level", "0"])
        assert code == 0
        assert len(text.strip()) > 4300
        assert int_of(text.strip()) == coeff_closed(9990)


class TestEnumerate:
    def test_listing_order(self):
        code, env = run_json(["enumerate", "--family", "deutsch", "--n", "3"])
        assert env["payload"]["paths"] == ["U U U", "U U D1", "U U D2", "U D1 U"]

    def test_bound_exceeded(self):
        code, text = run(["enumerate", "--family", "deutsch", "--n", "40"])
        assert (code, text) == (2, "")

    def test_bound_named_in_the_hint(self, capsys):
        code, text = run(["enumerate", "--family", "deutsch", "--n", "15"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            "error: --n must be <= 14, got 15\nhint: pass --n N with 0 <= N <= 14\n"
        )

    def test_listing_bound(self, monkeypatch, capsys):
        # 390 321 219 paths match; the bound is the 113 634 of the next call
        monkeypatch.setattr(cli, "enumerate_paths", lambda q: pytest.fail("listing started"))
        code, text = run(["enumerate", "--family", "reversed", "--n", "14", "--max-height", "14"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            "error: enumerate would list 390321219 paths, more than 113634\n"
            "hint: lower --n or --max-height, or run count for the number alone\n"
        )
        listed = []
        monkeypatch.setattr(cli, "enumerate_paths", lambda q: listed.append(q) or [])
        assert run(["enumerate", "--family", "deutsch", "--n", "14"]) == (0, "")
        assert listed == [PathFamilyQuery("deutsch", 14)]

    def test_csv(self):
        code, text = run(["enumerate", "--family", "motzkin", "--n", "2", "--csv"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "index,tokens"
        assert len(lines) == 3


class TestSeries:
    def test_alias_closed(self):
        code, env = run_json(["series", "--formula", "closed", "--terms", "8"])
        assert env["payload"]["coefficients"] == [
            "1", "0", "1", "1", "3", "6", "15", "36", "91",
        ]

    def test_alias_area(self):
        code, env = run_json(["series", "--formula", "area", "--terms", "6"])
        assert env["payload"]["coefficients"] == ["0", "0", "1", "3", "12", "39", "129"]

    def test_catalog_id(self):
        code, env = run_json(["series", "--formula", "phi(2,1)", "--terms", "5"])
        assert code == 0
        assert len(env["payload"]["coefficients"]) == 6

    def test_height_sum_names(self):
        code, env = run_json(["series", "--formula", "height_sum_closed", "--terms", "6"])
        assert env["payload"]["coefficients"] == ["0", "0", "1", "2", "6", "16", "44"]

    @pytest.mark.parametrize(
        "text",
        [
            "phi(2000,0)",
            "psi(101,1)",
            "reversed_sum(101)",
            "open_sum(5000)",
            "phi0_bounded(101)",
            "psi0(101)",
            "closed_height_ge(101)",
        ],
    )
    def test_height_bound(self, text, capsys):
        # refused before the formula is built; phi(2000,0) used to run for over a minute
        code, out = run(["series", "--formula", text, "--terms", "3"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert f"exceeds bound {cli.MAX_FORMULA_HEIGHT}" in err
        assert f"hint: pass a height parameter of at most {cli.MAX_FORMULA_HEIGHT}" in err

    def test_height_at_the_bound(self):
        h = cli.MAX_FORMULA_HEIGHT
        code, env = run_json(["series", "--formula", f"phi({h},{h})", "--terms", "3"])
        assert code == 0 and len(env["payload"]["coefficients"]) == 4

    def test_unknown_formula(self):
        code, text = run(["series", "--formula", "zeta(2)", "--terms", "4"])
        assert code == 2

    @pytest.mark.parametrize("text", ["phi(1,,2)", "phi(--1,0)", "phi(1-2,0)", "phi( , )"])
    def test_malformed_formula_id(self, text, capsys):
        # these used to end in a ValueError traceback and exit 1
        code, out = run(["series", "--formula", text, "--terms", "4"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert "error: formula parameters must be integers" in err and "hint:" in err

    def test_height_sum_order_above_terms_is_built_only_through_terms(self):
        t0 = time.perf_counter()
        code, env = run_json(["series", "--formula", "height_sum_closed(100000)", "--terms", "3"])
        assert time.perf_counter() - t0 < 1.0  # the order-100000 series used to be built whole
        assert code == 0
        assert env["payload"]["formula"] == "height_sum_closed(100000)"
        assert env["payload"]["coefficients"] == [str(c) for c in height_sum_closed(3).coeffs]

    def test_height_sum_order_below_terms_refused(self, capsys):
        code, out = run(["series", "--formula", "height_sum_open(3)", "--terms", "5"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: height_sum_open(3) only defines coefficients through z^3\n"
            "hint: use --formula 'height_sum_open(5)' or lower --terms\n"
        )

    @pytest.mark.parametrize("text", ["height_sum_closed", "height_sum_open", "height_sum_open(5000)"])
    def test_height_sum_terms_bound(self, text, monkeypatch, capsys):
        # the Lagrange route grows faster than N^2; one past the bound is refused before any work
        forbid_work(monkeypatch)
        most = cli.MAX_HEIGHT_SUM_TERMS
        t0 = time.perf_counter()
        assert_out_of_range(
            ["series", "--formula", text, "--terms", str(most + 1)], "--terms", most + 1, 0, most, capsys
        )
        assert time.perf_counter() - t0 < 0.5

    def test_height_sum_terms_bound_leaves_other_formulas_alone(self):
        code, env = run_json(["series", "--formula", "area", "--terms", str(cli.MAX_HEIGHT_SUM_TERMS + 1)])
        assert code == 0 and len(env["payload"]["coefficients"]) == cli.MAX_HEIGHT_SUM_TERMS + 2

    def test_negative_height_sum_order_refused(self, capsys):
        code, out = run(["series", "--formula", "height_sum_closed(-1)", "--terms", "3"])
        assert code == 2 and out == ""
        assert "error: order must be nonnegative, got -1\n" in capsys.readouterr().err

    def test_csv_rows(self):
        code, text = run(["series", "--formula", "motzkin", "--terms", "4", "--csv"])
        lines = text.strip().splitlines()
        assert lines[0] == "n,coefficient"
        assert lines[1:] == ["0,1", "1,1", "2,2", "3,4", "4,9"]


class TestBiject:
    def test_forward(self):
        code, env = run_json(["biject", "--path", "U U D2 U"])
        assert code == 0
        assert env["payload"]["direction"] == "deutsch_to_motzkin"
        image = env["payload"]["output"]
        assert len(image.split()) == 4

    def test_inverse_roundtrip(self):
        _, fwd = run_json(["biject", "--path", "U U D2 U"])
        _, back = run_json(["biject", "--path", fwd["payload"]["output"], "--inverse"])
        assert back["payload"]["output"] == "U U D2 U"

    def test_invalid_tokens(self):
        code, text = run(["biject", "--path", "U X"])
        assert code == 2

    @pytest.mark.parametrize("path", ["U D\u00b2", "U D\u0661"])
    def test_non_ascii_step_size(self, path, capsys):
        # "D²" used to end in a ValueError traceback from int("²"), and "D١" read as D1
        code, text = run(["biject", "--path", path])
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert "hint: deutsch tokens are U and D<k>" in err

    def test_path_past_the_recursion_limit(self):
        code, env = run_json(["biject", "--path", " ".join(["U"] * 1200)])
        assert code == 0
        assert env["payload"]["output"] == " ".join(["F"] * 1200)


class TestVerify:
    def test_det_passes(self):
        code, env = run_json(["verify", "det", "--max-n", "5"])
        assert code == 0
        assert env["payload"]["ok"] is True
        assert env["payload"]["checks"]

    def test_human_pass_lines(self):
        code, text = run(["verify", "lu", "--max-n", "3"])
        assert code == 0
        assert "PASS" in text and "FAIL" not in text

    def test_product_target_prints_note(self):
        code, text = run(["verify", "product"])
        assert code == 0
        assert "note:" in text
        assert "n+2" in text

    def test_failure_exit_code(self, monkeypatch):
        import deutschpaths.matrices as mat

        monkeypatch.setattr(
            mat,
            "det_closed_form",
            lambda n: mat.det_product_candidate(n, 1),
        )
        code, text = run(["verify", "det", "--max-n", "4"])
        assert code == 1

    def test_all_target(self):
        code, env = run_json(["verify", "all"])
        assert code == 0
        assert env["payload"]["ok"] is True

    @pytest.mark.parametrize(
        "target, max_n, least",
        [
            ("oracle", "0", "1"),
            ("recursion", "0", "3"),
            ("recursion", "2", "3"),
            ("det", "-1", "1"),
            ("lu", "-1", "1"),
            ("cramer", "-1", "1"),
            ("bijection", "-1", "1"),
            ("product", "-1", "1"),
            ("oracle", "-1", "1"),
            ("all", "4", None),
        ],
    )
    def test_max_n_below_battery_minimum_refused(self, target, max_n, least, monkeypatch, capsys):
        forbid_work(monkeypatch)
        argv = ["verify", target, "--max-n", max_n]
        if least is None:
            assert run(argv) == (2, "")
            assert "hint: drop --max-n, or name one battery" in capsys.readouterr().err
            return
        _, default, _, most = cli._BATTERIES[target]
        assert_out_of_range(argv, "--max-n", int(max_n), int(least), most, capsys, default)

    def test_bijection_past_the_enumeration_bound_refused(self, capsys):
        code, text = run(["verify", "bijection", "--max-n", "15"])
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert "hint: pass --max-n N with 1 <= N <= 14" in err

    def test_help_states_the_bijection_bound(self, capsys):
        with pytest.raises(SystemExit):
            run(["verify", "--help"])
        assert "bijection: at most 14" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("target", list(cli._BATTERIES))
    def test_max_n_above_battery_maximum_refused(self, target, monkeypatch, capsys):
        _, default, least, most = cli._BATTERIES[target]
        forbid_work(monkeypatch)
        argv = ["verify", target, "--max-n", str(most + 1)]
        assert_out_of_range(argv, "--max-n", most + 1, least, most, capsys, default)

    def test_product_runs_at_its_maximum(self):
        most = cli._BATTERIES["product"][3]
        code, env = run_json(["verify", "product", "--max-n", str(most)])
        assert code == 0
        assert env["payload"]["ok"] is True

    def test_product_envelope_stays_small(self):
        # the report names the verified exponent; it carries no canonical form
        code, text = run(["verify", "product", "--max-n", "800", "--json"])
        assert code == 0
        assert len(text.encode()) < 4096
        data = json.loads(text)["payload"]["data"]
        assert sorted(data) == ["statement", "verified_exponent", "witness_n"]

    def test_help_states_every_battery_bound(self, capsys):
        with pytest.raises(SystemExit):
            run(["verify", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for target, (*_, most) in cli._BATTERIES.items():
            assert f"{target}: at most {most}" in text
        assert " s)" not in text  # the measured times live in docs/cli.md only

    @pytest.mark.parametrize("target", cli._VERIFY_TARGETS)
    def test_passing_checks_carry_no_witness(self, target):
        # a witness is written only when its check failed; "all" is selftest
        report = cli._run_verify(target, None)
        assert report.checks and report.ok
        assert [c for c in report.checks if c.witness] == []


class TestStats:
    def test_height(self):
        code, env = run_json(["stats", "height", "--n", "100"])
        assert code == 0
        p = env["payload"]
        assert p["n"] == 100
        assert 0.5 < p["ratio"] < 1.5
        assert "/" in p["exact"]

    def test_area_requires_closed(self):
        code, text = run(["stats", "area", "--n", "50", "--family", "open"])
        assert code == 2

    def test_csv(self):
        code, text = run(["stats", "area", "--n", "40", "--csv"])
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("metric,")

    def test_exact_value_computed_once_per_request(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(args)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(stats, "avg_height", counted(stats.avg_height))
        area_law = stats.LAWS["avg_area"]
        monkeypatch.setitem(
            stats.LAWS, "avg_area", area_law._replace(exact=counted(area_law.exact))
        )
        for argv in (
            ["stats", "height", "--n", "40"],
            ["stats", "height", "--n", "41", "--family", "open"],
            ["stats", "area", "--n", "40"],
        ):
            calls.clear()
            assert run(argv)[0] == 0
            assert len(calls) == 1, argv

    def test_exact_value_past_the_digit_limit_refused(self, fresh_rows, capsys):
        code, text = run(["stats", "height", "--n", "9500", "--json"])
        err = capsys.readouterr().err
        assert (code, text) == (2, "")
        assert "error: the exact value at n=9500 has more than 4300 digits" in err
        assert "hint: pass a smaller --n" in err


class TestRanges:
    """Every flag with a range refuses values outside it with one hint format."""

    @pytest.mark.parametrize(
        "before, flag, least, most, value",
        [
            pytest.param(*row, value, id=f"{name}={value}")
            for name, row in RANGES.items()
            for value in (row[2] - 1, row[3] + 1)
        ],
    )
    def test_refused_before_any_work(self, before, flag, least, most, value, monkeypatch, capsys):
        forbid_work(monkeypatch)
        assert_out_of_range(before + [flag, str(value)], flag, value, least, most, capsys)

    @pytest.mark.parametrize(
        "command, flag, least, most", sorted({(b[0], *r) for b, *r in RANGES.values()})
    )
    def test_help_states_the_range(self, command, flag, least, most, capsys):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"{flag} N " in help_text and f"{least} <= N <= {most}" in help_text


class TestErrors:
    def test_stderr_carries_hint(self, capsys):
        code, _ = run(["count", "--family", "reversed", "--n", "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("subcommand", ["count", "enumerate"])
    def test_unbounded_reversed_query_names_the_bounding_flags(self, subcommand, capsys):
        # neither --end-level nor --max-height: the family is infinite
        assert run([subcommand, "--family", "reversed", "--n", "5"]) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: open reversed paths without a height bound form an infinite set",
            "hint: pass --end-level or --max-height to bound the height",
        ]

    def test_json_csv_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            run(["count", "--family", "deutsch", "--n", "3", "--json", "--csv"])
        assert exc.value.code == 2

    def test_csv_unsupported_subcommand(self):
        code, _ = run(["verify", "det", "--max-n", "3", "--csv"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "--formula", "closed", "--terms", "-1"],
            ["stats", "height", "--n", "-3"],
            ["stats", "area", "--n", "0"],
            ["stats", "height", "--n", "1"],
        ],
    )
    def test_out_of_range_lengths_refused(self, argv, capsys):
        # every one is a range refusal; closed paths (stats' default) need n >= 2
        flag, value = argv[-2], int(argv[-1])
        least = 0 if flag == "--terms" else 2
        assert_out_of_range(argv, flag, value, least, DEFAULT_DP_BOUND, capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--family", "reversed", "--n", "3", "--end-level"],
            ["count", "--family", "reversed", "--n", "3", "--max-height"],
            ["enumerate", "--family", "reversed", "--n", "3", "--max-height"],
        ],
    )
    def test_huge_level_refused_without_traceback(self, argv, capsys):
        # such a strip once ended in an OverflowError: its width does not fit an index
        value = 10**20
        assert_out_of_range(argv + [str(value)], argv[-1], value, 0, DEFAULT_DP_BOUND, capsys)


#: The command line as ``python -m`` runs it, and as the installed script does.
ENTRY_POINTS = {
    "module": ["-m", "deutschpaths.cli"],
    "script": ["-c", "import sys; from deutschpaths.cli import main; sys.exit(main())"],
}


class TestClosedOutput:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_reader_closing_the_pipe_ends_the_command_quietly(self, entry):
        # 15 511 lines, far more than a pipe holds: the writer meets the closed pipe
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, *ENTRY_POINTS[entry], "enumerate", "--family", "motzkin", "--n", "12"]
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            first = child.stdout.readline()
            child.stdout.close()
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
        assert first == b"U U U U U U D D D D D D\n"
        assert err == b""  # no traceback, and no "Exception ignored" line at shutdown
        assert child.returncode == 141


#: One argv per subcommand, each quick, for the --cache-dir contract.
CACHE_ARGVS = [
    ["count", "--family", "deutsch", "--n", "9"],
    ["enumerate", "--family", "motzkin", "--n", "4"],
    ["series", "--formula", "closed", "--terms", "12"],
    ["biject", "--path", "U U D2 U"],
    ["verify", "det", "--max-n", "3"],
    ["stats", "area", "--n", "9"],
    ["selftest"],
]


def run_captured(argv, capsys):
    """Exit code, stdout and stderr of ``main(argv)``."""
    code, text = run(argv)
    return code, text, capsys.readouterr().err


class TestConfigAndCache:
    """``--cache-dir`` is deprecated: accepted, ignored, and absent from every help text."""

    @pytest.mark.parametrize("argv", CACHE_ARGVS, ids=" ".join)
    def test_cache_dir_changes_no_output(self, argv, tmp_path, capsys):
        missing, empty = tmp_path / "missing", tmp_path / "empty"
        empty.mkdir()
        without = run_captured(argv, capsys)
        assert without[0] == 0 and without[2] == ""
        assert run_captured(argv + ["--cache-dir", str(missing)], capsys) == without

        def envelope(extra):
            code, text, err = run_captured(argv + ["--json"] + extra, capsys)
            env = json.loads(text)
            del env["elapsed_seconds"]
            return code, env, err

        code, env, err = envelope(["--cache-dir", str(empty)])
        # the echo records the flag as given; nothing else may differ
        assert env["command"]["args"].pop("cache_dir") == str(empty)
        assert (code, env, err) == envelope([])
        assert not missing.exists()
        assert list(empty.iterdir()) == []

    @pytest.mark.parametrize(
        "version, rows",
        [(2, {"8": [0] * 17, "9": [0] * 19}), (1, {"9": [1] * 19})],
        ids=["poisoned", "version-1"],
    )
    def test_cache_file_is_neither_read_nor_written(
        self, version, rows, tmp_path, fresh_rows, capsys
    ):
        # a fresh process: no rows built yet, so rows read from the file would be used
        cache = tmp_path / "algebra_cache.json"
        cache.write_text(
            json.dumps({"format": "deutschpaths-cache", "version": version, "trinomial_rows": rows})
        )
        before = cache.read_bytes()
        argv = ["stats", "area", "--n", "9", "--cache-dir", str(tmp_path)]
        code, text, err = run_captured(argv, capsys)
        assert (code, err) == (0, "")
        assert "exact=4065/232" in text
        assert cache.read_bytes() == before
        assert list(tmp_path.iterdir()) == [cache]

    @pytest.mark.parametrize("argv", CACHE_ARGVS, ids=" ".join)
    def test_json_echo_omits_cache_dir_unless_passed(self, argv):
        code, env = run_json(argv)
        assert code == 0
        assert "cache_dir" not in env["command"]["args"]

    @pytest.mark.parametrize("argv", [[]] + [[name] for name in cli._SUBCOMMANDS], ids=repr)
    def test_help_omits_cache_dir_but_the_flag_parses(self, argv, capsys):
        with pytest.raises(SystemExit):
            run(argv + ["--help"])
        assert "cache" not in capsys.readouterr().out
        if argv:
            with pytest.raises(SystemExit):
                run(argv + ["--cache-dir"])  # the flag still takes a value
            assert "--cache-dir: expected one argument" in capsys.readouterr().err

    def test_config_flag_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "deutschpaths-config", "version": 1}))
        with pytest.raises(SystemExit) as exc:
            run(["enumerate", "--family", "deutsch", "--n", "1", "--config", str(cfg)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --config" in err

    def test_cache_env_var_ignored(self, tmp_path, monkeypatch):
        argv = ["series", "--formula", "closed", "--terms", "12"]
        without = run(argv)
        monkeypatch.setenv("DEUTSCHPATHS_CACHE_DIR", str(tmp_path))
        assert run(argv) == without
        assert list(tmp_path.iterdir()) == []

    def test_cache_roundtrip_is_consistent(self, tmp_path):
        _, first = run_json(
            ["series", "--formula", "closed", "--terms", "15", "--cache-dir", str(tmp_path)]
        )
        _, second = run_json(
            ["series", "--formula", "closed", "--terms", "15", "--cache-dir", str(tmp_path)]
        )
        assert first["payload"] == second["payload"]


class TestSelftest:
    def test_runs_clean(self):
        code, text = run(["selftest"])
        assert code == 0
        assert "FAIL" not in text
        assert "n+2" in text


class TestPinnedOutput:
    """The exact human lines and CSV rows of every subcommand."""

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["count", "--family", "deutsch", "--n", "6", "--csv"], "count\n51\n"),
            (
                ["enumerate", "--family", "deutsch", "--n", "3"],
                "U U U\nU U D1\nU U D2\nU D1 U\n",
            ),
            (
                ["enumerate", "--family", "motzkin", "--n", "2", "--csv"],
                "index,tokens\n0,U D\n1,F F\n",
            ),
            (["series", "--formula", "motzkin", "--terms", "4"], "1, 1, 2, 4, 9\n"),
            (
                ["series", "--formula", "area", "--terms", "3", "--csv"],
                "n,coefficient\n0,0\n1,0\n2,1\n3,3\n",
            ),
            (["biject", "--path", "U U D2 U"], "U F D F\n"),
            (["biject", "--path", "U F F D", "--inverse"], "U U U D3\n"),
            (
                ["verify", "det", "--max-n", "1"],
                "PASS  det(A_n) = D_n  (n=1)\n"
                "PASS  det(A_n^T) = D_n  (n=1)\n"
                "determinant closed form: 2 checks, 0 failures\n",
            ),
            (
                ["stats", "area", "--n", "9"],
                "n=9 area (closed): exact=4065/232 asymptotic=27.6298 ratio=0.634154\n",
            ),
            (
                ["stats", "height", "--n", "12", "--csv"],
                "metric,family,n,exact,asymptotic,ratio\n"
                "height,closed,12,20721/4213,7.0898154036220635,0.6937201733143282\n",
            ),
        ],
    )
    def test_exact_text(self, argv, want):
        assert run(argv) == (0, want)

    def test_verify_note_and_witness_lines(self):
        code, text = run(["verify", "product"])
        lines = text.splitlines()
        assert code == 0 and len(lines) == 4
        assert lines[0] == "PASS  exactly one candidate matches  (n=3)"
        assert lines[1] == "PASS  product equals determinant closed form  (n=3)"
        assert lines[2] == (
            "note: prod U_ii for n=3 equals ((1+v)/(1+v+v^2))^n * (1-v^(n+2))/(1-v^2); "
            "the (1-v^(n+1)) variant does not match"
        )
        assert lines[3] == "determinant-product exponent adjudication: 2 checks, 0 failures"

    def test_selftest_equals_verify_all(self):
        code_a, verify_all = run_json(["verify", "all"])
        code_s, selftest = run_json(["selftest"])
        assert code_a == code_s == 0
        assert verify_all["payload"] == selftest["payload"]
        assert selftest["command"]["args"] == {}

    @pytest.mark.parametrize(
        "argv",
        [["verify", "det", "--max-n", "3"], ["verify", "all"], ["biject", "--path", "U"], ["selftest"]],
    )
    def test_csv_refusal_message_and_hint(self, argv, capsys):
        code, text = run(argv + ["--csv"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            f"error: --csv is not available for {argv[0]!r}\n"
            "hint: csv output covers count, enumerate, series, and stats\n"
        )

    def test_parser_reuse_keeps_no_values(self):
        bounded = ["count", "--family", "deutsch", "--n", "6", "--end-level", "0", "--max-height", "2"]
        _, first = run_json(bounded)
        _, second = run_json(["count", "--family", "deutsch", "--n", "6"])
        assert first["payload"]["count"] == "5"
        assert second["payload"] == {
            "count": "51",
            "query": {"family": "deutsch", "n": 6, "end_level": None, "max_height": None},
        }
        assert second["command"]["args"]["end_level"] is None
        assert second["command"]["args"]["max_height"] is None

    def test_two_calls_build_the_parser_once(self, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *a, **kw):
            built.append(kw.get("prog"))
            real_init(self, *a, **kw)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        assert run(["count", "--family", "deutsch", "--n", "6"]) == (0, "51\n")
        after_first = len(built)
        assert after_first > 0
        assert run(["count", "--family", "motzkin", "--n", "4"]) == (0, "9\n")
        assert len(built) == after_first


class TestNumStr:
    """Exact decimal text, checked against strings built without str() on the whole number."""

    def test_int_past_the_digit_limit(self):
        want = "1" + "0" * 4999 + "7"
        assert _num_str(10**5000 + 7) == want
        assert _num_str(-(10**5000 + 7)) == "-" + want

    def test_fraction_with_both_parts_past_the_limit(self):
        q = Fraction(3 * 10**6000 + 1, 10**4400 + 3)
        assert q.denominator == 10**4400 + 3
        assert _num_str(q) == "3" + "0" * 5999 + "1/1" + "0" * 4399 + "3"

    def test_agrees_with_str_below_the_limit(self):
        rng = random.Random(5)
        for digits in [1, 639, 640, 641, 1280, 1281, *range(700, 4300, 181)]:
            for x in (10 ** (digits - 1), rng.randrange(10 ** (digits - 1), 10**digits)):
                assert _num_str(x) == str(x)
                assert _num_str(-x) == str(-x)
                assert _num_str(Fraction(x, 7 * x + 1)) == f"{x}/{7 * x + 1}"
        assert _num_str(0) == "0"
        assert _num_str(Fraction(12, 4)) == "3"

    @staticmethod
    def decimal_text(x) -> str:
        """The earlier formatter: every part through Decimal, whatever its length."""
        if isinstance(x, Fraction) and x.denominator != 1:
            return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"
        return str(Decimal(int(x)))

    @pytest.fixture
    def default_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield 4300
        sys.set_int_max_str_digits(old)

    def test_at_and_one_digit_past_the_limit(self, default_limit):
        at, past = 10**default_limit - 1, 10**default_limit  # 4300 and 4301 digits
        cases = [
            at, -at, 10 ** (default_limit - 1), past, -past, past + 7,
            Fraction(past + 1, 3), Fraction(-(past + 1), 3), Fraction(1, past + 3),
            Fraction(at, past + 3), Fraction(-at, 7), Fraction(2, at), Fraction(past * 3, 3),
        ]
        for x in cases:
            assert _num_str(x) == self.decimal_text(x)
        with pytest.raises(ValueError):
            str(past)
        assert _num_str(-past) == "-1" + "0" * default_limit
        assert _num_str(Fraction(1, past + 3)) == "1/1" + "0" * (default_limit - 1) + "3"


class TestDocs:
    def test_shared_flags_table_matches_the_parser(self):
        def options(p):
            return {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}

        # the options every subcommand takes, plus the top-level --version
        parser = build_parser()
        (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        shared = set.intersection(*map(options, subparsers.choices.values())) | options(parser)
        text = CLI_DOC.read_text()
        table = text.split("## Shared flags", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"^\| `(--[a-z-]+)", table, re.MULTILINE))
        assert documented == shared

    def test_range_table_matches_the_bounds(self):
        # the Exit status table: least and most of every ranged flag but --max-n
        text = CLI_DOC.read_text().split("## Exit status", 1)[1]
        rows = re.findall(
            r"^\| `(\w+ --[a-z-]+(?: --family open)?)` \| (\d+) \| ([\d ]+) \|$", text, re.MULTILINE
        )
        documented = {flag: (int(least), int(most.replace(" ", ""))) for flag, least, most in rows}
        want = {}
        for before, flag, least, most in RANGES.values():
            family = " --family open" if before[-2:] == ["--family", "open"] else ""
            want[f"{before[0]} {flag}{family}"] = (least, most)
        assert documented == want

    def test_range_table_states_the_cell_bound(self):
        text = CLI_DOC.read_text().split("## Exit status", 1)[1]
        (most,) = re.findall(r"^\| DP cells \(N\+1\)·\(cap\+1\) .*\| — \| ([\d ]+) \|$", text, re.M)
        assert int(most.replace(" ", "")) == paths.DEFAULT_CELL_BOUND
        assert f"must be at most {paths.DEFAULT_CELL_BOUND}" in text

    def test_series_section_states_the_height_sum_bound(self):
        text = CLI_DOC.read_text()
        most = f"{cli.MAX_HEIGHT_SUM_TERMS:,}".replace(",", " ")
        assert f"| `series --terms` of `height_sum_closed` and `height_sum_open` | 0 | {most} |" in text
        assert f"at most {most}" in text.split("### `series`", 1)[1].split("### `biject`", 1)[0]

    def test_battery_bounds_table_matches_the_batteries(self):
        text = CLI_DOC.read_text()
        rows = re.findall(r"^\| `(\w+)` \| (\d+) \| (.*) s \|$", text, re.MULTILINE)
        assert {target: int(most) for target, most, _ in rows} == {
            target: most for target, (*_, most) in cli._BATTERIES.items()
        }
        assert len(rows) == len(cli._BATTERIES)
        for target, _, seconds in rows:
            assert re.fullmatch(r"\d+\.\d", seconds), (target, seconds)
