"""Command-line interface: envelopes, formats, exit codes, config."""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from deutschpaths import __version__, algebra, cli, stats
from deutschpaths.cli import CACHE_ENV_VAR, _num_str, main
from deutschpaths.formulas import coeff_closed
from deutschpaths.paths import PathFamilyQuery, _prefix, count_dp

SCHEMA_PATH = (
    Path(__file__).parent.parent
    / "src"
    / "deutschpaths"
    / "schemas"
    / "output_envelope.schema.json"
)
SCHEMA = json.loads(SCHEMA_PATH.read_text())


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv + ["--json"])
    return code, json.loads(text)


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

    def test_count_past_the_digit_limit(self, monkeypatch):
        monkeypatch.setattr(algebra, "_TRI_ROWS", {0: (1,)})
        code, text = run(["count", "--family", "deutsch", "--n", "9990", "--end-level", "0"])
        assert code == 0
        assert len(text.strip()) > 4300
        assert int_of(text.strip()) == coeff_closed(9990)

    @pytest.mark.parametrize("extra", [["--end-level", "0"], [], ["--max-height", "3"]])
    def test_dp_bound_applies_to_every_route(self, extra, capsys):
        code, _ = run(["count", "--family", "deutsch", "--n", "10001"] + extra)
        assert code == 2
        assert "exceeds DP bound 10000" in capsys.readouterr().err


class TestEnumerate:
    def test_listing_order(self):
        code, env = run_json(["enumerate", "--family", "deutsch", "--n", "3"])
        assert env["payload"]["paths"] == ["U U U", "U U D1", "U U D2", "U D1 U"]

    def test_bound_exceeded(self):
        code, text = run(["enumerate", "--family", "deutsch", "--n", "40"])
        assert code == 2

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

    @pytest.mark.parametrize("name", ["area", "height_sum_closed"])
    def test_terms_bound(self, name, capsys):
        # refused before any expansion; it used to run for minutes
        code, text = run(["series", "--formula", name, "--terms", "10001"])
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert "--terms 10001 exceeds bound 10000" in err and "hint:" in err

    def test_unknown_formula(self):
        code, text = run(["series", "--formula", "zeta(2)", "--terms", "4"])
        assert code == 2

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
    def test_max_n_below_battery_minimum_refused(self, target, max_n, least, capsys):
        code, text = run(["verify", target, "--max-n", max_n])
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert "hint:" in err
        if least is not None:
            assert f"N >= {least}" in err


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

    @pytest.mark.parametrize("metric", ["height", "area"])
    def test_n_bound(self, metric, capsys):
        # refused before any work, as count and series are
        code, text = run(["stats", metric, "--n", "10001"])
        err = capsys.readouterr().err
        assert (code, text) == (2, "")
        assert "--n 10001 exceeds bound 10000" in err and "hint:" in err

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
            stats.LAWS, "avg_area", dataclasses.replace(area_law, exact=counted(area_law.exact))
        )
        for argv in (
            ["stats", "height", "--n", "40"],
            ["stats", "height", "--n", "41", "--family", "open"],
            ["stats", "area", "--n", "40"],
        ):
            calls.clear()
            assert run(argv)[0] == 0
            assert len(calls) == 1, argv

    def test_exact_value_past_the_digit_limit_refused(self, monkeypatch, capsys):
        # a fresh row memo, so the long rows stay out of the other tests' process state
        monkeypatch.setattr(algebra, "_TRI_ROWS", {0: (1,)})
        code, text = run(["stats", "height", "--n", "9500", "--json"])
        err = capsys.readouterr().err
        assert (code, text) == (2, "")
        assert "error: the exact value at n=9500 has more than 4300 digits" in err
        assert "hint: pass a smaller --n" in err


class TestErrors:
    def test_stderr_carries_hint(self, capsys):
        code, _ = run(["count", "--family", "reversed", "--n", "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

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
        code, text = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert "error:" in err
        assert "hint:" in err
        assert "n = 0" not in err


class TestConfigAndCache:
    def test_cache_dir_flag_writes_cache(self, tmp_path):
        code, _ = run_json(
            ["series", "--formula", "closed", "--terms", "12", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        cache = tmp_path / "algebra_cache.json"
        assert cache.exists()
        data = json.loads(cache.read_text())
        assert data["format"] == "deutschpaths-cache"

    def test_cache_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        code, _ = run_json(["series", "--formula", "motzkin", "--terms", "8"])
        assert code == 0
        assert (tmp_path / "algebra_cache.json").exists()

    def test_cache_roundtrip_is_consistent(self, tmp_path):
        _, first = run_json(
            ["series", "--formula", "closed", "--terms", "15", "--cache-dir", str(tmp_path)]
        )
        _, second = run_json(
            ["series", "--formula", "closed", "--terms", "15", "--cache-dir", str(tmp_path)]
        )
        assert first["payload"] == second["payload"]

    def test_cache_missing_rows_is_ignored_with_warning(self, tmp_path, capsys):
        (tmp_path / "algebra_cache.json").write_text(
            json.dumps({"format": "deutschpaths-cache", "version": 2})
        )
        code, env = run_json(
            ["series", "--formula", "closed", "--terms", "8", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        assert env["payload"]["coefficients"][-1] == "91"
        assert "warning: ignoring cache" in capsys.readouterr().err

    def test_poisoned_cache_rows_are_ignored_with_warning(self, tmp_path, monkeypatch, capsys):
        # a fresh process: no rows computed yet, so loaded rows would be used
        monkeypatch.setattr(algebra, "_TRI_ROWS", {0: (1,)})
        cache = algebra.save_cache(tmp_path)
        data = json.loads(cache.read_text())
        data["trinomial_rows"]["8"] = [0] * 17
        data["trinomial_rows"]["9"] = [0] * 19
        cache.write_text(json.dumps(data))
        code, text = run(["stats", "area", "--n", "9", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "exact=4065/232" in text
        assert "warning: ignoring cache" in capsys.readouterr().err

    def test_config_enumeration_bound(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "format": "deutschpaths-config",
                    "version": 1,
                    "enumeration_bound": 4,
                }
            )
        )
        code, _ = run(
            ["enumerate", "--family", "deutsch", "--n", "6", "--config", str(cfg)]
        )
        assert code == 2
        code, _ = run(
            ["enumerate", "--family", "deutsch", "--n", "4", "--config", str(cfg)]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "data",
        [
            {"format": "something-else", "version": 1},
            [],
            {"format": "deutschpaths-config", "version": 1, "enumeration_bound": "x"},
            {"format": "deutschpaths-config", "version": 1, "enumeration_bound": True},
            {"format": "deutschpaths-config", "version": 1, "cache_dir": 5},
        ],
        ids=["header", "not_an_object", "bound_str", "bound_bool", "cache_dir_int"],
    )
    def test_config_bad_format_rejected(self, tmp_path, data, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        code, text = run(["enumerate", "--family", "deutsch", "--n", "1", "--config", str(cfg)])
        assert code == 2
        assert text == ""
        assert "hint:" in capsys.readouterr().err

    def test_unencodable_cache_row_warns_and_answers(self, tmp_path, monkeypatch, capsys):
        # a row with an integer past json's 4300-digit limit, as for n > 9000
        monkeypatch.setitem(algebra._TRI_ROWS, 10**6, (10**4400,))
        code, text = run(["stats", "area", "--n", "9", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "exact=4065/232" in text
        assert "warning: could not write cache" in capsys.readouterr().err


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
        assert lines[0].startswith("PASS  exactly one candidate matches  (n=3)  [product (1 + 3*v")
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
        assert selftest["command"]["args"] == {"cache_dir": None, "config": None}

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
