"""The package root loads nothing eagerly; each CLI subcommand imports only what it runs.

The import-set checks run in a fresh interpreter: this test process has long
since imported every submodule.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deutschpaths
from deutschpaths import bijection, cli, formulas

SRC = Path(__file__).resolve().parent.parent / "src"
#: The submodules that only biject, verify, selftest and stats run.
HEAVY = ("bijection", "matrices", "selftest", "stats")
#: The exact-arithmetic kernel: only closed-form counts, series, stats and verify need it.
ALGEBRA = ("algebra", "formulas")
#: Standard-library modules that cost a cold start several milliseconds each.
STDLIB = ("dataclasses", "decimal", "fractions")

_LOADED = "sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('deutschpaths.'))"


def fresh(code: str):
    """Run ``code`` in a new interpreter importing this checkout; return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after_main(argv: list[str], stdlib: tuple[str, ...] = ()) -> tuple[int, list[str]]:
    """Exit code of ``cli.main(argv)`` in a fresh interpreter, and the submodules it
    loaded, followed by those of the ``stdlib`` modules it loaded."""
    # json is imported only to print the result, after the stdlib modules are read
    return fresh(
        f"""
import contextlib, io, sys
from deutschpaths import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main({argv!r})
    except SystemExit as exc:
        code = exc.code
loaded = [code, {_LOADED} + [m for m in {stdlib!r} if m in sys.modules]]
import json
print(json.dumps(loaded))
"""
    )


HELPS = [["--help"]] + [[name, "--help"] for name in cli._SUBCOMMANDS]


class TestImportSets:
    def test_bare_import_loads_no_submodule(self):
        assert fresh(f"import json, sys, deutschpaths; print(json.dumps({_LOADED}))") == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--family", "deutsch", "--n", "12"],
            ["count", "--family", "motzkin", "--n", "9", "--max-height", "2"],
            ["series", "--formula", "area", "--terms", "12"],
            ["series", "--formula", "height_sum_closed", "--terms", "12"],
            ["enumerate", "--family", "deutsch", "--n", "4"],
            *HELPS,
        ],
        ids=" ".join,
    )
    def test_query_and_help_load_none_of_the_heavy_modules(self, argv):
        code, loaded = modules_after_main(argv)
        assert code == 0
        assert not set(HEAVY) & set(loaded), loaded

    def test_stats_loads_only_stats(self):
        code, loaded = modules_after_main(["stats", "height", "--n", "50"])
        assert code == 0
        assert "stats" in loaded
        assert not {"matrices", "selftest", "bijection"} & set(loaded), loaded

    def test_biject_loads_only_bijection(self):
        code, loaded = modules_after_main(["biject", "--path", "U U D2 U"])
        assert code == 0
        assert "bijection" in loaded
        assert not {"matrices", "selftest", "stats"} & set(loaded), loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--family", "deutsch", "--n", "12", "--max-height", "3"],
            ["count", "--family", "deutsch", "--n", "12", "--end-level", "2"],
            ["count", "--family", "reversed", "--n", "6", "--end-level", "1"],
            ["enumerate", "--family", "deutsch", "--n", "4"],
            ["enumerate", "--family", "motzkin", "--n", "4", "--json"],
            ["biject", "--path", "U U D2 U"],
            ["biject", "--inverse", "--path", "U F D"],
            ["count", "--family", "deutsch", "--n", "-1"],
        ],
        ids=" ".join,
    )
    def test_dp_enumerate_and_biject_load_no_algebra(self, argv):
        code, loaded = modules_after_main(argv, STDLIB)
        assert code in (0, 2)
        assert not {*ALGEBRA, *STDLIB} & set(loaded), loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["biject", "--path", "U U D2 U"],
            ["enumerate", "--family", "deutsch", "--n", "4"],
            ["count", "--family", "deutsch", "--n", "12", "--max-height", "3"],
        ],
        ids=" ".join,
    )
    def test_cache_dir_loads_no_algebra(self, argv, tmp_path):
        # the deprecated flag is ignored: it must not pull in the kernel
        code, loaded = modules_after_main(argv + ["--cache-dir", str(tmp_path)])
        assert code == 0
        assert not set(ALGEBRA) & set(loaded), loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--family", "deutsch", "--n", "12", "--max-height", "3"],
            ["count", "--family", "motzkin", "--n", "9", "--max-height", "2", "--csv"],
            ["enumerate", "--family", "deutsch", "--n", "4"],
            ["enumerate", "--family", "motzkin", "--n", "4", "--csv"],
            ["biject", "--path", "U U D2 U"],
            ["biject", "--inverse", "--path", "U F D"],
        ],
        ids=" ".join,
    )
    def test_human_and_csv_output_load_no_json(self, argv):
        code, loaded = modules_after_main(argv, ("json",))
        assert code == 0
        assert "json" not in loaded, loaded

    @pytest.mark.parametrize("argv", [h for h in HELPS if h != ["series", "--help"]], ids=" ".join)
    def test_help_reads_no_catalog(self, argv):
        code, loaded = modules_after_main(argv, STDLIB)
        assert code == 0
        assert not {*ALGEBRA, *STDLIB} & set(loaded), loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--family", "deutsch", "--n", "12"],
            ["count", "--family", "motzkin", "--n", "9", "--max-height", "2"],
            ["enumerate", "--family", "deutsch", "--n", "4"],
            ["series", "--formula", "area", "--terms", "12"],
            ["series", "--formula", "height_sum_open", "--terms", "12", "--csv"],
            ["biject", "--path", "U U D2 U"],
            ["verify", "det", "--max-n", "3"],
            ["verify", "oracle", "--max-n", "4"],
            ["verify", "bijection", "--max-n", "4"],
            ["selftest", "--json"],
            ["stats", "height", "--n", "50"],
            ["stats", "area", "--n", "50", "--json"],
            *HELPS,
        ],
        ids=" ".join,
    )
    def test_only_stats_loads_dataclasses(self, argv):
        # named for when stats alone loaded dataclasses, for its two records;
        # they are NamedTuples now, so no subcommand loads it
        code, loaded = modules_after_main(argv, ("dataclasses",))
        assert code == 0
        assert "dataclasses" not in loaded, loaded


class TestLazyHelp:
    def test_series_help_is_the_eagerly_built_text(self, monkeypatch, capsys):
        # the --formula help as it was built when cli was imported: from the
        # catalog and the aliases, with argparse's own % expansion
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            cli.main(["series", "--help"])
        printed = capsys.readouterr().out
        eager = (
            "formula id, one of "
            + ", ".join(
                f"{name}({','.join(r.params)})" if r.params else name
                for name, r in formulas.CATALOG.items()
            )
            + "; aliases: "
            + ", ".join(f"{k}={v}" for k, v in cli.FORMULA_ALIASES.items())
        )
        (subparsers,) = (
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        series = subparsers.choices["series"]
        (flag,) = (a for a in series._actions if "--formula" in a.option_strings)
        assert type(flag.help) is not str
        flag.help = eager
        assert printed == series.format_help()
        assert "phi(h,i)" in printed and "area=area_A" in printed


class TestNumStrImports:
    def test_decimal_is_imported_only_past_the_digit_limit(self):
        seen = fresh(
            """
import json, sys
sys.set_int_max_str_digits(4300)
from deutschpaths.cli import _num_str
seen = []
for x in (10**4300 - 1, -(10**4300 - 1), 10**4299, -(10**4299), -(10**4300)):
    _num_str(x)
    seen.append("decimal" in sys.modules)
print(json.dumps(seen))
"""
        )
        assert seen == [False, False, False, False, True]


class TestLazyRoot:
    def test_public_names_in_a_fresh_interpreter(self):
        result = fresh(
            f"""
import importlib, json, sys
import deutschpaths
bare = {_LOADED}
submodules = [deutschpaths.algebra.__name__, deutschpaths.cli.__name__]
star = {{}}
exec("from deutschpaths import *", star)
names = [n for n in deutschpaths.__all__ if n != "__version__"]
differ = [
    n for n in names
    if getattr(deutschpaths, n)
    is not getattr(importlib.import_module("deutschpaths." + deutschpaths._MODULE_OF[n]), n)
]
print(json.dumps({{
    "bare": bare,
    "submodules": submodules,
    "unbound": [n for n in deutschpaths.__all__ if n not in star],
    "differ": differ,
    "star_differ": [n for n in names if star[n] is not getattr(deutschpaths, n)],
    "undirred": sorted(set(deutschpaths.__all__) - set(dir(deutschpaths))),
}}))
"""
        )
        assert result == {
            "bare": [],
            "submodules": ["deutschpaths.algebra", "deutschpaths.cli"],
            "unbound": [],
            "differ": [],
            "star_differ": [],
            "undirred": [],
        }

    def test_unknown_name_raises_the_standard_error(self):
        with pytest.raises(AttributeError, match="^module 'deutschpaths' has no attribute 'nope'$"):
            deutschpaths.nope
        assert not hasattr(deutschpaths, "Tracer")
        with pytest.raises(ImportError):
            exec("from deutschpaths import nope", {})

    def test_root_reads_the_current_attribute(self, monkeypatch):
        # a benchmark tracer or a test patches the submodule; the root must not hold the old object
        def patched(path):
            return path

        monkeypatch.setattr(bijection, "to_motzkin", patched)
        assert deutschpaths.to_motzkin is patched
        assert "to_motzkin" not in vars(deutschpaths)


class TestRefusalParity:
    def test_not_a_path_inside_biject_exits_2_with_the_default_hint(self, monkeypatch, capsys):
        def refuse(path):
            raise bijection.NotAPath("down size 3 inconsistent with inner end level 0")

        monkeypatch.setattr(bijection, "to_motzkin", refuse)
        out = io.StringIO()
        assert cli.main(["biject", "--path", "U U D2"], out=out) == 2
        assert out.getvalue() == ""
        assert capsys.readouterr().err == (
            "error: down size 3 inconsistent with inner end level 0\n"
            "hint: run with --help to see valid values\n"
        )

    def test_not_a_path_is_a_path_error(self):
        assert issubclass(bijection.NotAPath, deutschpaths.paths.PathError)
        assert issubclass(bijection.NotAPath, ValueError)
