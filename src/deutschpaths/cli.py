"""Command-line interface.

Subcommands: count, enumerate, series, biject, verify, stats, selftest.
Output is human-readable by default; --json wraps the payload in a fixed
envelope (tool, version, command echo, payload, elapsed_seconds) and
--csv emits flat tables.  Counts and series coefficients are emitted as
decimal strings in JSON so no consumer ever rounds them through floats;
elapsed time lives only in the envelope, keeping payloads reproducible.

Exit codes: 0 success, 1 verification mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__, algebra
from .bijection import NotAPath, certify, from_motzkin, to_motzkin
from .formulas import (
    BadParams,
    FormulaId,
    Series,
    coeff_closed,
    coeff_open,
    expand_in_z,
    formula,
    oracle_check,
)
from .matrices import (
    adjudicate_det_product,
    verify_cramer,
    verify_det_recursion,
    verify_determinant,
    verify_lu,
)
from .paths import (
    DEFAULT_DP_BOUND,
    DEFAULT_ENUM_BOUND,
    BoundExceeded,
    PathError,
    PathFamilyQuery,
    QueryError,
    count_dp,
    enumerate_paths,
    validate_path,
)
from .reporting import MismatchFound, VerificationReport
from .selftest import run_selftest
from .stats import LAWS, ZeroCount

CACHE_ENV_VAR = "DEUTSCHPATHS_CACHE_DIR"
CONFIG_FORMAT = "deutschpaths-config"
CONFIG_VERSION = 1

FORMULA_ALIASES = {
    "area": "area_A",
    "motzkin": "motzkin_M",
    "closed": "phi0_limit",
    "open": "open_sum_limit",
}


class UsageError(ValueError):
    """Bad flag combination or invalid input value; exits with code 2."""

    def __init__(self, message: str, hint: str = ""):
        self.hint = hint
        super().__init__(message)


def _num_str(x: int | Fraction) -> str:
    """Exact decimal text of an int or Fraction ("p/q") of any length.

    Decimal(int) is exact and its str() is plain digits: unlike str(int), neither
    is held to the interpreter's int-to-str digit limit (4300 by default).
    """
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"
    return str(Decimal(int(x)))


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}", "pass a readable JSON file")
    if (
        not isinstance(data, dict)
        or data.get("format") != CONFIG_FORMAT
        or data.get("version") != CONFIG_VERSION
    ):
        raise UsageError(
            f"config file {path} is not a {CONFIG_FORMAT} v{CONFIG_VERSION} document",
            'expected {"format": "deutschpaths-config", "version": 1, ...}',
        )
    for field, kind in (("enumeration_bound", int), ("cache_dir", str)):
        value = data.get(field)
        if value is not None and (not isinstance(value, kind) or isinstance(value, bool)):
            raise UsageError(
                f"config field {field!r} must be {kind.__name__}, got {value!r}",
                "enumeration_bound is an integer; cache_dir is a string",
            )
    return data


def _resolve_cache_dir(args, config: dict) -> str | None:
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    if os.environ.get(CACHE_ENV_VAR):
        return os.environ[CACHE_ENV_VAR]
    return config.get("cache_dir")


# --- subcommand handlers (return JSON-safe payloads) -------------------------


def _query_from_args(args) -> PathFamilyQuery:
    return PathFamilyQuery(
        family=args.family,
        n=args.n,
        end_level=args.end_level,
        max_height=args.max_height,
    )


#: Unbounded counts with a trinomial closed form, by (family, end level); the rest run count_dp.
_CLOSED_FORMS = {
    ("deutsch", 0): coeff_closed,
    ("deutsch", None): coeff_open,
    ("reversed", 0): coeff_closed,
    ("motzkin", 0): coeff_open,
}


def _cmd_count(args, config) -> dict:
    query = _query_from_args(args)
    if query.n > DEFAULT_DP_BOUND:
        raise BoundExceeded(f"n={query.n} exceeds DP bound {DEFAULT_DP_BOUND}")
    end = 0 if query.family == "motzkin" else query.end_level
    closed_form = _CLOSED_FORMS.get((query.family, end)) if query.max_height is None else None
    return {
        "count": _num_str(closed_form(query.n) if closed_form else count_dp(query)),
        "query": {
            "family": query.family,
            "n": query.n,
            "end_level": query.end_level,
            "max_height": query.max_height,
        },
    }


def _cmd_enumerate(args, config) -> dict:
    bound = config.get("enumeration_bound", DEFAULT_ENUM_BOUND)
    paths = enumerate_paths(_query_from_args(args), bound=bound)
    return {
        "count": _num_str(len(paths)),
        "paths": [p.tokens() for p in paths],
    }


def _formula_from_args(args) -> tuple[FormulaId, Series]:
    if args.terms < 0:
        raise UsageError(f"--terms must be >= 0, got {args.terms}", "pass --terms N with N >= 0")
    if args.terms > DEFAULT_DP_BOUND:
        raise BoundExceeded(f"--terms {args.terms} exceeds bound {DEFAULT_DP_BOUND}")
    text = FORMULA_ALIASES.get(args.formula.strip(), args.formula.strip())
    if text in ("height_sum_closed", "height_sum_open"):
        fid = FormulaId(text, (args.terms,))
    else:
        fid = FormulaId.parse(text)
    obj = formula(fid)
    if isinstance(obj, Series):
        if obj.order < args.terms:
            raise UsageError(
                f"{fid} only defines coefficients through z^{obj.order}",
                f"use --formula '{fid.name}({args.terms})' or lower --terms",
            )
        series = obj.truncate(args.terms)
    else:
        series = expand_in_z(obj, args.terms)
    return fid, series


def _cmd_series(args, config) -> dict:
    fid, series = _formula_from_args(args)
    return {
        "formula": str(fid),
        "order": series.order,
        "coefficients": [_num_str(c) for c in series.coeffs],
    }


def _cmd_biject(args, config) -> dict:
    family = "motzkin" if args.inverse else "deutsch"
    try:
        path = validate_path(args.path, family)
    except PathError as exc:
        raise UsageError(
            f"--path is not a valid {family} path: {exc}",
            "deutsch tokens are U and D<k>; motzkin tokens are U, F, D",
        )
    image = from_motzkin(path) if args.inverse else to_motzkin(path)
    return {
        "direction": "motzkin_to_deutsch" if args.inverse else "deutsch_to_motzkin",
        "input": path.tokens(),
        "output": image.tokens(),
        "length": len(path),
    }


#: Each battery: its call on --max-n, its default --max-n, the least it accepts.
_BATTERIES = {
    "det": (verify_determinant, 12, 1),
    "recursion": (verify_det_recursion, 12, 3),
    "cramer": (verify_cramer, 8, 1),
    "lu": (verify_lu, 12, 1),
    "oracle": (lambda n: oracle_check(enum_max=min(8, n), dp_max=n, h_max=4), 30, 1),
    "bijection": (certify, 8, 1),
    "product": (adjudicate_det_product, 3, 1),
}
_VERIFY_TARGETS = (*_BATTERIES, "all")


def _run_verify(target: str, max_n: int | None) -> VerificationReport:
    if target == "all":
        if max_n is not None:
            raise UsageError("verify all takes no --max-n", "drop --max-n, or name one battery")
        return run_selftest()
    battery, default, least = _BATTERIES[target]
    if max_n is None:
        return battery(default)
    if max_n < least:
        raise UsageError(
            f"--max-n must be >= {least} for verify {target}, got {max_n}",
            f"pass --max-n N with N >= {least}, or omit it for the default {default}",
        )
    return battery(max_n)


def _report_payload(report: VerificationReport) -> dict:
    d = report.to_dict()
    d["checks_total"] = len(report.checks)
    d["failures_total"] = len(report.failures)
    return d


def _cmd_verify(args, config) -> dict:
    # selftest is verify all: it has neither a target nor --max-n
    report = _run_verify(getattr(args, "target", "all"), getattr(args, "max_n", None))
    return _report_payload(report)


def _cmd_stats(args, config) -> dict:
    if args.n < 1:
        raise UsageError(
            f"--n must be >= 1, got {args.n}", "pass --n N with N >= 1 (N >= 2 for closed paths)"
        )
    if args.n > DEFAULT_DP_BOUND:
        raise BoundExceeded(f"--n {args.n} exceeds bound {DEFAULT_DP_BOUND}")
    if args.metric == "height":
        law = LAWS["avg_height_closed" if args.family == "closed" else "avg_height_open"]
    else:
        if args.family != "closed":
            raise UsageError(
                "area statistics are defined for closed paths only",
                "drop --family or pass --family closed",
            )
        law = LAWS["avg_area"]
    try:
        row = law.compare(args.n)
    except ZeroCount as exc:
        raise UsageError(str(exc), "closed paths need n >= 2")
    exact = _num_str(row.exact)
    # Unlike count and series, stats prints no part longer than int() can read back
    # (above n of about 9020): perfbench/checks.py reads "exact" with Fraction(),
    # and would take a printed value it cannot parse for a wrong answer.
    limit = sys.get_int_max_str_digits()
    if limit and any(len(part) > limit for part in exact.lstrip("-").split("/")):
        raise UsageError(
            f"the exact value at n={args.n} has more than {limit} digits",
            "pass a smaller --n, or raise the int-to-str limit with PYTHONINTMAXSTRDIGITS",
        )
    return {
        "metric": args.metric,
        "family": args.family,
        "n": args.n,
        "law": law.description,
        "exact": exact,
        "asymptotic": row.asymptotic,
        "ratio": row.ratio,
    }


# --- the subcommand table -----------------------------------------------------


def _report_lines(payload: dict) -> list[str]:
    lines = []
    for check in payload["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        suffix = f"  [{check['witness']}]" if check["witness"] else ""
        lines.append(f"{status}  {check['name']}  ({check['dimension']}){suffix}")
    data = payload.get("data", {})
    statement = data.get("det_product_statement") or data.get("statement")
    if statement:
        lines.append(f"note: {statement}")
    lines.append(
        f"{payload['title']}: {payload['checks_total']} checks, "
        f"{payload['failures_total']} failures"
    )
    return lines


_STATS_COLUMNS = ("metric", "family", "n", "exact", "asymptotic", "ratio")


def _arg(*flags, **kwargs) -> tuple[tuple, dict]:
    return flags, kwargs


#: count and enumerate select paths with the same flags.
_SELECTION = (
    _arg("--family", choices=("deutsch", "reversed", "motzkin"), required=True),
    _arg("--n", type=int, required=True, help="path length (number of steps)"),
    _arg("--end-level", type=int, default=None),
    _arg("--max-height", type=int, default=None),
)


class _Subcommand(NamedTuple):
    """One subcommand: help, own arguments, handler, human lines, CSV rows or None."""

    help: str
    arguments: tuple[tuple[tuple, dict], ...]
    handler: Callable[[argparse.Namespace, dict], dict]
    human: Callable[[dict], list[str]]
    csv_rows: Callable[[dict], list] | None = None


_SUBCOMMANDS = {
    "count": _Subcommand(
        "count paths by family, length, end level, height bound",
        _SELECTION,
        _cmd_count,
        lambda p: [p["count"]],
        lambda p: [("count",), (p["count"],)],
    ),
    "enumerate": _Subcommand(
        "list all matching paths in deterministic order",
        _SELECTION,
        _cmd_enumerate,
        lambda p: p["paths"],
        lambda p: [("index", "tokens"), *enumerate(p["paths"])],
    ),
    "series": _Subcommand(
        "z-expansion of a catalog generating function",
        (
            _arg(
                "--formula",
                required=True,
                help="formula id, e.g. motzkin_M, phi(4,1), area_A; aliases: "
                + ", ".join(f"{k}={v}" for k, v in FORMULA_ALIASES.items()),
            ),
            _arg("--terms", type=int, default=10, help="series order N (prints N+1 coefficients)"),
        ),
        _cmd_series,
        lambda p: [", ".join(p["coefficients"])],
        lambda p: [("n", "coefficient"), *enumerate(p["coefficients"])],
    ),
    "biject": _Subcommand(
        "map an open Deutsch path to its Motzkin partner",
        (
            _arg("--path", required=True, help='step tokens, e.g. "U U D2"'),
            _arg("--inverse", action="store_true", help="map a Motzkin path back instead"),
        ),
        _cmd_biject,
        lambda p: [p["output"]],
    ),
    "verify": _Subcommand(
        "run an exact identity battery",
        (
            _arg("target", choices=_VERIFY_TARGETS),
            _arg("--max-n", type=int, default=None, help="largest dimension/length to check"),
        ),
        _cmd_verify,
        _report_lines,
    ),
    "stats": _Subcommand(
        "exact statistic vs asymptotic law",
        (
            _arg("metric", choices=("height", "area")),
            _arg("--n", type=int, required=True),
            _arg("--family", choices=("closed", "open"), default="closed"),
        ),
        _cmd_stats,
        lambda p: [
            f"n={p['n']} {p['metric']} ({p['family']}): exact={p['exact']} "
            f"asymptotic={p['asymptotic']:.6g} ratio={p['ratio']:.6g}"
        ],
        lambda p: [_STATS_COLUMNS, [p[k] for k in _STATS_COLUMNS]],
    ),
    "selftest": _Subcommand("full fast verification battery", (), _cmd_verify, _report_lines),
}


def _emit(args, payload: dict, elapsed: float, out) -> None:
    command = _SUBCOMMANDS[args.subcommand]
    if args.json:
        skip = ("subcommand", "json", "csv")
        echo = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
        envelope = {
            "tool": "deutschpaths",
            "version": __version__,
            "command": {"subcommand": args.subcommand, "args": echo},
            "payload": payload,
            "elapsed_seconds": round(elapsed, 6),
        }
        json.dump(envelope, out, indent=2, sort_keys=True)
        out.write("\n")
    elif args.csv:
        import csv

        csv.writer(out, lineterminator="\n").writerows(command.csv_rows(payload))
    else:
        for line in command.human(payload):
            print(line, file=out)


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """A new CLI parser; main builds one per process, on first use."""
    parser = argparse.ArgumentParser(
        prog="deutschpaths",
        description="Exact enumeration of Deutsch paths: counts, generating "
        "functions, matrix identities, statistics, and the Motzkin bijection.",
    )
    parser.add_argument("--version", action="version", version=f"deutschpaths {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flags, kwargs in command.arguments:
            p.add_argument(*flags, **kwargs)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="emit a JSON envelope")
        fmt.add_argument("--csv", action="store_true", help="emit CSV rows")
        p.add_argument("--cache-dir", help=f"trinomial-row cache directory (or ${CACHE_ENV_VAR})")
        p.add_argument("--config", help="JSON config file; flags override its values")
    return parser


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = _parser().parse_args(argv)
    command = _SUBCOMMANDS[args.subcommand]
    t0 = time.perf_counter()
    try:
        # reject unsupported output formats before any expensive work runs
        if args.csv and command.csv_rows is None:
            *most, last = (name for name, c in _SUBCOMMANDS.items() if c.csv_rows)
            raise UsageError(
                f"--csv is not available for {args.subcommand!r}",
                f"csv output covers {', '.join(most)}, and {last}",
            )
        config = _load_config(args.config)
        cache_dir = _resolve_cache_dir(args, config)
        if cache_dir:
            try:
                algebra.load_cache(cache_dir)
            except (OSError, ValueError) as exc:
                print(f"warning: ignoring cache: {exc}", file=sys.stderr)
        payload = command.handler(args, config)
        if cache_dir:
            try:
                algebra.save_cache(cache_dir)
            except (OSError, ValueError) as exc:
                print(f"warning: could not write cache: {exc}", file=sys.stderr)
        _emit(args, payload, time.perf_counter() - t0, out)
    except (UsageError, QueryError, PathError, NotAPath, BadParams) as exc:
        print(f"error: {exc}", file=sys.stderr)
        hint = getattr(exc, "hint", "run with --help to see valid values")
        if hint:
            print(f"hint: {hint}", file=sys.stderr)
        return 2
    except MismatchFound as exc:
        report = getattr(exc, "report", None)
        if report is not None:
            _emit(args, _report_payload(report), time.perf_counter() - t0, out)
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
