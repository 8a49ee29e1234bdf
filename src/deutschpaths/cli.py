"""Command-line interface.

Subcommands: count, enumerate, series, biject, verify, stats, selftest.
Output is human-readable by default; --json wraps the payload in a fixed
envelope (tool, version, command echo, payload, elapsed_seconds) and
--csv emits flat tables.  Counts and series coefficients are emitted as
decimal strings in JSON so no consumer ever rounds them through floats;
elapsed time lives only in the envelope, keeping payloads reproducible.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 141 standard
output closed by its reader before all of it was written.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import os
import sys
import time
from typing import Callable, NamedTuple

from . import __version__
from .paths import (
    DEFAULT_DP_BOUND,
    DEFAULT_ENUM_BOUND,
    DEFAULT_LIST_BOUND,
    FAMILIES,
    BoundExceeded,
    PathError,
    PathFamilyQuery,
    QueryError,
    _target_levels,
    count_dp,
    enumerate_paths,
    validate_path,
)
from .reporting import MismatchFound, VerificationReport, _num_str

# algebra, formulas, bijection, matrices, selftest and stats are imported by
# the code that runs them: count with --max-height, enumerate and biject load
# no algebra, and count, series, enumerate and --help no verification battery.

FORMULA_ALIASES = {
    "area": "area_A",
    "motzkin": "motzkin_M",
    "closed": "phi0_limit",
    "open": "open_sum_limit",
}


class UsageError(QueryError):
    """Bad flag combination or invalid input value; exits with code 2."""


def _in_range(flag: str, value: int, least: int, most: int, default: int | None = None) -> int:
    """value, if least <= value <= most; otherwise a UsageError naming the range."""
    if least <= value <= most:
        return value
    hint = f"pass {flag} N with {least} <= N <= {most}"
    if default is not None:
        hint += f", or omit it for the default {default}"
    side = f">= {least}" if value < least else f"<= {most}"
    raise UsageError(f"{flag} must be {side}, got {value}", hint)


# --- subcommand handlers (return JSON-safe payloads) -------------------------


def _query_from_args(args) -> PathFamilyQuery:
    for flag, value in (("--end-level", args.end_level), ("--max-height", args.max_height)):
        if value is not None:
            _in_range(flag, value, 0, DEFAULT_DP_BOUND)
    return PathFamilyQuery(args.family, args.n, args.end_level, args.max_height)


def _load(module: str, name: str):
    """deutschpaths.<module>.<name>, importing the module if it is not loaded yet."""
    return getattr(importlib.import_module(f".{module}", __package__), name)


def _on_call(module: str, name: str) -> Callable[[int], object]:
    """deutschpaths.<module>.<name>, imported and looked up only when called."""
    return lambda n: _load(module, name)(n)


#: Unbounded counts with a trinomial closed form, by (family, end level); the rest run count_dp.
_CLOSED_FORMS = {
    ("deutsch", 0): _on_call("formulas", "coeff_closed"),
    ("deutsch", None): _on_call("formulas", "coeff_open"),
    ("reversed", 0): _on_call("formulas", "coeff_closed"),
    ("motzkin", 0): _on_call("formulas", "coeff_open"),
}


def _cmd_count(args) -> dict:
    _in_range("--n", args.n, 0, DEFAULT_DP_BOUND)
    query = _query_from_args(args)
    key = (query.family, _target_levels(query))
    closed_form = _CLOSED_FORMS.get(key) if query.max_height is None else None
    return {
        "count": _num_str(closed_form(query.n) if closed_form else count_dp(query)),
        "query": {
            "family": query.family,
            "n": query.n,
            "end_level": query.end_level,
            "max_height": query.max_height,
        },
    }


def _cmd_enumerate(args) -> dict:
    _in_range("--n", args.n, 0, DEFAULT_ENUM_BOUND)
    query = _query_from_args(args)
    count = count_dp(query)
    if count > DEFAULT_LIST_BOUND:
        message = f"enumerate would list {count} paths, more than {DEFAULT_LIST_BOUND}"
        raise UsageError(message, "lower --n or --max-height, or run count for the number alone")
    paths = enumerate_paths(query)
    return {
        "count": _num_str(len(paths)),
        "paths": [p.tokens() for p in paths],
    }


#: The largest "h" parameter (a height bound) of a formula that ``series``
#: accepts: expanding a degree-h formula grows steeply with h, from about
#: 0.01 s at h = 100 to 5 s at h = 1000; building it takes milliseconds.
MAX_FORMULA_HEIGHT = 100

#: The largest --terms of the two height sums, which run through the Lagrange
#: route at a cost growing faster than N^2: in-process on a 2-vCPU host,
#: height_sum_closed took 3.4-5.0 s at N = 2700 and 4.4-6.3 s at N = 3000.
MAX_HEIGHT_SUM_TERMS = 2700


def _formula_from_args(args) -> tuple:
    """The formula id and its z-series through --terms."""
    from .formulas import CATALOG, FormulaId, z_series

    _in_range("--terms", args.terms, 0, DEFAULT_DP_BOUND)
    text = FORMULA_ALIASES.get(args.formula.strip(), args.formula.strip())
    bare = CATALOG.get(text)
    if bare is not None and bare.params == ("order",):  # a bare series name takes --terms
        fid = FormulaId(text, (args.terms,))
    else:
        fid = FormulaId.parse(text)
    if CATALOG[fid.name].params == ("order",):
        _in_range("--terms", args.terms, 0, MAX_HEIGHT_SUM_TERMS)
    for kind, value in zip(CATALOG[fid.name].params, fid.args):
        if kind == "h" and value > MAX_FORMULA_HEIGHT:
            raise BoundExceeded(
                f"height {value} in {fid} exceeds bound {MAX_FORMULA_HEIGHT}",
                f"pass a height parameter of at most {MAX_FORMULA_HEIGHT}",
            )
    return fid, z_series(fid, args.terms)


def _cmd_series(args) -> dict:
    fid, series = _formula_from_args(args)
    return {
        "formula": str(fid),
        "order": series.order,
        "coefficients": [_num_str(c) for c in series.coeffs],
    }


def _cmd_biject(args) -> dict:
    from .bijection import from_motzkin, to_motzkin

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


#: Each battery: its call on --max-n, its default --max-n, and the least and
#: the most it accepts.  Each most is the largest size that ran in at most
#: about 5 s in-process and no slower than the bound before it (docs/cli.md
#: lists the measured times); for bijection it is also the enumeration bound.
_BATTERIES = {
    "det": (_on_call("matrices", "verify_determinant"), 12, 1, 90),
    "recursion": (_on_call("matrices", "verify_det_recursion"), 12, 3, 550),
    "cramer": (_on_call("matrices", "verify_cramer"), 8, 1, 34),
    "lu": (_on_call("matrices", "verify_lu"), 12, 1, 230),
    "oracle": (
        lambda n: _load("formulas", "oracle_check")(enum_max=min(8, n), dp_max=n, h_max=4),
        30, 1, 340,
    ),
    "bijection": (_on_call("bijection", "certify"), 8, 1, DEFAULT_ENUM_BOUND),
    "product": (_on_call("matrices", "adjudicate_det_product"), 3, 1, 4000),
}
_VERIFY_TARGETS = (*_BATTERIES, "all")


def _run_verify(target: str, max_n: int | None) -> VerificationReport:
    if target == "all":
        if max_n is not None:
            raise UsageError("verify all takes no --max-n", "drop --max-n, or name one battery")
        from .selftest import run_selftest

        return run_selftest()
    battery, default, least, most = _BATTERIES[target]
    return battery(default if max_n is None else _in_range("--max-n", max_n, least, most, default))


def _report_payload(report: VerificationReport) -> dict:
    d = report.to_dict()
    d["checks_total"] = len(report.checks)
    d["failures_total"] = len(report.failures)
    return d


def _cmd_verify(args) -> dict:
    # selftest is verify all: it has neither a target nor --max-n
    report = _run_verify(getattr(args, "target", "all"), getattr(args, "max_n", None))
    return _report_payload(report)


def _cmd_stats(args) -> dict:
    from .stats import LAWS

    _in_range("--n", args.n, 2 if args.family == "closed" else 1, DEFAULT_DP_BOUND)
    if args.metric == "height":
        law = LAWS["avg_height_closed" if args.family == "closed" else "avg_height_open"]
    else:
        if args.family != "closed":
            raise UsageError(
                "area statistics are defined for closed paths only",
                "drop --family or pass --family closed",
            )
        law = LAWS["avg_area"]
    row = law.compare(args.n)
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


class _FormulaHelp(str):
    """The --formula help: argparse expands it with %, and only then is the catalog read."""

    def __mod__(self, params) -> str:
        from .formulas import CATALOG

        ids = (f"{name}({','.join(r.params)})" if r.params else name for name, r in CATALOG.items())
        aliases = (f"{k}={v}" for k, v in FORMULA_ALIASES.items())
        return f"formula id, one of {', '.join(ids)}; aliases: {', '.join(aliases)}" % params


def _arg(*flags, **kwargs) -> tuple[tuple, dict]:
    return flags, kwargs


def _selection(most: int) -> tuple:
    """The flags count and enumerate select paths with; most bounds --n."""
    level = f"0 <= N <= {DEFAULT_DP_BOUND}"
    return (
        _arg("--family", choices=FAMILIES, required=True),
        _arg("--n", type=int, required=True, help=f"path length N (steps), 0 <= N <= {most}"),
        _arg("--end-level", type=int, metavar="N", help=f"end level N, {level}"),
        _arg("--max-height", type=int, metavar="N", help=f"strip bound N, {level}"),
    )


class _Subcommand(NamedTuple):
    """One subcommand: help, own arguments, handler, human lines, CSV rows or None."""

    help: str
    arguments: tuple[tuple[tuple, dict], ...]
    handler: Callable[[argparse.Namespace], dict]
    human: Callable[[dict], list[str]]
    csv_rows: Callable[[dict], list] | None = None


_SUBCOMMANDS = {
    "count": _Subcommand(
        "count paths by family, length, end level, height bound",
        _selection(DEFAULT_DP_BOUND),
        _cmd_count,
        lambda p: [p["count"]],
        lambda p: [("count",), (p["count"],)],
    ),
    "enumerate": _Subcommand(
        "list all matching paths in deterministic order",
        _selection(DEFAULT_ENUM_BOUND),
        _cmd_enumerate,
        lambda p: p["paths"],
        lambda p: [("index", "tokens"), *enumerate(p["paths"])],
    ),
    "series": _Subcommand(
        "z-expansion of a catalog generating function",
        (
            _arg("--formula", required=True, help=_FormulaHelp("formula id")),
            _arg(
                "--terms", type=int, default=10, metavar="N",
                help=f"series order N (prints N+1 coefficients), 0 <= N <= {DEFAULT_DP_BOUND}; "
                f"at most {MAX_HEIGHT_SUM_TERMS} for height_sum_closed and height_sum_open",
            ),
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
            _arg(
                "--max-n", type=int, default=None,
                help="largest dimension/length to check; "
                + ", ".join(f"{name}: at most {most}" for name, (*_, most) in _BATTERIES.items()),
            ),
        ),
        _cmd_verify,
        _report_lines,
    ),
    "stats": _Subcommand(
        "exact statistic vs asymptotic law",
        (
            _arg("metric", choices=("height", "area")),
            _arg(
                "--n", type=int, required=True,
                help=f"path length N: 2 <= N <= {DEFAULT_DP_BOUND} for closed paths, "
                f"1 <= N <= {DEFAULT_DP_BOUND} for --family open",
            ),
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
        import json

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
        # deprecated and ignored, kept so that old command lines still parse;
        # unless passed it leaves no attribute, so --json echoes it only then
        p.add_argument("--cache-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    return parser


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    try:
        status = _run(argv, out)
        out.flush()  # so a reader that closed the pipe shows here, not at interpreter exit
    except BrokenPipeError:
        if out is sys.stdout:  # the interpreter flushes it again at exit: send that nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 141
    return status


def _run(argv: list[str] | None, out) -> int:
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
        payload = command.handler(args)
        _emit(args, payload, time.perf_counter() - t0, out)
    except (QueryError, PathError) as exc:  # a UsageError is a QueryError
        print(f"error: {exc}", file=sys.stderr)
        print(f"hint: {exc.hint}", file=sys.stderr)
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
