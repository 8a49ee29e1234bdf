"""Output checks for every benchmark request, run outside the timed region.

Each check answers a request by a second route that the request itself did
not take: series prefixes against the golden file and sampled coefficients
against single-coefficient extraction through trinomial rows, counts
against the trinomial closed forms or an independent strip counter, small
statistics against the dynamic-programming totals, large ones against the
asymptotic bands of the acceptance tests, and bijections by their inverse.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from deutschpaths.algebra import coeff_of_z
from deutschpaths.bijection import from_motzkin, to_motzkin
from deutschpaths.formulas import FormulaId, coeff_closed, coeff_open, formula
from deutschpaths.paths import (
    PathFamilyQuery,
    count_dp,
    total_area_dp,
    total_height_dp,
    validate_path,
)
from deutschpaths.reporting import VerificationReport
from deutschpaths.stats import height_total

GOLDEN = Path("tests") / "data" / "golden_series.json"

#: Up to these lengths statistics are checked exactly against the DP totals;
#: above them the ratio must lie in the acceptance-6 band.
HEIGHT_DP_MAX = 60
AREA_DP_MAX = 200
HEIGHT_BAND = (0.5, 1.5)
AREA_BAND = (0.8, 1.25)


def parse_argv(argv) -> tuple[list[str], dict]:
    """Positional words and ``--flag value`` options (a bare flag maps to True)."""
    words, opts = [], {}
    i = 0
    while i < len(argv):
        token = argv[i]
        if token.startswith("--"):
            if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                opts[token] = argv[i + 1]
                i += 1
            else:
                opts[token] = True
        else:
            words.append(token)
        i += 1
    return words, opts


def strip_count(family: str, n: int, h: int) -> int:
    """Paths of length n inside the strip [0, h], by a direct transfer matrix.

    Any end level for deutsch/reversed, end level 0 for motzkin.  Written
    independently of ``paths.count_dp`` so that each checks the other.
    """
    counts = [1] + [0] * h
    for _ in range(n):
        if family == "deutsch":  # up from l-1, down from any level above l
            counts = [sum(counts[l + 1 :]) + (counts[l - 1] if l else 0) for l in range(h + 1)]
        elif family == "reversed":  # up from any level below l, down from l+1
            counts = [sum(counts[:l]) + (counts[l + 1] if l < h else 0) for l in range(h + 1)]
        else:
            counts = [
                counts[l] + (counts[l - 1] if l else 0) + (counts[l + 1] if l < h else 0)
                for l in range(h + 1)
            ]
    return counts[0] if family == "motzkin" else sum(counts)


def phi_sums(h_max: int) -> bool:
    """sum_i phi(h, i) == open_sum(h) for every h <= h_max, in exact RatFn arithmetic."""
    ok = True
    for h in range(h_max + 1):
        total = formula(f"phi({h},0)")
        for i in range(1, h + 1):
            total = total + formula(f"phi({h},{i})")
        ok &= total == formula(f"open_sum({h})")
    return ok


def psi_sums(h_max: int) -> bool:
    """psi0(h) + sum_i psi(h, i) == reversed_sum(h) for every h <= h_max."""
    ok = True
    for h in range(h_max + 1):
        total = formula(f"psi0({h})")
        for i in range(1, h + 1):
            total = total + formula(f"psi({h},{i})")
        ok &= total == formula(f"reversed_sum({h})")
    return ok


class Checker:
    """Checks one request's outcome; ``check`` returns '' or a failure reason."""

    def __init__(self, root: Path):
        self.golden = json.loads((root / GOLDEN).read_text())["series"]

    def check(self, req, outcome) -> str:
        try:
            if req.kind == "verify":
                return _check_verify(outcome)
            code, text = outcome
            if code != 0:
                return f"exit code {code}"
            envelope = json.loads(text)
            words, opts = parse_argv(req.argv)
            if envelope["command"]["subcommand"] != words[0]:
                return "envelope names another subcommand"
            return getattr(self, "_" + req.kind)(words, opts, envelope["payload"])
        except Exception as exc:  # any crash of a check is a failed request
            return f"check raised {exc!r}"[:300]

    def _series(self, words, opts, payload) -> str:
        terms = int(opts["--terms"])
        coeffs = [int(c) for c in payload["coefficients"]]
        if payload["order"] != terms or len(coeffs) != terms + 1:
            return "wrong series order"
        fid = FormulaId.parse(opts["--formula"])
        if str(fid) != payload["formula"]:
            return "envelope names another formula"
        golden = self.golden.get(str(fid))
        if golden is not None and coeffs[: len(golden)] != [int(c) for c in golden][: terms + 1]:
            return "prefix differs from golden series"
        f = formula(fid)
        for n in (terms, terms // 2 + 1):
            if n <= terms and coeffs[n] != coeff_of_z(f, n):
                return f"[z^{n}] differs from coeff_of_z"
        return ""

    def _height_sum(self, words, opts, payload) -> str:
        terms = int(opts["--terms"])
        coeffs = [int(c) for c in payload["coefficients"]]
        if payload["order"] != terms or len(coeffs) != terms + 1:
            return "wrong series order"
        family = "closed" if opts["--formula"].endswith("closed") else "open"
        for n in (terms, terms // 2 + 1):
            if n <= terms and coeffs[n] != height_total(n, family):
                return f"[z^{n}] differs from height_total"
        return ""

    def _stats(self, words, opts, payload) -> str:
        metric, n = words[1], int(opts["--n"])
        family = opts.get("--family", "closed")
        exact = Fraction(payload["exact"])
        ratio = payload["ratio"]
        if abs(float(exact) / payload["asymptotic"] - ratio) > 1e-9 * ratio:
            return "ratio disagrees with exact / asymptotic"
        if metric == "height":
            if n <= HEIGHT_DP_MAX:
                end = 0 if family == "closed" else None
                count = count_dp(PathFamilyQuery("deutsch", n, end_level=end))
                ok = exact == Fraction(total_height_dp(n, family), count)
            else:
                ok = HEIGHT_BAND[0] < ratio < HEIGHT_BAND[1]
        elif n <= AREA_DP_MAX:
            closed = PathFamilyQuery("deutsch", n, end_level=0)
            ok = exact == Fraction(total_area_dp(closed), count_dp(closed))
        else:
            ok = AREA_BAND[0] < ratio < AREA_BAND[1]
        return "" if ok else f"{metric} statistic fails its check at n={n}"

    def _count(self, words, opts, payload) -> str:
        family, n = opts["--family"], int(opts["--n"])
        if "--max-height" in opts:
            want = strip_count(family, n, int(opts["--max-height"]))
        else:
            want = coeff_open(n) if family == "motzkin" else coeff_closed(n)
        return "" if payload["count"] == str(want) else "count differs from reference"

    def _biject(self, words, opts, payload) -> str:
        path = opts["--path"]
        image = payload["output"]
        if payload["input"] != path or len(image.split()) != len(path.split()):
            return "bijection changed the length or echoed another input"
        back = to_motzkin(image) if "--inverse" in opts else from_motzkin(image)
        return "" if back.tokens() == path else "round trip does not return the input"

    def _enumerate(self, words, opts, payload) -> str:
        family, n = opts["--family"], int(opts["--n"])
        end = int(opts["--end-level"]) if "--end-level" in opts else None
        paths = payload["paths"]
        want = count_dp(PathFamilyQuery(family, n, end_level=end))
        if not (len(paths) == int(payload["count"]) == want) or len(set(paths)) != want:
            return "enumeration size differs from count_dp"
        for tokens in paths:
            p = validate_path(tokens, family)
            if len(p) != n or (end is not None and p.end_level != end):
                return f"enumerated path {tokens!r} does not match the query"
        return ""


def _check_verify(outcome) -> str:
    if outcome is True or (isinstance(outcome, VerificationReport) and outcome.ok):
        return ""
    return f"verification not ok: {outcome!r}"[:300]
