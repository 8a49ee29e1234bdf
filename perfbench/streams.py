"""Seeded request streams for the deutschpaths benchmark.

A stream is a list of requests.  A query request carries the argv that
``deutschpaths.cli.main`` (or ``python -m deutschpaths.cli``) receives; a
verify request names one public verification call.  The program sees only
these generated inputs, never the seed.

Query streams use a blocked, stratified design so that the work in a run
varies little from seed to seed while every input still changes with it:

* each kind of request gets a fixed number of cells, and cell ``j`` of a
  kind draws its size from near the middle of the ``j``-th of equal strata
  of the log-uniform size range, so the large, costly sizes occur equally
  often on every seed; the top ``stats height`` cell draws from
  STATS_HEIGHT_TOP instead, a known-failing size;
* the traits that change the cost of a cell (the formula of a series
  cell with its height bound and end level, count mode, family and height
  bound, biject direction and shape, enumerate family and n) are fixed by
  ``j``; the seed picks the size inside its band and the path contents;
* block ``j % blocks`` holds cell ``j``, so every block of about 20 requests
  has one cell from each size level of each kind and caches grow at the
  same pace on every seed;
* about a quarter of the requests repeat an earlier request exactly; the
  repeated cells are a fixed share of every kind and size level.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Base cells per block, by kind; about a third as many repeats are added.
BLOCK_KINDS = (
    ("series", 4),
    ("height_sum", 1),
    ("stats_height", 2),
    ("stats_area", 1),
    ("count", 3),
    ("biject", 3),
    ("enumerate", 1),
)
#: Blocks in every query list: about 103 requests, so that the 90th
#: percentile of one pass has ten samples beyond it.
BLOCKS = 5

#: Size ranges (inclusive) per kind.  The cli workloads use the shell scale:
#: at session scale the disk cache file passes 50 MB within 30 commands and
#: every cached command then takes seconds.
SESSION_SCALE = {
    "series": (50, 600),
    "height_sum": (20, 120),
    "stats_height": (10, 10_000),
    "stats_area": (10, 3000),
    "count": (20, 1500),
    "biject": (1, 3000),
}
SHELL_SCALE = {
    "series": (20, 300),
    "height_sum": (10, 60),
    "stats_height": (10, 1000),
    "stats_area": (10, 500),
    "count": (20, 500),
    "biject": (1, 3000),
}

#: Long non-returning biject inputs: these exceed the recursion limit of the
#: recursive bijection and are kept as known failures.
SHAPED_LENGTH = (2000, 2200)
#: The top ``stats height`` cell of every list, at both scales, draws n from
#: here, the top of the session range: above n of about 9020 the exact value
#: has more than 4300 digits, printing it fails, and the failure is kept.
STATS_HEIGHT_TOP = (9200, 10_000)
MAX_COUNT_HEIGHT = 30
#: Share of its stratum a size may move by.  Costs grow like the square of
#: the size or faster, so with full-width strata the few largest requests
#: would make a run's cost depend on the seed.
JITTER = 0.2
MAX_ENUMERATE_N = 10

#: Catalog series formulas.  Expansion cost grows with the height bound h
#: and the end level and differs by up to twice between families, so cell j
#: fixes the whole formula: heavy, medium and light cells in turn (h <= 12),
#: light cells from the limit forms and h <= 2.
PARAM_FAMILIES = ("phi", "psi", "open_sum", "reversed_sum", "phi0_bounded", "psi0", "closed_height_ge")
LIMIT_FORMULAS = ("motzkin_M", "phi0_limit", "open_sum_limit", "area_A", "reversed_limit_formal")
SERIES_H = ((9, 10, 11, 12), (3, 4, 5, 6), ())

COUNT_FAMILIES = ("deutsch", "reversed", "motzkin")

#: The verification batteries, a step or two below the acceptance-gate sizes
#: (determinant and LU 12, Cramer 8, oracle 10/60/6, catalog sums 20): at
#: those sizes one pass takes about 21 s, so a run could not time each
#: battery more than once.  Each size keeps the battery's shape and its
#: symbolic RatFn work; one pass takes about 7 s.
VERIFY_CALLS = (
    ("verify_determinant", (10,)),
    ("verify_det_recursion", (12,)),
    ("verify_cramer", (6,)),
    ("verify_lu", (10,)),
    ("oracle_check", (8, 40, 4)),
    ("certify", (10,)),
    ("run_selftest", ()),
    ("phi_sums", (14,)),
    ("psi_sums", (16,)),
)


@dataclass(frozen=True)
class Request:
    """One request: ``kind`` says how to check it, ``argv`` or ``call`` how to run it."""

    kind: str
    argv: tuple[str, ...] = ()
    call: str = ""
    args: tuple[int, ...] = ()


def _stratum(rng: random.Random, j: int, k: int, lo: int, hi: int) -> int:
    """A size near the middle of the j-th of k equal strata of log [lo, hi]."""
    a, b = math.log(lo), math.log(hi + 1)
    u = 0.5 + JITTER * (rng.random() - 0.5)
    return min(hi, int(math.exp(a + (j + u) / k * (b - a))))


def _series_formula(j: int) -> str:
    heights = SERIES_H[j % len(SERIES_H)]
    if not heights:
        names = LIMIT_FORMULAS + PARAM_FAMILIES
        name = names[(j // len(SERIES_H)) % len(names)]
        if name in LIMIT_FORMULAS:
            return name
        h = 1 + j % 2
    else:
        name = PARAM_FAMILIES[j % len(PARAM_FAMILIES)]
        h = heights[(j // len(SERIES_H)) % len(heights)]
    if name == "phi":
        return f"phi({h},{j % (h + 1)})"
    if name == "psi":
        return f"psi({h},{1 + j % h})"
    return f"{name}({h})"


def deutsch_tokens(steps) -> str:
    return " ".join("U" if s == 1 else f"D{-s}" for s in steps)


def motzkin_tokens(steps) -> str:
    return " ".join({1: "U", 0: "F", -1: "D"}[s] for s in steps)


def random_deutsch(rng: random.Random, length: int) -> list[int]:
    """Open Deutsch path as a reflecting walk: up or a mostly short down-step."""
    level, steps = 0, []
    for _ in range(length):
        if level == 0 or rng.random() < 0.5:
            steps.append(1)
            level += 1
        else:
            k = 1
            while k < level and rng.random() < 0.3:
                k += 1
            steps.append(-k)
            level -= k
    return steps


def random_motzkin(rng: random.Random, length: int) -> list[int]:
    """Motzkin path as a walk on U/F/D that stays >= 0 and can still return."""
    level, steps = 0, []
    for t in range(length):
        remaining = length - t - 1
        options = [0]
        if level + 1 <= remaining:
            options.append(1)
        if level >= 1:
            options.append(-1)
        if level > remaining:
            options = [-1]
        s = rng.choice(options)
        steps.append(s)
        level += s
    return steps


def shaped_deutsch(rng: random.Random, length: int) -> list[int]:
    """A long climb with unit dips that never returns to level 0."""
    level, steps = 0, []
    for _ in range(length):
        s = 1 if level <= 1 or rng.random() < 0.9 else -1
        steps.append(s)
        level += s
    return steps


def shaped_motzkin(rng: random.Random, length: int) -> list[int]:
    """U, a long stretch above level 0 mostly made of flat steps, then D."""
    inner = [0] * (length - 2)
    for t in range(0, len(inner) - 1, 7):
        if rng.random() < 0.5:
            inner[t], inner[t + 1] = 1, -1
    return [1] + inner + [-1]


def _query_cells(rng: random.Random, blocks: int, scale: dict) -> list[list[tuple[Request, bool]]]:
    """Base requests grouped by block, each paired with whether it is repeated."""
    grouped: list[list[tuple[Request, bool]]] = [[] for _ in range(blocks)]
    for kind, per_block in BLOCK_KINDS:
        k = per_block * blocks
        for j in range(k):
            req = _make(rng, kind, j, k, scale)
            repeated = (j // 3) % 3 == 0 if kind == "series" else j % 3 == 0
            grouped[j % blocks].append((req, repeated))
    return grouped


def _make(rng: random.Random, kind: str, j: int, k: int, scale: dict) -> Request:
    if kind == "series":
        terms = _stratum(rng, j, k, *scale["series"])
        return Request(kind, ("series", "--formula", _series_formula(j), "--terms", str(terms), "--json"))
    if kind == "height_sum":
        terms = _stratum(rng, j, k, *scale["height_sum"])
        name = ("height_sum_closed", "height_sum_open")[j % 2]
        return Request(kind, ("series", "--formula", name, "--terms", str(terms), "--json"))
    if kind == "stats_height":
        n = rng.randint(*STATS_HEIGHT_TOP) if j == k - 1 else _stratum(rng, j, k, *scale["stats_height"])
        family = ("closed", "open")[j % 2]
        return Request("stats", ("stats", "height", "--n", str(n), "--family", family, "--json"))
    if kind == "stats_area":
        n = _stratum(rng, j, k, *scale["stats_area"])
        return Request("stats", ("stats", "area", "--n", str(n), "--json"))
    if kind == "count":
        n = _stratum(rng, j, k, *scale["count"])
        family = COUNT_FAMILIES[(j // 2) % 3]
        if j % 2:
            bound = ("--max-height", str(1 + 7 * j % MAX_COUNT_HEIGHT))
        else:
            bound = ("--end-level", "0")
        return Request(kind, ("count", "--family", family, "--n", str(n), *bound, "--json"))
    if kind == "biject":
        if j % 6 == 5:  # one in six is a long non-returning run, directions alternating
            inverse = (j // 6) % 2 == 1
            length = rng.randint(*SHAPED_LENGTH)
            steps = shaped_motzkin(rng, length) if inverse else shaped_deutsch(rng, length)
        else:
            inverse = j % 2 == 1
            length = _stratum(rng, j, k, *scale["biject"])
            steps = random_motzkin(rng, length) if inverse else random_deutsch(rng, length)
        text = motzkin_tokens(steps) if inverse else deutsch_tokens(steps)
        return Request(kind, ("biject", "--path", text, *(("--inverse",) if inverse else ()), "--json"))
    if kind == "enumerate":
        n = MAX_ENUMERATE_N * (j + 1) // k
        family = COUNT_FAMILIES[j % 3]
        bound = ("--end-level", "0") if family == "reversed" else ()
        return Request(kind, ("enumerate", "--family", family, "--n", str(n), *bound, "--json"))
    raise ValueError(f"unknown request kind {kind!r}")


def query_stream(seed, blocks: int, scale: dict) -> list[Request]:
    """The session/cli request list: ``blocks`` blocks of about 20 requests."""
    cells = _query_cells(random.Random(seed), blocks, scale)
    stream: list[Request] = []
    for b, base in enumerate(cells):
        # The order within a block is fixed by the block's index, not by the
        # seed: which request first extends the shared v(z) prefix and rows,
        # and so pays for it, would otherwise move the median by a sixth.
        order = random.Random(b)
        order.shuffle(base)
        block = [req for req, _ in base]
        for req in [req for req, repeated in base if repeated]:
            # an exact repeat goes after its original, within the same block
            block.insert(order.randint(block.index(req) + 1, len(block)), req)
        stream.extend(block)
    return stream


def verify_stream(seed) -> list[Request]:
    """The verification batteries and catalog-sum identities, seed-shuffled."""
    reqs = [Request("verify", call=name, args=args) for name, args in VERIFY_CALLS]
    random.Random(seed).shuffle(reqs)
    return reqs
