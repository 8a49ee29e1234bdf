"""Lattice-path families: Deutsch paths, reversed Deutsch paths, Motzkin paths.

A Deutsch path takes unit up-steps and down-steps of any positive size,
never dips below the x-axis, and may end at any level (open) or at level 0
(closed).  The reversed family is its time mirror: up-steps of any size,
unit down-steps.  Motzkin paths take steps +1, 0, -1 and end at level 0.

The three families differ only in their step sets, written once in the
table ``_FAMILIES``: the largest up-step and the largest down-step (``None``
for any size), whether flat steps are allowed, and whether a path must end
at level 0.  The path types, the token format, the enumerator, the
level-vector counters and reversal all read that table.

Paths are stored as tuples of integer step increments together with the
level profile they trace.  Tokens are whitespace separated: ``U`` and ``D``
carry a size suffix exactly when that direction is unbounded, and ``F`` is
the flat step:

    deutsch    U, D<k>        "U U D2"
    reversed   U<k>, D        "U2 D D"
    motzkin    U, F, D        "U F D"

Enumeration order is deterministic: paths are listed lexicographically,
up-steps before the flat step before down-steps, smaller sizes first:
U < D1 < D2 < ... (deutsch), U1 < U2 < ... < D (reversed), and U < F < D
(motzkin).

Besides the path types this module provides the brute-force enumerator and
the transfer-matrix (level-vector) counters that serve as the ground-truth
oracle for every generating-function formula in the rest of the package.
"""

from __future__ import annotations

import math
from itertools import accumulate, compress
from numbers import Integral
from operator import add
from typing import ClassVar, Iterable, Iterator, NamedTuple

#: Largest length accepted by exhaustive enumeration.
DEFAULT_ENUM_BOUND = 14

#: Most paths the command line lists: the open Deutsch paths of length 14.
DEFAULT_LIST_BOUND = 113_634

#: Largest length accepted by the dynamic-programming counters.
DEFAULT_DP_BOUND = 10_000

#: Most cells, (n+1)*(cap+1), of a level-vector strip.  The time per cell grows
#: with n: at n = 10 000 and cap 398 each family took 3.4-4.4 s on a 2-vCPU host.
DEFAULT_CELL_BOUND = 4_000_000


class _Family(NamedTuple):
    """A family's step set: largest up- and down-step (None: any size), flat steps, end at 0."""

    up: int | None
    down: int | None
    flat: bool = False
    closed: bool = False


_FAMILIES = {
    "deutsch": _Family(up=1, down=None),
    "reversed": _Family(up=None, down=1),
    "motzkin": _Family(1, 1, flat=True, closed=True),
}

FAMILIES = tuple(_FAMILIES)


class PathError(ValueError):
    """A step sequence is not a valid path of the requested family."""

    hint = "run with --help to see valid values"


class BadStep(PathError):
    """Malformed or inadmissible step token.  ``position`` is 1-based."""

    def __init__(self, position: int, detail: str = ""):
        self.position = position
        super().__init__(f"bad step at position {position}" + (f": {detail}" if detail else ""))


class NegativeLevel(PathError):
    """The level profile dips below 0.  ``position`` is the offending time."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"level becomes negative at time {position}")


class NonzeroEnd(PathError):
    """A Motzkin path must return to level 0."""

    def __init__(self, end_level: int):
        self.end_level = end_level
        super().__init__(f"motzkin path ends at level {end_level}, expected 0")


class QueryError(ValueError):
    """A path-family query cannot be answered as posed; ``hint`` says how to pose it."""

    def __init__(self, message: str, hint: str = PathError.hint):
        self.hint = hint
        super().__init__(message)


class InfiniteFamily(QueryError):
    """Open reversed paths without a height bound form an infinite set."""


class BoundExceeded(QueryError):
    """Requested length is beyond the configured safety bound."""


class LatticePath:
    """Immutable nonnegative lattice path; subclasses name the family.

    ``steps`` holds the integer increments, ``levels`` the running profile
    (``levels[0] == 0``, ``levels[t] = levels[t-1] + steps[t-1]``).  The
    family's entry in ``_FAMILIES`` decides which steps and end are allowed.
    """

    __slots__ = ("steps", "levels")

    family: ClassVar[str] = ""

    def __init__(self, steps: Iterable[int] = ()):
        up, down, flat, closed = _FAMILIES[self.family]
        top = math.inf if up is None else up
        bottom = -math.inf if down is None else -down
        ints = []
        levels = [0]
        level = 0
        for t, s in enumerate(steps, start=1):
            if type(s) is not int:
                if not isinstance(s, Integral):
                    raise BadStep(t, f"expected an integer, got {type(s).__name__}")
                s = int(s)
            if not bottom <= s <= top or not (s or flat):
                raise BadStep(t, f"increment {s} not allowed for {self.family} paths")
            level += s
            if level < 0:
                raise NegativeLevel(t)
            ints.append(s)
            levels.append(level)
        if closed and level != 0:
            raise NonzeroEnd(level)
        object.__setattr__(self, "steps", tuple(ints))
        object.__setattr__(self, "levels", tuple(levels))

    def __setattr__(self, name, value):
        raise AttributeError("paths are immutable")

    def __len__(self) -> int:
        return len(self.steps)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash((self.family, self.steps))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.tokens()!r})"

    @property
    def end_level(self) -> int:
        return self.levels[-1]

    @property
    def height(self) -> int:
        """Maximum level reached (0 for the empty path)."""
        return max(self.levels)

    @property
    def area(self) -> int:
        """Sum of all levels a_0 + ... + a_n."""
        return sum(self.levels)

    def tokens(self) -> str:
        up, down = _FAMILIES[self.family][:2]
        return " ".join([_format_step(s, up, down) for s in self.steps])


class DeutschPath(LatticePath):
    """Up-steps of +1, down-steps of any size -k (k >= 1)."""

    family = "deutsch"


class ReversedDeutschPath(LatticePath):
    """Up-steps of any size +k (k >= 1), down-steps of -1."""

    family = "reversed"


class MotzkinPath(LatticePath):
    """Steps +1, 0, -1; must end at level 0."""

    family = "motzkin"


_CLASSES = {cls.family: cls for cls in LatticePath.__subclasses__()}


def _family(name: str) -> _Family:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise QueryError(f"unknown family {name!r}; expected one of {FAMILIES}") from None


def _format_step(s: int, up: int | None, down: int | None) -> str:
    if s > 0:
        return "U" if up is not None else f"U{s}"
    if s < 0:
        return "D" if down is not None else f"D{-s}"
    return "F"


def _parse_step(family: str, token: str, position: int) -> int:
    rules = _FAMILIES[family]
    letter, size = token[:1], token[1:]
    if letter in ("U", "D"):
        sign, bound = (1, rules.up) if letter == "U" else (-1, rules.down)
        if bound is not None and not size:
            return sign
        if bound is None and size.isascii() and size.isdigit() and int(size) >= 1:
            return sign * int(size)
    elif token == "F" and rules.flat:
        return 0
    raise BadStep(position, f"token {token!r} not valid for {family} paths")


def validate_path(steps, family: str) -> LatticePath:
    """Validate a step sequence and return the typed path.

    ``steps`` may be a whitespace-separated token string, an iterable of
    token strings, or an iterable of integer increments.
    """
    _family(family)
    if isinstance(steps, str):
        steps = steps.split()
    increments = [
        _parse_step(family, item, pos) if isinstance(item, str) else item
        for pos, item in enumerate(steps, start=1)
    ]
    return _CLASSES[family](increments)


def reverse_path(path: LatticePath) -> LatticePath:
    """Time-reverse a closed path, into the family with up- and down-steps swapped.

    Reversal negates and reverses the step sequence; the level profile is
    read backwards, so length, height, and area are preserved.
    """
    if path.end_level != 0:
        raise ValueError("only closed paths reverse to a valid path")
    rules = _FAMILIES[path.family]
    mirror = rules._replace(up=rules.down, down=rules.up)
    target = next(name for name, other in _FAMILIES.items() if other == mirror)
    return _CLASSES[target](tuple(-s for s in reversed(path.steps)))


class _QueryFields(NamedTuple):
    family: str
    n: int
    end_level: int | None = None
    max_height: int | None = None


class PathFamilyQuery(_QueryFields):
    """A counting/enumeration request: family, length, end level, height cap.

    ``end_level=None`` means an open end for deutsch/reversed queries; for
    motzkin it means the family's mandatory end level 0.  An immutable
    named tuple, validated however it is built (``_replace`` and ``_make``
    go through the constructor).
    """

    __slots__ = ()

    def __new__(cls, family, n, end_level=None, max_height=None):
        rules = _family(family)
        if n < 0:
            raise QueryError("length must be nonnegative")
        if end_level is not None and end_level < 0:
            raise QueryError("end level must be nonnegative")
        if max_height is not None and max_height < 0:
            raise QueryError("max height must be nonnegative")
        if end_level is not None and max_height is not None and end_level > max_height:
            raise QueryError("end level exceeds max height")
        if rules.closed and end_level not in (None, 0):
            raise QueryError(f"{family} paths end at level 0")
        return super().__new__(cls, family, n, end_level, max_height)

    @classmethod
    def _make(cls, iterable) -> PathFamilyQuery:
        return cls(*iterable)


def _height_cap(query: PathFamilyQuery) -> int:
    """Smallest strip that loses no path matching the query."""
    # every strip is sized here, so the DP bounds, on n and on cells, are checked once, here
    if query.n > DEFAULT_DP_BOUND:
        raise BoundExceeded(f"n={query.n} exceeds DP bound {DEFAULT_DP_BOUND}")
    up, down = _FAMILIES[query.family][:2]
    caps = [] if query.max_height is None else [query.max_height]
    if up is not None:
        caps.append(query.n * up)
    elif query.end_level is not None:
        # up-steps of any size: only the descent to end_level caps the climb
        caps.append(query.end_level + query.n * down)
    if not caps:
        raise InfiniteFamily(
            f"open {query.family} paths without a height bound form an infinite set",
            "pass --end-level or --max-height to bound the height",
        )
    cap = min(caps)
    cells = (query.n + 1) * (cap + 1)
    if cells > DEFAULT_CELL_BOUND:
        raise BoundExceeded(
            f"n={query.n} with height cap {cap} needs {cells} DP cells, more than {DEFAULT_CELL_BOUND}",
            f"lower --n or --max-height: (n+1)*(cap+1) must be at most {DEFAULT_CELL_BOUND}",
        )
    return cap


def _target_levels(query: PathFamilyQuery) -> int | None:
    return 0 if _FAMILIES[query.family].closed else query.end_level


def enumerate_paths(query: PathFamilyQuery) -> list[LatticePath]:
    """All paths matching the query, in documented lexicographic order."""
    cls = _CLASSES[query.family]
    for steps in _walk(query):  # the last length is the query's
        pass
    return [cls(s) for s in steps]


def _walk(query: PathFamilyQuery) -> Iterator[list[tuple]]:
    """The step tuples of the paths matching the query at each length 0..query.n,
    in enumeration order: each length extends, by each of their steps in order,
    the prefixes of the length before that can still reach the target by query.n."""
    if query.n > DEFAULT_ENUM_BOUND:
        raise BoundExceeded(f"n={query.n} exceeds enumeration bound {DEFAULT_ENUM_BOUND}")
    cap = _height_cap(query)
    target = _target_levels(query)
    rules = _FAMILIES[query.family]
    # no step leaves the strip [0, cap], so cap bounds a step of any size
    up = cap if rules.up is None else rules.up
    down = cap if rules.down is None else rules.down
    flat = [0] if rules.flat else []
    choices = [  # by level: the steps that stay in the strip, in order
        [*range(1, min(cap - level, up) + 1), *flat, *range(-1, -min(level, down) - 1, -1)]
        for level in range(cap + 1)
    ]

    def layers():  # one length held at a time, as parallel lists: no (prefix, level) pairs
        prefixes, levels = [()], [0]
        for left in range(query.n - 1, -2, -1):  # the steps left after the next one
            yield prefixes if target is None else [*compress(prefixes, map(target.__eq__, levels))]
            if left < 0:
                return
            # the levels from which target is still reachable in the steps left
            lo, hi = (0, cap) if target is None else (target - left * up, target + left * down)
            ends = [[lv + s for s in row if lo <= lv + s <= hi] for lv, row in enumerate(choices)]
            moves = [[(end - lv,) for end in row] for lv, row in enumerate(ends)]
            prefixes = [p + s for p, lv in zip(prefixes, levels) for s in moves[lv]]
            levels = [end for lv in levels for end in ends[lv]]

    return layers()


def count_dp(query: PathFamilyQuery) -> int:
    """Number of paths matching the query, by level-vector iteration.

    Runs one pass per step over the strip [0, h]; suffix/prefix sums keep
    each pass linear in the strip width.
    """
    for counts in _dp_vector(_FAMILIES[query.family], _height_cap(query), query.n):
        pass
    return _read(counts, _target_levels(query))


def _dp_vector(rules: _Family, cap: int, n: int):
    """Yield the level vector of the strip [0, cap] after 0, 1, ..., n steps."""
    counts = [0] * (cap + 1)
    counts[0] = 1
    yield counts
    for _ in range(n):
        counts = _dp_step(rules, counts)
        yield counts


def _read(vector: list[int], target: int | None) -> int:
    if target is None:
        return sum(vector)
    return vector[target] if target < len(vector) else 0


def _dp_step(rules: _Family, counts: list[int]) -> list[int]:
    """The level vector one step on: new[l] sums counts over the levels a step reaches l from."""
    # rise[l]: up from l-1, or from any level below l
    rise = [0, *(counts[:-1] if rules.up is not None else accumulate(counts[:-1]))]
    # fall[cap-l]: down from l+1, or from any level above l
    fall = [0, *(counts[:0:-1] if rules.down is not None else accumulate(counts[:0:-1]))]
    new = map(add, rise, reversed(fall))
    return list(map(add, new, counts) if rules.flat else new)


def _prefix(query: PathFamilyQuery, statistic: str = "count") -> list[int]:
    """A statistic summed over the query's paths, at every length 0..query.n.

    ``statistic`` is "count", "area" or "height".  Count and area come from
    one level-vector sweep; height sums, over every h below the strip's cap,
    the paths of height > h: the strip count minus the count in [0, h].
    """
    return _prefixes([(query, statistic)])[query, statistic]


def _prefixes(requests) -> dict:
    """``_prefix`` of every (query, statistic) pair, keyed by the pair.

    Each statistic is a sum of multiples of strip reads, so each strip
    [0, cap] of a family is swept once, to the longest length asked of it,
    and read at every end level and statistic as it streams, straight into
    the sums: no sweep and no read is kept.
    """
    out, sinks, lengths = {}, {}, {}
    for query, statistic in requests:
        if (query, statistic) in out:
            continue
        total = out[query, statistic] = [0] * (query.n + 1)
        cap, target = _height_cap(query), _target_levels(query)
        if statistic == "height":  # per h < cap: the strip count less the count in [0, h]
            parts = [(cap, cap, "count"), *((-1, h, "count") for h in range(cap))]
        else:
            parts = [(1, cap, statistic)]
        for k, h, stat in parts:
            sinks.setdefault((query.family, h), {}).setdefault((target, stat), []).append((k, total))
            lengths[query.family, h] = max(lengths.get((query.family, h), 0), query.n)
    for (family, cap), reads in sinks.items():
        rules, areas = _FAMILIES[family], [0] * (cap + 1)
        with_areas = any(stat == "area" for _, stat in reads)
        for t, counts in enumerate(_dp_vector(rules, cap, lengths[family, cap])):
            if with_areas:  # appending a step that lands on level l adds l to every path's area
                areas = _dp_step(rules, areas) if t else areas
                areas = [a + level * c for level, (a, c) in enumerate(zip(areas, counts))]
            for (target, stat), sums in reads.items():
                value = _read(areas if stat == "area" else counts, target)
                for k, total in sums:
                    if t < len(total):
                        total[t] += k * value
    return out


def total_area_dp(query: PathFamilyQuery) -> int:
    """Sum of areas over all paths matching the query."""
    return _prefix(query, "area")[-1]


def total_height_dp(n: int, family: str = "closed") -> int:
    """Sum of heights over closed or open Deutsch paths of length n.

    Uses sum_{h>=1} #{paths with height >= h}, each term obtained as a
    difference of strip-bounded counts.  The sweep runs one strip per height
    below the cap as well as the full one, (n+1)*(cap+1)*(cap+2)/2 cells in
    all, and that total is held to DEFAULT_CELL_BOUND before any strip runs.
    """
    try:
        end = {"closed": 0, "open": None}[family]
    except KeyError:
        raise QueryError("family must be 'closed' or 'open'") from None
    query = PathFamilyQuery("deutsch", n, end_level=end)
    cap = _height_cap(query)
    cells = (n + 1) * (cap + 1) * (cap + 2) // 2
    if cells > DEFAULT_CELL_BOUND:
        raise BoundExceeded(
            f"height sweep at n={n} needs {cells} DP cells, more than {DEFAULT_CELL_BOUND}",
            f"lower n: (n+1)*(n+1)*(n+2)/2 must be at most {DEFAULT_CELL_BOUND}",
        )
    return _prefix(query, "height")[-1]
