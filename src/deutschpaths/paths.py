"""Lattice-path families: Deutsch paths, reversed Deutsch paths, Motzkin paths.

A Deutsch path takes unit up-steps and down-steps of any positive size,
never dips below the x-axis, and may end at any level (open) or at level 0
(closed).  The reversed family is its time mirror: up-steps of any size,
unit down-steps.  Motzkin paths take steps +1, 0, -1 and end at level 0.

Paths are stored as tuples of integer step increments together with the
level profile they trace.  Token text formats, whitespace separated:

    deutsch    U, D<k>        "U U D2"
    reversed   U<k>, D        "U2 D D"
    motzkin    U, F, D        "U F D"

Enumeration order is deterministic: paths are listed lexicographically
with the per-family step order U < D1 < D2 < ... (deutsch),
U1 < U2 < ... < D (reversed), and U < F < D (motzkin).

Besides the path types this module provides the brute-force enumerator and
the transfer-matrix (level-vector) counters that serve as the ground-truth
oracle for every generating-function formula in the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence

#: Largest length accepted by exhaustive enumeration unless overridden.
DEFAULT_ENUM_BOUND = 14

#: Largest length accepted by the dynamic-programming counters.
DEFAULT_DP_BOUND = 10_000

FAMILIES = ("deutsch", "reversed", "motzkin")


class PathError(ValueError):
    """A step sequence is not a valid path of the requested family."""


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
    """A path-family query cannot be answered as posed."""


class InfiniteFamily(QueryError):
    """Open reversed paths without a height bound form an infinite set."""


class BoundExceeded(QueryError):
    """Requested length is beyond the configured safety bound."""


class LatticePath:
    """Immutable nonnegative lattice path; subclasses fix the step set.

    ``steps`` holds the integer increments, ``levels`` the running profile
    (``levels[0] == 0``, ``levels[t] = levels[t-1] + steps[t-1]``).
    """

    __slots__ = ("steps", "levels")

    family: ClassVar[str] = ""

    def __init__(self, steps: Iterable[int] = ()):
        steps = tuple(int(s) for s in steps)
        levels = [0]
        level = 0
        for t, s in enumerate(steps, start=1):
            if not self._step_ok(s):
                raise BadStep(t, f"increment {s} not allowed for {self.family} paths")
            level += s
            if level < 0:
                raise NegativeLevel(t)
            levels.append(level)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "levels", tuple(levels))
        self._check_end()

    # subclasses override
    @staticmethod
    def _step_ok(s: int) -> bool:
        raise NotImplementedError

    def _check_end(self) -> None:
        pass

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
        return " ".join(_format_step(self.family, s) for s in self.steps)


class DeutschPath(LatticePath):
    """Up-steps of +1, down-steps of any size -k (k >= 1)."""

    family = "deutsch"

    @staticmethod
    def _step_ok(s: int) -> bool:
        return s == 1 or s <= -1


class ReversedDeutschPath(LatticePath):
    """Up-steps of any size +k (k >= 1), down-steps of -1."""

    family = "reversed"

    @staticmethod
    def _step_ok(s: int) -> bool:
        return s >= 1 or s == -1


class MotzkinPath(LatticePath):
    """Steps +1, 0, -1; must end at level 0."""

    family = "motzkin"

    @staticmethod
    def _step_ok(s: int) -> bool:
        return s in (-1, 0, 1)

    def _check_end(self) -> None:
        if self.levels[-1] != 0:
            raise NonzeroEnd(self.levels[-1])


_PATH_CLASSES = {
    "deutsch": DeutschPath,
    "reversed": ReversedDeutschPath,
    "motzkin": MotzkinPath,
}


def _format_step(family: str, s: int) -> str:
    if family == "deutsch":
        return "U" if s == 1 else f"D{-s}"
    if family == "reversed":
        return "D" if s == -1 else f"U{s}"
    return {1: "U", 0: "F", -1: "D"}[s]


def _parse_step(family: str, token: str, position: int) -> int:
    if family == "deutsch":
        if token == "U":
            return 1
        if token.startswith("D") and token[1:].isdigit() and int(token[1:]) >= 1:
            return -int(token[1:])
    elif family == "reversed":
        if token == "D":
            return -1
        if token.startswith("U") and token[1:].isdigit() and int(token[1:]) >= 1:
            return int(token[1:])
    else:
        if token in ("U", "F", "D"):
            return {"U": 1, "F": 0, "D": -1}[token]
    raise BadStep(position, f"token {token!r} not valid for {family} paths")


def validate_path(steps, family: str) -> LatticePath:
    """Validate a step sequence and return the typed path.

    ``steps`` may be a whitespace-separated token string, an iterable of
    token strings, or an iterable of integer increments.
    """
    cls = _path_class(family)
    if isinstance(steps, str):
        steps = steps.split()
    increments = []
    for pos, item in enumerate(list(steps), start=1):
        if isinstance(item, str):
            increments.append(_parse_step(family, item, pos))
        elif isinstance(item, int):
            increments.append(item)
        else:
            raise BadStep(pos, f"expected token or integer, got {type(item).__name__}")
    return cls(increments)


def _path_class(family: str):
    try:
        return _PATH_CLASSES[family]
    except KeyError:
        raise QueryError(f"unknown family {family!r}; expected one of {FAMILIES}") from None


def reverse_path(path: LatticePath) -> LatticePath:
    """Time-reverse a closed path, swapping the deutsch/reversed families.

    Reversal negates and reverses the step sequence; the level profile is
    read backwards, so length, height, and area are preserved.
    """
    if path.end_level != 0:
        raise ValueError("only closed paths reverse to a valid path")
    target = {"deutsch": "reversed", "reversed": "deutsch", "motzkin": "motzkin"}[path.family]
    return _PATH_CLASSES[target](tuple(-s for s in reversed(path.steps)))


@dataclass(frozen=True)
class PathFamilyQuery:
    """A counting/enumeration request: family, length, end level, height cap.

    ``end_level=None`` means an open end for deutsch/reversed queries; for
    motzkin it means the family's mandatory end level 0.
    """

    family: str
    n: int
    end_level: int | None = None
    max_height: int | None = None

    def __post_init__(self):
        _path_class(self.family)
        if self.n < 0:
            raise QueryError("length must be nonnegative")
        if self.end_level is not None and self.end_level < 0:
            raise QueryError("end level must be nonnegative")
        if self.max_height is not None and self.max_height < 0:
            raise QueryError("max height must be nonnegative")
        if (
            self.end_level is not None
            and self.max_height is not None
            and self.end_level > self.max_height
        ):
            raise QueryError("end level exceeds max height")
        if self.family == "motzkin" and self.end_level not in (None, 0):
            raise QueryError("motzkin paths end at level 0")


def _height_cap(query: PathFamilyQuery) -> int:
    """Smallest strip that loses no path matching the query."""
    caps = []
    if query.max_height is not None:
        caps.append(query.max_height)
    if query.family == "reversed":
        # a single up-step can be arbitrarily large: only the height bound
        # or the need to descend to end_level (one unit per step) caps it
        if query.end_level is not None:
            caps.append(query.end_level + query.n)
        if not caps:
            raise InfiniteFamily(
                "open reversed paths without a height bound form an infinite set"
            )
    else:
        caps.append(query.n)
    return min(caps)


def _target_levels(query: PathFamilyQuery) -> int | None:
    if query.family == "motzkin":
        return 0
    return query.end_level


def enumerate_paths(
    query: PathFamilyQuery, bound: int = DEFAULT_ENUM_BOUND
) -> list[LatticePath]:
    """All paths matching the query, in documented lexicographic order."""
    cls = _path_class(query.family)
    return [cls(steps) for steps in _walk(query, bound)]


def _walk(query: PathFamilyQuery, bound: int = DEFAULT_ENUM_BOUND) -> list[tuple[int, ...]]:
    """The step tuples of every path matching the query, in enumeration order."""
    if query.n > bound:
        raise BoundExceeded(f"n={query.n} exceeds enumeration bound {bound}")
    cap = _height_cap(query)
    target = _target_levels(query)
    n = query.n
    out: list[tuple[int, ...]] = []
    steps: list[int] = []

    def _reachable(level: int, remaining: int) -> bool:
        if target is None:
            return True
        if query.family == "deutsch":
            return target <= level + remaining
        if query.family == "reversed":
            return level <= target + remaining
        return abs(level - target) <= remaining

    def rec(level: int, t: int) -> None:
        if t == n:
            if target is None or level == target:
                out.append(tuple(steps))
            return
        remaining = n - t - 1
        for s in _step_choices(query.family, level, cap):
            if _reachable(level + s, remaining):
                steps.append(s)
                rec(level + s, t + 1)
                steps.pop()

    rec(0, 0)
    return out


def _step_choices(family: str, level: int, cap: int):
    if family == "deutsch":
        if level + 1 <= cap:
            yield 1
        for k in range(1, level + 1):
            yield -k
    elif family == "reversed":
        for k in range(1, cap - level + 1):
            yield k
        if level >= 1:
            yield -1
    else:
        if level + 1 <= cap:
            yield 1
        yield 0
        if level >= 1:
            yield -1


def count_dp(query: PathFamilyQuery, bound: int = DEFAULT_DP_BOUND) -> int:
    """Number of paths matching the query, by level-vector iteration.

    Runs one pass per step over the strip [0, h]; suffix/prefix sums keep
    each pass linear in the strip width.
    """
    if query.n > bound:
        raise BoundExceeded(f"n={query.n} exceeds DP bound {bound}")
    for counts in _dp_vector(query.family, _height_cap(query), query.n):
        pass
    return _read(counts, _target_levels(query))


def _dp_vector(family: str, cap: int, n: int):
    """Yield the level vector of the strip [0, cap] after 0, 1, ..., n steps."""
    counts = [0] * (cap + 1)
    counts[0] = 1
    yield counts
    for _ in range(n):
        counts = _dp_step(family, counts, cap)
        yield counts


def _read(vector: list[int], target: int | None) -> int:
    if target is None:
        return sum(vector)
    return vector[target] if target < len(vector) else 0


def _dp_step(family: str, counts: list[int], cap: int) -> list[int]:
    new = [0] * (cap + 1)
    if family == "deutsch":
        # up from l-1, or down from any j > l
        above = 0
        for level in range(cap, -1, -1):
            new[level] = above
            if level >= 1:
                new[level] += counts[level - 1]
            above += counts[level]
    elif family == "reversed":
        # up from any j < l, or down from l+1
        below = 0
        for level in range(cap + 1):
            new[level] = below
            if level + 1 <= cap:
                new[level] += counts[level + 1]
            below += counts[level]
    else:
        for level in range(cap + 1):
            total = counts[level]
            if level >= 1:
                total += counts[level - 1]
            if level + 1 <= cap:
                total += counts[level + 1]
            new[level] = total
    return new


def _prefix(query: PathFamilyQuery, statistic: str = "count") -> list[int]:
    """A statistic summed over the query's paths, at every length 0..query.n.

    ``statistic`` is "count", "area" or "height".  Count and area come from
    one level-vector sweep; height sums, over every h below the strip's cap,
    the paths of height > h: the strip count minus the count in [0, h].
    """
    family, cap, target = query.family, _height_cap(query), _target_levels(query)
    if statistic == "count":
        return [_read(v, target) for v in _dp_vector(family, cap, query.n)]
    if statistic == "area":
        # appending a step that lands on level l adds l to every path's area
        out, areas = [], [0] * (cap + 1)
        for t, counts in enumerate(_dp_vector(family, cap, query.n)):
            if t:
                areas = _dp_step(family, areas, cap)
            areas = [a + level * c for level, (a, c) in enumerate(zip(areas, counts))]
            out.append(_read(areas, target))
        return out
    within = _prefix(query)
    out = [0] * (query.n + 1)
    for h in range(cap):
        lower = [_read(v, target) for v in _dp_vector(family, h, query.n)]
        out = [t + a - b for t, a, b in zip(out, within, lower)]
    return out


def total_area_dp(query: PathFamilyQuery, bound: int = DEFAULT_DP_BOUND) -> int:
    """Sum of areas over all paths matching the query."""
    if query.n > bound:
        raise BoundExceeded(f"n={query.n} exceeds DP bound {bound}")
    return _prefix(query, "area")[-1]


def total_height_dp(n: int, family: str = "closed", bound: int = DEFAULT_DP_BOUND) -> int:
    """Sum of heights over closed or open Deutsch paths of length n.

    Uses sum_{h>=1} #{paths with height >= h}, each term obtained as a
    difference of strip-bounded counts.
    """
    if family not in ("closed", "open"):
        raise QueryError("family must be 'closed' or 'open'")
    if n > bound:
        raise BoundExceeded(f"n={n} exceeds DP bound {bound}")
    end = 0 if family == "closed" else None
    return _prefix(PathFamilyQuery("deutsch", n, end_level=end), "height")[-1]
