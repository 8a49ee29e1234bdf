"""Path families: validation, enumeration order, and the counting oracles."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deutschpaths.paths as paths_module
from deutschpaths.paths import (
    DEFAULT_CELL_BOUND,
    DEFAULT_DP_BOUND,
    DEFAULT_ENUM_BOUND,
    DEFAULT_LIST_BOUND,
    BadStep,
    BoundExceeded,
    DeutschPath,
    InfiniteFamily,
    MotzkinPath,
    NegativeLevel,
    NonzeroEnd,
    PathFamilyQuery,
    QueryError,
    ReversedDeutschPath,
    _height_cap,
    _prefix,
    _prefixes,
    _walk,
    count_dp,
    enumerate_paths,
    reverse_path,
    total_area_dp,
    total_height_dp,
    validate_path,
)

# frozen from independent sequence knowledge: closed counts continue the
# 1, 0, 1, 1, 3, 6, ... ballot-like pattern; Motzkin numbers are classical
CLOSED_COUNTS = [1, 0, 1, 1, 3, 6, 15, 36, 91, 232, 603]
MOTZKIN_COUNTS = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]


class TestValidation:
    def test_token_roundtrip(self):
        p = validate_path("U U D2 U D1", "deutsch")
        assert p.tokens() == "U U D2 U D1"
        assert p.steps == (1, 1, -2, 1, -1)
        assert p.levels == (0, 1, 2, 0, 1, 0)

    def test_accepts_increments_and_token_lists(self):
        assert validate_path([1, 1, -2], "deutsch") == validate_path("U U D2", "deutsch")
        assert validate_path(["U", "U", "D2"], "deutsch").tokens() == "U U D2"

    def test_reversed_tokens(self):
        p = validate_path("U3 D D D", "reversed")
        assert p.steps == (3, -1, -1, -1)
        assert p.end_level == 0

    def test_motzkin_tokens(self):
        p = validate_path("U F D", "motzkin")
        assert p.steps == (1, 0, -1)

    def test_negative_level_position(self):
        with pytest.raises(NegativeLevel) as exc:
            validate_path("U D3", "deutsch")
        assert exc.value.position == 2

    def test_bad_step_position(self):
        with pytest.raises(BadStep) as exc:
            validate_path("U X D1", "deutsch")
        assert exc.value.position == 2

    @pytest.mark.parametrize(
        "token, family",
        [("D", "deutsch"), ("F", "deutsch"), ("U", "reversed"), ("U1", "motzkin")],
    )
    def test_bad_token_message(self, token, family):
        with pytest.raises(BadStep) as exc:
            validate_path(token, family)
        assert str(exc.value) == f"bad step at position 1: token {token!r} not valid for {family} paths"

    def test_unknown_family_message(self):
        with pytest.raises(QueryError) as exc:
            validate_path("U", "nosuch")
        assert str(exc.value) == (
            "unknown family 'nosuch'; expected one of ('deutsch', 'reversed', 'motzkin')"
        )

    @pytest.mark.parametrize("family, max_height", [("reversed", 3), ("motzkin", None)])
    def test_enumerated_paths_roundtrip_through_tokens(self, family, max_height):
        for n in range(9):
            for p in enumerate_paths(PathFamilyQuery(family, n, max_height=max_height)):
                assert validate_path(p.tokens(), family) == p

    def test_bad_token_formats(self):
        for tokens, family in [
            ("D", "deutsch"),  # bare D needs a size
            ("U2", "deutsch"),  # sized up-step is the reversed family
            ("D0", "deutsch"),
            ("U0 D", "reversed"),
            ("D2", "reversed"),  # sized down-step is the deutsch family
            ("U2 D", "motzkin"),
            ("U D\u0661", "deutsch"),  # Arabic-Indic one: a digit, not an ASCII one
            ("U D\u00b2", "deutsch"),  # superscript two: isdigit, but int() refuses it
            ("U\uff12 D D", "reversed"),  # fullwidth two
        ]:
            with pytest.raises(BadStep):
                validate_path(tokens, family)

    def test_motzkin_must_close(self):
        with pytest.raises(NonzeroEnd) as exc:
            validate_path("U U D", "motzkin")
        assert exc.value.end_level == 1

    def test_direct_constructors_check_steps(self):
        with pytest.raises(BadStep):
            DeutschPath([2])
        with pytest.raises(BadStep):
            ReversedDeutschPath([-2])
        with pytest.raises(BadStep):
            MotzkinPath([2, -2])

    @pytest.mark.parametrize(
        "steps, position",
        [([1.9, -1.2], 1), ([Fraction(3, 2), -1], 1), (["1", "-1"], 1), ([1, -1.0], 2)],
    )
    def test_direct_constructors_refuse_non_integer_steps(self, steps, position):
        # these used to be truncated by int(), so [1.9, -1.2] became "U D1"
        for cls in (DeutschPath, ReversedDeutschPath, MotzkinPath):
            with pytest.raises(BadStep) as exc:
                cls(steps)
            assert exc.value.position == position
            assert "expected an integer, got" in str(exc.value)

    def test_integral_steps_are_stored_as_int(self):
        p = DeutschPath([True, -1])
        assert p.steps == (1, -1) and all(type(s) is int for s in p.steps)

    def test_height_and_area(self):
        p = validate_path("U U D2", "deutsch")
        assert p.height == 2
        assert p.area == 3
        assert p.end_level == 0
        empty = DeutschPath()
        assert empty.height == 0 and empty.area == 0 and len(empty) == 0


class TestQuery:
    def test_rejects_bad_parameters(self):
        with pytest.raises(QueryError):
            PathFamilyQuery("deutsch", -1)
        with pytest.raises(QueryError):
            PathFamilyQuery("deutsch", 3, end_level=-1)
        with pytest.raises(QueryError):
            PathFamilyQuery("deutsch", 3, end_level=4, max_height=2)
        with pytest.raises(QueryError):
            PathFamilyQuery("motzkin", 3, end_level=1)
        with pytest.raises(QueryError):
            PathFamilyQuery("nosuch", 3)

    def test_open_reversed_unbounded_is_infinite(self):
        with pytest.raises(InfiniteFamily):
            count_dp(PathFamilyQuery("reversed", 2))
        with pytest.raises(InfiniteFamily):
            enumerate_paths(PathFamilyQuery("reversed", 2))

    def test_bounds(self):
        with pytest.raises(BoundExceeded):
            enumerate_paths(PathFamilyQuery("deutsch", 15))
        with pytest.raises(BoundExceeded):
            count_dp(PathFamilyQuery("deutsch", 10_001))

    @pytest.mark.parametrize(
        "dp",
        [
            lambda n: count_dp(PathFamilyQuery("deutsch", n)),
            lambda n: total_area_dp(PathFamilyQuery("deutsch", n, end_level=0)),
            total_height_dp,
        ],
        ids=["count_dp", "total_area_dp", "total_height_dp"],
    )
    def test_dp_bound_refused_in_one_format(self, dp):
        with pytest.raises(BoundExceeded) as exc:
            dp(10_001)
        assert str(exc.value) == "n=10001 exceeds DP bound 10000"

    @pytest.mark.parametrize("family", ["closed", "open"])
    def test_height_sweep_is_charged_before_it_runs(self, family):
        # one strip per height: (n+1)*(n+1)*(n+2)/2 cells, past the bound from n = 199;
        # unchecked, the n = 200 sweep ran for about half a second
        with pytest.raises(BoundExceeded, match="height sweep at n=200 needs 4080501 DP cells") as exc:
            total_height_dp(200, family)
        assert exc.value.hint

    def test_hint_is_a_constructor_argument(self):
        # a refusal names its hint when it is raised; without one, the generic hint
        assert BoundExceeded("too big", "lower n").hint == "lower n"
        assert QueryError("bad").hint == "run with --help to see valid values"
        assert str(BoundExceeded("too big", "lower n")) == "too big"

    def test_list_bound_is_the_open_deutsch_count_at_the_enumeration_bound(self):
        assert DEFAULT_LIST_BOUND == count_dp(PathFamilyQuery("deutsch", DEFAULT_ENUM_BOUND))


class TestQueryRecord:
    """PathFamilyQuery is an immutable named tuple that no route builds unchecked."""

    BAD = [
        {"n": -1},
        {"end_level": -1},
        {"max_height": -1},
        {"end_level": 4, "max_height": 2},
        {"family": "motzkin", "end_level": 1},
        {"family": "nosuch"},
    ]

    @pytest.mark.parametrize("change", BAD, ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
    def test_invalid_values_refused_on_every_route(self, change):
        fields = dict(PathFamilyQuery("deutsch", 3)._asdict(), **change)
        with pytest.raises(QueryError):
            PathFamilyQuery(**fields)
        with pytest.raises(QueryError):
            PathFamilyQuery("deutsch", 3)._replace(**change)
        with pytest.raises(QueryError):
            PathFamilyQuery._make(fields.values())

    def test_valid_routes_agree(self):
        q = PathFamilyQuery("reversed", 5, end_level=1, max_height=3)
        assert q._replace(n=6) == PathFamilyQuery("reversed", 6, 1, 3)
        assert PathFamilyQuery._make(q) == q
        assert type(q._replace(n=6)) is type(PathFamilyQuery._make(q)) is PathFamilyQuery

    def test_fields_cannot_be_set(self):
        q = PathFamilyQuery("deutsch", 3)
        for name in ("family", "n", "end_level", "max_height", "other"):
            with pytest.raises(AttributeError):
                setattr(q, name, 1)
        assert q == PathFamilyQuery("deutsch", 3)

    def test_tuple_behaviour(self):
        q = PathFamilyQuery("deutsch", 3, end_level=0)
        assert q == ("deutsch", 3, 0, None)
        family, n, end, height = q
        assert (family, n, end, height) == ("deutsch", 3, 0, None)
        assert hash(q) == hash(("deutsch", 3, 0, None))
        assert repr(q) == "PathFamilyQuery(family='deutsch', n=3, end_level=0, max_height=None)"


class TestCellBound:
    """The level-vector DP refuses a strip of more than DEFAULT_CELL_BOUND cells."""

    def test_largest_accepted_strips(self):
        # (n+1)*(cap+1) at the bound, one strip per way the cap is set
        assert (1999 + 1) * (1999 + 1) == DEFAULT_CELL_BOUND
        assert _height_cap(PathFamilyQuery("deutsch", 1999, end_level=1)) == 1999
        assert _height_cap(PathFamilyQuery("reversed", 3, max_height=999_999)) == 999_999
        assert _height_cap(PathFamilyQuery("reversed", 1999, end_level=0)) == 1999

    @pytest.mark.parametrize(
        "query",
        [
            PathFamilyQuery("deutsch", 2000, end_level=1),
            PathFamilyQuery("deutsch", DEFAULT_DP_BOUND, max_height=DEFAULT_DP_BOUND),
            PathFamilyQuery("motzkin", DEFAULT_DP_BOUND),
            PathFamilyQuery("reversed", 3, max_height=1_000_000),
            PathFamilyQuery("reversed", 1999, end_level=1),
        ],
        ids=str,
    )
    def test_refused_before_the_sweep(self, query, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("the DP sweep started")

        monkeypatch.setattr(paths_module, "_dp_vector", no_sweep)
        for dp in (count_dp, total_area_dp, _prefix):
            with pytest.raises(BoundExceeded) as exc:
                dp(query)
            assert "DP cells, more than 4000000" in str(exc.value)
            assert exc.value.hint == (
                "lower --n or --max-height: (n+1)*(cap+1) must be at most 4000000"
            )


def per_length_walk(query):
    """The step tuples of one length, by a depth-first search of that length
    alone: the order oracle for the walker, which builds every length in one pass."""
    if query.n > DEFAULT_ENUM_BOUND:
        raise BoundExceeded(f"n={query.n} exceeds enumeration bound {DEFAULT_ENUM_BOUND}")
    cap = _height_cap(query)
    target = 0 if query.family == "motzkin" else query.end_level
    rules = paths_module._FAMILIES[query.family]
    up = cap if rules.up is None else rules.up
    down = cap if rules.down is None else rules.down
    flat = [0] if rules.flat else []
    out, steps = [], []

    def rec(level, left):
        if not left:
            if target is None or level == target:
                out.append(tuple(steps))
            return
        left -= 1
        lo, hi = (0, cap) if target is None else (target - left * up, target + left * down)
        for s in [*range(1, min(cap - level, up) + 1), *flat, *range(-1, -min(level, down) - 1, -1)]:
            if lo <= level + s <= hi:
                steps.append(s)
                rec(level + s, left)
                steps.pop()

    rec(0, query.n)
    return out


def _walk_queries(n_max):
    """Every family at lengths 0..n_max, with and without an end level and a height
    cap, wherever the set is finite."""
    for family in paths_module.FAMILIES:
        ends = (None,) if family == "motzkin" else (None, 0, 2)
        for n in range(n_max + 1):
            for end in ends:
                for h in (None, 3):
                    if family == "reversed" and end is None and h is None:
                        continue
                    yield PathFamilyQuery(family, n, end_level=end, max_height=h)


class TestCounts:
    def test_closed_deutsch_counts(self):
        got = [count_dp(PathFamilyQuery("deutsch", n, end_level=0)) for n in range(11)]
        assert got == CLOSED_COUNTS

    def test_motzkin_counts(self):
        got = [count_dp(PathFamilyQuery("motzkin", n)) for n in range(11)]
        assert got == MOTZKIN_COUNTS

    def test_open_deutsch_equals_motzkin_counts(self):
        got = [count_dp(PathFamilyQuery("deutsch", n)) for n in range(11)]
        assert got == MOTZKIN_COUNTS

    def test_closed_reversed_equals_closed_deutsch(self):
        got = [count_dp(PathFamilyQuery("reversed", n, end_level=0)) for n in range(11)]
        assert got == CLOSED_COUNTS

    @pytest.mark.parametrize("family", ["deutsch", "motzkin"])
    def test_enumeration_matches_dp(self, family):
        ends = [0, 1, 2, None] if family == "deutsch" else [None]
        for n in range(9):
            for end in ends:
                for h in (None, 0, 1, 2, 3):
                    if end is not None and h is not None and end > h:
                        continue
                    q = PathFamilyQuery(family, n, end_level=end, max_height=h)
                    assert len(enumerate_paths(q)) == count_dp(q), q

    def test_reversed_enumeration_matches_dp(self):
        for n in range(8):
            for end in (0, 1, 2, None):
                for h in (None, 1, 2, 3):
                    if end is None and h is None:
                        continue
                    if end is not None and h is not None and end > h:
                        continue
                    q = PathFamilyQuery("reversed", n, end_level=end, max_height=h)
                    assert len(enumerate_paths(q)) == count_dp(q), q

    def test_enumerated_paths_satisfy_query(self):
        q = PathFamilyQuery("deutsch", 7, end_level=1, max_height=3)
        paths = enumerate_paths(q)
        assert len(paths) == len(set(paths))
        for p in paths:
            assert len(p) == 7 and p.end_level == 1 and p.height <= 3

    def test_enumeration_order_is_documented_lexicographic(self):
        # deutsch step order U < D1 < D2 < ...
        got = [p.tokens() for p in enumerate_paths(PathFamilyQuery("deutsch", 3))]
        assert got == ["U U U", "U U D1", "U U D2", "U D1 U"]
        # motzkin step order U < F < D
        got = [p.tokens() for p in enumerate_paths(PathFamilyQuery("motzkin", 3))]
        assert got == ["U F D", "U D F", "F U D", "F F F"]
        # reversed step order U1 < U2 < ... < D
        got = [p.tokens() for p in enumerate_paths(PathFamilyQuery("reversed", 2, max_height=2))]
        assert got == ["U1 U1", "U1 D", "U2 D"]

    def test_walk_yields_the_enumerated_steps_in_order(self):
        # one pass builds every length; each equals a search of that length alone
        for q in _walk_queries(10):
            lengths = list(_walk(q))
            assert lengths == [per_length_walk(q._replace(n=k)) for k in range(q.n + 1)], q
            paths = enumerate_paths(q)
            assert [p.steps for p in paths] == lengths[-1], q
            assert all(type(p).family == q.family for p in paths)

    def test_walk_refuses_before_it_runs(self):
        with pytest.raises(BoundExceeded):
            _walk(PathFamilyQuery("deutsch", 15))
        with pytest.raises(BoundExceeded):
            enumerate_paths(PathFamilyQuery("reversed", 15, end_level=0))
        with pytest.raises(InfiniteFamily):
            _walk(PathFamilyQuery("reversed", 3))

    def test_dp_large_n_runs(self):
        c = count_dp(PathFamilyQuery("deutsch", 1000, end_level=0))
        assert c > 10**400  # ~3^1000/n^1.5 scale


class TestStatisticOracles:
    @pytest.mark.parametrize("end", [0, None])
    def test_total_area_matches_enumeration(self, end):
        for n in range(9):
            q = PathFamilyQuery("deutsch", n, end_level=end)
            assert total_area_dp(q) == sum(p.area for p in enumerate_paths(q))

    @pytest.mark.parametrize("family", ["closed", "open"])
    def test_total_height_matches_enumeration(self, family):
        end = 0 if family == "closed" else None
        for n in range(9):
            q = PathFamilyQuery("deutsch", n, end_level=end)
            assert total_height_dp(n, family) == sum(p.height for p in enumerate_paths(q))


def _queries(family, n):
    """Every end level and height bound the prefix tests sweep, at length n."""
    ends = [0, None] if family == "motzkin" else [0, 1, 2, None]
    for end in ends:
        for h in (None, 0, 1, 2, 3):
            if end is not None and h is not None and end > h:
                continue
            if family == "reversed" and end is None and h is None:
                continue  # infinite family
            yield PathFamilyQuery(family, n, end_level=end, max_height=h)


class TestPrefix:
    """One sweep gives the statistic at every length up to n."""

    @pytest.mark.parametrize("family", ["deutsch", "reversed", "motzkin"])
    def test_prefix_matches_per_n_counters(self, family):
        for q in _queries(family, 15):
            lengths = [PathFamilyQuery(family, n, q.end_level, q.max_height) for n in range(16)]
            assert _prefix(q) == [count_dp(r) for r in lengths], q
            assert _prefix(q, "area") == [total_area_dp(r) for r in lengths], q

    @pytest.mark.parametrize("family", ["closed", "open"])
    def test_height_prefix_matches_total_height_dp(self, family):
        q = PathFamilyQuery("deutsch", 15, end_level=0 if family == "closed" else None)
        assert _prefix(q, "height") == [total_height_dp(n, family) for n in range(16)]

    @pytest.mark.parametrize("family", ["deutsch", "reversed", "motzkin"])
    @pytest.mark.parametrize("statistic", ["count", "area", "height"])
    def test_prefix_matches_enumeration(self, family, statistic):
        weight = {"count": lambda p: 1, "area": lambda p: p.area, "height": lambda p: p.height}
        for q in _queries(family, 7):
            want = [
                sum(weight[statistic](p) for p in enumerate_paths(
                    PathFamilyQuery(family, n, q.end_level, q.max_height)))
                for n in range(8)
            ]
            assert _prefix(q, statistic) == want, q


class TestPrefixes:
    """Many prefixes from one sweep per strip equal each prefix on its own."""

    def test_shared_sweeps_match_one_request_at_a_time(self):
        requests = [
            (q._replace(n=n), statistic)
            for family in ("deutsch", "reversed", "motzkin")
            for q in _queries(family, 0)
            for n in (4, 9)
            for statistic in ("count", "area", "height")
        ]
        shared = _prefixes(requests + requests[:5])  # a repeated request is answered once
        assert set(shared) == set(requests)
        for request in requests:
            assert shared[request] == _prefix(*request), request


class TestReversal:
    def test_reverse_swaps_families_and_preserves_statistics(self):
        for n in range(8):
            for p in enumerate_paths(PathFamilyQuery("deutsch", n, end_level=0)):
                r = reverse_path(p)
                assert isinstance(r, ReversedDeutschPath)
                assert reverse_path(r) == p
                assert (r.height, r.area, len(r)) == (p.height, p.area, len(p))

    def test_reverse_keeps_motzkin_paths_motzkin(self):
        for n in range(9):
            for p in enumerate_paths(PathFamilyQuery("motzkin", n)):
                r = reverse_path(p)
                assert isinstance(r, MotzkinPath)
                assert reverse_path(r) == p
                assert (r.height, r.area, len(r)) == (p.height, p.area, len(p))

    def test_reverse_needs_closed_path(self):
        with pytest.raises(ValueError):
            reverse_path(validate_path("U U", "deutsch"))


@st.composite
def deutsch_steps(draw):
    n = draw(st.integers(0, 12))
    steps, level = [], 0
    for _ in range(n):
        if level == 0:
            steps.append(1)
            level = 1
        else:
            s = draw(st.one_of(st.just(1), st.integers(-level, -1)))
            steps.append(s)
            level += s
    return tuple(steps)


class TestProperties:
    @given(deutsch_steps())
    @settings(max_examples=200, deadline=None)
    def test_levels_are_prefix_sums_and_nonnegative(self, steps):
        p = DeutschPath(steps)
        assert p.levels[0] == 0
        for t, s in enumerate(steps, start=1):
            assert p.levels[t] == p.levels[t - 1] + s
            assert p.levels[t] >= 0
        assert p.height == max(p.levels)
        assert p.area == sum(p.levels)

    @given(deutsch_steps())
    @settings(max_examples=200, deadline=None)
    def test_tokens_roundtrip(self, steps):
        p = DeutschPath(steps)
        assert validate_path(p.tokens(), "deutsch") == p

    @given(st.integers(0, 60), st.integers(0, 5), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_dp_monotone_in_height_bound(self, n, end, h):
        if end > h:
            end = h
        lo = count_dp(PathFamilyQuery("deutsch", n, end_level=end, max_height=h))
        hi = count_dp(PathFamilyQuery("deutsch", n, end_level=end, max_height=h + 1))
        unbounded = count_dp(PathFamilyQuery("deutsch", n, end_level=end))
        assert 0 <= lo <= hi <= unbounded
