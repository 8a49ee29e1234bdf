"""Recursive correspondence between open paths and Motzkin paths."""

from __future__ import annotations

import random
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deutschpaths.bijection as bij
from deutschpaths.bijection import (
    NotAPath,
    certify,
    decompose,
    from_motzkin,
    returns_count,
    to_motzkin,
)
from deutschpaths.paths import (
    DeutschPath,
    MotzkinPath,
    PathFamilyQuery,
    enumerate_paths,
    validate_path,
)
from deutschpaths.reporting import MismatchFound, VerificationReport


def deutsch_paths(n):
    return enumerate_paths(PathFamilyQuery("deutsch", n))


def motzkin_paths(n):
    return enumerate_paths(PathFamilyQuery("motzkin", n))


class TestDecompose:
    def test_no_return(self):
        p = validate_path("U U U", "deutsch")
        d = decompose(p)
        assert d.kind == "no_return"
        assert d.tail.tokens() == "U U"
        assert d.inner is None and d.remainder is None

    def test_returns(self):
        p = validate_path("U U D2 U", "deutsch")
        d = decompose(p)
        assert d.kind == "returns"
        assert d.inner.tokens() == "U"
        assert d.down_size == 2
        assert d.remainder.tokens() == "U"

    def test_empty_path(self):
        d = decompose(validate_path("", "deutsch"))
        assert d.kind == "empty"

    def test_parts_reassemble_the_path(self):
        for n in range(11):
            for p in deutsch_paths(n):
                d = decompose(p)
                if d.kind == "empty":
                    parts = ()
                elif d.kind == "no_return":
                    parts = (1, *d.tail.steps)
                else:
                    assert d.kind == "returns"
                    assert d.down_size == 1 + d.inner.end_level, p.tokens()
                    parts = (1, *d.inner.steps, -d.down_size, *d.remainder.steps)
                assert parts == p.steps, p.tokens()


class TestForwardMap:
    def test_empty(self):
        assert to_motzkin(validate_path("", "deutsch")).steps == ()

    def test_length_preserved(self):
        for n in range(9):
            for p in deutsch_paths(n):
                assert len(to_motzkin(p).steps) == n

    def test_image_is_motzkin(self):
        for n in range(9):
            for p in deutsch_paths(n):
                m = to_motzkin(p)
                assert m.end_level == 0
                assert all(s in (-1, 0, 1) for s in m.steps)

    def test_injective_and_onto(self):
        for n in range(9):
            images = {to_motzkin(p).steps for p in deutsch_paths(n)}
            assert len(images) == len(deutsch_paths(n))
            assert images == {m.steps for m in motzkin_paths(n)}

    def test_worked_example(self):
        p = validate_path("U U D2 U U U D1", "deutsch")
        m = to_motzkin(p)
        assert m.end_level == 0
        assert len(m.steps) == 7

    def test_accepts_token_string(self):
        assert to_motzkin("U D1").steps == to_motzkin(
            validate_path("U D1", "deutsch")
        ).steps

    def test_rejects_wrong_family(self):
        with pytest.raises(NotAPath):
            to_motzkin("U F D")


class TestBackwardMap:
    def test_roundtrip_both_ways(self):
        for n in range(9):
            for p in deutsch_paths(n):
                assert from_motzkin(to_motzkin(p)).steps == p.steps
            for m in motzkin_paths(n):
                assert to_motzkin(from_motzkin(m)).steps == m.steps

    def test_rejects_nonmotzkin_input(self):
        with pytest.raises(NotAPath):
            from_motzkin("U D2")


class TestStatistics:
    def test_up_steps_map_to_returns(self):
        for n in range(9):
            for m in motzkin_paths(n):
                ups = sum(1 for s in m.steps if s == 1)
                assert ups == returns_count(from_motzkin(m))

    def test_returns_count_examples(self):
        assert returns_count(validate_path("U D1 U U D2", "deutsch")) == 2
        # one axis return, but two splits: U (U D1) D1
        assert returns_count(validate_path("U U D1 D1", "deutsch")) == 2
        assert returns_count(validate_path("U U U", "deutsch")) == 0
        assert returns_count(validate_path("", "deutsch")) == 0


def decompose_returns_count(w):
    """The reference route: decompose every node of the recursion tree."""
    total = 0
    work = [w]
    while work:
        d = decompose(work.pop())
        if d.kind == "no_return":
            work.append(d.tail)
        elif d.kind == "returns":
            total += 1
            work += [d.inner, d.remainder]
    return total


class TestReturnsCount:
    def test_matches_decompose_on_every_short_path(self):
        # the theorem, down-steps = returns-splits, against the decompose recursion
        for n in range(13):
            for w in deutsch_paths(n):
                assert returns_count(w) == decompose_returns_count(w), w

    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_decompose_on_long_random_paths(self, seed):
        w = DeutschPath(_random_deutsch_steps(3000, seed))
        assert returns_count(w) == decompose_returns_count(w)


class TestCertify:
    def test_battery(self):
        report = certify(8)
        assert report.ok
        assert report.data["counts"] == [1, 1, 2, 4, 9, 21, 51, 127, 323]

    def test_negative_size_refused(self):
        with pytest.raises(ValueError):
            certify(-1)

    def test_swapped_tuple_images_fail(self, monkeypatch):
        # the images of "U U U" and "U U D1" trade places: still injective
        # and onto, and neither path is the one that takes the typed round
        # trip, so only the tuple checks can see it
        import deutschpaths.bijection as bij

        kernel = bij._to_motzkin_steps
        swap = {(1, 1, 1): kernel((1, 1, -1)), (1, 1, -1): kernel((1, 1, 1))}
        monkeypatch.setattr(bij, "_to_motzkin_steps", lambda steps: swap.get(steps) or kernel(steps))
        with pytest.raises(MismatchFound) as exc:
            certify(4)
        failed = {(c.name, c.dimension) for c in exc.value.report.failures}
        assert ("from_motzkin(to_motzkin(w)) = w", "n=3") in failed
        assert {dim for _, dim in failed} == {"n=3"}
        assert ("injective", "n=3") not in failed

    def test_broken_public_map_fails_the_typed_round_trip(self, monkeypatch):
        import deutschpaths.bijection as bij

        monkeypatch.setattr(bij, "to_motzkin", lambda w: MotzkinPath([0] * len(w)))
        with pytest.raises(MismatchFound) as exc:
            certify(4)
        failed = {c.name for c in exc.value.report.failures}
        assert failed == {"from_motzkin(to_motzkin(w)) = w"}

    def test_wrong_preimage_fails_both_round_trips(self, monkeypatch):
        # one Motzkin path of length 5 is sent to another one's preimage: the
        # forward map is untouched, so only the round trips can see it
        kernel = bij._from_motzkin_steps
        wrong = {(1, 0, 0, 0, -1): kernel((0, 0, 0, 0, 0))}
        monkeypatch.setattr(bij, "_from_motzkin_steps", lambda s: wrong.get(s) or kernel(s))
        with pytest.raises(MismatchFound) as exc:
            certify(7)
        failed = {(c.name, c.dimension) for c in exc.value.report.failures}
        assert failed == {
            ("from_motzkin(to_motzkin(w)) = w", "n=5"),
            ("to_motzkin(from_motzkin(m)) = m", "n=5"),
        }

    @pytest.mark.parametrize("n_max", range(10))
    def test_report_matches_the_per_length_oracle(self, n_max):
        assert certify(n_max).to_dict() == per_length_certify(n_max).to_dict()


def per_length_certify(n_max):
    """certify's report with every length walked on its own and every round
    trip mapped again: the oracle."""
    report = VerificationReport("Deutsch-Motzkin bijection certification")
    counts, joint = [], Counter()
    for n in range(n_max + 1):
        dim = f"n={n}"
        domain = [p.steps for p in deutsch_paths(n)]
        codomain = [p.steps for p in motzkin_paths(n)]
        images = [bij._to_motzkin_steps(w) for w in domain]
        report.add("length preserved", dim, all(len(i) == len(w) for i, w in zip(images, domain)))
        report.add("injective", dim, len(set(images)) == len(images))
        report.add("image is every Motzkin path", dim, set(images) == set(codomain))
        typed = DeutschPath(domain[-1])
        back_ok = from_motzkin(to_motzkin(typed)) == typed and all(
            bij._from_motzkin_steps(img) == w for img, w in zip(images, domain)
        )
        report.add("from_motzkin(to_motzkin(w)) = w", dim, back_ok)
        fwd_ok = all(bij._to_motzkin_steps(bij._from_motzkin_steps(m)) == m for m in codomain)
        report.add("to_motzkin(from_motzkin(m)) = m", dim, fwd_ok)
        counts_ok = len(domain) == len(codomain)
        report.add(
            "|open Deutsch| = |Motzkin|", dim, counts_ok,
            "" if counts_ok else f"{len(domain)} vs {len(codomain)}",
        )
        levels = [tuple(accumulate(w, initial=0)) for w in domain]
        ups_ok = all(img.count(1) == decompose_returns_count(w) for img, w in zip(images, domain))
        report.add("image up-steps = returns in recursion tree", dim, ups_ok)
        counts.append(len(domain))
        joint.update((lv[-1], img.count(0)) for lv, img in zip(levels, images))
    report.data["counts"] = counts
    report.data["end_level_vs_flats"] = {f"{e},{f}": c for (e, f), c in sorted(joint.items())}
    return report


def _random_deutsch_steps(n, seed):
    rng = random.Random(seed)
    steps, level = [], 0
    for _ in range(n):
        k = rng.randint(0, min(level, 3))
        steps.append(1 if k == 0 else -k)
        level += steps[-1]
    return steps


class TestLongPaths:
    """The scans have no recursion depth: paths far past the recursion limit."""

    N = 10_000

    def test_deutsch_round_trip(self):
        w = DeutschPath(_random_deutsch_steps(self.N, 7))
        image = to_motzkin(w)
        assert len(image) == self.N
        assert from_motzkin(image) == w

    def test_all_ups_map_to_flats(self):
        image = to_motzkin(DeutschPath([1] * self.N))
        assert image == MotzkinPath([0] * self.N)
        assert from_motzkin(image) == DeutschPath([1] * self.N)

    def test_motzkin_round_trip(self):
        m = to_motzkin(DeutschPath(_random_deutsch_steps(self.N, 11)))
        assert to_motzkin(from_motzkin(m)) == m

    def test_returns_count_matches_image_up_steps(self):
        w = DeutschPath(_random_deutsch_steps(1200, 5))
        assert returns_count(w) == sum(1 for s in to_motzkin(w).steps if s == 1)
        assert returns_count(DeutschPath([1] * 1200)) == 0


@st.composite
def deutsch_steps(draw):
    steps, level = [], 0
    for _ in range(draw(st.integers(0, 24))):
        if level == 0:
            steps.append(1)
            level += 1
        else:
            k = draw(st.integers(0, level))
            if k == 0:
                steps.append(1)
                level += 1
            else:
                steps.append(-k)
                level -= k
    return tuple(steps)


class TestProperties:
    @given(deutsch_steps())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, steps):
        p = DeutschPath(steps)
        m = to_motzkin(p)
        assert len(m.steps) == len(steps)
        assert from_motzkin(m).steps == steps

    @given(deutsch_steps())
    @settings(max_examples=200, deadline=None)
    def test_flat_count_matches_forward_structure(self, steps):
        p = DeutschPath(steps)
        m = to_motzkin(p)
        ups = sum(1 for s in m.steps if s == 1)
        assert ups == returns_count(p)
