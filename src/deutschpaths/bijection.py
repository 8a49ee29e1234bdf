"""Length-preserving bijection between open Deutsch paths and Motzkin paths.

Both families of length n have the same cardinality (the Motzkin number),
and the witness is a first-return recursion.  An open Deutsch path w is
either empty, never returns to the x-axis after its forced initial
up-step (w = U w~ with w~ re-based to level 0), or returns for the first
time via some down-step D_d (w = U w~ D_d x, where w~ re-based ends at
level d-1).  The image is

    empty     -> empty
    U w~      -> F  map(w~)
    U w~ D x  -> U  map(w~)  D  map(x)

and the inverse recomputes the down-step size as d = 1 + end level of the
recovered inner path, which is the only place level arithmetic enters.  The
image has one up-step per down-step: each down-step is the first return of
exactly one split, since by induction U w~ D_d x has 1 + downs(w~) + downs(x)
= downs(w) splits, U w~ has downs(w~) and the empty path none.

Both directions unroll the recursion into one left-to-right scan.  An
up-step from level b is matched by the first later down-step that lands on
b, and then maps to U and that down-step to D; an up-step no down-step
lands back on maps to F.  The inverse keeps the base level of every open
Motzkin U and turns each D into a down-step to that base.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .paths import DeutschPath, MotzkinPath, PathError, PathFamilyQuery, _walk, validate_path
from .reporting import VerificationReport


class NotAPath(PathError):
    """Input is not a valid path of the required family."""


def _ensure(path, cls, family: str):
    if isinstance(path, cls):
        return path
    if isinstance(path, (str, list, tuple)):
        try:
            return validate_path(path, family)
        except PathError as exc:
            raise NotAPath(f"not a valid {family} path: {exc}") from exc
    raise NotAPath(f"expected a {family} path, got {type(path).__name__}")


class FirstReturnDecomposition(NamedTuple):
    """One recursion step: w = empty, U*tail, or U*inner*D(d)*remainder."""

    kind: str  # empty | no_return | returns
    tail: DeutschPath | None = None
    inner: DeutschPath | None = None
    down_size: int | None = None
    remainder: DeutschPath | None = None


def decompose(w) -> FirstReturnDecomposition:
    """Split an open Deutsch path at its first return to level 0."""
    w = _ensure(w, DeutschPath, "deutsch")
    if len(w) == 0:
        return FirstReturnDecomposition("empty")
    first_return = next((t for t in range(1, len(w) + 1) if w.levels[t] == 0), None)
    if first_return is None:
        return FirstReturnDecomposition("no_return", tail=DeutschPath(w.steps[1:]))
    return FirstReturnDecomposition(
        "returns",
        inner=DeutschPath(w.steps[1 : first_return - 1]),
        down_size=-w.steps[first_return - 1],
        remainder=DeutschPath(w.steps[first_return:]),
    )


def to_motzkin(w) -> MotzkinPath:
    """Map an open Deutsch path to the Motzkin path of the same length."""
    w = _ensure(w, DeutschPath, "deutsch")
    return MotzkinPath(_to_motzkin_steps(w.steps))


def _to_motzkin_steps(steps: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(steps)
    pending: list[int] = []  # pending[b]: index of the open up-step from level b
    for t, s in enumerate(steps):
        if s == 1:
            pending.append(t)
        else:
            base = len(pending) + s
            out[pending[base]] = 1
            out[t] = -1
            del pending[base:]
    return tuple(out)


def from_motzkin(m) -> DeutschPath:
    """Inverse map; recomputes each down-step size from the inner end level."""
    m = _ensure(m, MotzkinPath, "motzkin")
    return DeutschPath(_from_motzkin_steps(m.steps))


def _from_motzkin_steps(steps: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    level = 0
    bases: list[int] = []  # the level each open Motzkin up-step started from
    for s in steps:
        if s == -1:
            base = bases.pop()
            out.append(base - level)
            level = base
        else:
            if s == 1:
                bases.append(level)
            out.append(1)
            level += 1
    return tuple(out)


def returns_count(w) -> int:
    """Number of returns-splits in w's recursion tree, which is its down-steps.

    By induction on ``decompose``: the empty path has none, U w~ has downs(w~),
    and U w~ D_d x has 1 + downs(w~) + downs(x) = downs(w).
    """
    w = _ensure(w, DeutschPath, "deutsch")
    return len(w) - w.steps.count(1)


def certify(n_max: int = 10) -> VerificationReport:
    """Exhaustively certify bijectivity and round trips for all n <= n_max.

    Each family is walked once, and each path mapped once, as a step tuple;
    both round trips read those maps through tables keyed by path.  One
    path per n also takes the typed round trip through the public
    ``to_motzkin`` and ``from_motzkin``.  Also records, asserting nothing, w's end
    level against the image's flat count n - 2 downs(w), itself a Deutsch statistic;
    the end level's candidate partner, open in ROADMAP.md, is the image's level-0 flats.
    """
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    report = VerificationReport("Deutsch-Motzkin bijection certification")
    counts = []
    joint: Counter[tuple[int, int]] = Counter()
    walks = zip(_walk(PathFamilyQuery("deutsch", n_max)), _walk(PathFamilyQuery("motzkin", n_max)))
    for n, (domain, codomain) in enumerate(walks):
        dim = f"n={n}"
        images = [_to_motzkin_steps(w) for w in domain]
        report.add("length preserved", dim, all(len(i) == len(w) for i, w in zip(images, domain)))
        source = dict(zip(images, domain))  # each image's Deutsch path; its keys are the image set
        injective = len(source) == len(images)
        report.add("injective", dim, injective)
        report.add("image is every Motzkin path", dim, source.keys() == set(codomain))
        image_of = dict(zip(domain, images))
        typed = DeutschPath(domain[-1])
        # each Motzkin path m is mapped back once, to p; to(from(m)) = m looks p up among the
        # Deutsch paths, and from(to(w)) = w, for an injective map, looks m up among the images
        back_ok, fwd_ok = from_motzkin(to_motzkin(typed)) == typed and injective, True
        for m in codomain:
            p = _from_motzkin_steps(m)
            back_ok = back_ok and source.get(m, p) == p
            fwd_ok = fwd_ok and image_of.get(p) == m
        report.add("from_motzkin(to_motzkin(w)) = w", dim, back_ok)
        report.add("to_motzkin(from_motzkin(m)) = m", dim, fwd_ok)
        counts_ok = len(domain) == len(codomain)
        report.add(
            "|open Deutsch| = |Motzkin|", dim, counts_ok,
            "" if counts_ok else f"{len(domain)} vs {len(codomain)}",
        )
        ups_ok = all(img.count(1) == len(w) - w.count(1) for img, w in zip(images, domain))
        report.add("image up-steps = returns in recursion tree", dim, ups_ok)
        counts.append(len(domain))
        joint.update((sum(w), img.count(0)) for w, img in zip(domain, images))
    report.data["counts"] = counts
    report.data["end_level_vs_flats"] = {f"{e},{f}": c for (e, f), c in sorted(joint.items())}
    return report.raise_if_failed()
