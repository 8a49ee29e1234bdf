"""
The bijection with Motzkin paths, step by step
==============================================

Open Deutsch paths of length n are equinumerous with Motzkin paths of the
same length.  The map works by first-return decomposition: a path that never
returns to the axis loses its first up-step to a flat step, and a path that
returns at time t maps its interior recursively between up/down brackets.
"""

from deutschpaths import (
    PathFamilyQuery,
    decompose,
    enumerate_paths,
    from_motzkin,
    returns_count,
    to_motzkin,
)

# map a single path and back
w = "U U D2 U U U D1"
m = to_motzkin(w)
print(f"{w}  ->  {m.tokens()}")
assert from_motzkin(m).tokens() == w

# the first-return decomposition drives the recursion
d = decompose(w)
print(f"kind={d.kind} inner={d.inner.tokens()!r} down_size={d.down_size}")

# the whole correspondence, length by length: same cardinalities, and a
# round trip through both directions is the identity
for n in range(9):
    deutsch = enumerate_paths(PathFamilyQuery("deutsch", n))
    motzkin = enumerate_paths(PathFamilyQuery("motzkin", n))
    images = {to_motzkin(p).steps for p in deutsch}
    assert images == {q.steps for q in motzkin}
    for p in deutsch:
        assert from_motzkin(to_motzkin(p)).steps == p.steps
    print(f"n={n}: {len(deutsch)} paths on both sides, round trip exact")

# the image has one up-step per down-step of the Deutsch path: each
# down-step is the first return of exactly one split U w~ D x, and that split
# maps to U map(w~) D map(x).  Returns to the axis are not the statistic:
# "U U D1 D1" returns once, yet it has two splits and its image two up-steps
print(f"U U D1 D1  ->  {to_motzkin('U U D1 D1').tokens()}")
for p in enumerate_paths(PathFamilyQuery("deutsch", 6)):
    image = to_motzkin(p)
    ups = sum(1 for s in image.steps if s == 1)
    assert ups == returns_count(p) == sum(1 for s in p.steps if s < 0)
print("down-steps map to up-steps at n = 6")
