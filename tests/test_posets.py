"""`posets.Hasse` against brute-force definitions on small posets.

Every poset is listed in an order that is not a linear extension, so the
linear extension `Hasse` builds for its bitmasks differs from the list order.
`hasse_by_bfs` is checked against the builder that kept every up-cover.
"""

import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutree_lab import permutree as pt
from permutree_lab import s_weak_order as sw
from permutree_lab import verify
from permutree_lab import weak_order as wo
from permutree_lab.errors import ValidationError
from permutree_lab.permutree import rotation_lattice
from permutree_lab.posets import Hasse, isomorphic_via


def closure(n, rel):
    """Reflexive-transitive closure of `rel` on range(n), as a set of pairs."""
    le = {(i, i) for i in range(n)} | set(rel)
    for k in range(n):
        le |= {(i, j) for (i, a) in le if a == k for (b, j) in le if b == k}
    return le


def covers(n, le):
    return [
        (a, b)
        for (a, b) in le
        if a != b and not any((a, c) in le and (c, b) in le for c in range(n) if c not in (a, b))
    ]


def greatest(xs, le):
    top = [x for x in xs if all((y, x) in le for y in xs)]
    return top[0] if top else None


def natural_posets(n):
    """Every poset on range(n) whose natural order is a linear extension; up to
    isomorphism this is every poset on n elements."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        rel = {p for k, p in enumerate(pairs) if bits >> k & 1}
        if closure(n, rel) == rel | {(i, i) for i in range(n)}:
            yield rel | {(i, i) for i in range(n)}


def all_pairs_is_lattice(H):
    """The all-pairs lattice test: a top, and a meet for every pair.  The
    oracle for the test by lower-cover meets."""
    if H.elements and H.maximum() is None:
        return False
    down, at = H.down, H._order
    for i, dx in enumerate(down):
        for dy in down[i + 1 :]:
            common = dx & dy
            if down[at[common.bit_length() - 1]] != common:
                return False
    return True


def check_against_brute_force(n, le, elements):
    H = Hasse(elements, covers(n, le))
    for x in range(n):
        for y in range(n):
            assert H.leq(x, y) == ((x, y) in le)
            lower = [z for z in range(n) if (z, x) in le and (z, y) in le]
            upper = [z for z in range(n) if (x, z) in le and (y, z) in le]
            assert H.meet(x, y) == greatest(lower, le)
            assert H.join(x, y) == greatest(upper, {(b, a) for a, b in le})
    assert H.minimum() == greatest(range(n), {(b, a) for a, b in le})
    assert H.maximum() == greatest(range(n), le)
    lattice = all(
        H.meet(x, y) is not None and H.join(x, y) is not None
        for x in range(n)
        for y in range(n)
    )
    assert H.is_lattice() == lattice == all_pairs_is_lattice(H)
    return lattice


def test_every_poset_up_to_five_elements():
    rng = random.Random(5)
    seen = lattices = 0
    for n in range(6):
        for le in natural_posets(n):
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            for elements in (list(reversed(range(n))), shuffled):
                lattices += check_against_brute_force(n, le, elements)
            seen += 1
    # naturally labelled posets on 0..5 elements: 1 + 1 + 2 + 7 + 40 + 357
    assert seen == 408 and 0 < lattices < 2 * seen


@st.composite
def posets(draw):
    """A random poset on range(n), n <= 8, and a random listing of it."""
    n = draw(st.integers(1, 8))
    pairs = list(combinations(range(n), 2))
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    rel = {p for k, p in enumerate(pairs) if bits >> k & 1}
    return n, closure(n, rel), draw(st.permutations(range(n)))


@settings(max_examples=150, deadline=None)
@given(posets())
def test_random_posets_up_to_eight_elements(case):
    check_against_brute_force(*case)


@pytest.mark.parametrize(
    "name, cover_list",
    [
        ("bowtie", [(0, 2), (0, 3), (1, 2), (1, 3)]),
        ("all meets, no top", [(0, 1), (0, 2)]),
        ("two bottoms", [(0, 2), (1, 2)]),
        ("bounded bowtie", [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]),
    ],
)
def test_named_non_lattices(name, cover_list):
    n = 1 + max(b for _, b in cover_list)
    assert not check_against_brute_force(n, closure(n, cover_list), list(reversed(range(n)))), name


def test_empty_and_one_element_posets_are_lattices():
    for n in (0, 1):
        assert check_against_brute_force(n, {(i, i) for i in range(n)}, list(range(n)))


def test_a_missing_bound_fails_before_any_meet():
    # "two bottoms" and "all meets, no top" are refused before any mask is
    # built; the second has no two lower covers of one element at all
    for cover_list in ([(0, 2), (1, 2)], [(0, 1), (0, 2)]):
        H = Hasse(range(3), cover_list)
        assert not H.is_lattice()
        assert "down" not in vars(H)


def induced_subposet(H, elements):
    """The subposet of `H` on `elements`, as a `Hasse` listing them as given."""
    below = {(x, y) for x in elements for y in elements if x != y and H.leq(x, y)}
    return Hasse(
        elements,
        [
            (x, y)
            for x, y in below
            if not any((x, z) in below and (z, y) in below for z in elements)
        ],
    )


def test_lower_cover_meets_on_induced_s_weak_subposets():
    # intervals are lattices; a random part of an order, bounds kept, often is not
    rng = random.Random(7)
    kinds = [0, 0]
    for s in verify._strict_compositions(5):
        H = sw.s_hasse(s)
        bounds = [H.minimum(), H.maximum()]
        for keep in (0.4, 0.6, 0.8) * 4:
            x, y = rng.choice(H.elements), rng.choice(H.elements)
            if H.leq(y, x):
                x, y = y, x
            elif not H.leq(x, y):
                x = bounds[0]
            interval = [z for z in H.elements if H.leq(x, z) and H.leq(z, y)]
            part = [z for z in H.elements if z in bounds or rng.random() < keep]
            for elements in (interval, part):
                rng.shuffle(elements)
                sub = induced_subposet(H, elements)
                got = sub.is_lattice()
                assert got == all_pairs_is_lattice(sub), (s, elements)
                kinds[got] += 1
    assert min(kinds) > 0, kinds


def test_cyclic_covers_raise():
    with pytest.raises(ValidationError):
        Hasse("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(ValidationError):
        Hasse("ab", [("a", "a"), ("a", "b")])


def test_masks_are_built_on_the_first_order_query():
    H = rotation_lattice("nnnnnnn")
    assert len(H) == 5040
    bottom, top = H.minimum(), H.maximum()
    assert len(H.cover_pairs()) == len(H.covers) and H.up_covers(top) == []
    assert len(H.to_json()["nodes"]) == 5040
    assert isomorphic_via(H, H, {x: x for x in H.elements})
    assert "down" not in vars(H)
    assert H.leq(bottom, top) and not H.leq(top, bottom)
    assert len(vars(H)["down"]) == 5040
    assert H.meet(bottom, top) == bottom and H.is_lattice()
    assert "up" not in vars(H)
    assert H.join(bottom, top) == top
    assert len(vars(H)["up"]) == 5040


def hasse_by_bfs_oracle(bottom, up_covers, key=None):
    """The BFS builder that keeps every up-cover it is given until `Hasse`
    is built, as an oracle for the one that keeps one instance per element."""
    seen = {bottom}
    frontier = [bottom]
    covers = []
    while frontier:
        nxt = []
        for x in frontier:
            for y in up_covers(x):
                covers.append((x, y))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return Hasse(sorted(seen, key=key), set(covers))


@pytest.mark.parametrize(
    "module, build, args",
    [(pt, pt.rotation_lattice, [d for n in range(6) for d in pt.normalized_decorations(n)])]
    + [(sw, sw.s_hasse, verify._strict_compositions(5))]
    + [(wo, wo.weak_order_hasse, range(1, 6))],
    ids=["rotation_lattice", "s_hasse", "weak_order_hasse"],
)
def test_bfs_matches_the_oracle(monkeypatch, module, build, args):
    for arg in args:
        got = build(arg)
        with monkeypatch.context() as m:
            m.setattr(module, "hasse_by_bfs", hasse_by_bfs_oracle)
            want = build(arg)
        assert got.elements == want.elements
        assert got.cover_pairs() == want.cover_pairs()


def test_bfs_keeps_no_copies():
    # a rotated tree equal to one already seen is dropped during the search,
    # so the peak of the build stays close to what the diagram itself holds
    tracemalloc.start()
    try:
        H = rotation_lattice("nnnnnn")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(H) == 720
    assert peak <= 1.5 * held
