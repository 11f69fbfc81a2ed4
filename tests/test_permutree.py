import math
import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutree_lab import permutree as pt
from permutree_lab import weak_order as wo
from permutree_lab.errors import ResourceCapError, ValidationError


def test_decoration_normalization():
    d = pt.Decoration("dunxndd")
    assert str(d) == "nunxndn"
    assert d.normalized_ends
    assert not pt.Decoration("nnxn").normalized_ends
    with pytest.raises(ValidationError):
        pt.Decoration("nzn")


def test_decoration_refinement():
    assert pt.Decoration("nnn").refines(pt.Decoration("ndn"))
    assert pt.Decoration("ndn").refines(pt.Decoration("nxn"))
    assert not pt.Decoration("ndn").refines(pt.Decoration("nun"))
    assert not pt.Decoration("nxn").refines(pt.Decoration("ndn"))


def test_insert_chain_for_none():
    for n in range(7):
        for pi in wo.all_perms(n):
            tree = pt.insert(pi, "n" * n)
            assert pt.linear_extensions(tree) == [pi]
            # chain order pi_1 < ... < pi_n: inversion pairs record
            # later-smaller, in the row layout of weak_order
            assert tree.inversion_pairs() == wo.inversions(pi)
            assert tree.inversion_rows() == wo.rows_of_perm(pi)


def test_insert_figure_example():
    pi = (5, 7, 4, 1, 3, 2, 6)
    tree = pt.insert(pi, "dunxndd")
    assert pi in pt.linear_extensions(tree)


def test_fibers_partition_and_linear_extensions():
    for n in (3, 4, 5):
        for d in pt.normalized_decorations(n):
            fibers = pt.insertion_fibers(d)
            seen = []
            for tree, perms in fibers.items():
                assert pt.linear_extensions(tree) == perms  # both lexicographic
                seen.extend(perms)
            assert sorted(seen) == wo.all_perms(n)


def test_fiber_minimum_avoids_patterns():
    for d in pt.normalized_decorations(4):
        U = {j for j in range(2, 4) if d[j] in "ux"}
        D = {j for j in range(2, 4) if d[j] in "dx"}
        for tree, perms in pt.insertion_fibers(d).items():
            bottom = min(perms, key=lambda p: len(wo.inversions(p)))
            assert all(wo.avoids_fixed_pattern(bottom, j, "jki") for j in U)
            assert all(wo.avoids_fixed_pattern(bottom, j, "kij") for j in D)


def test_down_case_is_binary_tree_fibers():
    # for down decorations, every fiber minimum avoids kij for all j
    d = pt.Decoration("nddn")
    for tree, perms in pt.insertion_fibers(d).items():
        bottom = min(perms, key=lambda p: len(wo.inversions(p)))
        assert all(wo.avoids_fixed_pattern(bottom, j, "kij") for j in (2, 3))


def test_refinement_of_congruences():
    # delta refines delta' => every delta'-fiber is a union of delta-fibers
    n = 4
    decs = pt.normalized_decorations(n)
    tables = {}
    for d in decs:
        tables[str(d)] = {pi: pt.insert(pi, d) for pi in wo.all_perms(n)}
    for d1 in decs:
        for d2 in decs:
            if not d1.refines(d2):
                continue
            t1, t2 = tables[str(d1)], tables[str(d2)]
            for a in wo.all_perms(n):
                for b in wo.all_perms(n):
                    if t1[a] == t1[b]:
                        assert t2[a] == t2[b], (str(d1), str(d2), a, b)


def test_edge_count_formula():
    for d in pt.normalized_decorations(4):
        downs = sum(1 for c in d.symbols if c in "du")
        ups2 = sum(1 for c in d.symbols if c == "x")
        for tree in pt.rotation_lattice(d).elements:
            inner = len(tree.direct_edges())
            boundary = sum(1 for i in range(1, 5) for x in tree.children[i - 1] if x is None)
            boundary += sum(1 for i in range(1, 5) for x in tree.parents[i - 1] if x is None)
            assert inner + boundary == 5 + downs + 2 * ups2


def test_rotate_errors_and_covers():
    d = pt.Decoration("nxun")
    b = pt.bottom(d)
    with pytest.raises(ValidationError):
        pt.rotate(b, (2, 4))  # not an edge
    with pytest.raises(ValidationError, match=r"need an edge \(i, j\) with i < j, got \(2, 1\)"):
        pt.rotate(b, (2, 1))  # the edge 1 -> 2 named the wrong way round
    atoms = [pt.rotate(b, e) for e in pt.increasing_rotations(b)]
    assert all(len(a.inversion_pairs()) >= 1 for a in atoms)
    # minimal element has edges i -> i+1 only
    assert pt.increasing_rotations(b) == [(1, 2), (2, 3), (3, 4)]


def test_disjoint_rotations_commute():
    d = pt.Decoration("nnnnn")
    b = pt.bottom(d)
    t1 = pt.rotate(pt.rotate(b, (1, 2)), (3, 4))
    t2 = pt.rotate(pt.rotate(b, (3, 4)), (1, 2))
    assert t1 == t2


def test_rotation_lattice_sizes():
    assert len(pt.rotation_lattice(pt.Decoration("nnnn"))) == 24
    assert len(pt.rotation_lattice(pt.Decoration("nddn"))) == 14
    assert len(pt.rotation_lattice(pt.Decoration("nxxn"))) == 8
    with pytest.raises(ResourceCapError):
        pt.rotation_lattice(pt.Decoration("n" * 9))


def test_rotation_lattice_is_lattice_small():
    for n in (2, 3, 4):
        for d in pt.normalized_decorations(n):
            lat = pt.rotation_lattice(d)
            assert lat.is_lattice()
            assert lat.minimum() == pt.bottom(d)
            assert lat.maximum() == pt.top(d)


def test_count_matches_fibers():
    for d in pt.normalized_decorations(4):
        assert pt.count_permutrees(d) == len(pt.insertion_fibers(d))
    assert pt.count_permutrees(pt.Decoration("n" * 6)) == 720


def _count_by_recursion(sec, memo):
    """Oracle: the recursive count the memo filled bottom-up replaced, one
    memo entry per sub-section's symbols, every root tried in turn."""
    if len(sec) <= 1:
        return 1
    if sec not in memo:
        memo[sec] = sum(
            _count_by_recursion(sec[:r], memo) * _count_by_recursion(sec[r + 1 :], memo)
            if sym == "d"
            else _count_by_recursion(sec[:r] + sec[r + 1 :], memo)
            for r, sym in enumerate(sec)
        )
    return memo[sec]


def test_count_memo_bound():
    """The `permutree_count_sections` size bounds the memo the count fills,
    and each section's count is the recursive one."""
    seen = 0
    for n in range(1, 10):
        for d in pt.normalized_decorations(n):
            sections = [tuple("d" if c == "u" else c for c in s) for s in pt.updown_sections(d)]
            memo, oracle = {}, {}
            for sec in sections:
                assert pt._count_section(sec, memo) == _count_by_recursion(sec, oracle), d
            assert len(memo) <= pt._memo_bound(sections), d
            seen += 1
    assert seen == 21846
    slow = pt.Decoration("n" + "dnnn" * 8 + "n")
    assert pt._memo_bound(pt.updown_sections(slow)) == 345871
    with pytest.raises(ResourceCapError, match="permutree_count_sections"):
        pt.count_permutrees(slow)


def test_count_of_one_long_run_keeps_no_memo():
    """A section of 'n's alone counts as a factorial, so its count holds no
    table of the smaller factorials (72 MiB for 9,999 'n' when it did)."""
    tracemalloc.start()
    try:
        count = pt.count_permutrees("n" * 9999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == math.factorial(9999)
    assert peak < 5 * 2**20


def test_tamari_rotation_oracle():
    # down^n permutree rotations match classical binary-tree covers: compare
    # the cover relations through the independent bracket-vector moves
    from permutree_lab import vectors as vec

    for n in (3, 4, 5):
        d = pt.Decoration("n" + "d" * (n - 2) + "n")
        lat = pt.rotation_lattice(d)
        got = {(vec.cubic_vector(a), vec.cubic_vector(b)) for a, b in lat.cover_pairs()}
        want = set()
        for b_vec in {vec.cubic_vector(t) for t in lat.elements}:
            # classical rotation at i: b_i grows by b_j + 1 where j = i + b_i + 1
            for i in range(1, n):
                j = i + b_vec[i - 1] + 1
                if j > n:
                    continue
                grow = (b_vec[j - 1] + 1) if j <= n - 1 else 1
                new = list(b_vec)
                new[i - 1] += grow
                if new[i - 1] <= n - i:
                    want.add((b_vec, tuple(new)))
        assert got <= want
        assert len(got) == len(lat.covers)
        # every classical move that lands on a valid bracket vector is a cover
        vecs = {vec.cubic_vector(t) for t in lat.elements}
        assert got == {(a, b) for a, b in want if a in vecs and b in vecs}


def test_permutreehedron_vertices():
    v = (3, 1, -1, -3)
    for d in pt.normalized_decorations(4):
        lat = pt.rotation_lattice(d)
        pts = {t: pt.permutreehedron_vertex(t) for t in lat.elements}
        assert all(sum(p) == 10 for p in pts.values())
        assert len(set(pts.values())) == len(pts)
        for a, b in lat.cover_pairs():
            da = sum(x * y for x, y in zip(pts[a], v))
            db = sum(x * y for x, y in zip(pts[b], v))
            assert db > da


def test_permutreehedron_none_case():
    lat = pt.rotation_lattice(pt.Decoration("nnnn"))
    for t in lat.elements:
        (pi,) = pt.linear_extensions(t)
        assert pt.permutreehedron_vertex(t) == wo.inverse(pi)


def test_edge_cuts_under_rotation():
    d = pt.Decoration("nxdn")
    for tree in pt.rotation_lattice(d).elements:
        for e in pt.increasing_rotations(tree):
            other = pt.rotate(tree, e)
            c1, c2 = pt.edge_cuts(tree), pt.edge_cuts(other)
            assert len(c1) == len(c2) == 3
            assert len(c1 & c2) == 2


def test_json_roundtrip():
    trees = [pt.insert((5, 7, 4, 1, 3, 2, 6), "dunxndd")]
    for n in range(1, 6):
        for d in pt.normalized_decorations(n):
            trees += pt.rotation_lattice(d).elements
    assert len(trees) == 2952  # every tree with n <= 5, and the figure's
    for tree in trees:
        again = pt.permutree_from_json(tree.to_json())
        assert (again.children, again.parents) == (tree.children, tree.parents)


@pytest.mark.parametrize(
    "data, witness",
    [
        # nodes 1 and 2 are each other's child: no linear extension
        ({"n": 3, "delta": "nnn", "children": [{"D": 2}, {"D": 1}, {"D": None}]}, None),
        # the same cycle beside ten free nodes
        ({"n": 12, "delta": "n" * 12, "children": [{"D": 2}, {"D": 1}] + [{"D": None}] * 10}, None),
        # a child outside [n], and a down slot without its 'LD'/'RD' keys
        ({"n": 3, "delta": "nnn", "children": [{"D": 7}, {"D": None}, {"D": None}]}, None),
        ({"n": 3, "delta": "ndn", "children": [{"D": None}, {"D": 1}, {"D": None}]}, None),
        # node 2 holds 4 in its left child slot and 1 in its right one
        (
            {
                "n": 4,
                "delta": "ndnn",
                "children": [{"D": None}, {"LD": 4, "RD": 1}, {"D": 2}, {"D": None}],
            },
            2,
        ),
    ],
)
def test_from_json_refuses_non_permutrees(data, witness):
    with pytest.raises(ValidationError) as info:
        pt.permutree_from_json(data)
    assert info.value.witness == witness


@pytest.mark.parametrize(
    "data",
    [
        {"n": 3, "delta": 5, "children": [{"D": None}] * 3},
        {"n": 3, "delta": None, "children": [{"D": None}] * 3},
        # 0 and -1 would index the slot list from its end
        {"n": 3, "delta": "nnn", "children": [{"D": 0}, {"D": None}, {"D": None}]},
        {"n": 3, "delta": "nnn", "children": [{"D": None}, {"D": -1}, {"D": None}]},
        {"n": 3, "delta": "nnn", "children": [{"D": None}, {"D": True}, {"D": None}]},
        {"n": 3, "delta": "nnn", "children": [{"D": None}, {"D": 1.0}, {"D": None}]},
        {"n": 3, "delta": "nnn", "children": [{"D": None}, {"D": "1"}, {"D": None}]},
        {"n": 3, "delta": "ndn", "children": [{"D": None}, {"LD": 1, "RD": 4}, {"D": None}]},
        # n must count the children, none dropped, and be an int, not a bool
        {"n": 2, "delta": "nn", "children": [{"D": None}, {"D": 1}, {"D": "junk"}]},
        {"n": 2, "delta": "nn", "children": [{"D": None}]},
        {"n": True, "delta": "n", "children": [{"D": None}]},
    ],
)
def test_from_json_refuses_malformed_input(data):
    with pytest.raises(ValidationError, match="^malformed permutree JSON: "):
        pt.permutree_from_json(data)


def test_rotate_on_derived_parent_slots():
    # the chain 1 -> 2 -> 3 -> 4 given by its child slots alone: the parent
    # slots are derived as their mirror, so a rotation cannot meet a stale one
    children = ((None,), (1,), (2,), (3,))
    chain = pt.Permutree(4, pt.Decoration("nnnn"), children)
    assert chain.parents == ((2,), (3,), (4,), (None,))
    closure = wo.transitive_closure_pairs(chain.inversion_pairs() | {(1, 2)}, 4)
    want = pt._tree_from_pairs(closure, chain.delta)
    got = pt.rotate(chain, (1, 2))
    assert (got.children, got.parents) == (want.children, want.parents)


def insert_oracle(pi, delta):
    """The insertion with explicit parent bookkeeping: each string top is
    (node, k), the string leaving the node's parent slot k, and the node that
    catches it writes itself into that slot."""
    delta = pt.as_decoration(delta)
    n = len(pi)
    children = [[None, None] if delta[i] in pt.DOWNISH else [None] for i in range(1, n + 1)]
    parents = [[None, None] if delta[i] in pt.UPISH else [None] for i in range(1, n + 1)]
    walls = [i for i in range(1, n + 1) if delta[i] in pt.DOWNISH]
    bounds = [0] + walls + [n + 1]
    zones = [[bounds[k], bounds[k + 1], None] for k in range(len(bounds) - 1)]

    def attach_parent(top, v):
        if top is not None:
            parents[top[0] - 1][top[1]] = v

    for v in pi:
        dv = delta[v]
        if dv in pt.DOWNISH:
            z = next(k for k, zone in enumerate(zones) if zone[1] == v)
            left, right = zones[z], zones[z + 1]
            children[v - 1][0] = left[2][0] if left[2] else None
            children[v - 1][1] = right[2][0] if right[2] else None
            attach_parent(left[2], v)
            attach_parent(right[2], v)
            zone = [left[0], right[1], None]
            zones[z : z + 2] = [zone]
        else:
            z = next(k for k, zone in enumerate(zones) if zone[0] < v < zone[1])
            zone = zones[z]
            children[v - 1][0] = zone[2][0] if zone[2] else None
            attach_parent(zone[2], v)
        if dv in pt.UPISH:
            zones[z : z + 1] = [[zone[0], v, (v, 0)], [v, zone[1], (v, 1)]]
        else:
            zone[2] = (v, 0)
    return tuple(map(tuple, children)), tuple(map(tuple, parents))


def test_derived_parent_slots_match_the_insertion_oracle():
    # every normalized decoration with n <= 4, then all 1,024 symbol strings
    # of length 5, whose ends both sides normalize
    decorations = [d for n in range(1, 5) for d in pt.normalized_decorations(n)]
    decorations += ["".join(syms) for syms in product(pt.SYMBOLS, repeat=5)]
    checked = 0
    for d in decorations:
        for pi in wo.all_perms(pt.as_decoration(d).n):
            t = pt.insert(pi, d)
            assert (t.children, t.parents) == insert_oracle(pi, d), (pi, d)
            checked += 1
    rng = random.Random(11)
    for _ in range(3000):
        n = rng.randint(6, 8)
        pi = tuple(rng.sample(range(1, n + 1), n))
        d = pt.Decoration("".join(rng.choice(pt.SYMBOLS) for _ in range(n)))
        t = pt.insert(pi, d)
        assert (t.children, t.parents) == insert_oracle(pi, d), (pi, d)
    assert checked == 123291  # sum over n <= 4 of n! * 4^max(n-2, 0), plus 5! * 4^5


def test_insert_fills_the_rows_its_slots_give():
    checked = 0
    for n in range(1, 7):
        for d in pt.normalized_decorations(n):
            for pi in wo.all_perms(n):
                t = pt.insert(pi, d)
                assert t.inversion_rows() == pt.Permutree(n, d, t.children).inversion_rows()
                checked += 1
    assert checked == 192411  # sum over 1 <= n <= 6 of n! * 4^max(n-2, 0)


def rows_children_first(tree):
    """B(T) as rows, each node ORing in its children's rows in the order of
    `children_first`: the pass `inversion_rows` made before its push pass."""
    below = [0] * (tree.n + 1)
    for v in pt.children_first(tree):
        for c in tree.children[v - 1]:
            if c is not None:
                below[v] |= below[c] | 1 << c
    return tuple(b >> i + 1 << i + 1 for i, b in enumerate(below))


def test_rows_from_slots_match_the_children_first_oracle():
    trees = 0
    for n in range(1, 7):
        for d in pt.normalized_decorations(n):
            for t in pt.rotation_lattice(d).elements:
                fresh = pt.Permutree(n, d, t.children)  # rows derived, not given
                assert fresh.inversion_rows() == rows_children_first(fresh), t
                trees += 1
    assert trees == 37543  # every delta-permutree with n <= 6


def test_children_first_is_the_least_linear_extension():
    for n in range(1, 6):
        for d in pt.normalized_decorations(n):
            for t in pt.rotation_lattice(d).elements:
                assert pt.children_first(t) == pt.linear_extensions(t)[0]


@st.composite
def _decorated_perms(draw):
    n = draw(st.integers(1, 12))
    pi = tuple(draw(st.permutations(range(1, n + 1))))
    return pi, pt.Decoration(draw(st.text("ndux", min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(_decorated_perms())
def test_insert_property(case):
    pi, d = case
    tree = pt.insert(pi, d)
    place = {v: k for k, v in enumerate(pi)}
    for v in range(1, len(pi) + 1):
        assert all(place[c] < place[v] for c in tree.children[v - 1] if c is not None)
    again = pt.insert(pt.children_first(tree), d)
    assert (again.children, again.parents) == (tree.children, tree.parents)


def test_updown_sections():
    d = pt.Decoration("nxxn")
    assert pt.updown_sections(d) == [("n", "n"), ("n", "n"), ("n", "n")]
    d = pt.Decoration("ndxun")
    assert pt.updown_sections(d) == [("n", "d", "n"), ("n", "u", "n")]


def updown_sections_by_cuts(delta):
    """Oracle: the runs between consecutive cuts (the ends and every 'x'),
    each cut included in both runs it bounds and read as 'n'."""
    syms = delta.symbols
    n = len(syms)
    cuts = [0] + [p for p in range(n) if syms[p] == "x"] + [n - 1]
    if n == 0:
        return []
    sections = []
    for k in range(len(cuts) - 1):
        sec = list(syms[cuts[k] : cuts[k + 1] + 1])
        if sec and sec[0] == "x":
            sec[0] = "n"
        if sec and sec[-1] == "x":
            sec[-1] = "n"
        sections.append(tuple(sec))
    return sections


def test_updown_sections_match_the_cuts():
    checked = 0
    for n in range(10):  # n = 0 and n = 1 included
        for d in pt.normalized_decorations(n):
            assert pt.updown_sections(d) == updown_sections_by_cuts(d), d
            checked += 1
    assert checked == 21_847
    assert pt.updown_sections(pt.Decoration("")) == []
    assert pt.updown_sections(pt.Decoration("x")) == [("n",)]


def test_rotate_matches_closure_route():
    # BFS over the closure route B(T) | {(i, j)} -> transitive closure ->
    # reconstruction, so the trees visited do not depend on `rotate`
    total = 0
    for n in range(1, 7):
        for d in pt.normalized_decorations(n):
            seen = {pt.bottom(d)}
            frontier = list(seen)
            while frontier:
                nxt = []
                for tree in frontier:
                    for e in pt.increasing_rotations(tree):
                        pairs = wo.transitive_closure_pairs(tree.inversion_pairs() | {e}, n)
                        want = pt._tree_from_pairs(pairs, d)
                        got = pt.rotate(tree, e)
                        assert (got.children, got.parents) == (want.children, want.parents)
                        total += 1
                        if want not in seen:
                            seen.add(want)
                            nxt.append(want)
                frontier = nxt
            assert len(seen) == pt.count_permutrees(d)
    assert total == 92245


def test_inversion_pairs_match_descendants():
    def below(tree, v):
        out = set()
        for c in tree.children[v - 1]:
            if c is not None:
                out |= {c} | below(tree, c)
        return out

    for n in range(1, 7):
        for d in pt.normalized_decorations(n):
            trees = pt.rotation_lattice(d).elements
            assert len(trees) == pt.count_permutrees(d)
            for t in trees:
                fresh = pt.Permutree(n, d, t.children)
                want = {(i, j) for i in range(1, n + 1) for j in below(t, i) if j > i}
                assert fresh.inversion_pairs() == want
                assert fresh.parents == t.parents
                rows = fresh.inversion_rows()
                assert len(rows) == n + 1
                bits = {(i, j) for i, r in enumerate(rows) for j in range(n + 2) if r >> j & 1}
                assert bits == want


def test_rows_are_the_identity():
    # trees inserted from different permutations are different objects;
    # they must be equal exactly when decoration and inversion set agree
    trees = [pt.insert(pi, d) for d in pt.normalized_decorations(5) for pi in wo.all_perms(5)]
    by_delta, by_pairs = {}, {}
    for t in trees:
        pairs = t.inversion_pairs()
        assert t.key() == ";".join(f"{i},{j}" for i, j in sorted(pairs))
        by_delta.setdefault(t.delta, []).append(t)
        by_pairs.setdefault(pairs, []).append(t)
    # a pair with neither in common differs in its rows, so these groups
    # hold every pair that can compare equal or share rows
    for group in [*by_delta.values(), *by_pairs.values()]:
        for a in group:
            for b in group:
                same = a.delta == b.delta and a.inversion_pairs() == b.inversion_pairs()
                assert (a == b) == same
                assert not same or hash(a) == hash(b)


def test_rotate_checks_the_closure():
    # node 2 holds 4 in its left child slot and 1 in its right one
    children = ((None,), (4, 1), (2,), (None,))
    bad = pt.Permutree(4, pt.Decoration("ndnn"), children)
    with pytest.raises(ValidationError, match="closure") as info:
        pt.rotate(bad, (2, 3))
    assert info.value.witness == (2, 3)
