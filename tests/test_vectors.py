from itertools import product

import pytest

from permutree_lab import permutree as pt
from permutree_lab import vectors as vec
from permutree_lab import weak_order as wo
from permutree_lab.errors import ValidationError


def test_inversion_set_figure_anchors():
    # the n x u n lattice contains trees with these exact inversion sets
    lat = pt.rotation_lattice(pt.Decoration("nxun"))
    keys = {t.inversion_pairs() for t in lat.elements}
    full = frozenset((i, j) for i in range(1, 4) for j in range(i + 1, 5))
    assert full in keys
    assert frozenset() in keys
    assert frozenset({(2, 4), (3, 4)}) in keys
    assert frozenset({(1, 2), (3, 4)}) in keys


def test_reconstruction_roundtrip_figure():
    E = frozenset({(1, 2), (3, 4), (3, 6), (3, 7), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)})
    tree = vec.permutree_from_inversion_set(E, pt.Decoration("dunxndu"))
    assert tree.inversion_pairs() == E


def test_reconstruction_empty_gives_bottom():
    for d in pt.normalized_decorations(4):
        assert vec.permutree_from_inversion_set(frozenset(), d) == pt.bottom(d)


def test_empty_decoration():
    # the rotation lattice of the empty decoration has one element
    d = pt.Decoration("")
    (only,) = pt.rotation_lattice(d).elements
    assert pt.top("") == only == pt.bottom("")
    assert vec.meet_via_inversions(pt.bottom(""), pt.bottom("")) == only
    assert vec.permutree_from_inversion_set(set(), d) == only
    assert wo.perm_from_inversions(frozenset(), 0) == ()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_roundtrip_exhaustive(n):
    for d in pt.normalized_decorations(n):
        for tree in pt.rotation_lattice(d).elements:
            assert vec.permutree_from_inversion_set(tree.inversion_pairs(), d) == tree


def test_validation_witnesses():
    d = pt.Decoration("nnnn")
    with pytest.raises(ValidationError) as exc:
        vec.permutree_from_inversion_set({(1, 2), (2, 3)}, d)  # not transitive
    assert exc.value.witness == (1, 2, 3)
    with pytest.raises(ValidationError) as exc:
        vec.permutree_from_inversion_set({(1, 4)}, d)  # not cotransitive
    assert exc.value.witness == (1, 2, 4)
    # condition 3: delta_2 down, (1,2) absent, (2,3) present, (1,3) present
    with pytest.raises(ValidationError) as exc:
        vec.permutree_from_inversion_set({(2, 3), (1, 3)}, pt.Decoration("ndnn"))
    assert exc.value.witness == (1, 2, 3)
    # condition 4: delta_2 up, (1,2) present, (2,3) absent, (1,3) present
    with pytest.raises(ValidationError) as exc:
        vec.permutree_from_inversion_set({(1, 2), (1, 3)}, pt.Decoration("nunn"))
    assert exc.value.witness == (1, 2, 3)


def test_meet_worked_example():
    d = pt.Decoration("uxndd")
    T = vec.permutree_from_inversion_set({(2, 3), (2, 4), (2, 5), (3, 4)}, d)
    T2 = vec.permutree_from_inversion_set(
        {(1, 2), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)}, d
    )
    M = vec.meet_via_inversions(T, T2)
    assert M.inversion_pairs() == frozenset({(2, 4), (3, 4)})


def test_meet_refuses_two_decorations():
    a, b = pt.insert((1, 2, 3), "nnn"), pt.insert((1, 2, 3), "ndn")
    with pytest.raises(ValidationError, match="meet requires a common decoration"):
        vec.meet_via_inversions(a, b)


def test_meet_is_idempotent_commutative_associative():
    d = pt.Decoration("nxdn")
    lat = pt.rotation_lattice(d)
    xs = lat.elements[:6]
    for a in xs:
        assert vec.meet_via_inversions(a, a) == a
        for b in xs:
            assert vec.meet_via_inversions(a, b) == vec.meet_via_inversions(b, a)
            for c in xs:
                left = vec.meet_via_inversions(vec.meet_via_inversions(a, b), c)
                right = vec.meet_via_inversions(a, vec.meet_via_inversions(b, c))
                assert left == right


@pytest.mark.parametrize("n", [3, 4])
def test_meet_against_hasse(n):
    for d in pt.normalized_decorations(n):
        lat = pt.rotation_lattice(d)
        for a in lat.elements:
            for b in lat.elements:
                assert vec.meet_via_inversions(a, b) == lat.meet(a, b)


def test_order_is_inclusion():
    for d in pt.normalized_decorations(4):
        lat = pt.rotation_lattice(d)
        for a in lat.elements:
            for b in lat.elements:
                strict = lat.leq(a, b) and a != b
                assert strict == (a.inversion_pairs() < b.inversion_pairs())


def test_covers_add_one_pair_transitively():
    for d in pt.normalized_decorations(4):
        lat = pt.rotation_lattice(d)
        for a, b in lat.cover_pairs():
            extra = b.inversion_pairs() - a.inversion_pairs()
            closures = {
                wo.transitive_closure_pairs(a.inversion_pairs() | {p}, 4) for p in extra
            }
            assert b.inversion_pairs() in closures


def test_inversion_vector_counts_the_pairs():
    for n in range(6):
        for d in pt.normalized_decorations(n):
            for t in pt.rotation_lattice(d).elements:
                pairs = t.inversion_pairs()
                want = tuple(sum(p[0] == i for p in pairs) for i in range(1, n))
                assert vec.inversion_vector(t) == want


def test_cubic_vector_examples():
    lat = pt.rotation_lattice(pt.Decoration("nxn"))
    by_inv = {t.inversion_pairs(): t for t in lat.elements}
    t = by_inv[frozenset({(1, 2)})]
    assert vec.inversion_vector(t) == (1, 0)
    assert vec.cubic_vector(t) == (2, 0)


def test_cubic_reduces_to_lehmer_and_bracket():
    lat = pt.rotation_lattice(pt.Decoration("nnnnn"))
    for t in lat.elements:
        (pi,) = pt.linear_extensions(t)
        assert vec.cubic_vector(t) == wo.lehmer_code(pi)
    # bracket characterization: consecutive and nested components
    lat = pt.rotation_lattice(pt.Decoration("nddn"))
    for t in lat.elements:
        comp = {i: sorted(j for x, j in vec.cubic_set(t) if x == i) for i in range(1, 4)}
        for i, js in comp.items():
            assert js == list(range(i + 1, i + 1 + len(js)))
            for j in js:
                assert set(comp.get(j, [])) <= set(js)


def _component_by_search(tree, i, start):
    """Oracle: the component of T - v_i holding the slot occupant `start`,
    by a depth-first search per slot."""
    if start is None:
        return frozenset()
    slots = zip(tree.children, tree.parents)
    adj = [()] + [tuple(v for v in c + p if v is not None) for c, p in slots]
    seen = {i, start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen - {i})


def _cubic_set_by_search(tree):
    pairs = set()
    for i in range(1, tree.n + 1):
        comps = [_component_by_search(tree, i, c) for c in tree.children[i - 1]]
        if tree.delta[i] in pt.DOWNISH:
            members = comps[1]
        else:
            members = {j for j in comps[0] if j > i}
        pairs.update((i, j) for j in members)
    return frozenset(pairs)


def _vertex_by_search(tree):
    coords = []
    for i in range(1, tree.n + 1):
        below = [len(_component_by_search(tree, i, c)) for c in tree.children[i - 1]]
        above = [len(_component_by_search(tree, i, p)) for p in tree.parents[i - 1]]
        a = 1 + sum(below)
        if tree.delta[i] in pt.DOWNISH:
            a += below[0] * below[1]
        if tree.delta[i] in pt.UPISH:
            a -= above[0] * above[1]
        coords.append(a)
    return tuple(coords)


def _edge_cuts_by_search(tree):
    nodes = frozenset(range(1, tree.n + 1))
    sides = [_component_by_search(tree, p, c) for c, p in tree.direct_edges()]
    return {(side, nodes - side) for side in sides}


def _check_cubic(tree):
    want = _cubic_set_by_search(tree)
    assert vec.cubic_set(tree) == want
    assert vec.cubic_vector(tree) == tuple(sum(p[0] == i for p in want) for i in range(1, tree.n))


def test_slot_sides_match_the_search_per_slot():
    # every reading of the slot components against a search per slot
    checked = 0
    for n in range(1, 7):
        for d in pt.normalized_decorations(n):
            for t in pt.rotation_lattice(d).elements:
                _check_cubic(t)
                assert pt.permutreehedron_vertex(t) == _vertex_by_search(t)
                assert pt.edge_cuts(t) == _edge_cuts_by_search(t)
                checked += 1
    assert checked == 37543  # every lattice element with n <= 6


def test_cubic_set_matches_the_search_per_slot_on_s7():
    lat = pt.rotation_lattice(pt.Decoration("nnnnnnn"))
    assert len(lat) == 5040
    for t in lat.elements:
        _check_cubic(t)


def test_extremal_corners():
    for d in pt.normalized_decorations(4):
        seen = set()
        for bits in product([0, 1], repeat=3):
            corner = tuple((4 - i) * b for i, b in enumerate(bits, start=1))
            t = vec.extremal_permutree(d, corner)
            assert vec.cubic_vector(t) == corner
            seen.add(t)
        assert len(seen) == 8
    zero = vec.extremal_permutree(pt.Decoration("nudn"), (0, 0, 0))
    assert zero == pt.bottom(pt.Decoration("nudn"))
    with pytest.raises(ValidationError):
        vec.extremal_permutree(pt.Decoration("nnnn"), (2, 0, 0))


def test_extremal_figure_corner():
    t = vec.extremal_permutree(pt.Decoration("dunxndu"), (6, 0, 0, 0, 2, 1))
    assert vec.cubic_vector(t) == (6, 0, 0, 0, 2, 1)


def test_cubical_embedding_properties():
    for d in pt.normalized_decorations(4):
        lat, emb = vec.cubical_embedding(d)
        vals = list(emb.values())
        assert len(set(vals)) == len(vals)
        for v in vals:
            assert all(0 <= v[i] <= 3 - i for i in range(3))
        for a, b in lat.cover_pairs():
            diff = [y - x for x, y in zip(emb[a], emb[b])]
            nz = [(i, x) for i, x in enumerate(diff) if x]
            assert len(nz) == 1 and nz[0][1] > 0
    # cubic coordinates lie on the box surface
    for d in pt.normalized_decorations(4):
        _, emb = vec.cubical_embedding(d)
        for v in emb.values():
            assert any(v[i] in (0, 3 - i) for i in range(3))
