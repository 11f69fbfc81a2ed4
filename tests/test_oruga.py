import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutree_lab import flows as fl
from permutree_lab import oruga as og
from permutree_lab import s_weak_order as sw
from permutree_lab import verify
from permutree_lab.errors import ValidationError
from permutree_lab.posets import isomorphic_via

RUN_S = (1, 1, 2, 1, 3, 1, 2)
RUN_W = (3, 3, 7, 2, 5, 4, 5, 5, 7, 1, 6)

# sha256 over json.dumps(R.to_json(approx), indent=2, sort_keys=True) for
# approx None and 4, R = realize(s) at the default eps, for every strict
# |s| <= 6 in `_compositions` order, then (1, 2, 1, 3) and (1, 1, 1, 4); a
# change to any vertex, edge, scalar or their order must re-record it
REALIZE_JSON_SHA256 = "11f615657efafd87733d4754c11a74ad1c2f9a34836a30afdbfb07709b8d695e"


def test_build_oru_structure():
    G = og.build_oru((2, 3, 2, 2))
    assert len(G.edges) == 9 + 4 + 1
    assert G.dimension() == 9
    with pytest.raises(ValidationError):
        og.build_oru((1, 0, 2))
    for s in [(1, 2, 1), (2, 3, 2, 2), (1, 1, 2)]:
        G = og.build_oru(s)
        n = len(s)
        want = sum((s[k - 1] - 1) * 2 ** (k - 1) for k in range(1, n + 1)) + 2**n
        assert len(fl.routes(G)) == want


def test_framing_orders():
    G = og.build_oru((2, 3, 2, 2))
    # incoming at the vertex receiving level 2 (s_2 = 3): bump, sources, dip
    v = 4 + 2 - 2  # n + 2 - k for k = 2
    assert G.framing[v]["in"] == [("e", 2, 0), ("e", 2, 1), ("e", 2, 2), ("e", 2, 3)]
    assert G.framing[v]["out"] == [("e", 1, 0), ("e", 1, 2)]


def test_word_flow_bijection_running_example():
    f = og.word_to_flow(RUN_W, RUN_S)
    assert [f[("e", i, 0)] for i in range(1, 7)] == [9, 3, 0, 2, 1, 2]
    assert og.flow_to_word(f, RUN_S) == RUN_W
    sorted_w = sw.sorted_word(RUN_S)
    f0 = og.word_to_flow(sorted_w, RUN_S)
    assert all(f0[("e", i, 0)] == 0 for i in range(1, 7))
    bad = dict(f)
    bad[("e", 3, 0)] += 1
    with pytest.raises(ValidationError):
        og.flow_to_word(bad, RUN_S)


@pytest.mark.parametrize("s", [(1, 2, 1), (2, 2), (1, 2, 2), (1, 1, 1, 1)])
def test_word_flow_roundtrip(s):
    graph = og.build_oru(s)
    keys = set()
    for w in sw.all_words(s):
        f = og.word_to_flow(w, s)
        assert og.flow_to_word(f, s) == w
        keys.add(frozenset(f.items()))
    dflows = {frozenset(f.items()) for f in fl.integer_flows(graph, fl.netflow_d(graph))}
    assert keys == dflows


@pytest.mark.parametrize("s", [(1, 2, 1), (0, 1, 2), (2, 0, 1), (1, 0, 0, 1)])
def test_tree_flow_roundtrip_weak(s):
    trees = sw.all_s_trees(s)
    seen = set()
    for t in trees:
        bumps = sw.tree_to_bumps(t, s)
        assert sw.bumps_to_tree(bumps, s) == t
        seen.add(tuple(sorted(bumps.items())))
    assert len(seen) == len(trees) == sw.count_s_trees(s)


@st.composite
def _bump_words(draw):
    """A strict composition s with |s| <= 20, a bump vector b and the word of b."""
    s = [1]
    for cut in draw(st.lists(st.booleans(), max_size=19)):
        if cut:
            s.append(1)
        else:
            s[-1] += 1
    s = tuple(s)
    b = {v: draw(st.integers(0, sum(s[v:]))) for v in range(1, len(s))}
    return s, b, sw.bumps_to_word(b, s)


@settings(max_examples=300, deadline=None)
@given(_bump_words())
def test_word_flow_tree_roundtrips(case):
    s, b, w = case
    assert sw.check_word(w, s) == w
    assert og.flow_to_word(og.word_to_flow(w, s), s) == w
    assert sw.tree_to_word(sw.word_to_tree(w, s), s) == w
    assert sw.word_to_tree(w, s) == sw.bumps_to_tree(b, s)
    assert sw.tree_to_bumps(sw.word_to_tree(w, s), s) == b
    assert sw.word_to_bumps(w, s) == b
    assert sw.word_from_multiset(sw.inversion_multiset(w, s), s) == w


def test_zero_flow_left_comb():
    tree = sw.bumps_to_tree({1: 0, 2: 0}, (1, 2, 1))
    assert tree == (3, ((2, ((1, (None, None)), None, None)), None))
    # Node v grafts on one of the 1 + s_{v+1} + ... + s_n leaves so far.
    sw.bumps_to_tree({1: 3, 2: 1}, (1, 2, 1))
    for bad in ({1: 0, 2: 2}, {1: 4, 2: 1}, {1: -1, 2: 0}):
        with pytest.raises(ValidationError):
            sw.bumps_to_tree(bad, (1, 2, 1))


def test_delta_w_properties():
    s = (1, 2, 1)
    cl = og.delta_w((3, 2, 2, 1), s)
    assert len(cl) == 5
    assert og.all_bump_route(s) in cl and og.all_dip_route(s) in cl
    graph = og.build_oru(s)
    assert set(fl.max_cliques(graph)) == {og.delta_w(w, s) for w in sw.all_words(s)}


def test_omega_of_delta_w_matches_word_flow():
    for s in [(1, 2, 1), (1, 2, 2), (2, 2)]:
        graph = og.build_oru(s)
        for w in sw.all_words(s):
            f = fl.omega(og.delta_w(w, s), graph)
            assert og.flow_to_word(f, s) == w


def test_route_naming_roundtrip():
    s = (1, 1, 2, 1, 3, 1, 2)
    r = og.oru_route(s, 5, 1, (1, 0, 1, 1))
    assert og.route_params(r, s) == (5, 1, (1, 0, 1, 1))
    assert r[0] == ("e", 5, 1)
    with pytest.raises(ValidationError):
        og.oru_route(s, 2, 1, (0,))  # s_2 = 1 has no proper source


def test_hasse_from_adjacency():
    for s in [(1, 2, 1), (1, 2, 2), (1, 1, 1)]:
        H = sw.s_hasse(s)
        Hd = og.hasse_from_adjacency(s)
        assert isomorphic_via(H, Hd, {w: w for w in H.elements})
    assert len(og.hasse_from_adjacency((1, 2, 1))) == 8


def test_face_simplex():
    s = (1, 2, 1)
    n = len(s)
    for w in sw.all_words(s):
        asc = sw.ascents(w)
        assert og.face_simplex(w, set(), s) == og.delta_w(w, s)
        for r in range(len(asc) + 1):
            for A in combinations(asc, r):
                simplex = og.face_simplex(w, A, s)
                assert len(simplex) == sum(s) + 1 - len(A)
                assert og.all_bump_route(s) in simplex
                assert og.all_dip_route(s) in simplex
                # one route per proper source edge survives
                for c in range(1, n + 1):
                    for t in range(1, s[c - 1]):
                        assert any(rt[0] == ("e", c, t) for rt in simplex)
        if len(asc) == n - 1:
            top_face = og.face_simplex(w, asc, s)
            assert len(top_face) == sum(s) - n + 2


def test_face_poset_reverse_inclusion():
    rng = random.Random(7)
    for s in [(1, 2, 1), (1, 1, 2), (2, 2)]:
        faces = []
        for w in sw.all_words(s):
            asc = sw.ascents(w)
            for r in range(len(asc) + 1):
                for A in combinations(asc, r):
                    faces.append(sw.SFace(w, frozenset(A), s))
        simplices = {
            (f.word, f.A): og.face_simplex(f.word, f.A, s) for f in faces
        }
        sample = faces if len(faces) <= 40 else rng.sample(faces, 40)
        for f in sample:
            for g in faces:
                contained = sw.face_contains(f, g)
                reverse = simplices[(g.word, g.A)] <= simplices[(f.word, f.A)]
                assert contained == reverse, (s, f, g)


def test_oruga_height_values():
    s = (3, 2)
    eps = Fraction(1, 10)
    assert og.oruga_height(og.oru_route(s, 1, 2, ()), s, eps) == 0
    # explicit small evaluation: R(2, 1, (1,)) has levels t_2 = 1, dip delta_1 = 1
    r = og.oru_route(s, 2, 1, (1,))
    assert og.oruga_height(r, s, eps) == -eps * (1 + 1) ** 2
    with pytest.raises(ValidationError):
        og.oruga_height(r, s, Fraction(-1, 2))


def test_heights_admissible_at_default_epsilon():
    for s in [(1, 2, 2), (1, 3, 1), (2, 1, 2)]:
        graph = og.build_oru(s)
        rs = fl.routes(graph)
        eps = og.default_epsilon(s)
        assert eps < og.admissibility_bound(s)
        h = {r: og.oruga_height(r, s, eps) for r in rs}
        assert fl.is_admissible(graph, h, all_routes=rs)


def test_minimal_conflict_identity():
    s = (1, 3, 1)
    graph = og.build_oru(s)
    eps = og.default_epsilon(s)
    hits = 0
    for p, q in fl.minimal_conflicts(graph):
        kp, tp, bp = og.route_params(p, s)
        kq, tq, bq = og.route_params(q, s)
        if kp != kq or abs(tp - tq) != 1:
            continue
        if not (1 <= min(tp, tq) and max(tp, tq) <= s[kp - 1] - 1):
            continue
        diffs = [i + 1 for i, (x, y) in enumerate(zip(bp, bq)) if x != y]
        if len(diffs) != 1:
            continue
        x, y = diffs[0], kp
        P, Q = (p, q) if tp < tq else (q, p)
        p2, q2 = fl.resolvents(graph, P, Q)
        H = sum(og.oruga_height(r, s, eps) for r in (P, Q)) - sum(
            og.oruga_height(r, s, eps) for r in (p2, q2)
        )
        assert H == 2 * eps ** (y - x)
        hits += 1
    assert hits > 0


def test_realize_s11_edge():
    R = og.realize((1, 1), Fraction(1, 10))
    diff = tuple(a - b for a, b in zip(R.vertices[(2, 1)], R.vertices[(1, 2)]))
    assert diff == (Fraction(1, 5), Fraction(-1, 5))


def _compositions(total):
    """Every strict composition of `total`."""
    if total == 0:
        return [()]
    return [(k,) + rest for k in range(1, total + 1) for rest in _compositions(total - k)]


def test_prefix_routes_match_oru_route():
    for total in range(1, 8):
        for s in _compositions(total):
            n = len(s)
            for w in sw.all_words(s):
                routes = og.prefix_routes(w, s)
                assert len(routes) == len(w) + 1
                keys = [og.route_params(r, s) for r in routes]
                masks = [(k, t, sum(b << a for a, b in enumerate(bits))) for k, t, bits in keys]
                assert og.prefix_keys(w, s) == masks, (s, w)
                for length, route in enumerate(routes):
                    counts = [w[:length].count(v) for v in range(1, n + 1)]
                    c = next((v for v in range(1, n + 1) if 0 < counts[v - 1] < s[v - 1]), n + 1)
                    t = 1 if c == n + 1 else counts[c - 1]
                    bits = tuple(1 if counts[a - 1] else 0 for a in range(1, c))
                    assert route == og.oru_route(s, c, t, bits), (s, w, length)


def test_prefix_route_builds_every_oru_route():
    for total in range(1, 8):
        for s in _compositions(total):
            for r in fl.routes(og.build_oru(s)):
                k, t, bits = og.route_params(r, s)
                mask = sum(b << a for a, b in enumerate(bits))
                assert og.prefix_route((k, t, mask), s) == r, (s, r)


def test_face_checks_refuse_a_non_ascent_alike():
    w, A = RUN_W, {(2, 5), (5, 4)}  # 54 is a descent of w
    want = f"A contains non-ascents of {RUN_W}: [(5, 4)]"
    for build in (sw.add_ascents, sw.SFace, og.face_simplex):
        with pytest.raises(ValidationError) as err:
            build(w, A, RUN_S)
        assert str(err.value) == want and err.value.witness == (5, 4)
    assert sw.check_ascents(w, [(2, 5)]) == frozenset({(2, 5)})


def test_realize_computes_each_height_once(monkeypatch):
    calls = []
    height = og._scaled_height

    def counted(route, scales):
        calls.append(route)
        return height(route, scales)

    monkeypatch.setattr(og, "_scaled_height", counted)
    for s in [(1, 2, 1), (2, 1, 2), (1, 1, 1, 1)]:
        calls.clear()
        og.realize(s)
        assert len(calls) == len(set(calls)) == len(fl.routes(og.build_oru(s)))


def test_realize_json_is_pinned():
    digest = hashlib.sha256()
    cases = [s for total in range(1, 7) for s in _compositions(total)]
    cases += [(1, 2, 1, 3), (1, 1, 1, 4)]
    for s in cases:
        R = og.realize(s)
        for approx in (None, 4):
            digest.update(json.dumps(R.to_json(approx), indent=2, sort_keys=True).encode())
    assert len(cases) == 65
    assert digest.hexdigest() == REALIZE_JSON_SHA256


def test_realize_refuses_a_cover_outside_the_words(monkeypatch):
    words = sw.all_words((1, 2, 1))
    monkeypatch.setattr(og, "all_words", lambda s: words[:-1])  # drop the top word
    missed = r"cover \(2, 2, 3, 1\) \+ \(2, 3\) gives \(3, 2, 2, 1\), not a word"
    with pytest.raises(AssertionError, match=missed):
        og.realize((1, 2, 1))


def fraction_height(route, eps):
    """h_eps(R) summed in Fractions, term by term."""
    t = [ta for _, _, ta in reversed(route)]  # t[a - 1]: edge index at level a
    total = Fraction(0)
    for c in range(2, len(t) + 1):
        for a in range(1, c):
            total -= eps ** (c - a) * (t[c - 1] + (1 if t[a - 1] else 0)) ** 2
    return total


def realize_oracle(s, eps=None):
    """`realize` with every height, coordinate and scalar a Fraction: the
    reference for the version that works on heights scaled to ints."""
    s = sw.check_composition(s, strict=True)
    eps = og.default_epsilon(s) if eps is None else Fraction(eps)
    graph = og.build_oru(s)
    rs = fl.routes(graph)
    h = {r: fraction_height(r, eps) for r in rs}
    assert all(og.oruga_height(r, s, eps) == h[r] for r in rs)
    ok, witness = fl.is_admissible(graph, h, all_routes=rs, witness=True)
    if not ok:
        raise ValidationError(f"eps={eps} is not admissible for s={s}", witness=witness)
    words = sw.all_words(s)
    prefix_heights = {w: [h[r] for r in og.prefix_routes(w, s)] for w in words}
    vertices = {}
    for w in words:
        coords = [Fraction(0)] * len(s)
        for k, v in enumerate(w):
            coords[v - 1] += prefix_heights[w][k] - prefix_heights[w][k + 1]
        vertices[w] = tuple(coords)
    edges = []
    for w in words:
        spans = sw.blocks(w)
        hw = prefix_heights[w]
        for (a, c) in sw.ascents(w):
            w2 = sw.transpose_ascent(w, (a, c), s)
            start, end = spans[a]
            lam = prefix_heights[w2][start + 1] + hw[end + 1] - hw[start] - hw[end + 2]
            assert lam > 0
            diff = tuple(x - y for x, y in zip(vertices[w2], vertices[w]))
            want = tuple(
                lam if i == a else (-lam if i == c else Fraction(0))
                for i in range(1, len(s) + 1)
            )
            assert diff == want
            edges.append((w, w2, (a, c), lam))
    support = {
        sigma: tuple(v for v in sigma for _ in range(s[v - 1]))
        for sigma in permutations(range(1, len(s) + 1))
    }
    return og.Realization(s, eps, vertices, edges, support)


def test_realize_matches_the_fraction_oracle():
    for total in range(1, 7):
        for s in _compositions(total):
            R, want = og.realize(s), realize_oracle(s)
            assert R.to_json() == want.to_json(), s
            assert R.edges == want.edges, s
            assert R.support == want.support, s
    # at eps = 1 both refuse the same compositions, naming the same conflict
    refused = 0
    for total in range(1, 6):
        for s in _compositions(total):
            outcomes = []
            for build in (og.realize, realize_oracle):
                try:
                    outcomes.append(build(s, 1).to_json())
                except ValidationError as exc:
                    outcomes.append((str(exc), exc.witness))
            assert outcomes[0] == outcomes[1], s
            refused += isinstance(outcomes[0], tuple)
    assert refused == 16


def test_realize_counts_and_hyperplane():
    for s in [(1, 2, 1), (1, 2, 2)]:
        R = og.realize(s)
        assert len(R.vertices) == sw.count_s_trees(s)
        cs = R.coordinate_sum()
        assert all(sum(pt) == cs for pt in R.vertices.values())
        assert all(lam > 0 for (_, _, _, lam) in R.edges)


def test_empty_composition_is_refused():
    for call in (og.admissibility_bound, og.default_epsilon, og.realize):
        with pytest.raises(ValidationError, match=r"empty composition s = \(\)"):
            call(())


def test_realize_rejects_huge_epsilon():
    with pytest.raises(ValidationError):
        og.realize((1, 2, 2), Fraction(1, 2))


def test_criterion_9_reports_the_refusal(monkeypatch):
    # criterion 9 leaves the admissibility check to `realize` and reports
    # its refusal with the violated conflict
    monkeypatch.setattr(og, "default_epsilon", lambda s: Fraction(10))
    result = verify.criterion_9(level="quick")
    assert not result["ok"]
    assert result["detail"].startswith("admissibility (1, 1, 2): ((('e', 3, 1),")


def test_zonotope_support():
    s = (1, 2, 2)
    eps = og.default_epsilon(s)
    R = og.realize(s, eps)
    n = len(s)
    for sigma in permutations(range(1, n + 1)):
        for k in range(n - 1):
            a, c = sigma[k], sigma[k + 1]
            if a > c:
                continue
            other = list(sigma)
            other[k], other[k + 1] = other[k + 1], other[k]
            v1 = R.vertices[R.support[sigma]]
            v2 = R.vertices[R.support[tuple(other)]]
            lam = 2 * s[c - 1] * eps ** (c - a)
            diff = tuple(x - y for x, y in zip(v2, v1))
            want = tuple(
                lam if i == a else (-lam if i == c else 0) for i in range(1, n + 1)
            )
            assert diff == want


def test_realization_json():
    R = og.realize((1, 2))
    data = R.to_json()
    json.dumps(data)
    assert data["epsilon"]["num"] == 1
    assert set(data["vertices"]) == {"1,2,2", "2,2,1", "2,1,2"}
    approx = R.to_json(approx=6)
    assert isinstance(next(iter(approx["vertices"].values()))[0], float)


def test_lidskii_identities():
    for s2 in range(5):
        for s3 in range(5):
            assert og.lidskii_identities((1, s2, s3))["equal"]
    rep = og.lidskii_identities((1, 0, 1))
    assert rep["product"] == 4 and rep["equal"]
    for s in [(1, 2, 2), (2, 1, 3), (1, 1, 1, 1, 2)]:
        rep = og.lidskii_identities(s)
        assert rep["equal"] and rep["product"] == sw.count_s_trees(s)


def test_volume_chain():
    for s in [(1, 2, 1), (1, 2, 2), (2, 2, 1)]:
        graph = og.build_oru(s)
        vol = fl.lidskii_volume(graph, fl.netflow_i(graph))
        assert vol == fl.kostant(graph, fl.netflow_d(graph)) == sw.count_s_trees(s)
