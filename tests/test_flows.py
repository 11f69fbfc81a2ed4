import hashlib
import math
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest

from permutree_lab import bicho as bi
from permutree_lab import caps
from permutree_lab import flows as fl
from permutree_lab import oruga as og
from permutree_lab import permutree as pt
from permutree_lab import s_weak_order as sw
from permutree_lab.errors import ResourceCapError, ValidationError


@pytest.fixture
def G():
    return fl.example_graph()


def doubled_path(n, letters="tu"):
    """n steps of parallel edges, one per letter, framed in letter order."""
    edges = {f"{c}{v}": (v, v + 1) for v in range(n) for c in letters}
    framing = {
        v: {"in": [f"{c}{v-1}" for c in letters], "out": [f"{c}{v}" for c in letters]}
        for v in range(1, n)
    }
    return fl.FramedGraph(n, edges, framing)


def stranded_path(n):
    """An edge "s" from 0 to n beside a doubled path from 1 to n that the
    source never reaches: one route, but 2^(n-1) paths from vertex 1."""
    edges = {"s": (0, n), **{f"{c}{v}": (v, v + 1) for v in range(1, n) for c in "tu"}}
    framing = {
        v: {"in": [f"{c}{v-1}" for c in "tu" if v > 1], "out": [f"{c}{v}" for c in "tu"]}
        for v in range(1, n)
    }
    return fl.FramedGraph(n, edges, framing)


def test_framing_validation():
    with pytest.raises(ValidationError):
        fl.FramedGraph(2, {"a": (0, 1), "b": (1, 2)}, {1: {"in": ["a", "a"], "out": ["b"]}})
    with pytest.raises(ValidationError):
        fl.FramedGraph(2, {"a": (1, 0)}, {})


def test_routes_fixture(G):
    rs = fl.routes(G)
    assert len(rs) == 5
    assert ("c", "r") in rs
    two = fl.routes(doubled_path(1))
    assert len(two) == 2


def recursive_routes(graph):
    """Routes by a depth-first walk from the source, out-edges by `str`."""
    out = []

    def rec(v, acc):
        if v == graph.n:
            out.append(tuple(acc))
            return
        for e in sorted(graph.outgoing[v], key=str):
            rec(graph.head(e), acc + [e])

    rec(0, [])
    return out


def bang_graph():
    """Two steps of parallel edges whose ids order otherwise than the routes'
    `str`s: "a" sorts before "a!", but "('a', 'b!')" before "('a', 'b')"."""
    edges = {"a": (0, 1), "a!": (0, 1), "b": (1, 2), "b!": (1, 2)}
    return fl.FramedGraph(2, edges, {1: {"in": ["a", "a!"], "out": ["b", "b!"]}})


def test_routes_match_the_recursive_oracle(G):
    graphs = [G, bang_graph(), doubled_path(3, "tuv"), stranded_path(3)]
    graphs += [doubled_path(n) for n in range(1, 5)]
    graphs += [graph for _, graph in small_oruga_graphs(7)]
    graphs += [bi.build_bic(pt.Decoration(d)) for d in small_decorations(6)]
    for graph in graphs:
        assert fl.routes(graph) == recursive_routes(graph)



def test_routes_skip_what_the_source_does_not_reach():
    graph = stranded_path(17)
    tracemalloc.start()
    try:
        assert fl.routes(graph) == [("s",)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the 65,536 paths from vertex 1 alone take about 12 MB
    with pytest.raises(ValidationError, match="every edge on a route, not 't1'"):
        fl.max_cliques(graph)

def test_count_routes_matches_enumeration(G):
    graphs = [G] + [doubled_path(n) for n in range(1, 5)]
    graphs += [og.build_oru(s) for s in [(1,), (1, 2, 1), (2, 1, 3), (1, 1, 1, 1, 1)]]
    graphs += [bi.build_bic(pt.Decoration(d)) for d in ["nn", "nxdn", "nudnn", "nnnnnn"]]
    for graph in graphs:
        assert fl.count_routes(graph) == len(fl.routes(graph))


def route_vertices(graph, route):
    return [graph.tail(route[0])] + [graph.head(e) for e in route]


def reference_blocks(graph, p, q):
    """Shared blocks by definition: consecutive common vertices join one
    block when both routes leave the first by the same edge."""
    vp, vq = route_vertices(graph, p), route_vertices(graph, q)
    in_p, in_q = dict(zip(vp[1:], p)), dict(zip(vq[1:], q))
    out_p, out_q = dict(zip(vp, p)), dict(zip(vq, q))
    spans = []
    for v in sorted(set(vp) & set(vq)):
        end = spans[-1][1] if spans else None
        if end is not None and out_p.get(end) is not None and out_p.get(end) == out_q.get(end):
            spans[-1][1] = v
        else:
            spans.append([v, v])
    return [
        {"start": a, "end": b, "entry": (in_p.get(a), in_q.get(a)), "exit": (out_p.get(b), out_q.get(b))}
        for a, b in spans
    ]


def kernel_graphs(G):
    # three parallel edges give frame positions 2 apart, so entries or exits
    # can fail to be frame-adjacent on their own
    graphs = [G, doubled_path(3, "tuv")]
    graphs += [og.build_oru(s) for s in [(1, 2, 1), (2, 1, 2), (1, 1, 1, 1)]]
    return graphs + [bi.build_bic(pt.Decoration(d)) for d in ["nxdn", "nudn", "nnnnn"]]


def test_shared_blocks_match_definition(G):
    for graph in kernel_graphs(G):
        rs = fl.routes(graph)
        for p in rs:
            for q in rs:
                vp, vq = fl._frame(graph, p)[0], fl._frame(graph, q)[0]
                assert list(vp) == route_vertices(graph, p)
                got = [
                    {
                        "start": vp[si],
                        "end": vp[i],
                        "entry": (p[si - 1] if si else None, q[sj - 1] if sj else None),
                        "exit": (p[i] if i < len(p) else None, q[j] if j < len(q) else None),
                    }
                    for si, sj, i, j in fl._blocks(p, q, vp, vq)
                ]
                assert got == reference_blocks(graph, p, q)


def reference_conflicts(graph, p, q):
    """Blocks with both entries and both exits whose orders disagree."""
    return [
        b for b in reference_blocks(graph, p, q)
        if None not in b["entry"] + b["exit"]
        and (graph.in_pos(b["entry"][0]) - graph.in_pos(b["entry"][1]))
        * (graph.out_pos(b["exit"][0]) - graph.out_pos(b["exit"][1])) < 0
    ]


def reference_resolvents(graph, p, q):
    """Swap the tails of the current pair at each conflict's start vertex."""
    cur_p, cur_q = list(p), list(q)
    for block in reference_conflicts(graph, p, q):
        ip = next(k for k, e in enumerate(cur_p) if graph.tail(e) == block["start"])
        iq = next(k for k, e in enumerate(cur_q) if graph.tail(e) == block["start"])
        cur_p, cur_q = cur_p[:ip] + cur_q[iq:], cur_q[:iq] + cur_p[ip:]
    return tuple(cur_p), tuple(cur_q)


def test_conflict_kernel_matches_definition(G):
    for graph in kernel_graphs(G):
        rs = fl.routes(graph)
        minimal = []
        for p, q in combinations(rs, 2):
            confl = reference_conflicts(graph, p, q)
            assert fl.conflicts(graph, p, q) == confl
            if len(confl) == 1 and all(
                abs(pos(e) - pos(f)) == 1
                for pos, (e, f) in ((graph.in_pos, confl[0]["entry"]), (graph.out_pos, confl[0]["exit"]))
            ):
                minimal.append((p, q))
            for a, b in ((p, q), (q, p)):
                if confl:
                    assert fl.resolvents(graph, a, b) == reference_resolvents(graph, a, b)
                else:
                    with pytest.raises(ValidationError):
                        fl.resolvents(graph, a, b)
        assert fl.minimal_conflicts(graph) == minimal
        assert minimal


def test_coherence_structure(G):
    rs = fl.routes(G)
    exceptional = [r for r in rs if all(fl.coherent(G, r, t) for t in rs)]
    assert len(exceptional) == 3
    conflicting = [(p, q) for p, q in combinations(rs, 2) if not fl.coherent(G, p, q)]
    assert conflicting == [(("a", "q"), ("b", "p", "r"))]
    p, q = conflicting[0]
    # reflexive and symmetric, not transitive: the witness
    assert fl.coherent(G, p, p)
    r1 = ("a", "p", "r")
    assert fl.coherent(G, r1, p) and fl.coherent(G, r1, q) and not fl.coherent(G, p, q)


def test_resolvents(G):
    p, q = ("a", "q"), ("b", "p", "r")
    p2, q2 = fl.resolvents(G, p, q)
    assert sorted(map(str, p2 + q2)) == sorted(map(str, p + q))
    assert fl.coherent(G, p2, q2)
    for r in (p, q):
        assert fl.coherent(G, p2, r) and fl.coherent(G, q2, r)
    assert fl.minimal_conflicts(G, (p, q))
    with pytest.raises(ValidationError):
        fl.resolvents(G, ("a", "p", "r"), ("b", "q"))


def test_resolvents_on_oruga_conflicts():
    s = (1, 2, 2)
    graph = og.build_oru(s)
    rs = fl.routes(graph)
    checked = 0
    for p, q in combinations(rs, 2):
        if fl.coherent(graph, p, q):
            continue
        p2, q2 = fl.resolvents(graph, p, q)
        assert sorted(map(str, p2 + q2)) == sorted(map(str, p + q))
        assert fl.coherent(graph, p2, q2)
        assert fl.coherent(graph, p2, p) and fl.coherent(graph, p2, q)
        assert fl.coherent(graph, q2, p) and fl.coherent(graph, q2, q)
        checked += 1
    assert checked > 0


def test_max_cliques_fixture(G):
    cls = fl.max_cliques(G)
    assert len(cls) == 2
    core = frozenset({("a", "p", "r"), ("b", "q"), ("c", "r")})
    assert all(core < cl and len(cl) == 4 for cl in cls)


def test_max_cliques_all_coherent():
    graph = doubled_path(1)
    cls = fl.max_cliques(graph)
    assert len(cls) == 1 and len(cls[0]) == 2


def test_integer_flows_and_kostant(G):
    assert fl.kostant(G, (0, 1, 1, -2)) == 2
    assert len(fl.integer_flows(G, (0, 1, 1, -2))) == 2
    assert fl.kostant(G, (0, 0, 0, 0)) == 1
    flows = fl.integer_flows(G, fl.netflow_i(G))
    assert len(flows) == len(fl.routes(G))
    indicators = {frozenset((e, int(e in r)) for e in G.edges) for r in fl.routes(G)}
    assert {frozenset(f.items()) for f in flows} == indicators
    with pytest.raises(ValidationError):
        fl.kostant(G, (1, 0, 0, 0))


def test_kostant_dp_equals_enumeration(G):
    graphs = [G, doubled_path(2), doubled_path(3), og.build_oru((1, 2, 1))]
    for graph in graphs:
        for a in (fl.netflow_i(graph), fl.netflow_d(graph)):
            assert fl.kostant(graph, a) == len(fl.integer_flows(graph, a))


def test_kostant_merges_states_that_differ_only_at_spent_vertices(monkeypatch):
    """n + 14 'd' + n has Catalan(16) d-flows.  With each spent supply zeroed
    no layer holds more than 15 states; keyed by every supply, the layers of
    n + 11 'd' + n alone grew past the default 100,000."""
    graph = bi.build_bic(pt.Decoration("n" + "d" * 14 + "n"))
    monkeypatch.setitem(caps.DEFAULT_CAPS, "kostant_states", 14)
    tracemalloc.start()
    try:
        count = fl.kostant(graph, fl.netflow_d(graph), cap=15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 35_357_670 and peak < 1_000_000
    with pytest.raises(ResourceCapError, match="kostant_states: requested size 15 exceeds cap 14"):
        fl.kostant(graph, fl.netflow_d(graph))


def test_non_integral_netflow_is_refused(G):
    for call, a in [
        (fl.kostant, (1.9, 0, 0, -1.9)),
        (fl.integer_flows, (Fraction(3, 2), 0, 0, Fraction(-3, 2))),
        (fl.lidskii_volume, (1.5, 0, 0, -1.5)),
    ]:
        with pytest.raises(ValidationError, match=re.escape(f"netflow entry {a[0]!r} is not an integer")):
            call(G, a)
    assert fl.kostant(G, (1.0, 0, 0, -1.0)) == fl.kostant(G, (1, 0, 0, -1)) == 5


# Kostant counts and sorted integer-flow sets for the netflows i and d of
# the 469 graphs of `test_flows_are_pinned`, as the depth-first spreads
# over each out-edge and each distinct head gave them
FLOWS_SHA256 = "67ccd6617dd640f10492d57b8ba38f015edf3c2659d7347f1b638635d0b06bb6"


def test_flows_are_pinned(G):
    graphs = [G] + [graph for _, graph in small_oruga_graphs(7)]
    graphs += [bi.build_bic(pt.Decoration(d)) for d in small_decorations(6)]
    assert len(graphs) == 469
    digest = hashlib.sha256()
    for graph in graphs:
        edges = sorted(graph.edges, key=str)
        for a in (fl.netflow_i(graph), fl.netflow_d(graph)):
            flows = sorted(tuple(f[e] for e in edges) for f in fl.integer_flows(graph, a))
            count = fl.kostant(graph, a)
            assert count == len(flows) == len(set(flows))
            digest.update(repr((a, count, flows)).encode())
    assert digest.hexdigest() == FLOWS_SHA256


def test_dkk_height_values(G):
    eps = Fraction(1, 100)
    assert fl.dkk_height(("c", "r"), G, eps) == 0  # both frame positions are 0
    # single-edge route has an empty sum
    H = doubled_path(1)
    assert fl.dkk_height(("t0",), H, eps) == 0
    # two-edge route with in_pos(e1)=1, out_pos(e2)=0 evaluates to -eps
    assert fl.dkk_height(("b", "p"), G, eps) == -eps
    with pytest.raises(ValidationError):
        fl.dkk_height(("b", "p"), G, 0)


def test_admissibility(G):
    eps = Fraction(1, 100)
    rs = fl.routes(G)
    h = {r: fl.dkk_height(r, G, eps) for r in rs}
    assert fl.is_admissible(G, h)
    assert not fl.is_admissible(G, {r: Fraction(0) for r in rs})
    ok, witness = fl.is_admissible(G, {r: Fraction(0) for r in rs}, witness=True)
    assert not ok and witness is not None


def test_lidskii_volume(G):
    assert fl.lidskii_volume(G, fl.netflow_i(G)) == 2
    for n in (2, 3, 4):
        C = doubled_path(n)
        vol = fl.lidskii_volume(C, fl.netflow_i(C))
        assert vol == fl.kostant(C, fl.netflow_d(C)) == math.factorial(C.dimension())
    with pytest.raises(ValidationError):
        fl.lidskii_volume(G, (0, 1, -2, 1))


def test_count_dominance_compositions_matches_enumeration():
    for total in range(-1, 7):
        for parts in range(5):
            for mins in product(range(-1, 3), repeat=parts):
                want = len(list(fl.dominance_compositions(total, parts, mins)))
                assert fl.count_dominance_compositions(total, parts, mins) == want


def test_dominance_compositions_edge_cases():
    for total in range(7):
        for parts in range(1, 5):
            got = list(fl.dominance_compositions(total, parts, (0,) * parts))
            assert len(set(got)) == len(got) == math.comb(total + parts - 1, parts - 1)
            assert got == sorted(got) and all(sum(j) == total and min(j) >= 0 for j in got)
    assert [list(fl.dominance_compositions(t, 0, ())) for t in (-1, 0, 1)] == [[], [()], []]
    for parts in range(5):
        assert list(fl.dominance_compositions(-1, parts, (0,) * parts)) == []
    # lazy: the first of C(10**6 + 5, 5) compositions comes at once
    assert next(iter(fl.dominance_compositions(10**6, 6, (0,) * 6))) == (0,) * 5 + (10**6,)


def test_lidskii_terms_cap(monkeypatch):
    graph = bi.build_bic(pt.Decoration("n" * 6))
    # the netflow i leaves one term, j = (m - n, 0, ..., 0), of the 132 that
    # dominate the shifted outdegrees; the volume is K_G(netflow d)
    assert fl.lidskii_volume(graph, fl.netflow_i(graph)) == fl.kostant(graph, fl.netflow_d(graph))
    a = (1,) * 6 + (-6,)  # a full support: all 132 terms, a Catalan number
    monkeypatch.setitem(caps.DEFAULT_CAPS, "lidskii_terms", 131)
    with pytest.raises(ResourceCapError, match="lidskii_terms: requested size 132 exceeds cap 131"):
        fl.lidskii_volume(graph, a)
    assert fl.lidskii_volume(graph, a, cap=132) == 518_400
    monkeypatch.undo()
    big = bi.build_bic(pt.Decoration("n" * 16))
    with pytest.raises(ResourceCapError, match="requested size 35357670 exceeds cap 1000000"):
        fl.lidskii_volume(big, (1,) * 16 + (-16,))
    graph = bi.build_bic(pt.Decoration("n" * 13))  # one term of 742,900 with the netflow i
    terms, kostant = [], fl.kostant
    monkeypatch.setattr(fl, "kostant", lambda g, a, cap=None: terms.append(a) or kostant(g, a, cap))
    assert fl.lidskii_volume(graph, fl.netflow_i(graph)) == 6_227_020_800
    assert len(terms) == 1


def _lidskii_full_sum(graph, a):
    """The first Lidskii formula summed over every j that dominates the
    shifted outdegrees, zero terms included: the oracle of `lidskii_volume`."""
    n, m = graph.n, len(graph.edges)
    o = [d - 1 for d in graph.outdegrees()[:n]]
    return sum(
        math.factorial(m - n) // math.prod(map(math.factorial, j)) * math.prod(map(pow, a, j))
        * fl.kostant(graph, (*(k - d for k, d in zip(j, o)), 0))
        for j in fl.dominance_compositions(m - n, n, o)
    )


def test_lidskii_volume_sums_over_the_support_of_the_netflow(G):
    """Every netflow with entries 0..2 on small graphs, among them one whose
    vertex 1 has no out-edge, so its shifted outdegree is -1."""
    stub = fl.FramedGraph(
        3,
        {"a": (0, 1), "b": (0, 2), "c": (0, 2), "d": (2, 3), "e": (0, 3)},
        {1: {"in": ["a"], "out": []}, 2: {"in": ["b", "c"], "out": ["d"]}},
    )
    graphs = [G, stub] + [og.build_oru(s) for s in [(1, 2, 1), (2, 1), (1, 1, 1), (1, 2, 2)]]
    graphs += [bi.build_bic(pt.Decoration(d)) for d in ["nnn", "nxdn", "nddn", "nuxdn", "nnnnn"]]
    checked = 0
    for graph in graphs:
        for head in product(range(3), repeat=graph.n):
            a = (*head, -sum(head))
            assert fl.lidskii_volume(graph, a) == _lidskii_full_sum(graph, a), a
            checked += 1
    assert checked == 999


def test_omega_bijection(G):
    cls = fl.max_cliques(G)
    images = {frozenset(fl.omega(cl, G).items()) for cl in cls}
    dflows = {frozenset(f.items()) for f in fl.integer_flows(G, fl.netflow_d(G))}
    assert images == dflows
    with pytest.raises(ValidationError):
        fl.omega(frozenset({("c", "r")}), G)


def test_graph_json_roundtrip(G):
    data = G.to_json()
    again = fl.graph_from_json(data)
    assert again.to_json() == data
    assert fl.kostant(again, (0, 1, 1, -2)) == 2


def test_dimension_and_clique_size():
    for s in [(1, 2, 1), (2, 2)]:
        graph = og.build_oru(s)
        want = len(graph.edges) - (graph.n + 1) + 2
        for cl in fl.max_cliques(graph):
            assert len(cl) == want


def strict_compositions(total):
    if total == 0:
        return [()]
    return [(k,) + rest for k in range(1, total + 1) for rest in strict_compositions(total - k)]


def small_oruga_graphs(most=6):
    """The s-oruga graph of every strict composition with |s| <= most."""
    return [(s, og.build_oru(s)) for total in range(1, most + 1) for s in strict_compositions(total)]


def small_decorations(most=5):
    """Every decoration with 2 <= n <= most (its ends are 'n')."""
    return ["n" + "".join(mid) + "n" for k in range(most - 1) for mid in product(pt.SYMBOLS, repeat=k)]


def test_kostant_of_netflow_d_counts_the_max_cliques(G, monkeypatch):
    """The count the `cliques` cap reads: K_G(netflow d) is the normalized
    volume of the flow polytope, so every framing has that many cliques."""
    graphs = [G, bang_graph()] + [graph for _, graph in small_oruga_graphs(5)]
    graphs += [bi.build_bic(pt.Decoration(d)) for d in small_decorations(5)]
    for graph in graphs:
        assert fl.kostant(graph, fl.netflow_d(graph)) == len(fl.max_cliques(graph))
    graph = og.build_oru((1, 1, 1, 1))  # 16 routes, 24 cliques
    monkeypatch.setitem(caps.DEFAULT_CAPS, "cliques", 23)
    with pytest.raises(ResourceCapError, match="cliques: requested size 24 exceeds cap 23"):
        fl.max_cliques(graph)
    assert len(fl.max_cliques(graph, cap=24)) == 24


def recursive_max_cliques(graph):
    """Maximal cliques by Bron-Kerbosch with pivoting as a recursion, ordered
    by the sorted strs of their routes.  The oracle for `max_cliques`, which
    runs the same search on an explicit stack."""
    rs = fl.routes(graph)
    idx = range(len(rs))
    adj = {i: set() for i in idx}
    for i, j in combinations(idx, 2):
        if fl.coherent(graph, rs[i], rs[j]):
            adj[i].add(j)
            adj[j].add(i)
    out = []

    def extend(clique, cand, excl):
        if not cand and not excl:
            out.append(frozenset(rs[i] for i in clique))
            return
        pivot = max(cand | excl, key=lambda u: len(adj[u] & cand))
        for v in sorted(cand - adj[pivot]):
            extend(clique | {v}, cand & adj[v], excl & adj[v])
            cand = cand - {v}
            excl = excl | {v}

    extend(frozenset(), set(idx), set())
    return sorted(out, key=lambda cl: sorted(map(str, cl)))


def test_max_cliques_are_ordered_by_route_strs():
    # the routes of `bang_graph` come out of `routes` in another order than their strs
    graphs = [bang_graph()] + [graph for _, graph in small_oruga_graphs()]
    graphs += [bi.build_bic(pt.Decoration(d)) for d in small_decorations()]
    assert len(graphs) == 149
    for graph in graphs:
        cls = fl.max_cliques(graph)
        assert cls == sorted(cls, key=lambda cl: sorted(map(str, cl)))
        assert cls == recursive_max_cliques(graph)


def dual_covers_oracle(graph, cliques):
    """Cover pairs of the oriented dual graph, with facets as frozensets of
    routes and each adjacency oriented by `reference_conflicts`."""
    facets = {}
    for cl in cliques:
        for route in cl:
            facets.setdefault(cl - {route}, []).append(cl)
    covers = set()
    for owners in facets.values():
        assert len(owners) <= 2
        if len(owners) == 2:
            c1, c2 = owners
            (p,), (q,) = c1 - c2, c2 - c1
            (block,) = reference_conflicts(graph, p, q)
            entries, exits = block["entry"], block["exit"]
            p_lower = graph.in_pos(entries[0]) < graph.in_pos(entries[1]) and (
                graph.out_pos(exits[0]) > graph.out_pos(exits[1])
            )
            covers.add((c1, c2) if p_lower else (c2, c1))
    return covers


def test_dual_covers_match_the_oracle():
    for s, graph in small_oruga_graphs():
        H = og.hasse_from_adjacency(s)
        cliques = {og.delta_w(w, s): w for w in H.elements}
        want = {(cliques[lo], cliques[hi]) for lo, hi in dual_covers_oracle(graph, cliques)}
        assert H.cover_pairs() == want, s
    for d in small_decorations():
        H = bi.rotation_from_adjacency(d)
        want = dual_covers_oracle(bi.build_bic(pt.Decoration(d)), H.elements)
        assert H.cover_pairs() == want, d


def lookup_conflicts(graph, p, q, vp, vq):
    """The conflict kernel with each block's entry and exit frame positions
    looked up in the graph, not read from the routes' frames."""
    out = []
    for si, sj, i, j in fl._blocks(p, q, vp, vq):
        if si and sj and i < len(p) and j < len(q):
            din = graph.in_pos(p[si - 1]) - graph.in_pos(q[sj - 1])
            dout = graph.out_pos(p[i]) - graph.out_pos(q[j])
            if din * dout < 0:
                out.append((si, sj, i, j, din, dout))
    return out


def test_conflict_kernel_matches_the_lookup_oracle(monkeypatch):
    """On every s-oruga graph with |s| <= 6 and every bicho graph with n <= 5:
    the kernel agrees with `lookup_conflicts` on every ordered route pair,
    and `conflicts`, `resolvents`, `minimal_conflicts` and `_dual_covers`
    give the same with the oracle patched in for the kernel."""
    cases = [
        (graph, [og.delta_w(w, s) for w in sw.all_words(s)]) for s, graph in small_oruga_graphs()
    ]
    cases += [
        (bi.build_bic(pt.Decoration(d)), bi.rotation_from_adjacency(d).elements)
        for d in small_decorations()
    ]
    minimal = 0
    for graph, cliques in cases:
        rs = fl.routes(graph)
        masks = fl._clique_masks(rs, cliques)
        frames = [fl._frame(graph, r) for r in rs]
        for r, (vertices, ins, outs) in zip(rs, frames):
            assert list(vertices) == route_vertices(graph, r)
            assert list(ins) == [graph.in_pos(e) for e in r]
            assert list(outs) == [graph.out_pos(e) for e in r]
        for (p, fp), (q, fq) in product(zip(rs, frames), repeat=2):
            assert fl._conflicts(p, q, fp, fq) == lookup_conflicts(graph, p, q, fp[0], fq[0])
        pairs = [(p, q) for p, q in product(rs, repeat=2) if p != q]

        def run():
            confl = [fl.conflicts(graph, p, q) for p, q in pairs]
            resolved = [fl.resolvents(graph, p, q) for (p, q), c in zip(pairs, confl) if c]
            return confl, resolved, fl.minimal_conflicts(graph), fl._dual_covers(graph, rs, masks)

        got = run()
        minimal += len(got[2])
        with monkeypatch.context() as m:

            def oracle(p, q, fp, fq):
                return lookup_conflicts(graph, p, q, fp[0], fq[0])

            m.setattr(fl, "_conflicts", oracle)
            assert run() == got
    assert minimal > 0


def test_dual_orients_each_route_pair_once(monkeypatch):
    calls = []
    kernel = fl._conflicts

    def counted(p, q, fp, fq):
        calls.append((p, q))
        return kernel(p, q, fp, fq)

    monkeypatch.setattr(fl, "_conflicts", counted)
    s = (1,) * 6
    H = og.hasse_from_adjacency(s)
    pairs = {og.delta_w(lo, s) ^ og.delta_w(hi, s) for lo, hi in H.cover_pairs()}
    assert all(len(pair) == 2 for pair in pairs)
    assert len(calls) == len(pairs) < len(H.covers)


def test_dual_kernel_checks(G):
    rs = fl.routes(G)  # only routes 1 and 2 conflict
    assert fl._dual_covers(G, rs, [0b00011, 0b00101]) == [(0, 1)]
    with pytest.raises(AssertionError, match="more than two sides"):
        fl._dual_covers(G, rs, [0b00011, 0b00101, 0b01001])
    with pytest.raises(AssertionError, match="single conflict"):
        fl._dual_covers(G, rs, [0b00011, 0b01001])
