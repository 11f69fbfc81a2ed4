import json
from bisect import bisect_left

import pytest

from permutree_lab import bicho as bi
from permutree_lab import flows as fl
from permutree_lab import permutree as pt
from permutree_lab.errors import ValidationError
from permutree_lab.posets import isomorphic_via


def test_build_structure():
    for text in ["nnnn", "ndn", "nxxn", "nudn", "nnnnn", "nxdun"]:
        d = pt.Decoration(text)
        G = bi.build_bic(d)
        n = d.n
        want = (
            2 * n
            + sum(1 for c in d.symbols if c in "du")
            + 2 * sum(1 for c in d.symbols if c == "x")
        )
        assert len(G.edges) == want
        assert bi.netflow_d(G) == (0,) + (1,) * (n - 1) + (-(n - 1),)


def test_none_is_oruga_updown_is_mariposa():
    G = bi.oruga_graph(4)
    assert set(G.edges) == {(r, l) for r in "bd" for l in range(1, 5)}
    M = bi.mariposa_graph(4)
    moved = {("b", 2), ("d", 2), ("b", 3), ("d", 3)}
    for role, l in moved:
        assert (role + "s", l) in M.edges and (role + "t", l) in M.edges
    # caracol-type graph: one down at an inner position moves one dip
    C = bi.build_bic(pt.Decoration("ndnn"))
    assert ("ds", 3) in C.edges and ("dt", 3) in C.edges and ("b", 3) in C.edges


def test_refinement_matches_moves():
    d1, d2 = pt.Decoration("ndnn"), pt.Decoration("nxnn")
    assert d1.refines(d2)
    assert set(bi.moved_edges(d1)) < set(bi.moved_edges(d2))


def test_split_route():
    n = 5
    Rd = bi.all_dip_route_oru(n)
    untouched = bi.split_route(Rd, ("b", 3))
    assert untouched == frozenset({Rd})
    parts = bi.split_route(Rd, ("d", 3))
    assert parts == frozenset(
        {
            (("d", 5), ("d", 4), ("dt", 3)),
            (("ds", 3), ("d", 2), ("d", 1)),
        }
    )
    # M on both exceptional routes yields the exceptional routes of the image
    for text in ["nxdun", "nddn", "nuun"]:
        d = pt.Decoration(text)
        moved = bi.moved_edges(d)
        image = bi.split_clique(
            frozenset({bi.all_dip_route_oru(d.n), bi.all_bump_route_oru(d.n)}), moved
        )
        G = bi.build_bic(d)
        rs = fl.routes(G)
        exceptional = {r for r in rs if all(fl.coherent(G, r, t) for t in rs)}
        assert image <= exceptional


def test_counts_identity():
    for n in (2, 3, 4):
        for d in pt.normalized_decorations(n):
            flows = bi.count_d_flows(d)
            cliques = len(fl.max_cliques(bi.build_bic(d)))
            trees = pt.count_permutrees(d)
            assert flows == cliques == trees


def test_dflow_bijection_roundtrip():
    for d in pt.normalized_decorations(4):
        if not set(d.symbols) <= {"n", "d"}:
            with pytest.raises(ValidationError):
                bi.permutree_to_dflow(pt.bottom(d))
            continue
        lat = pt.rotation_lattice(d)
        graph = bi.build_bic(d)
        images = set()
        for tree in lat.elements:
            f = bi.permutree_to_dflow(tree)
            assert bi.dflow_to_permutree(f, d) == tree
            images.add(frozenset(f.items()))
        want = {frozenset(f.items()) for f in fl.integer_flows(graph, bi.netflow_d(graph))}
        assert images == want


def test_figure_flow_example():
    d = pt.Decoration("ndndn")
    graph = bi.build_bic(d)
    bumps = {1: 0, 2: 1, 3: 2, 4: 1, 5: 2}
    flow = {e: 0 for e in graph.edges}
    dd = bi.netflow_d(graph)
    for i, v in bumps.items():
        flow[("b", 6 - i)] = v
    for v in range(1, 5):
        into = sum(flow[e] for e in graph.incoming[v])
        dip = ("d", 5 - v) if ("d", 5 - v) in graph.edges else ("dt", 5 - v)
        flow[dip] = into + dd[v] - flow[("b", 5 - v)]
    tree = bi.dflow_to_permutree(flow, d)
    back = bi.permutree_to_dflow(tree)
    assert all(back[("b", 6 - i)] == bumps[i] for i in bumps)
    # zero flow gives the bottom permutree
    zero = {e: 0 for e in graph.edges}
    for v in range(1, 5):
        into = sum(zero[e] for e in graph.incoming[v])
        dip = ("d", 5 - v) if ("d", 5 - v) in graph.edges else ("dt", 5 - v)
        zero[dip] = into + dd[v]
    assert bi.dflow_to_permutree(zero, d) == pt.bottom(d)


def test_permutree_clique_matches_oracle():
    for n in (2, 3, 4):
        for d in pt.normalized_decorations(n):
            lat = pt.rotation_lattice(d)
            got = {bi.permutree_clique(t) for t in lat.elements}
            want = set(fl.max_cliques(bi.build_bic(d)))
            assert got == want


def test_clique_size_from_the_decoration_is_the_graph_dimension():
    # `permutree_clique` checks its size against n + 1 + |moved edges|
    # without building the graph; tie that formula to the graph itself
    checked = 0
    for n in range(1, 10):
        for d in pt.normalized_decorations(n):
            assert n + 1 + len(bi.moved_edges(d)) == bi.build_bic(d).dimension() + 1, d
            checked += 1
    assert checked == 21846  # sum over 1 <= n <= 9 of 4^max(n-2, 0)


def _replay_clique(tree):
    """The permutree's clique by the modified insertion algorithm.

    Replays the tree children first: each child slot of a node catches the
    route its occupant carries (or, when empty, the bottom route of its wall
    interval), and the node rewrites the dip of its level into the bump,
    splitting or gluing by the decoration.  The caught and carried routes
    label the tree's edges.
    """
    delta = tree.delta
    n = tree.n
    walls = [i for i in range(2, n) if delta[i] in pt.DOWNISH]
    # bottom routes: the all-dip route cut at the down-ish walls, left to right
    bottoms = []
    route = bi.all_dip_route_oru(n)
    for i in walls:
        l = n + 1 - i
        k = route.index(("d", l))
        bottoms.append(route[:k] + (("dt", l),))
        route = (("ds", l),) + route[k + 1 :]
    bottoms.append(route)
    carried = {}  # (node, parent slot) -> route leaving the node through it
    labels = []
    for v in pt.children_first(tree):
        l = n + 1 - v
        base = bisect_left(walls, v)
        caught = [
            bottoms[base + k] if c is None else carried[c, tree.parents[c - 1].index(v)]
            for k, c in enumerate(tree.children[v - 1])
        ]
        labels.extend(caught)
        if delta[v] in pt.DOWNISH:
            left, right = caught
            assert left[-1] == ("dt", l) and right[0] == ("ds", l), v
            prefix, suffix = left[:-1], right[1:]
        else:
            (route,) = caught
            k = route.index(("d", l))
            prefix, suffix = route[:k], route[k + 1 :]
        if delta[v] in pt.UPISH:
            carried[v, 0] = prefix + (("bt", l),)
            carried[v, 1] = (("bs", l),) + suffix
        else:
            carried[v, 0] = prefix + (("b", l),) + suffix
    labels.extend(
        route for (v, k), route in carried.items() if tree.parents[v - 1][k] is None
    )
    return frozenset(labels)


def test_split_chain_clique_matches_the_replay():
    # every tree of every decoration with n <= 5: 2,951 trees
    trees = 0
    for n in range(1, 6):
        for d in pt.normalized_decorations(n):
            for tree in pt.rotation_lattice(d).elements:
                assert bi.permutree_clique(tree) == _replay_clique(tree), tree
                trees += 1
    assert trees == 2951


def test_bottom_clique_contains_exceptionals():
    for text in ["nnnn", "nxdn", "nudn"]:
        d = pt.Decoration(text)
        moved = bi.moved_edges(d)
        exceptional = bi.split_clique(
            frozenset({bi.all_dip_route_oru(d.n), bi.all_bump_route_oru(d.n)}), moved
        )
        cl = bi.permutree_clique(pt.bottom(d))
        assert exceptional <= cl


def test_rotation_from_adjacency():
    for n in (2, 3, 4):
        for d in pt.normalized_decorations(n):
            lat = pt.rotation_lattice(d)
            dual = bi.rotation_from_adjacency(d)
            mapping = {t: bi.permutree_clique(t) for t in lat.elements}
            assert isomorphic_via(lat, dual, mapping)


def test_conjecture_reports():
    for d in pt.normalized_decorations(4):
        rep = bi.check_conjectures(d)
        json.dumps(rep)
        assert rep["counts"]["flows"] == rep["counts"]["permutrees"]
        assert rep["conjecture_2"] == "PASS"
        if set(pt.Decoration(rep["delta"]).symbols) <= {"n", "d"}:
            assert rep["conjecture_1"] == "PASS"
        else:
            assert rep["conjecture_1"] == "N/A"


def test_updown_product_decomposition():
    # flows of delta' x delta'' factor into the two sections
    for text in ["nxn", "nxdn", "ndxun"]:
        d = pt.Decoration(text)
        rep = bi.check_conjectures(d)
        assert rep["conjecture_2"] == "PASS"
    assert bi.count_d_flows(pt.Decoration("ndxun")) == bi.count_d_flows(
        pt.Decoration("ndn")
    ) * bi.count_d_flows(pt.Decoration("nun"))


def test_equivariance():
    assert bi.equivariance_holds("nudn", "nddn")
    assert bi.equivariance_holds("nuxun", "ndxdn")
    with pytest.raises(ValidationError):
        bi.equivariance_holds("nudn", "nnnn")
    for a, b in (("nnn", "nnnn"), ("nnnn", "nnn")):  # zip would drop the last symbol
        with pytest.raises(ValidationError, match="same length"):
            bi.equivariance_holds(a, b)
