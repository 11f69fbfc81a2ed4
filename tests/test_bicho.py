import json

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
