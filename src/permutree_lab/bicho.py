"""M-moves on the oruga graph, bicho graphs, and the recovery of permutree
lattices from their triangulations.

The oruga graph has vertices 0..n and a bump ("b", l) plus dip ("d", l)
between v_{n-l} and v_{n+1-l} for each level l.  A decoration symbol at
position i acts on level l = n+1-i: 'u'/'x' move the bump, 'd'/'x' move the
dip, replacing the edge by a source ("bs"/"ds", l) out of v_0 and a sink
("bt"/"dt", l) into v_n, both inheriting the frame slot of the removed edge.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

from . import flows as fl
from .caps import require_cap
from .errors import ValidationError
from .permutree import (
    DOWNISH,
    UPISH,
    Decoration,
    Permutree,
    as_decoration,
    children_first,
    count_permutrees,
    insert,
    updown_sections,
)
from .posets import Hasse
from .weak_order import check_perm


def _level(i, n):
    return n + 1 - i


def moved_edges(delta):
    """Edge ids of oru_n removed by the M-moves of a decoration."""
    n = delta.n
    out = []
    for i in range(2, n):
        l = _level(i, n)
        if delta[i] in UPISH:
            out.append(("b", l))
        if delta[i] in DOWNISH:
            out.append(("d", l))
    return out


def build_bic(delta) -> fl.FramedGraph:
    """The framed bicho graph of a decoration.

    none^n is the oruga graph, all-updown the mariposa graph; refinement of
    decorations matches performing more M-moves.
    """
    delta = as_decoration(delta)
    n = delta.n
    if n < 1:
        raise ValidationError("need n >= 1")
    moved = set(moved_edges(delta))
    edges = {}
    for l in range(1, n + 1):
        tail, head = n - l, n + 1 - l
        for role in ("b", "d"):
            if (role, l) in moved:
                edges[(role + "s", l)] = (0, head)
                edges[(role + "t", l)] = (tail, n)
            else:
                edges[(role, l)] = (tail, head)
    framing = {}
    for v in range(1, n):
        ins = [_edge(edges, role, n + 1 - v, "s") for role in ("b", "d")]
        outs = [_edge(edges, role, n - v, "t") for role in ("b", "d")]
        framing[v] = {"in": ins, "out": outs}
    return fl.FramedGraph(n, edges, framing)


def _edge(edges, role, l, half):
    """The edge (role, l), or its moved half (role + half, l), half 's' or 't'."""
    return (role, l) if (role, l) in edges else (role + half, l)


def oruga_graph(n) -> fl.FramedGraph:
    return build_bic(Decoration("n" * n))


def mariposa_graph(n) -> fl.FramedGraph:
    return build_bic(Decoration("n" + "x" * (n - 2) + "n"))


def all_dip_route_oru(n):
    return tuple(("d", l) for l in range(n, 0, -1))


def all_bump_route_oru(n):
    return tuple(("b", l) for l in range(n, 0, -1))


def split_route(route, edge):
    """Effect of the M-move on one route: a pair when the route uses the moved
    edge (prefix jumps to the sink, a fresh source covers the suffix), the
    unchanged route otherwise."""
    route = tuple(route)
    if edge not in route:
        return frozenset({route})
    role, l = edge
    k = route.index(edge)
    sink_part = route[:k] + ((role + "t", l),)
    source_part = ((role + "s", l),) + route[k + 1 :]
    if k == 0:
        return frozenset({source_part})  # no prefix: only the source side remains
    if k == len(route) - 1:
        return frozenset({sink_part})
    return frozenset({sink_part, source_part})


def split_clique(clique, edges):
    out = set()
    for route in clique:
        pieces = {route}
        for e in edges:
            nxt = set()
            for r in pieces:
                nxt |= split_route(r, e)
            pieces = nxt
        out |= pieces
    return frozenset(out)


def netflow_d(graph) -> tuple:
    """(0, 1, ..., 1, -n+1): constant for every bicho graph."""
    d = fl.netflow_d(graph)
    want = (0,) + (1,) * (graph.n - 1) + (-(graph.n - 1),)
    if d != want:
        raise AssertionError(f"bicho d-netflow {d} differs from {want}")
    return d


def count_d_flows(delta, cap=None) -> int:
    delta = as_decoration(delta)
    if delta.n == 0:
        return 1
    graph = build_bic(delta)
    return fl.kostant(graph, netflow_d(graph), cap=cap)


# --- d-flows <-> permutrees (decorations over {none, down}) -----------------


def _require_no_ups(delta):
    if any(c in UPISH for c in delta.symbols):
        raise ValidationError(
            "the d-flow <-> permutree bijection needs a {none, down} decoration; "
            "only counting is available beyond"
        )


def permutree_to_dflow(tree) -> dict:
    """Bump flows count the smaller-labeled strict ancestors of each node."""
    delta = tree.delta
    _require_no_ups(delta)
    n = tree.n
    graph = build_bic(delta)
    rows = tree.inversion_rows()
    flow = {e: 0 for e in graph.edges}
    for i in range(1, n + 1):  # the bump: the j < i whose row holds i
        flow[("b", _level(i, n))] = sum(rows[j] >> i & 1 for j in range(1, i))
    # dips are forced by conservation at each inner vertex
    d = netflow_d(graph)
    for v in range(1, n):
        into = sum(flow[e] for e in graph.incoming[v])
        bump_edge, dip_edge = (_edge(graph.edges, role, n - v, "t") for role in ("b", "d"))
        flow[dip_edge] = into + d[v] - flow[bump_edge]
        if flow[dip_edge] < 0:
            raise AssertionError("negative dip flow from a permutree")
    return flow


def dflow_to_permutree(flow, delta) -> Permutree:
    """Insertion from the heights i - f(bump at level n+1-i)."""
    delta = as_decoration(delta)
    _require_no_ups(delta)
    n = delta.n
    graph = build_bic(delta)
    v = fl.conservation_violation(graph, flow)
    if v is not None:
        raise ValidationError(f"flow violates conservation at v{v}")
    bumps = {i: flow[_edge(graph.edges, "b", _level(i, n), "s")] for i in range(1, n + 1)}
    heights = []  # one-line word, bottom to top
    for i in range(1, n + 1):
        pos = i - bumps[i] - 1
        if not 0 <= pos <= len(heights):
            raise ValidationError(f"bump flow at node {i} out of range")
        heights.insert(pos, i)
    return insert(check_perm(heights), delta)


# --- modified insertion: permutree -> maximal clique of bic ------------------


def permutree_clique(tree) -> frozenset:
    """The maximal clique of the bicho graph that labels a permutree.

    Along the linear extension pi = `children_first(tree)`, the oruga graph's
    routes form a chain clique: route k takes the bump at the levels of
    pi_1..pi_k and the dip at every other level.  The decoration's M-moves
    split that chain into the permutree's clique; every linear extension of
    the tree gives the same one.  Its size must be the bicho graph's
    dimension() + 1, which is n + 1 plus one per moved edge.
    """
    n = tree.n
    route = list(all_dip_route_oru(n))  # entry v - 1 is the edge at node v's level
    chain = [tuple(route)]
    for v in children_first(tree):
        route[v - 1] = ("b", _level(v, n))
        chain.append(tuple(route))
    moved = moved_edges(tree.delta)
    clique = split_clique(chain, moved)
    want = n + 1 + len(moved)
    if len(clique) != want:
        raise AssertionError(f"permutree clique size {len(clique)} != {want}")
    return clique


def rotation_from_adjacency(delta, cap=None) -> Hasse:
    """Oriented dual adjacency graph of the bicho triangulation; isomorphic to
    the rotation lattice via `permutree_clique`."""
    delta = as_decoration(delta)
    graph = build_bic(delta)
    cliques = fl.max_cliques(graph, cap)
    covers = fl.dual_adjacency_covers(graph, cliques)
    return Hasse(cliques, set(covers))


# --- conjecture checkers ------------------------------------------------------


def _flow_count(symbols, memo, cap) -> int:
    """Flow count of a decoration's symbols; `memo` is local to one report."""
    if symbols not in memo:
        memo[symbols] = count_d_flows(Decoration(symbols), cap)
    return memo[symbols]


def _inner_sum(section, memo, cap) -> int:
    """Conjectured recursion for a {none, down} section, on flow counts.

    Strips a maximal chain of 'n' roots (any of |J|! orders), then a 'd' root
    splitting the remaining labels; an all-'n' section contributes its
    factorial directly.  `cap` bounds each flow count's Kostant DP.
    """
    sec = tuple(section)
    m = len(sec)
    downs = [r for r, c in enumerate(sec) if c == "d"]
    nones = [r for r, c in enumerate(sec) if c == "n"]
    if not downs:
        return factorial(m)
    total = 0
    for r in downs:
        for k in range(len(nones) + 1):
            for J in combinations(nones, k):
                Jset = set(J)
                left = tuple(sec[x] for x in range(r) if x not in Jset)
                right = tuple(sec[x] for x in range(r + 1, m) if x not in Jset)
                total += factorial(k) * _flow_count(left, memo, cap) * _flow_count(right, memo, cap)
    return total


def check_conjectures(delta, cap=None) -> dict:
    """Evaluate both conjectured recursions on exact flow counts.

    Conjecture 1 applies to {none, down} decorations; conjecture 2 multiplies
    the same inner sum over the updown sections, flipping each 'u' to 'd'
    inside a section first (the flow counts are invariant under that swap;
    the swap instances are reported as witnesses).  Results are reported,
    never asserted as theorems.  The (root, J) terms of the inner sums,
    #d * 2^#n per sum, are checked against the cap `conjecture_terms` first;
    `cap` goes on to every flow, permutree and clique count.
    """
    delta = as_decoration(delta)
    nd = set(delta.symbols) <= {"n", "d"}
    sections = updown_sections(delta)
    swapped = [tuple("d" if c == "u" else c for c in sec) for sec in sections]
    sums = swapped + ([delta.symbols] if nd else [])
    require_cap("conjecture_terms", sum(sec.count("d") << sec.count("n") for sec in sums), cap)
    lhs = count_d_flows(delta, cap)
    memo = {}
    report = {
        "delta": str(delta),
        "counts": {
            "flows": lhs,
            "permutrees": count_permutrees(delta, cap),
            "cliques": None,
        },
    }
    if delta.n <= 6:
        report["counts"]["cliques"] = len(fl.max_cliques(build_bic(delta), cap))
    if nd:
        rhs = _inner_sum(delta.symbols, memo, cap)
        report["conjecture_1"] = "PASS" if rhs == lhs else "FAIL"
        report["conjecture_1_rhs"] = rhs
    else:
        report["conjecture_1"] = "N/A"
    rhs2 = 1
    for sec in swapped:
        rhs2 *= _inner_sum(sec, memo, cap)
    report["conjecture_2"] = "PASS" if rhs2 == lhs else "FAIL"
    report["conjecture_2_rhs"] = rhs2
    report["witnesses"] = {
        "sections": ["".join(sec) for sec in sections],
        "swapped_sections": ["".join(sec) for sec in swapped],
    }
    return report


def equivariance_holds(delta, other) -> bool:
    """Flow counts agree for decorations sharing none- and updown-positions."""
    delta = as_decoration(delta)
    other = as_decoration(other)
    if delta.n != other.n:
        raise ValidationError(f"decorations must have the same length, not {delta.n} and {other.n}")
    same = all(
        (a == b) or {a, b} <= {"d", "u"} for a, b in zip(delta.symbols, other.symbols)
    )
    if not same:
        raise ValidationError("decorations must differ only by down/up swaps")
    return count_d_flows(delta) == count_d_flows(other)
