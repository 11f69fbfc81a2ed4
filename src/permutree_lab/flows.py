"""Framed directed multigraphs: routes, coherence, cliques, flows, volumes.

Vertices are 0..n with every edge pointing forward; a framing totally orders
the incoming and the outgoing edges at each inner vertex.  Heights and all
flow-polytope data are exact (`fractions.Fraction` / int); routes are tuples
of edge ids.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, factorial, prod

from .caps import cap_for, require_cap
from .errors import ValidationError


class FramedGraph:
    """Loopless forward multigraph on vertices 0..n with per-vertex framings.

    `edges` maps edge id -> (tail, head); `framing` maps an inner vertex to
    {"in": [ids...], "out": [ids...]}, each list a total order on exactly the
    incident edges.  Position lookups return 0 at the source and the sink.
    """

    def __init__(self, n, edges, framing):
        self.n = n
        self.edges = dict(edges)
        for e, (a, b) in self.edges.items():
            if not 0 <= a < b <= n:
                raise ValidationError(f"edge {e}: must go forward between 0 and {n}")
        self.incoming = {v: [] for v in range(n + 1)}
        self.outgoing = {v: [] for v in range(n + 1)}
        for e, (a, b) in self.edges.items():
            self.outgoing[a].append(e)
            self.incoming[b].append(e)
        self._in_pos, self._out_pos, self.framing = {}, {}, {}
        for v in range(1, n):
            spec = framing.get(v, {})
            ins, outs = list(spec.get("in", [])), list(spec.get("out", []))
            if sorted(map(str, ins)) != sorted(map(str, self.incoming[v])):
                raise ValidationError(f"framing at v{v}: 'in' must order {self.incoming[v]}")
            if sorted(map(str, outs)) != sorted(map(str, self.outgoing[v])):
                raise ValidationError(f"framing at v{v}: 'out' must order {self.outgoing[v]}")
            for k, e in enumerate(ins):
                self._in_pos[e] = k
            for k, e in enumerate(outs):
                self._out_pos[e] = k
            self.framing[v] = {"in": ins, "out": outs}
        self._pos = {e: (b, self.in_pos(e), self.out_pos(e)) for e, (_, b) in self.edges.items()}
        self._frames = {}  # route -> its `_frame`; `_pos` gives an edge's head and positions

    def tail(self, e):
        return self.edges[e][0]

    def head(self, e):
        return self.edges[e][1]

    def in_pos(self, e):
        """Position of e in the incoming order at its head (0 at the sink)."""
        return self._in_pos.get(e, 0)

    def out_pos(self, e):
        return self._out_pos.get(e, 0)

    def indegrees(self):
        return tuple(len(self.incoming[v]) for v in range(self.n + 1))

    def outdegrees(self):
        return tuple(len(self.outgoing[v]) for v in range(self.n + 1))

    def dimension(self):
        """|E| - |V| + 1; a maximal clique of coherent routes has dimension() + 1 routes."""
        return len(self.edges) - (self.n + 1) + 1

    def to_json(self):
        return {
            "vertices": self.n + 1,
            "edges": [
                {"id": str(e), "tail": a, "head": b}
                for e, (a, b) in sorted(self.edges.items(), key=lambda kv: str(kv[0]))
            ],
            "framing": {
                str(v): {"in": [str(e) for e in spec["in"]], "out": [str(e) for e in spec["out"]]}
                for v, spec in self.framing.items()
            },
        }


def graph_from_json(data) -> FramedGraph:
    """Inverse of `FramedGraph.to_json`.  Refuses a top level or framing that
    is not an object, a vertex count that is not an int >= 1, a tail or head
    that is not an int, an edge id that is not a string or is repeated, a
    framing key that is not an int, and more vertices than the edges plus
    one: such a graph is not connected, so some vertex lies on no route."""

    def malformed(what):
        return ValidationError(f"malformed framed-graph JSON: {what}")

    if not isinstance(data, dict) or not isinstance(data.get("framing"), dict):
        raise malformed("the top level and its 'framing' must be objects")
    if type(data.get("vertices")) is not int or data["vertices"] < 1:
        raise malformed(f"'vertices' {data.get('vertices')!r} is not an int >= 1")
    try:
        framed = [e for spec in data["framing"].values() for e in (*spec["in"], *spec["out"])]
        for e in [edge["id"] for edge in data["edges"]] + framed:
            if not isinstance(e, str):
                raise malformed(f"edge id {e!r} is not a string")
        edges = {}
        for edge in data["edges"]:
            e, ends = edge["id"], (edge["tail"], edge["head"])
            if not all(type(v) is int for v in ends):
                raise malformed(f"edge {e!r}: tail and head {ends!r} must be ints")
            if e in edges:
                raise malformed(f"edge id {e!r} is repeated")
            edges[e] = ends
    except (KeyError, TypeError) as exc:
        raise malformed(repr(exc)) from None
    try:  # each spec's "in" and "out" were read above
        framing = {
            int(v): {"in": spec["in"], "out": spec["out"]} for v, spec in data["framing"].items()
        }
    except (TypeError, ValueError) as exc:  # a key int() refuses
        raise malformed(f"framing key: {exc}") from None
    if data["vertices"] > len(edges) + 1:
        raise malformed(
            f"'vertices' {data['vertices']} exceeds the {len(edges)} edges plus one, "
            "so some vertex lies on no route"
        )
    return FramedGraph(data["vertices"] - 1, edges, framing)


def routes(graph) -> list:
    """All maximal source-to-sink paths, built from the sink back over the
    vertices the source reaches, so no list outgrows the routes: a vertex's
    tails are its out-edges, ordered by `str`, each followed by its head's."""
    reached = {0}
    for v in range(graph.n):
        if v in reached:
            reached.update(map(graph.head, graph.outgoing[v]))
    tails = {graph.n: [()]}
    for v in range(graph.n - 1, -1, -1):
        outs = sorted(graph.outgoing[v], key=str) if v in reached else []
        tails[v] = [(e,) + r for e in outs for r in tails[graph.head(e)]]
    return tails[0]


def count_routes(graph) -> int:
    """Number of routes, by a DP from the sink back over the forward edges."""
    ways = [0] * graph.n + [1]
    for v in range(graph.n - 1, -1, -1):
        ways[v] = sum(ways[graph.head(e)] for e in graph.outgoing[v])
    return ways[0]


def _blocks(p, q, vp, vq):
    """Maximal shared subroutes of routes p and q, with vertex sequences vp
    and vq, as index tuples (si, sj, i, j): the block runs from vp[si] ==
    vq[sj] to vp[i] == vq[j], both routes riding the same edges in between.
    Entry edges p[si - 1], q[sj - 1] exist unless si or sj is 0, exit edges
    p[i], q[j] unless i or j is the route's length.  One merge walk."""
    out = []
    i = j = 0
    lp, lq = len(p), len(q)
    while i <= lp and j <= lq:
        if vp[i] < vq[j]:
            i += 1
        elif vq[j] < vp[i]:
            j += 1
        else:
            si, sj = i, j
            while i < lp and j < lq and p[i] == q[j]:
                i, j = i + 1, j + 1
            out.append((si, sj, i, j))
            i, j = i + 1, j + 1
    return out


def _frame(graph, route):
    """A route's vertices, in- and out-positions for `_conflicts`, read once per graph."""
    frame = graph._frames.get(route)
    if frame is None:
        heads, ins, outs = zip(*map(graph._pos.__getitem__, route))
        frame = graph._frames[route] = ((graph.edges[route[0]][0], *heads), ins, outs)
    return frame


def _conflicts(p, q, fp, fq):
    """The blocks of `_blocks` with entry and exit edges whose entry order
    disagrees with their exit order, as (si, sj, i, j, din, dout): din and
    dout are the differences of their positions in the `_frame`s fp and fq."""
    (vp, inp, outp), (vq, inq, outq) = fp, fq
    out = []
    for si, sj, i, j in _blocks(p, q, vp, vq):
        if si and sj and i < len(p) and j < len(q):
            din = inp[si - 1] - inq[sj - 1]
            dout = outp[i] - outq[j]
            if din * dout < 0:
                out.append((si, sj, i, j, din, dout))
    return out


def conflicts(graph, p, q):
    """Shared subroutes where the entry order disagrees with the exit order."""
    fp = _frame(graph, p)
    return [
        {"start": fp[0][si], "end": fp[0][i], "entry": (p[si - 1], q[sj - 1]), "exit": (p[i], q[j])}
        for si, sj, i, j, _, _ in _conflicts(p, q, fp, _frame(graph, q))
    ]


def coherent(graph, p, q) -> bool:
    """Reflexive and symmetric, but not transitive."""
    return not conflicts(graph, p, q)


def resolvents(graph, p, q):
    """Alternating recombination of two conflicting routes.

    Swaps the tails at the start of each conflict; the edge multiset is
    conserved and both outputs are coherent with each other and with p, q.
    """
    confl = _conflicts(p, q, _frame(graph, p), _frame(graph, q))
    if not confl:
        raise ValidationError("routes are not conflicting")
    halves, a, b = ([], []), 0, 0
    for k, (si, sj, *_) in enumerate(confl + [(len(p), len(q))]):
        halves[k % 2].extend(p[a:si])
        halves[1 - k % 2].extend(q[b:sj])
        a, b = si, sj
    p2, q2 = map(tuple, halves)
    if Counter(p2 + q2) != Counter(p + q):
        raise AssertionError("resolvents do not conserve the edge multiset")
    return p2, q2


def minimal_conflicts(graph, all_routes=None):
    """Route pairs (p, q), p listed before q, with one conflict only, whose
    entry edges and exit edges are frame-adjacent."""
    rs = routes(graph) if all_routes is None else list(all_routes)
    frames = [_frame(graph, r) for r in rs]
    out = []
    for x, y in combinations(range(len(rs)), 2):
        confl = _conflicts(rs[x], rs[y], frames[x], frames[y])
        if len(confl) == 1 and abs(confl[0][4]) == abs(confl[0][5]) == 1:
            out.append((rs[x], rs[y]))
    return out


def dkk_height(route, graph, eps) -> Fraction:
    """Exact height sum_{a<c} -eps^(c-a) (in_pos(e_a) + out_pos(e_c))^2.

    The sign makes greater lifted height mark conflicts: for every minimal
    conflict h(P) + h(Q) > h(P') + h(Q') holds with the resolvents on the
    right, which is the admissibility inequality used throughout.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValidationError("eps must be positive")
    terms = (
        eps ** (c - a) * (graph.in_pos(route[a]) + graph.out_pos(route[c])) ** 2
        for a, c in combinations(range(len(route)), 2)
    )
    return -sum(terms, Fraction(0))


def is_admissible(graph, height, all_routes=None, witness=False):
    """Strict height drop from every minimal conflict to its resolvents.

    `height` is a dict from routes to any exactly ordered numbers, such as
    Fractions or heights scaled to ints.  By the minimal-conflict reduction
    this is equivalent to full admissibility.
    """
    for p, q in minimal_conflicts(graph, all_routes):
        p2, q2 = resolvents(graph, p, q)
        if not height[p] + height[q] > height[p2] + height[q2]:
            return (False, (p, q)) if witness else False
    return (True, None) if witness else True


def max_cliques(graph, cap=None):
    """All maximal cliques of the coherence relation (Bron-Kerbosch, pivoting),
    ordered by the sorted `str`s of their routes.

    Refuses a graph with an edge on no route, whose cliques are smaller;
    every output is checked to have |E| - |V| + 2 routes.  The cap `cliques`
    is checked before the search on K_G(netflow d), the normalized volume of
    the flow polytope, which counts the maximal cliques of every framing.
    """
    require_cap("max_cliques_routes", count_routes(graph), cap)
    rs = routes(graph)
    stranded = sorted(set(graph.edges).difference(*rs), key=str)
    if stranded:
        raise ValidationError(f"max_cliques needs every edge on a route, not {stranded[0]!r}")
    require_cap("cliques", kostant(graph, netflow_d(graph), cap), cap)
    idx = range(len(rs))
    adj = {i: set() for i in idx}
    for i, j in combinations(idx, 2):
        if coherent(graph, rs[i], rs[j]):
            adj[i].add(j)
            adj[j].add(i)
    out = []
    stack = [(frozenset(), set(idx), set())]  # (clique, candidates, excluded)
    while stack:
        clique, cand, excl = stack.pop()
        if not cand and not excl:
            out.append(clique)
            continue
        pivot = max(cand | excl, key=lambda u: len(adj[u] & cand))
        for v in sorted(cand - adj[pivot]):
            stack.append((clique | {v}, cand & adj[v], excl & adj[v]))
            cand = cand - {v}
            excl = excl | {v}
    want = graph.dimension() + 1
    for cl in out:
        if len(cl) != want:
            raise AssertionError(f"maximal clique of size {len(cl)}, expected {want}")
    # the order of the routes' strs, each formatted once
    rank = {i: k for k, i in enumerate(sorted(idx, key=lambda i: str(rs[i])))}
    out.sort(key=lambda cl: sorted(rank[i] for i in cl))
    return [frozenset(rs[i] for i in cl) for cl in out]


def check_netflow(graph, a):
    a = tuple(a)
    for x in a:
        if x % 1:
            raise ValidationError(f"netflow entry {x!r} is not an integer")
    a = tuple(map(int, a))
    if len(a) != graph.n + 1:
        raise ValidationError(f"netflow needs {graph.n + 1} entries")
    if sum(a) != 0:
        raise ValidationError("netflow entries must sum to zero")
    return a


def netflow_i(graph):
    return (1,) + (0,) * (graph.n - 1) + (-1,)


def netflow_d(graph):
    """(0, d_1, ..., d_{n-1}, -sum) with d_i = indeg_i - 1."""
    deg = graph.indegrees()
    d = [0] + [deg[v] - 1 for v in range(1, graph.n)]
    return tuple(d) + (-sum(d),)


def integer_flows(graph, a):
    """All integer a-flows as dicts over the edges, grown one vertex at a
    time: each partial flow splits the vertex's need over its out-edges (by
    `str`) in every way `dominance_compositions` lists, so the flows come in
    depth-first order.  Parallel edges stay apart, unlike in `kostant`."""
    a = check_netflow(graph, a)
    out = [[(e, graph.head(e)) for e in sorted(graph.outgoing[v], key=str)] for v in range(graph.n + 1)]
    edges = [e for row in out for e, _ in row]
    layer = [((), [0] * (graph.n + 1))]  # (the flow on the out-edges of 0..v-1, supplies)
    for v, row in enumerate(out):
        nxt = []
        for values, supply in layer:
            for split in dominance_compositions(supply[v] + a[v], len(row), (0,) * len(row)):
                supply2 = list(supply)
                for (_, h), x in zip(row, split):
                    supply2[h] += x
                nxt.append((values + split, supply2))
        layer = nxt
    return [dict(zip(edges, values)) for values, _ in layer]


def kostant(graph, a, cap=None) -> int:
    """Number of integer a-flows, by a layered DP over the supplies still
    pending (v's own is 0 once spread, so such states merge): at
    vertex v each need is split over v's distinct heads once, with
    `dominance_compositions`, for all states that share it, x units over m
    parallel edges counting comb(x + m - 1, m - 1) ways.  `kostant_states`
    is checked on each new state, so a refusal names the first size past it."""
    a = check_netflow(graph, a)
    limit = cap_for("kostant_states", cap)
    states = {(0,) * (graph.n + 1): 1}
    for v in range(graph.n + 1):
        hs = sorted(map(graph.head, graph.outgoing[v]))
        heads = [(h, hs.count(h)) for h in dict.fromkeys(hs)]  # (head, multiplicity)
        by_need, nxt = {}, {}
        for supply, ways in states.items():
            by_need.setdefault(supply[v] + a[v], []).append((supply, ways))
        for need, group in by_need.items():
            for split in dominance_compositions(need, len(heads), (0,) * len(heads)):
                weight = prod(comb(x + m - 1, m - 1) for (_, m), x in zip(heads, split))
                for supply, ways in group:
                    sup = list(supply)
                    sup[v] = 0  # spent, so states that differ only here merge
                    for (h, _), x in zip(heads, split):
                        sup[h] += x
                    key = tuple(sup)
                    nxt[key] = nxt.get(key, 0) + ways * weight
                    if len(nxt) > limit:
                        require_cap("kostant_states", len(nxt), cap)
        states = nxt
    return sum(states.values())


def dominance_compositions(total, parts, mins):
    """Weak compositions j of `total` into `parts` parts whose partial sums
    before the last are >= those of `mins`, lazily in lexicographic order:
    none for a negative total, and () alone for total = parts = 0."""
    if parts <= 1:
        if total == 0 or parts and total > 0:
            yield (total,) * parts
        return
    floors = list(accumulate(mins[: parts - 1]))
    j, i, used = [0] * parts, 0, 0  # j[:i] is fixed and sums to used
    while True:
        for k in range(i, parts - 1):  # the least admissible rest
            j[k] = max(floors[k] - used, 0)
            used += j[k]
        if used > total:  # only on the first pass: no composition at all
            return
        j[-1] = total - used
        yield tuple(j)
        i = parts - 2
        while i >= 0 and used == total:  # back to the last part that can grow
            used -= j[i]
            i -= 1
        if i < 0:
            return
        j[i] += 1
        used += 1
        i += 1


def count_dominance_compositions(total, parts, mins) -> int:
    """len(list(dominance_compositions(total, parts, mins))), by a DP over partial sums."""
    if parts == 0 or total < 0:
        return int(total == 0)
    ways = [1] + [0] * total  # ways[u]: admissible prefixes summing to u
    for floor in accumulate(mins[: parts - 1]):
        ways = [w if u >= floor else 0 for u, w in enumerate(accumulate(ways))]
    return sum(ways)


def lidskii_volume(graph, a, cap=None) -> int:
    """Normalized volume of the flow polytope by the first Lidskii formula.

    Sums multinomial(m - n; j) * prod a_i^{j_i} * K_G(j - o, 0) over weak
    compositions j of m - n dominating the shifted outdegrees o.  A term with
    a_k = 0 < j_k is 0, so only the j that vanish off the support S of
    a_0..a_{n-1} are summed, as compositions over S; their number is checked
    against the cap `lidskii_terms` before the sum.
    """
    a = check_netflow(graph, a)
    n, m = graph.n, len(graph.edges)
    if any(x < 0 for x in a[:-1]):
        raise ValidationError("Lidskii needs a_0..a_{n-1} >= 0")
    o = [d - 1 for d in graph.outdegrees()[:n]]
    support = [k for k in range(n) if a[k]]
    floors = list(accumulate(o[: n - 1]))  # j_0 + ... + j_k >= floors[k]
    # a partial sum of j holds from one support position to the next (0 before
    # the first), so it must clear the largest floor on the way
    cuts = [0, *support, n - 1]
    need = [max(floors[lo:hi], default=0) for lo, hi in zip(cuts, cuts[1:])]
    if need[0] > 0 or need[-1] > m - n:
        return 0  # no term at all
    mins = [y - x for x, y in zip([0, *need[1:-1]], need[1:-1])]
    require_cap("lidskii_terms", count_dominance_compositions(m - n, len(support), mins), cap)
    total = 0
    for parts in dominance_compositions(m - n, len(support), mins):
        shifted = [-d for d in o]  # j - o, with j scattered onto the support
        for k, x in zip(support, parts):
            shifted[k] += x
        coeff = factorial(m - n) // prod(map(factorial, parts))
        term = prod(a[k] ** x for k, x in zip(support, parts))
        total += coeff * term * kostant(graph, (*shifted, 0), cap)
    return total


def omega(clique, graph):
    """Integer d-flow of a maximal clique: distinct route prefixes per edge,
    minus one.

    Prefixes are cut at the head of each edge; two routes sharing the prefix
    count once.
    """
    want = graph.dimension() + 1
    if len(clique) != want:
        raise ValidationError(f"clique has {len(clique)} routes, maximal needs {want}")
    prefixes = {e: set() for e in graph.edges}
    for route in clique:
        for k, e in enumerate(route):
            prefixes[e].add(route[: k + 1])
    flow = {e: len(ps) - 1 for e, ps in prefixes.items()}
    if min(flow.values()) < 0:
        raise ValidationError("clique misses an edge entirely; it cannot be maximal")
    v = conservation_violation(graph, flow)
    if v is not None:
        raise AssertionError(f"omega output violates conservation at v{v}")
    return flow


def conservation_violation(graph, flow):
    """The first inner vertex where `flow` does not conserve the d-netflow,
    or None when it conserves it everywhere."""
    d = netflow_d(graph)
    for v in range(1, graph.n):
        into = sum(flow[e] for e in graph.incoming[v])
        outof = sum(flow[e] for e in graph.outgoing[v])
        if into + d[v] != outof:
            return v
    return None


def _dual_covers(graph, rs, masks):
    """Cover pairs (lower, upper) of the oriented dual graph of a triangulation,
    as indices into `masks`, its maximal cliques as bitmasks over the routes
    `rs`.  A facet is a mask with one bit cleared; the two cliques sharing it
    are ordered by their differing routes: the lower one owns the route that
    enters the (unique, minimal) conflict earlier and leaves it later.  Each
    unordered route pair is oriented once."""
    frames = [_frame(graph, r) for r in rs]
    owner, lower, covers = {}, {}, []
    for x, m in enumerate(masks):
        rest = m
        while rest:
            f = m ^ (rest & -rest)
            rest &= rest - 1
            y = owner.setdefault(f, x)
            if y == x:
                continue
            if y < 0:
                raise AssertionError("a triangulation facet has more than two sides")
            owner[f] = -1  # paired: a third owner is refused
            i, j = (masks[y] ^ f).bit_length() - 1, (m ^ f).bit_length() - 1
            key = (min(i, j), max(i, j))
            if key not in lower:
                p, q = key
                block = _conflicts(rs[p], rs[q], frames[p], frames[q])
                if len(block) != 1:
                    raise AssertionError("adjacent cliques must differ by a single conflict")
                lower[key] = p if block[0][4] < 0 < block[0][5] else q
            covers.append((y, x) if lower[key] == i else (x, y))
    return covers


def dual_adjacency_covers(graph, cliques):
    """Cover pairs (lower, upper) of the oriented dual graph of a triangulation,
    from facet sharing."""
    cliques, rs = list(cliques), routes(graph)
    covers = _dual_covers(graph, rs, _clique_masks(rs, cliques))
    return [(cliques[a], cliques[b]) for a, b in covers]


def _clique_masks(rs, cliques):
    """Each clique as an int bitmask of its routes' positions in `rs`."""
    ids = {r: k for k, r in enumerate(rs)}
    return [sum(1 << ids[r] for r in cl) for cl in cliques]


def example_graph() -> FramedGraph:
    """Four-vertex fixture with five routes and one conflicting pair.

    Volume 2: the netflow (0, 1, 1, -2) has exactly the two integer flows
    (e1-e3) + (e2-e3) and (e1-e2) + 2(e2-e3); three routes are exceptional
    and the other two conflict at the inner vertex v1.
    """
    edges = {
        "a": (0, 1),
        "b": (0, 1),
        "c": (0, 2),
        "p": (1, 2),
        "q": (1, 3),
        "r": (2, 3),
    }
    framing = {
        1: {"in": ["a", "b"], "out": ["p", "q"]},
        2: {"in": ["c", "p"], "out": ["r"]},
    }
    return FramedGraph(3, edges, framing)
