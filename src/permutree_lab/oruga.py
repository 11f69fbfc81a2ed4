"""The s-oruga graph: the d-flow/word bijection, triangulation cliques, and
the exact tropical realization of the s-permutahedron.

Vertices are coded 0..n+1 (0 is the extra source, n+1 the sink); the edge
e^k_t is the id ("e", k, t).  Level k in [n] carries the bump ("e", k, 0) and
dip ("e", k, s_k) between vertices n+1-k and n+2-k; sources ("e", k, t) with
0 < t < s_k leave vertex 0, plus the single source ("e", n+1, 1) into vertex 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb

from . import flows as fl
from .caps import require_cap
from .errors import ValidationError
from .posets import Hasse
from .s_weak_order import (
    all_words,
    ascents,
    blocks,
    bumps_to_word,
    check_ascents,
    check_composition,
    check_word,
    count_s_trees,
    move_block,
    word_to_bumps,
)


def build_oru(s) -> fl.FramedGraph:
    """The framed s-oruga graph (s strict; s_{n+1} = 2 internally).

    >>> len(build_oru((2, 3, 2, 2)).edges)  # |s| + n + 1
    14
    """
    s = check_composition(s, strict=True)
    n = len(s)
    full = s + (2,)
    edges = {}
    for k in range(1, n + 2):
        for t in range(1, full[k - 1]):
            edges[("e", k, t)] = (0, n + 2 - k)
    for k in range(1, n + 1):
        edges[("e", k, 0)] = (n + 1 - k, n + 2 - k)
        edges[("e", k, s[k - 1])] = (n + 1 - k, n + 2 - k)
    framing = {}
    for v in range(1, n + 1):
        k_in = n + 2 - v
        k_out = n + 1 - v
        ins = [("e", k_in, t) for t in range(full[k_in - 1] + 1) if ("e", k_in, t) in edges]
        outs = [("e", k_out, 0), ("e", k_out, s[k_out - 1])]
        framing[v] = {"in": ins, "out": outs}
    return fl.FramedGraph(n + 1, edges, framing)


def oru_route(s, k, t, bits):
    """The route R(k, t, delta): source into level k, then bumps/dips down.

    `bits` lists delta_1..delta_{k-1}; bit a picks the dip at level a.
    """
    s = check_composition(s, strict=True)
    n = len(s)
    full = s + (2,)
    if not 1 <= k <= n + 1 or not 1 <= t <= full[k - 1] - 1:
        raise ValidationError(f"no source edge e^{k}_{t}")
    if len(bits) != k - 1:
        raise ValidationError(f"need {k - 1} bump/dip choices for k={k}")
    return prefix_route((k, t, sum(bool(b) << a for a, b in enumerate(bits))), s)


def route_params(route, s):
    """Inverse of `oru_route`: recover (k, t, bits)."""
    _, k, t = route[0]
    bits = [0] * (k - 1)
    for _, a, ta in route[1:]:
        bits[a - 1] = 0 if ta == 0 else 1
    return k, t, tuple(bits)


def all_bump_route(s):
    return oru_route(s, len(s) + 1, 1, (0,) * len(s))


def all_dip_route(s):
    return oru_route(s, len(s) + 1, 1, (1,) * len(s))


# --- d-flows <-> Stirling s-permutations -------------------------------------


def word_to_flow(w, s):
    """Integer d-flow of a word: the bump at level i carries b_i of
    `word_to_bumps`, the letters exceeding i that precede the i-block.

    >>> f = word_to_flow((3,3,7,2,5,4,5,5,7,1,6), (1,1,2,1,3,1,2))
    >>> [f[("e", i, 0)] for i in range(1, 7)]
    [9, 3, 0, 2, 1, 2]
    """
    bumps = word_to_bumps(w, s)
    flow = {e: 0 for e in build_oru(s).edges}
    tail = 0
    for i in range(len(s) - 1, 0, -1):
        tail += s[i]
        flow[("e", i, 0)] = bumps[i]
        flow[("e", i, s[i - 1])] = tail - bumps[i]
    return flow


def flow_to_word(flow, s):
    """Inverse of `word_to_flow`; checks conservation first."""
    s = check_composition(s, strict=True)
    v = fl.conservation_violation(build_oru(s), flow)
    if v is not None:
        raise ValidationError(f"flow violates conservation at vertex {v}")
    n = len(s)
    return bumps_to_word({i: flow[("e", i, 0)] for i in range(1, n)}, s)


# --- cliques of the triangulation -------------------------------------------


def prefix_route(key, s):
    """The route of a key (c, t, mask): the source e^c_t, then at each level
    a = c-1 down to 1 the dip e^a_{s_a} when bit a-1 of `mask` is set, else
    the bump e^a_0.  Unchecked: callers pass a strict composition `s` and
    the key of a route of `build_oru(s)`, as `prefix_keys` and `oru_route` do.
    """
    c, t, mask = key
    return (("e", c, t),) + tuple(
        ("e", a, s[a - 1] if mask >> a - 1 & 1 else 0) for a in range(c - 1, 0, -1)
    )


def prefix_routes(w, s):
    """R[w_[0]], ..., R[w_[|w|]]: the route of each prefix of a checked word
    `w`, shortest first."""
    return [prefix_route(key, s) for key in prefix_keys(w, s)]


def prefix_keys(w, s):
    """The route key (c, t, mask) of each prefix u of a checked word `w`,
    shortest first, in one walk over its letter counts: c is the first level
    whose block u has started but not finished (n+1 when there is none), t
    its count in u (1 for c = n+1), and bit a-1 of the mask is set when u
    holds the whole a-block, a < c.

    >>> prefix_keys((3, 3, 7, 2, 5, 4, 5, 5, 7, 1, 6), (1, 1, 2, 1, 3, 1, 2))[:5]
    [(8, 1, 0), (3, 1, 0), (8, 1, 4), (7, 1, 4), (7, 1, 6)]
    """
    n, counts = len(s), [0] * len(s)
    partial = full = 0  # bit v-1: the v-block is started but not done / is done
    keys = [(n + 1, 1, 0)]
    for v in w:
        counts[v - 1] += 1
        full |= (counts[v - 1] == s[v - 1]) << (v - 1)
        partial = (partial | 1 << (v - 1)) & ~full
        c = (partial & -partial).bit_length() or n + 1
        keys.append((c, counts[c - 1] if partial else 1, full & ((1 << (c - 1)) - 1)))
    return keys


def delta_w(w, s):
    """Maximal clique of the triangulation: one route per prefix of w.

    Contains both exceptional routes (empty and full prefixes) and |s|+1
    routes in total.
    """
    w = check_word(w, s)
    clique = frozenset(prefix_routes(w, s))
    if len(clique) != sum(s) + 1:
        raise AssertionError(f"delta_w of {w} has {len(clique)} routes, not {sum(s) + 1}")
    return clique


def face_simplex(w, A, s):
    """Interior simplex of a face (w, A): drop the routes whose prefixes end
    exactly at an ascent of A."""
    w = check_word(w, s)
    A = check_ascents(w, A)
    spans = blocks(w)
    cut_lengths = {spans[a][1] + 1 for (a, c) in A}
    return frozenset(r for i, r in enumerate(prefix_routes(w, s)) if i not in cut_lengths)


def hasse_from_adjacency(s) -> Hasse:
    """Dual graph of the triangulation, oriented by the conflict rule.

    Nodes are the maximal cliques; two cliques are adjacent when they share
    a facet.  Isomorphic to the s-weak order via w -> delta_w.
    """
    s = check_composition(s, strict=True)
    graph = build_oru(s)
    rs, words = fl.routes(graph), all_words(s)
    cliques = dict(zip(fl._clique_masks(rs, (delta_w(w, s) for w in words)), words))
    words = list(cliques.values())  # one per clique: a repeated clique shrinks the order
    covers = {(words[lo], words[hi]) for lo, hi in fl._dual_covers(graph, rs, list(cliques))}
    return Hasse(sorted(words), covers)


# --- heights and the tropical realization ------------------------------------


def oruga_height(route, s, eps) -> Fraction:
    """h_eps(R) = -sum_{k >= c > a >= 1} eps^(c-a) (t_c + delta_a)^2, exact.

    This is not the generic framed-graph height `flows.dkk_height`, which
    sums over pairs of route edges instead of levels: on s = (1, 1) at
    eps = 1/10 the all-bump route has height -11/100 here and 0 there.
    """
    scales = _scales(len(check_composition(s, strict=True)), Fraction(eps))
    return Fraction(_scaled_height(route, scales), scales[0])


def _scales(n, eps):
    """eps^d q^n = p^d q^(n-d) for d = 0..n, where eps = p/q > 0; the first is q^n."""
    if eps <= 0:
        raise ValidationError("eps must be positive")
    p, q = eps.numerator, eps.denominator
    return [p**d * q ** (n - d) for d in range(n + 1)]


def _scaled_height(route, scales):
    """h_eps(R) q^n as an int: `oruga_height` with eps^(c-a) q^n read from
    `scales` (`_scales(n, eps)`, n = |s|; a route has at most n + 1 levels)."""
    t = [ta for _, _, ta in reversed(route)]  # t[a]: edge index at level a + 1
    bit = [1 if ta else 0 for ta in t]
    return -sum(scales[c - a] * (t[c] + bit[a]) ** 2 for c in range(1, len(t)) for a in range(c))


def admissibility_bound(s) -> Fraction:
    """eps below 1 / (n (1 + sum_{j=2}^n (2 s_j + 1))) certifies h_eps."""
    s = check_composition(s, strict=True)
    n = len(s)
    if not n:
        raise ValidationError("the empty composition s = () has no admissibility bound")
    return Fraction(1, n * (1 + sum(2 * s[j - 1] + 1 for j in range(2, n + 1))))


def default_epsilon(s) -> Fraction:
    return admissibility_bound(s) / 2


class Realization:
    """Exact tropical realization of the s-permutahedron.

    `vertices` maps each Stirling s-permutation to its point in Q^n; `edges`
    records each cover (w, w') with its direction pair (a, c) and the strictly
    positive scalar lambda in v(w') - v(w) = lambda (e_a - e_c).
    """

    def __init__(self, s, eps, vertices, edges, support):
        self.s = s
        self.eps = eps
        self.vertices = vertices
        self.edges = edges
        self.support = support  # permutation (tuple) -> word w^sigma

    def coordinate_sum(self) -> Fraction:
        return oruga_height(all_bump_route(self.s), self.s, self.eps) - oruga_height(
            all_dip_route(self.s), self.s, self.eps
        )

    def to_json(self, approx=None):
        def num(x):
            if approx is not None:
                return round(float(x), approx)
            return {"num": x.numerator, "den": x.denominator}

        label = {w: ",".join(map(str, w)) for w in self.vertices}
        return {
            "s": list(self.s),
            "epsilon": {"num": self.eps.numerator, "den": self.eps.denominator},
            "vertices": {label[w]: [num(x) for x in pt] for w, pt in sorted(self.vertices.items())},
            "edges": [
                {"from": label[w1], "to": label[w2], "direction": [a, c], "scalar": num(scal)}
                for (w1, w2, (a, c), scal) in self.edges
            ],
        }


def vertex_coordinates(w, s, hs):
    """v(w)_a: telescoping height differences around each occurrence of a.

    `hs[k]` is the height (a Fraction, or an int scaled by q^n) of the route
    of the length-k prefix of `w`; the coordinates come out in the same kind.
    Callers check `w` and `s`.
    """
    coords = [0] * len(s)
    for k, v in enumerate(w):
        coords[v - 1] += hs[k] - hs[k + 1]
    return tuple(coords)


def realize(s, eps=None, cap=None) -> Realization:
    """Exact vertex/edge data of the s-permutahedron for an admissible eps.

    Refuses inadmissible heights, naming a violated minimal conflict.  For
    eps = p/q every check runs on heights scaled by q^n to ints.  The
    count_s_trees(s) vertices are checked against the cap `s_trees` first.
    """
    s = check_composition(s, strict=True)
    require_cap("s_trees", count_s_trees(s), cap)
    eps = default_epsilon(s) if eps is None else Fraction(eps)
    scales = _scales(len(s), eps)  # scales[0] = q^n
    graph = build_oru(s)
    rs = fl.routes(graph)
    h = {r: _scaled_height(r, scales) for r in rs}  # h_eps(r) * q^n, exact
    ok, witness = fl.is_admissible(graph, h, all_routes=rs, witness=True)
    if not ok:
        raise ValidationError(f"eps={eps} is not admissible for s={s}", witness=witness)
    by_key = {}
    for r in rs:
        k, t, bits = route_params(r, s)
        by_key[k, t, sum(b << a for a, b in enumerate(bits))] = h[r]
    words = all_words(s)
    prefix_heights = {w: [by_key[key] for key in prefix_keys(w, s)] for w in words}
    scaled = {w: vertex_coordinates(w, s, prefix_heights[w]) for w in words}
    edges = []
    for w in words:
        spans = blocks(w)
        hw = prefix_heights[w]
        for (a, c) in ascents(w):
            start, end = spans[a]  # c follows the a-block: w = u1 B_a c u2
            w2 = move_block(w, start, end)
            if w2 not in prefix_heights:
                raise AssertionError(f"cover {w} + {(a, c)} gives {w2}, not a word")
            lam = prefix_heights[w2][start + 1] + hw[end + 1] - hw[start] - hw[end + 2]
            if lam <= 0:
                raise AssertionError(f"edge scalar not positive at {w} + {(a, c)}")
            diff = tuple(x - y for x, y in zip(scaled[w2], scaled[w]))
            want = tuple(lam if i == a else (-lam if i == c else 0) for i in range(1, len(s) + 1))
            if diff != want:
                raise AssertionError(f"edge direction mismatch at {w} + {(a, c)}")
            edges.append((w, w2, (a, c), Fraction(lam, scales[0])))
    vertices = {w: tuple(Fraction(x, scales[0]) for x in pt) for w, pt in scaled.items()}
    support = {
        sigma: tuple(v for v in sigma for _ in range(s[v - 1]))
        for sigma in permutations(range(1, len(s) + 1))
    }
    return Realization(s, eps, vertices, edges, support)


# --- Lidskii identities -------------------------------------------------------


def _gbinom(m, k) -> int:
    """Generalized binomial C(m, k) for integer m (possibly negative), k >= 0:
    C(m, k) = (-1)^k C(k - m - 1, k) when m < 0."""
    return comb(m, k) if m >= 0 else (-1) ** k * comb(k - m - 1, k)


def _multiset_binom(m, k) -> int:
    return _gbinom(m + k - 1, k)


def lidskii_identities(s, cap=None) -> dict:
    """Both decomposition formulas for the number of s-decreasing trees.

    The sums run over weak compositions j of n-1 dominating (1, ..., 1);
    the second formula can carry negative terms yet totals the same.  The
    number of terms is checked against the cap `lidskii_terms` first.
    """
    s = check_composition(s)
    n = len(s)
    require_cap("lidskii_terms", fl.count_dominance_compositions(n - 1, n - 1, (1,) * (n - 1)), cap)
    lhs = count_s_trees(s)
    rhs1 = rhs2 = 0
    for j in fl.dominance_compositions(n - 1, n - 1, (1,) * (n - 1)):
        inner = 1
        part = 0
        for i in range(1, n):
            part += j[i - 1]
            inner *= part - i + 1
        term1 = inner
        term2 = inner
        for i in range(1, n):
            m = s[n - i]  # s_{n-i+1} with 1-based indexing
            term1 *= _gbinom(m + 1, j[i - 1])
            term2 *= _multiset_binom(m + 1 if i == 1 else m - 1, j[i - 1])
        rhs1 += term1
        rhs2 += term2
    return {
        "s": list(s),
        "product": lhs,
        "first_sum": rhs1,
        "second_sum": rhs2,
        "equal": lhs == rhs1 == rhs2,
    }
