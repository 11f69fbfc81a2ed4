"""The library workloads: `sweak`, `realize` and `permutree`.

Each workload calls the library's public functions in the pattern of the
acceptance criteria it mirrors, at bench size, and checks every output.  It
never calls `verify.criterion_*`: those oracles keep getting stronger, and a
stronger check must not read as a slower library.

`make_inputs(workload, seed)` builds the inputs from the seed with no library
call, so the library sees only generated inputs.  The seed picks only the
sampled inputs; the fixed part is the same for every seed.  Sampled inputs are
drawn one per stratum, and the members of a stratum cost about the same, so
changing the seed changes which inputs run but not how much work a pass is.

`PASSES[workload](inputs, golden, tally)` runs one pass over the inputs and
returns the `Tally`.  Expected values come from closed formulas or from
`golden.json`, recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from pathlib import Path

from permutree_lab import automata as am
from permutree_lab import bicho as bi
from permutree_lab import flows as fl
from permutree_lab import oruga as og
from permutree_lab import permutree as pt
from permutree_lab import posets
from permutree_lab import s_weak_order as sw
from permutree_lab import vectors as vec
from permutree_lab import weak_order as wo

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# |s| = 7 strata for `sweak`: each row holds compositions whose pass costs
# are within about 15% of each other (measured per composition).
SWEAK_STRATA = [
    [(1, 1, 1, 3, 1), (1, 2, 1, 1, 2), (2, 1, 1, 1, 2)],
    [(1, 1, 2, 2, 1), (1, 2, 1, 2, 1), (2, 1, 1, 2, 1)],
    [(1, 1, 3, 1, 1), (1, 2, 2, 1, 1), (2, 1, 2, 1, 1)],
    [(1, 1, 1, 4), (2, 2, 1, 1, 1), (1, 2, 1, 3)],
]
# |s| = 7 strata for `realize`, built the same way.
REALIZE_STRATA = [
    [(1, 1, 3, 1, 1), (1, 1, 1, 4), (1, 2, 2, 1, 1), (2, 1, 1, 2, 1)],
    [(1, 1, 2, 3), (1, 2, 1, 3), (2, 1, 1, 3)],
]
# The inputs that count as requests for req_p50_ms and req_p90_ms: fixed for
# every seed and of one size, so the percentiles do not depend on the seed.
# `sweak` and `realize`: the compositions with |s| = 6 (32 and 31 of them).
# `permutree`: the meets and bicho checks at n = 4 (16 decorations each).
REQUEST_SIZE = 6
REQUEST_N = 4
# Faces (w, A) per composition checked by add_ascents against the fixpoint.
FACES_PER_COMPOSITION = 12
# Stratum sizes (lattice element counts) for the sampled decorations.
INSERT_SIZE = 1000
N6_LATTICE_SIZES = [132, 280]
N5_MEET_SIZES = [42, 60]
N5_BICHO_SIZES = [42, 84]
# Automata at n = 6: sampled (U, D) pairs by |U| + |D|, and Coxeter elements.
SORT_PAIR_WEIGHTS = [2, 3, 4]
COXETER_ELEMENTS = 3


class Tally:
    """Operations attempted and failed in one pass, the objects checked, the
    time each input took, and the indices of the inputs that count as
    requests.  `on_input`, if given, is called with each input's time."""

    def __init__(self, on_input=None):
        self.on_input = on_input
        self.attempted = 0
        self.failed = 0
        self.objects = 0
        self.errors = []
        self.op_s = []
        self.requests = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)

    def guard(self, what, fn, *args, request=False):
        """Run and time one input's operations; an exception counts as a failure."""
        start = time.perf_counter()
        try:
            fn(self, *args)
        except Exception as exc:  # a crash on one input must not end the pass
            self.check(False, f"{what}: {exc!r}")
        self.op_s.append(time.perf_counter() - start)
        if request:
            self.requests.append(len(self.op_s) - 1)
        if self.on_input is not None:
            self.on_input(self.op_s[-1])


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def digest(data):
    """sha256 of `data` serialized exactly as the CLI's --json prints it."""
    text = json.dumps(data, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def key(seq):
    return ",".join(map(str, seq))


# The input helpers below repeat small enumerators that the library also has
# (verify._strict_compositions, permutree.normalized_decorations), so that
# inputs are generated without calling the library.


def strict_compositions(total):
    """All strict compositions of `total`, in lexicographic order."""
    if total == 0:
        return [()]
    return [(k,) + rest for k in range(1, total + 1) for rest in strict_compositions(total - k)]


def s_tree_count(s):
    """Closed form for the Stirling s-permutations: prod_{i>=2} (1 + s_i + ... + s_n)."""
    out = 1
    for i in range(1, len(s)):
        out *= 1 + sum(s[i:])
    return out


def decorations(n):
    """Normalized decorations of size n (ends fixed to 'n'), lexicographic."""
    if n <= 2:
        return ["n" * n]
    out = [""]
    for _ in range(n - 2):
        out = [p + c for p in out for c in "ndux"]
    return ["n" + p + "n" for p in out]


def _disjoint_pairs(n):
    """Every (U, D) with U, D disjoint subsets of {2, ..., n-1}."""
    out = []
    slots = range(2, n)
    for assign in range(3 ** (n - 2)):
        U, D = [], []
        for j in slots:
            assign, r = divmod(assign, 3)
            if r == 1:
                U.append(j)
            elif r == 2:
                D.append(j)
        out.append((tuple(U), tuple(D)))
    return out


def _pick_by_size(rng, sizes, table):
    """One decoration per size, drawn from those whose lattice has that size."""
    return [rng.choice(sorted(d for d, m in table.items() if m == size)) for size in sizes]


def make_inputs(workload, seed, golden):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweak":
        fixed = [s for total in range(1, 7) for s in strict_compositions(total)]
        comps = fixed + [rng.choice(row) for row in SWEAK_STRATA]
        faces = {
            key(s): [(rng.random(), rng.getrandbits(32)) for _ in range(FACES_PER_COMPOSITION)]
            for s in comps
        }
        return {"compositions": comps, "faces": faces}
    if workload == "realize":
        fixed = [s for total in range(2, 7) for s in strict_compositions(total) if len(s) >= 2]
        return {"compositions": fixed + [rng.choice(row) for row in REALIZE_STRATA]}
    if workload == "permutree":
        sizes = golden["permutree"]["sizes"]
        by_n = {n: {d: sizes[d] for d in decorations(n)} for n in (5, 6, 7)}
        pairs6 = _disjoint_pairs(6)
        return {
            "insert_delta": _pick_by_size(rng, [INSERT_SIZE], by_n[7])[0],
            "perms7": list(permutations(range(1, 8))),
            "embed": ["nnnnnnn"] + _pick_by_size(rng, N6_LATTICE_SIZES, by_n[6]),
            "meet": decorations(2) + decorations(3) + decorations(4)
            + _pick_by_size(rng, N5_MEET_SIZES, by_n[5]),
            "bicho": decorations(3) + decorations(4) + _pick_by_size(rng, N5_BICHO_SIZES, by_n[5]),
            "sort_pairs": [
                rng.choice([p for p in pairs6 if len(p[0]) + len(p[1]) == k])
                for k in SORT_PAIR_WEIGHTS
            ],
            "coxeter": rng.sample(list(permutations(range(1, 6))), COXETER_ELEMENTS),
            "perms6": list(permutations(range(1, 7))),
        }
    raise ValueError(f"unknown workload {workload!r}")


# --- sweak: criterion 7's pattern ---------------------------------------------


def _sweak_one(t, s, faces, golden):
    words = sw.all_words(s)
    t.check(len(words) == s_tree_count(s), f"all_words count {s}")
    H = sw.s_hasse(s)
    t.check(H.elements == words, f"s_hasse elements {s}")
    t.check(digest(H.to_json(key=sw.serialize_word)) == golden[key(s)], f"s_hasse digest {s}")
    Hd = og.hasse_from_adjacency(s)
    t.check(posets.isomorphic_via(H, Hd, {w: w for w in H.elements}), f"DKK dual {s}")
    for z in H.elements:
        for x, y in combinations(H.up_covers(z), 2):
            closed = sw.join_candidate(x, y, s)
            t.check(
                sw.planarity_ok(closed, s) is None
                and sw.word_from_multiset(closed, s) in H.index,
                f"join {s} {x} {y}",
            )
    if len(H) <= 720:
        t.check(H.is_lattice(), f"is_lattice {s}")
    for u, bits in faces:
        w = words[int(u * len(words))]
        A = [p for k, p in enumerate(sw.ascents(w)) if bits >> k & 1]
        t.check(sw.add_ascents(w, A, s) == sw.add_ascents_fixpoint(w, A, s), f"closure {s} {w}")
    t.objects += len(H)


def sweak_pass(inputs, golden, t=None):
    t = Tally() if t is None else t
    for s in inputs["compositions"]:
        faces = inputs["faces"][key(s)]
        t.guard(f"sweak {s}", _sweak_one, s, faces, golden["sweak"], request=sum(s) == REQUEST_SIZE)
    return t


# --- realize: criterion 9's pattern -------------------------------------------


def _realize_one(t, s, golden):
    n = len(s)
    eps = og.default_epsilon(s)
    graph = og.build_oru(s)
    rs = fl.routes(graph)
    heights = {r: og.oruga_height(r, s, eps) for r in rs}
    t.check(fl.is_admissible(graph, heights, all_routes=rs), f"admissibility {s}")
    R = og.realize(s, eps)
    t.check(len(R.vertices) == s_tree_count(s), f"vertex count {s}")
    t.check(digest(R.to_json()) == golden[key(s)], f"to_json digest {s}")
    cs = R.coordinate_sum()
    t.check(all(sum(p) == cs for p in R.vertices.values()), f"hyperplane {s}")
    # support zonotope: every e_a - e_c edge has exact length 2 s_c eps^(c-a)
    want = {}
    for a, c in combinations(range(1, n + 1), 2):
        lam = 2 * s[c - 1] * eps ** (c - a)
        want[a, c] = tuple(lam if i == a else (-lam if i == c else Fraction(0)) for i in range(1, n + 1))
    ok = True
    for sigma in permutations(range(1, n + 1)):
        v1 = R.vertices[R.support[sigma]]
        for k in range(n - 1):
            a, c = sigma[k], sigma[k + 1]
            if a < c:
                v2 = R.vertices[R.support[sigma[:k] + (c, a) + sigma[k + 2 :]]]
                ok = ok and tuple(x - y for x, y in zip(v2, v1)) == want[a, c]
    t.check(ok, f"zonotope {s}")
    t.objects += len(R.vertices)


def realize_pass(inputs, golden, t=None):
    t = Tally() if t is None else t
    for s in inputs["compositions"]:
        t.guard(f"realize {s}", _realize_one, s, golden["realize"], request=sum(s) == REQUEST_SIZE)
    return t


# --- permutree: criteria 2, 3, 5, 6 and 10 ------------------------------------


def _insert_sweep(t, delta, perms, golden):
    d = pt.Decoration(delta)
    trees = {pt.insert(pi, d) for pi in perms}
    t.check(len(trees) == golden["sizes"][delta], f"insert fibers {delta}")
    t.check(digest(sorted(tr.key() for tr in trees)) == golden["insert"][delta], f"insert {delta}")
    t.objects += len(perms)


def _embedding(t, delta, golden):
    n = len(delta)
    lat, emb = vec.cubical_embedding(delta)
    t.check(len(lat) == golden["sizes"][delta], f"lattice size {delta}")
    vals = list(emb.values())
    t.check(len(set(vals)) == len(vals), f"embedding injective {delta}")
    t.check(
        all(0 <= v[i] <= n - 1 - i for v in vals for i in range(n - 1)), f"embedding box {delta}"
    )
    ok = True
    for a, b in lat.cover_pairs():
        nz = [y - x for x, y in zip(emb[a], emb[b]) if y != x]
        ok = ok and len(nz) == 1 and nz[0] > 0
    t.check(ok, f"embedding edges {delta}")
    t.objects += len(lat)


def _meets(t, delta, golden):
    lat = pt.rotation_lattice(delta)
    t.check(len(lat) == golden["sizes"][delta], f"lattice size {delta}")
    ok = True
    for a in lat.elements:
        for b in lat.elements:
            ok = ok and vec.meet_via_inversions(a, b) == lat.meet(a, b)
            strict = lat.leq(a, b) and a != b
            ok = ok and strict == (a.inversion_pairs() < b.inversion_pairs())
    t.check(ok, f"meets {delta}")
    t.objects += len(lat)


def _weak_order_lattice(t):
    H = wo.weak_order_hasse(6)
    t.check(len(H) == 720 and H.is_lattice(), "weak order S_6 is a lattice")
    t.objects += len(H)


def _bicho(t, delta, golden):
    graph = bi.build_bic(delta)
    cliques = fl.max_cliques(graph)
    t.check(len(cliques) == golden["sizes"][delta], f"clique count {delta}")
    lat = pt.rotation_lattice(delta)
    dual = bi.rotation_from_adjacency(delta)
    mapping = {T: bi.permutree_clique(T) for T in lat.elements}
    t.check(set(mapping.values()) == set(cliques), f"cliques {delta}")
    t.check(posets.isomorphic_via(lat, dual, mapping), f"dual poset {delta}")
    t.objects += len(lat)


def _sorting(t, U, D, perms6):
    ok = True
    for pi in perms6:
        out = am.permutree_sort(pi, U, D)
        ok = ok and out.sorted == am.avoids_all(pi, U, D)
        ok = ok and (not out.sorted or wo.evaluate_word(out.word, 6) == pi)
    t.check(ok, f"permutree_sort U={U} D={D}")


def _coxeter(t, c, perms6):
    U, D = am.coxeter_element_sets(c, 6)
    aut = am.product(U, D, 6)
    ok, count = True, 0
    for pi in perms6:
        word, sortable = am.coxeter_sort(pi, c)
        ok = ok and wo.evaluate_word(word, 6) == pi and sortable == aut.accepts(word)
        count += sortable
    t.check(ok and count == comb(12, 6) // 7, f"coxeter_sort c={c}")


def permutree_pass(inputs, golden, t=None):
    g = golden["permutree"]
    t = Tally() if t is None else t
    t.guard("insert S_7", _insert_sweep, inputs["insert_delta"], inputs["perms7"], g)
    for d in inputs["embed"]:
        t.guard(f"embedding {d}", _embedding, d, g)
    for d in inputs["meet"]:
        t.guard(f"meets {d}", _meets, d, g, request=len(d) == REQUEST_N)
    t.guard("weak order S_6", _weak_order_lattice)
    for d in inputs["bicho"]:
        t.guard(f"bicho {d}", _bicho, d, g, request=len(d) == REQUEST_N)
    for U, D in inputs["sort_pairs"]:
        t.guard(f"sort {U} {D}", _sorting, U, D, inputs["perms6"])
    for c in inputs["coxeter"]:
        t.guard(f"coxeter {c}", _coxeter, c, inputs["perms6"])
    return t


PASSES = {"sweak": sweak_pass, "realize": realize_pass, "permutree": permutree_pass}
