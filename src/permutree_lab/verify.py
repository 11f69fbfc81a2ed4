"""Verification sweeps: one function per acceptance-style criterion.

`criterion_k(level="full")` returns {"id", "name", "ok", "detail"}.  A failed
`_require`, or a `ValidationError` or `AssertionError` raised inside the
check, a library fault included, is the criterion's failed result with the
exception's message as its detail; `run` goes on to the remaining criteria
and the CLI's `verify` exits 1.  `level="full"` runs the desk-scale
quantifiers (seconds to a few minutes per criterion); `"quick"` shrinks the
ranges for interactive use.  Everything asserted here is an exact identity;
there are no tolerances.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from itertools import combinations, permutations, product
from math import comb

from . import automata as am
from . import bicho as bi
from . import flows as fl
from . import oruga as og
from . import permutree as pt
from . import s_weak_order as sw
from . import vectors as vec
from . import weak_order as wo
from .errors import ValidationError
from .posets import isomorphic_via


class _Failed(Exception):
    """An identity a criterion checks does not hold; the message says which."""


def _require(ok, detail, *args):
    """Raise `_Failed(detail % args)` unless `ok`.  The detail is formatted
    only on failure, so a check inside a hot loop pays nothing for it."""
    if not ok:
        raise _Failed(detail % args)


def _criterion(cid, name):
    """Decorator: a check `fn(level)` that returns its success detail becomes
    criterion `cid`, failed by any exception the module docstring names."""

    def wrap(fn):
        @functools.wraps(fn)
        def criterion(level="full"):
            try:
                ok, detail = True, fn(level)
            except (_Failed, ValidationError, AssertionError) as exc:
                ok, detail = False, str(exc)
            return {"id": cid, "name": name, "ok": ok, "detail": detail}

        return criterion

    return wrap


def _strict_compositions(max_total, min_total=1):
    """Every strict composition with total in min_total..max_total, sorted; a
    composition of t is cut at a subset of 1..t-1."""
    return sorted(
        tuple(b - a for a, b in zip((0, *cuts), (*cuts, t)))
        for t in range(min_total, max_total + 1)
        for r in range(t)
        for cuts in combinations(range(1, t), r)
    )


@_criterion(1, "permutree counts n=4")
def criterion_1(level):
    """Permutree counts at n=4: recursion = lattice size = insertion fibers."""
    anchors = {"nnnn": 24, "nddn": 14, "nxxn": 8}
    for d in pt.normalized_decorations(4):
        c = pt.count_permutrees(d)
        lat = pt.rotation_lattice(d)
        fib = pt.insertion_fibers(d)
        _require(c == len(lat) == len(fib), "delta=%s", d)
        _require(str(d) not in anchors or c == anchors[str(d)], "anchor %s: %s", d, c)
    return "16 decorations, anchors 24/14/8"


@_criterion(2, "constructive meet")
def criterion_2(level):
    """Constructive meet equals the Hasse meet; order is inversion inclusion."""
    nmax = 5 if level == "full" else 4
    pairs_checked = 0
    for n in range(2, nmax + 1):
        for d in pt.normalized_decorations(n):
            lat = pt.rotation_lattice(d)
            for a in lat.elements:
                for b in lat.elements:
                    meet = vec.meet_via_inversions(a, b)
                    _require(meet == lat.meet(a, b), "%s: %s ^ %s", d, a, b)
                    strict = lat.leq(a, b) and a != b
                    rows = zip(a.inversion_rows(), b.inversion_rows())
                    below = a != b and all(x | y == y for x, y in rows)  # B(a) < B(b)
                    _require(strict == below, "order %s", d)
                    pairs_checked += 1
    return f"{pairs_checked} pairs, n <= {nmax}"


@_criterion(3, "cubical embedding")
def criterion_3(level):
    """Cubical embedding: injective, corners attained, axis-parallel edges."""
    nmax = 6 if level == "full" else 4
    for n in range(2, nmax + 1):
        for d in pt.normalized_decorations(n):
            lat, emb = vec.cubical_embedding(d)
            vals = list(emb.values())
            _require(len(set(vals)) == len(vals), "not injective: %s", d)
            inside = all(0 <= v[i] <= n - 1 - i for v in vals for i in range(n - 1))
            _require(inside, "outside box: %s", d)
            corners = set()
            for mask in range(1 << (n - 1)):
                corner = tuple(
                    (n - i) * ((mask >> (i - 1)) & 1) for i in range(1, n)
                )
                t = vec.extremal_permutree(d, corner)
                corners.add(t)
            _require(len(corners) == 1 << (n - 1), "corners collide: %s", d)
            for a, b in lat.cover_pairs():
                diff = [y - x for x, y in zip(emb[a], emb[b])]
                nz = [x for x in diff if x]
                _require(len(nz) == 1 and nz[0] > 0, "edge not e_i: %s", d)
    # down^n cubic vectors = classical bracket vectors; none^n = Lehmer codes
    for n in range(3, nmax + 1):
        d = pt.Decoration("n" + "d" * (n - 2) + "n")
        got = {vec.cubic_vector(t) for t in pt.rotation_lattice(d).elements}
        _require(got == _bracket_vectors(n), "bracket vectors n=%s", n)
        latn = pt.rotation_lattice(pt.Decoration("n" * n))
        for t in latn.elements:
            lehmer = wo.lehmer_code(pt.children_first(t))
            _require(vec.cubic_vector(t) == lehmer, "lehmer n=%s", n)
    return f"all decorations, n <= {nmax}"


def _bracket_vectors(n):
    """Independent oracle: the classical characterization of bracket vectors,
    0 <= b_i <= n-i with the nesting b_j <= (i + b_i) - j for i < j <= i + b_i."""
    return {
        b
        for b in product(*(range(n - i + 1) for i in range(1, n)))
        if all(
            j + b[j - 1] <= x + b[x - 1]
            for x in range(1, n)
            for j in range(x + 1, min(x + b[x - 1], n - 1) + 1)
        )
    }


@_criterion(4, "automata vs patterns")
def criterion_4(level):
    """Accepted reduced word exists iff the fixed patterns are avoided."""
    nmax_words = 5 if level == "full" else 4
    nmax_search = 6 if level == "full" else 5
    for n in range(3, nmax_words + 1):
        combos = _disjoint_pairs(n)
        perms = wo.all_perms(n)
        words = {pi: wo.reduced_words(pi) for pi in perms}
        for U, D in combos:
            aut = am.product(U, D, n)
            for pi in perms:
                accepted = [w for w in words[pi] if aut.accepts(w)]
                _require(bool(accepted) == am.avoids_all(pi, U, D), "%s %s %s", pi, U, D)
                # prefix closure and same-state
                finals = {aut.run(w) for w in accepted}
                _require(len(finals) <= 1, "same-state %s", pi)
                prefixes = all(aut.accepts(w[:k]) for w in accepted for k in range(len(w)))
                _require(prefixes, "prefix")
        # refined three-case state prediction for single automata
        for j in range(2, n):
            aut = am.build_single("U", j, n)
            for pi in perms:
                pos = wo.inverse(pi)
                inv_up = sum(1 for i in range(1, j) if pos[i - 1] > pos[j - 1])
                inv_dn = sum(1 for k in range(j + 1, n + 1) if pos[j - 1] > pos[k - 1])
                finals = {aut.run(w) for w in words[pi]}
                classes = {aut.classify[f] for f in finals}
                case1 = inv_up or (len(finals) == 1 and classes == {"healthy"})
                _require(case1, "case1 %s j=%s", pi, j)
                if inv_dn == 0:
                    want = (
                        "healthy"
                        if inv_up == 0
                        else ("ill" if am.avoids_fixed_pattern(pi, j, "jki") else "dead")
                    )
                    _require(len(finals) == 1 and classes == {want}, "case2 %s", pi)
                if inv_up and inv_dn:
                    acc_states = {aut.run(w) for w in words[pi] if aut.accepts(w)}
                    ill = all(aut.classify[f] == "ill" for f in acc_states)
                    _require(len(acc_states) <= 1 and ill, "case3 %s", pi)
    # n = nmax_search by the lex-min word search
    n = nmax_search
    for U, D in _disjoint_pairs(n):
        aut = am.product(U, D, n)
        for pi in wo.all_perms(n):
            found = am.lex_min_accepted_word(pi, aut, range(1, n)) is not None
            _require(found == am.avoids_all(pi, U, D), "search %s %s %s", pi, U, D)
    return f"words n<={nmax_words}, search n={nmax_search}"


def _disjoint_pairs(n):
    """Every (U, D) of disjoint subsets of 2..n-1: each slot is in neither,
    in U or in D, with slot 2 the fastest-changing digit."""
    slots = range(n - 1, 1, -1)  # `product` changes its last digit fastest
    return [
        tuple(frozenset(j for j, r in zip(slots, digits) if r == side) for side in (1, 2))
        for digits in product(range(3), repeat=len(slots))
    ]


@_criterion(5, "permutree sorting")
def criterion_5(level):
    """Sorting returns a reduced word of pi iff pi is (U, D)-minimal."""
    nmax = 6 if level == "full" else 4
    for n in range(3, nmax + 1):
        for U, D in _disjoint_pairs(n):
            for pi in wo.all_perms(n):
                out = am.permutree_sort(pi, U, D)
                _require(out.sorted == am.avoids_all(pi, U, D), "%s %s %s", pi, U, D)
                _require(not out.sorted or wo.evaluate_word(out.word, n) == pi, "word %s", pi)
    t1 = am.permutree_sort((3, 4, 2, 1), {2}, set())
    t2 = am.permutree_sort((4, 2, 3, 1), {2}, set())
    t3 = am.permutree_sort((5, 4, 2, 1, 3), {2}, {4})
    worked = t1.sorted and not t2.sorted and t2.residual == (1, 2, 4, 3)
    _require(worked and t3.sorted and t3.word[0] == 3, "worked traces")
    return f"worked traces + all (U,D), n <= {nmax}"


@_criterion(6, "coxeter sorting")
def criterion_6(level):
    """Coxeter sorting equivalences and W-Catalan counts."""
    nmax = 6 if level == "full" else 4
    for n in range(3, nmax + 1):
        catalan = comb(2 * n, n) // (n + 1)
        perms = wo.all_perms(n)
        for c in permutations(range(1, n)):
            U, D = am.coxeter_element_sets(c, n)
            aut = am.product(U, D, n)
            count = 0
            for pi in perms:
                word, sortable = am.coxeter_sort(pi, c)
                _require(wo.evaluate_word(word, n) == pi, "c-word wrong %s", pi)
                avoid = am.avoids_all(pi, U, D)
                _require(sortable == aut.accepts(word) == avoid, "%s c=%s", pi, c)
                if n <= 5:
                    found = am.lex_min_accepted_word(pi, aut, range(1, n)) is not None
                    _require(avoid == found, "search %s c=%s", pi, c)
                count += sortable
            _require(count == catalan, "count %s c=%s", count, c)
    return f"all Coxeter words, n <= {nmax}"


def _closure(fn, w, A, s):
    """fn(w, A, s), an A-closure; a ValidationError is raised again naming s, w and A."""
    try:
        return fn(w, A, s)
    except ValidationError as exc:
        raise ValidationError(f"closure s={s} w={w} A={sorted(A)}: {exc}") from exc


@_criterion(7, "s-weak order")
def criterion_7(level):
    """s-weak order: counts, lattice property, DKK dual, A-closure."""
    total_cap = 8 if level == "full" else 5
    rng = random.Random(20230)
    tally = Counter()
    comps = _strict_compositions(total_cap)
    for s in comps:
        words = sw.all_words(s)
        _require(len(words) == sw.count_s_trees(s), "count %s", s)
        H = sw.s_hasse(s)
        _require(len(H) == len(words), "hasse size %s", s)
        Hd = og.hasse_from_adjacency(s)
        same = Hd.elements == H.elements and set(Hd.covers) == set(H.covers)
        _require(same, "DKK dual %s", s)
        del Hd  # before `is_lattice` builds the down-set masks
        _require(_s_lattice_ok(H, s, tally), "lattice %s", s)
        faces = []
        if sum(s) <= 7:
            for w in words:
                asc = sw.ascents(w)
                faces += [(w, A) for r in range(len(asc) + 1) for A in combinations(asc, r)]
            tally["faces"] += len(faces)
        else:
            for _ in range(60):
                w = words[rng.randrange(len(words))]
                faces.append((w, [p for p in sw.ascents(w) if rng.random() < 0.5]))
            tally["sampled_faces"] += len(faces)
        for w, A in faces:
            got = _closure(sw.add_ascents, w, A, s)
            want = _closure(sw.add_ascents_fixpoint, w, A, s)
            _require(got == want, "closure %s %s %s", s, w, A)
    s = (1, 1, 2, 1, 3, 1, 2)
    w = (3, 3, 7, 2, 5, 4, 5, 5, 7, 1, 6)
    got = sw.add_ascents(w, {(2, 5), (5, 7), (1, 6)}, s)
    _require(got == (3, 3, 7, 7, 5, 2, 4, 5, 5, 6, 1), "worked example")
    _require(len(sw.s_hasse((1, 2, 1))) == 8 and len(sw.s_hasse((1, 2, 2))) == 15, "anchors")
    return (
        f"all strict |s| <= {total_cap}; is_lattice by lower-cover meets on all "
        f"{len(comps)}; joins of all {tally['sibling_joins']} sibling pairs, "
        f"{tally['add_ascents_joins']} of them (|s| <= 6) also equal to add_ascents"
        f"; add_ascents equal to add_ascents_fixpoint on all {tally['faces']} faces (w, A) "
        f"with |s| <= {min(total_cap, 7)} and on {tally['sampled_faces']} random ones, "
        f"60 per s, above"
    )


def _s_lattice_ok(H, s, tally):
    """Join of every cover-sibling pair exists (BEZ criterion).

    The candidate join is the closure of the pointwise max.  Every upper
    bound of x and y has a closed multiset at least that closure, so the
    element whose multiset equals it is the least upper bound outright.  The
    lookup is keyed by the multiset tuples themselves, with no pair order of
    its own: the layout is `s_weak_order`'s.  Up to |s| = 6 the join of the
    covers z + a and z + b must also be z + {a, b} (`add_ascents`).
    `is_lattice`, which meets pairs of lower covers on the down-set masks,
    also runs on every order.  `tally` counts the pairs of each derivation.
    """
    multis = {w: sw.inversion_multiset(w, s) for w in H.elements}
    element = {m: w for w, m in multis.items()}

    def join(x, y):
        return element.get(sw.join_multisets(multis[x], multis[y], s))

    for z in H.elements:
        pairs = list(combinations(H.up_covers(z), 2))
        tally["sibling_joins"] += len(pairs)
        if any(join(x, y) is None for x, y in pairs):
            return False
        if sum(s) <= 6:
            pairs = list(combinations(sw.ascents(z), 2))
            tally["add_ascents_joins"] += len(pairs)
            for p, q in pairs:
                x, y = sw.transpose_ascent(z, p, s), sw.transpose_ascent(z, q, s)
                if join(x, y) != _closure(sw.add_ascents, z, {p, q}, s):
                    return False
    return H.is_lattice()


@_criterion(8, "flow machinery")
def criterion_8(level):
    """Flow machinery: Kostant fixture, DP vs enumeration, Lidskii."""
    G = fl.example_graph()
    _require(fl.kostant(G, (0, 1, 1, -2)) == 2, "K_G(0,1,1,-2)")
    fixtures = [G]
    for s in [(1, 2, 1), (2, 2), (1, 1, 2)]:
        fixtures.append(og.build_oru(s))
    for dstr in ["nnnn", "nxdn", "nudn"]:
        fixtures.append(bi.build_bic(pt.Decoration(dstr)))
    for graph in fixtures:
        for a in [fl.netflow_i(graph), fl.netflow_d(graph)]:
            _require(fl.kostant(graph, a) == len(fl.integer_flows(graph, a)), "DP != enumeration")
    total_cap = 8 if level == "full" else 5
    for s in _strict_compositions(total_cap):
        graph = og.build_oru(s)
        volume = fl.kostant(graph, fl.netflow_d(graph))
        _require(fl.lidskii_volume(graph, fl.netflow_i(graph)) == volume, "lidskii oru %s", s)
        _require(volume == sw.count_s_trees(s), "volume chain %s", s)
    nmax = 5 if level == "full" else 4
    for n in range(2, nmax + 1):
        for d in pt.normalized_decorations(n):
            graph = bi.build_bic(d)
            volume = fl.kostant(graph, fl.netflow_d(graph))
            _require(fl.lidskii_volume(graph, fl.netflow_i(graph)) == volume, "lidskii bic %s", d)
    for s2 in range(0, 5):
        for s3 in range(0, 5):
            rep = og.lidskii_identities((1, s2, s3))
            _require(rep["equal"], "identity (1,%s,%s)", s2, s3)
    _require(og.lidskii_identities((1, 0, 1))["equal"], "negative-term case")
    return f"oru |s|<={total_cap}, bic n<={nmax}"


@_criterion(9, "tropical realization")
def criterion_9(level):
    """Tropical realization, exact rationals, zero tolerance."""
    total_cap = 7 if level == "full" else 4
    for s in _strict_compositions(total_cap, min_total=2):
        n = len(s)
        if n < 2:
            continue
        eps = og.default_epsilon(s)
        try:
            R = og.realize(s, eps)  # checks admissibility, then scalars and directions
        except ValidationError as exc:
            raise _Failed(f"admissibility {s}: {exc.witness}") from exc
        _require(len(R.vertices) == sw.count_s_trees(s), "vertex count %s", s)
        cs = R.coordinate_sum()
        _require(all(sum(ptn) == cs for ptn in R.vertices.values()), "hyperplane %s", s)
        # support zonotope: all e_a - e_c edges have exact length 2 s_c eps^(c-a)
        want = {}
        for a, c in combinations(range(1, n + 1), 2):
            lam = 2 * s[c - 1] * eps ** (c - a)
            want[a, c] = tuple(lam if i == a else (-lam if i == c else 0) for i in range(1, n + 1))
        for sigma in permutations(range(1, n + 1)):
            v1 = R.vertices[R.support[sigma]]
            for k, (a, c) in enumerate(zip(sigma, sigma[1:])):
                if a < c:
                    v2 = R.vertices[R.support[sigma[:k] + (c, a) + sigma[k + 2 :]]]
                    _require(tuple(x - y for x, y in zip(v2, v1)) == want[a, c], "zonotope %s", s)
    return f"all strict |s| <= {total_cap}"


@_criterion(10, "bicho recovery")
def criterion_10(level):
    """Bicho recovery: counts, dual lattice, bijection, conjecture reports."""
    nmax = 5 if level == "full" else 4
    for n in range(2, nmax + 1):
        for d in pt.normalized_decorations(n):
            graph = bi.build_bic(d)
            flows_n = fl.kostant(graph, bi.netflow_d(graph))
            cliques = fl.max_cliques(graph)
            _require(flows_n == len(cliques) == pt.count_permutrees(d), "counts %s", d)
            lat = pt.rotation_lattice(d)
            dual = bi.rotation_from_adjacency(d)
            mapping = {T: bi.permutree_clique(T) for T in lat.elements}
            _require(set(mapping.values()) == set(cliques), "cliques %s", d)
            _require(isomorphic_via(lat, dual, mapping), "dual poset %s", d)
            if set(d.symbols) <= {"n", "d"}:
                for T in lat.elements:
                    back = bi.dflow_to_permutree(bi.permutree_to_dflow(T), d)
                    _require(back == T, "roundtrip %s", d)
            rep = bi.check_conjectures(d)
            conjectures = rep["conjecture_2"] == "PASS" and rep.get("conjecture_1") != "FAIL"
            _require(conjectures, "conjectures %s", d)
    return f"all decorations, n <= {nmax}"


@_criterion(11, "clique oracle")
def criterion_11(level):
    """Generic clique oracle matches delta_w; non-transitivity witness."""
    total_cap = 6 if level == "full" else 4
    for s in _strict_compositions(total_cap):
        graph = og.build_oru(s)
        mc = set(fl.max_cliques(graph))
        dw = {og.delta_w(w, s) for w in sw.all_words(s)}
        _require(mc == dw, "%s", s)
    G = fl.example_graph()
    rs = fl.routes(G)
    exceptional = [r for r in rs if all(fl.coherent(G, r, t) for t in rs)]
    conflicting = [
        (p, q) for p, q in combinations(rs, 2) if not fl.coherent(G, p, q)
    ]
    _require(len(rs) == 5 and len(exceptional) == 3 and len(conflicting) == 1, "witness counts")
    (p, q), r1 = conflicting[0], exceptional[0]
    coherent = fl.coherent(G, r1, p) and fl.coherent(G, r1, q)
    _require(coherent and len(fl.max_cliques(G)) == 2, "witness coherence")
    return f"oru(s) |s| <= {total_cap} + witness"


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
]

MODULE_CHECKS = {
    "weak_order": [criterion_2],
    "permutree": [criterion_1, criterion_2],
    "vectors": [criterion_2, criterion_3],
    "automata": [criterion_4, criterion_5, criterion_6],
    "s_weak_order": [criterion_7],
    "flows": [criterion_8, criterion_11],
    "oruga": [criterion_7, criterion_9],
    "bicho": [criterion_10],
}


def run(checks=None, level="quick"):
    checks = ALL_CRITERIA if checks is None else checks
    return [chk(level=level) for chk in checks]
