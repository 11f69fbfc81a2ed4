"""Verification sweeps: one function per acceptance-style criterion.

Each check returns {"id", "name", "ok", "detail"}.  `level="full"` runs the
desk-scale quantifiers (seconds to a few minutes per criterion); `"quick"`
shrinks the ranges for interactive use.  Everything asserted here is an exact
identity; there are no tolerances.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
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


def _result(cid, name, ok, detail=""):
    return {"id": cid, "name": name, "ok": bool(ok), "detail": detail}


def _strict_compositions(max_total, min_total=1):
    out = []

    def rec(acc, left):
        if acc:
            out.append(tuple(acc))
        for v in range(1, left + 1):
            rec(acc + [v], left - v)

    rec([], max_total)
    return sorted(c for c in out if min_total <= sum(c) <= max_total)


def criterion_1(level="full"):
    """Permutree counts at n=4: recursion = lattice size = insertion fibers."""
    anchors = {"nnnn": 24, "nddn": 14, "nxxn": 8}
    for d in pt.normalized_decorations(4):
        c = pt.count_permutrees(d)
        lat = pt.rotation_lattice(d)
        fib = pt.insertion_fibers(d)
        if not (c == len(lat) == len(fib)):
            return _result(1, "permutree counts n=4", False, f"delta={d}")
        if str(d) in anchors and c != anchors[str(d)]:
            return _result(1, "permutree counts n=4", False, f"anchor {d}: {c}")
    return _result(1, "permutree counts n=4", True, "16 decorations, anchors 24/14/8")


def criterion_2(level="full"):
    """Constructive meet equals the Hasse meet; order is inversion inclusion."""
    nmax = 5 if level == "full" else 4
    pairs_checked = 0
    for n in range(2, nmax + 1):
        for d in pt.normalized_decorations(n):
            lat = pt.rotation_lattice(d)
            for a in lat.elements:
                for b in lat.elements:
                    if vec.meet_via_inversions(a, b) != lat.meet(a, b):
                        return _result(2, "constructive meet", False, f"{d}: {a} ^ {b}")
                    strict = lat.leq(a, b) and a != b
                    if strict != (a.inversion_pairs() < b.inversion_pairs()):
                        return _result(2, "constructive meet", False, f"order {d}")
                    pairs_checked += 1
    return _result(2, "constructive meet", True, f"{pairs_checked} pairs, n <= {nmax}")


def criterion_3(level="full"):
    """Cubical embedding: injective, corners attained, axis-parallel edges."""
    nmax = 6 if level == "full" else 4
    for n in range(2, nmax + 1):
        for d in pt.normalized_decorations(n):
            lat, emb = vec.cubical_embedding(d)
            vals = list(emb.values())
            if len(set(vals)) != len(vals):
                return _result(3, "cubical embedding", False, f"not injective: {d}")
            if not all(0 <= v[i] <= n - 1 - i for v in vals for i in range(n - 1)):
                return _result(3, "cubical embedding", False, f"outside box: {d}")
            corners = set()
            for mask in range(1 << (n - 1)):
                corner = tuple(
                    (n - i) * ((mask >> (i - 1)) & 1) for i in range(1, n)
                )
                t = vec.extremal_permutree(d, corner)
                corners.add(t)
            if len(corners) != 1 << (n - 1):
                return _result(3, "cubical embedding", False, f"corners collide: {d}")
            for a, b in lat.cover_pairs():
                diff = [y - x for x, y in zip(emb[a], emb[b])]
                nz = [x for x in diff if x]
                if len(nz) != 1 or nz[0] <= 0:
                    return _result(3, "cubical embedding", False, f"edge not e_i: {d}")
    # down^n cubic vectors = classical bracket vectors; none^n = Lehmer codes
    for n in range(3, nmax + 1):
        d = pt.Decoration("n" + "d" * (n - 2) + "n")
        got = {vec.cubic_vector(t) for t in pt.rotation_lattice(d).elements}
        if got != _bracket_vectors(n):
            return _result(3, "cubical embedding", False, f"bracket vectors n={n}")
        latn = pt.rotation_lattice(pt.Decoration("n" * n))
        for t in latn.elements:
            if vec.cubic_vector(t) != wo.lehmer_code(pt.children_first(t)):
                return _result(3, "cubical embedding", False, f"lehmer n={n}")
    return _result(3, "cubical embedding", True, f"all decorations, n <= {nmax}")


def _bracket_vectors(n):
    """Independent oracle: the classical characterization of bracket vectors,
    0 <= b_i <= n-i with the nesting b_j <= (i + b_i) - j for i < j <= i + b_i."""
    out = set()

    def grow(prefix, i):
        if i == n:
            b = tuple(prefix)
            for x in range(1, n):
                for j in range(x + 1, min(x + b[x - 1], n - 1) + 1):
                    if j + b[j - 1] > x + b[x - 1]:
                        return
            out.add(b)
            return
        for l in range(0, n - i + 1):
            grow(prefix + [l], i + 1)

    grow([], 1)
    return out


def criterion_4(level="full"):
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
                if bool(accepted) != am.avoids_all(pi, U, D):
                    return _result(4, "automata vs patterns", False, f"{pi} {U} {D}")
                # prefix closure and same-state
                finals = {aut.run(w) for w in accepted}
                if len(finals) > 1:
                    return _result(4, "automata vs patterns", False, f"same-state {pi}")
                for w in accepted:
                    for k in range(len(w)):
                        if not aut.accepts(w[:k]):
                            return _result(4, "automata vs patterns", False, "prefix")
    # refined three-case state prediction for single automata, n <= 5
    for n in range(3, min(nmax_words, 5) + 1):
        for j in range(2, n):
            aut = am.build_single("U", j, n)
            for pi in wo.all_perms(n):
                words = wo.reduced_words(pi)
                pos = wo.inverse(pi)
                inv_up = sum(1 for i in range(1, j) if pos[i - 1] > pos[j - 1])
                inv_dn = sum(1 for k in range(j + 1, n + 1) if pos[j - 1] > pos[k - 1])
                finals = {aut.run(w) for w in words}
                classes = {aut.classify[f] for f in finals}
                if inv_up == 0 and (len(finals) != 1 or classes != {"healthy"}):
                    return _result(4, "automata vs patterns", False, f"case1 {pi} j={j}")
                if inv_dn == 0:
                    if len(finals) != 1:
                        return _result(4, "automata vs patterns", False, f"case2 {pi}")
                    want = (
                        "healthy"
                        if inv_up == 0
                        else ("ill" if am.avoids_fixed_pattern(pi, j, "jki") else "dead")
                    )
                    if classes != {want}:
                        return _result(4, "automata vs patterns", False, f"case2 {pi}")
                if inv_up and inv_dn:
                    acc_states = {aut.run(w) for w in words if aut.accepts(w)}
                    if len(acc_states) > 1 or any(
                        aut.classify[f] != "ill" for f in acc_states
                    ):
                        return _result(4, "automata vs patterns", False, f"case3 {pi}")
    # n = nmax_search by algorithmic search (cross-checked inside the op)
    n = nmax_search
    for U, D in _disjoint_pairs(n):
        for pi in wo.all_perms(n):
            am.exists_accepted_word(pi, U, D)
    return _result(4, "automata vs patterns", True, f"words n<={nmax_words}, search n={nmax_search}")


def _disjoint_pairs(n):
    out = []
    slots = list(range(2, n))
    for assign in range(3 ** len(slots)):
        U, D = set(), set()
        a = assign
        for j in slots:
            a, r = divmod(a, 3)
            if r == 1:
                U.add(j)
            elif r == 2:
                D.add(j)
        out.append((frozenset(U), frozenset(D)))
    return out


def criterion_5(level="full"):
    """Sorting returns a reduced word of pi iff pi is (U, D)-minimal."""
    nmax = 6 if level == "full" else 4
    for n in range(3, nmax + 1):
        for U, D in _disjoint_pairs(n):
            for pi in wo.all_perms(n):
                out = am.permutree_sort(pi, U, D)
                minimal = am.avoids_all(pi, U, D)
                if out.sorted != minimal:
                    return _result(5, "permutree sorting", False, f"{pi} {U} {D}")
                if out.sorted and wo.evaluate_word(out.word, n) != pi:
                    return _result(5, "permutree sorting", False, f"word {pi}")
    t1 = am.permutree_sort((3, 4, 2, 1), {2}, set())
    t2 = am.permutree_sort((4, 2, 3, 1), {2}, set())
    t3 = am.permutree_sort((5, 4, 2, 1, 3), {2}, {4})
    ok = (
        t1.sorted
        and not t2.sorted
        and t2.residual == (1, 2, 4, 3)
        and t3.sorted
        and t3.word[0] == 3
    )
    return _result(5, "permutree sorting", ok, f"worked traces + all (U,D), n <= {nmax}")


def criterion_6(level="full"):
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
                if wo.evaluate_word(word, n) != pi:
                    return _result(6, "coxeter sorting", False, f"c-word wrong {pi}")
                runs_ok = aut.accepts(word)
                avoid = am.avoids_all(pi, U, D)
                if not (sortable == runs_ok == avoid):
                    return _result(6, "coxeter sorting", False, f"{pi} c={c}")
                if n <= 5 and avoid != (
                    am.lex_min_accepted_word(pi, aut, range(1, n)) is not None
                ):
                    return _result(6, "coxeter sorting", False, f"search {pi} c={c}")
                count += sortable
            if count != catalan:
                return _result(6, "coxeter sorting", False, f"count {count} c={c}")
    return _result(6, "coxeter sorting", True, f"all Coxeter words, n <= {nmax}")


def criterion_7(level="full"):
    """s-weak order: counts, lattice property, DKK dual, A-closure; a ValidationError fails it."""
    try:
        return _criterion_7(level)
    except ValidationError as exc:
        return _result(7, "s-weak order", False, str(exc))


def _closure(fn, w, A, s):
    """fn(w, A, s), an A-closure; a ValidationError is raised again naming s, w and A."""
    try:
        return fn(w, A, s)
    except ValidationError as exc:
        raise ValidationError(f"closure s={s} w={w} A={sorted(A)}: {exc}") from exc


def _criterion_7(level):
    total_cap = 8 if level == "full" else 5
    rng = random.Random(20230)
    tally = Counter()
    comps = _strict_compositions(total_cap)
    for s in comps:
        words = sw.all_words(s)
        if len(words) != sw.count_s_trees(s):
            return _result(7, "s-weak order", False, f"count {s}")
        H = sw.s_hasse(s)
        if len(H) != len(words):
            return _result(7, "s-weak order", False, f"hasse size {s}")
        if not _s_lattice_ok(H, s, tally):
            return _result(7, "s-weak order", False, f"lattice {s}")
        Hd = og.hasse_from_adjacency(s)
        if not isomorphic_via(H, Hd, {w: w for w in H.elements}):
            return _result(7, "s-weak order", False, f"DKK dual {s}")
        if sum(s) <= 6:
            for w in words:
                asc = sw.ascents(w)
                for r in range(len(asc) + 1):
                    for A in combinations(asc, r):
                        got = _closure(sw.add_ascents, w, A, s)
                        if got != _closure(sw.add_ascents_fixpoint, w, A, s):
                            return _result(7, "s-weak order", False, f"closure {s} {w} {A}")
        else:
            for _ in range(60):
                w = words[rng.randrange(len(words))]
                asc = sw.ascents(w)
                A = [p for p in asc if rng.random() < 0.5]
                if _closure(sw.add_ascents, w, A, s) != _closure(sw.add_ascents_fixpoint, w, A, s):
                    return _result(7, "s-weak order", False, f"closure {s} {w} {A}")
    s = (1, 1, 2, 1, 3, 1, 2)
    w = (3, 3, 7, 2, 5, 4, 5, 5, 7, 1, 6)
    if sw.add_ascents(w, {(2, 5), (5, 7), (1, 6)}, s) != (3, 3, 7, 7, 5, 2, 4, 5, 5, 6, 1):
        return _result(7, "s-weak order", False, "worked example")
    anchors = len(sw.s_hasse((1, 2, 1))) == 8 and len(sw.s_hasse((1, 2, 2))) == 15
    detail = (
        f"all strict |s| <= {total_cap}; all-pairs is_lattice on {tally['is_lattice']} of "
        f"{len(comps)}; joins of all {tally['sibling_joins']} sibling pairs, "
        f"{tally['add_ascents_joins']} of them (|s| <= 6) also equal to add_ascents"
    )
    return _result(7, "s-weak order", anchors, detail)


def _s_lattice_ok(H, s, tally):
    """Join of every cover-sibling pair exists (BEZ criterion).

    The candidate join is the closure of the pointwise max.  Every upper
    bound of x and y has a closed multiset at least that closure, so the
    element whose multiset equals it, looked up by its values over the pairs
    (c, a) in one order, is the least upper bound outright.  Up to |s| = 6
    the join of the covers z + a and z + b must also be z + {a, b}
    (`add_ascents`).  `is_lattice` also runs up to 2000 elements.  `tally`
    counts the pairs of each derivation and the lattices.
    """
    order = [(c, a) for a in range(1, len(s)) for c in range(a + 1, len(s) + 1)]
    multis = {w: sw.inversion_multiset(w, s) for w in H.elements}
    element = {tuple(map(m.__getitem__, order)): w for w, m in multis.items()}

    def join(x, y):
        m = sw.join_multisets(multis[x], multis[y], s)
        return element.get(tuple(map(m.__getitem__, order)))

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
    if len(H) <= 2000:
        tally["is_lattice"] += 1
        if not H.is_lattice():
            return False
    return True


def criterion_8(level="full"):
    """Flow machinery: Kostant fixture, DP vs enumeration, Lidskii."""
    G = fl.example_graph()
    if fl.kostant(G, (0, 1, 1, -2)) != 2:
        return _result(8, "flow machinery", False, "K_G(0,1,1,-2)")
    fixtures = [G]
    for s in [(1, 2, 1), (2, 2), (1, 1, 2)]:
        fixtures.append(og.build_oru(s))
    for dstr in ["nnnn", "nxdn", "nudn"]:
        fixtures.append(bi.build_bic(pt.Decoration(dstr)))
    for graph in fixtures:
        for a in [fl.netflow_i(graph), fl.netflow_d(graph)]:
            if fl.kostant(graph, a) != len(fl.integer_flows(graph, a)):
                return _result(8, "flow machinery", False, "DP != enumeration")
    total_cap = 8 if level == "full" else 5
    for s in _strict_compositions(total_cap):
        graph = og.build_oru(s)
        if fl.lidskii_volume(graph, fl.netflow_i(graph)) != fl.kostant(
            graph, fl.netflow_d(graph)
        ):
            return _result(8, "flow machinery", False, f"lidskii oru {s}")
        if fl.kostant(graph, fl.netflow_d(graph)) != sw.count_s_trees(s):
            return _result(8, "flow machinery", False, f"volume chain {s}")
    nmax = 5 if level == "full" else 4
    for n in range(2, nmax + 1):
        for d in pt.normalized_decorations(n):
            graph = bi.build_bic(d)
            if fl.lidskii_volume(graph, fl.netflow_i(graph)) != fl.kostant(
                graph, fl.netflow_d(graph)
            ):
                return _result(8, "flow machinery", False, f"lidskii bic {d}")
    for s2 in range(0, 5):
        for s3 in range(0, 5):
            rep = og.lidskii_identities((1, s2, s3))
            if not rep["equal"]:
                return _result(8, "flow machinery", False, f"identity (1,{s2},{s3})")
    if not og.lidskii_identities((1, 0, 1))["equal"]:
        return _result(8, "flow machinery", False, "negative-term case")
    return _result(8, "flow machinery", True, f"oru |s|<={total_cap}, bic n<={nmax}")


def criterion_9(level="full"):
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
            return _result(9, "tropical realization", False, f"admissibility {s}: {exc.witness}")
        if len(R.vertices) != sw.count_s_trees(s):
            return _result(9, "tropical realization", False, f"vertex count {s}")
        cs = R.coordinate_sum()
        if any(sum(ptn) != cs for ptn in R.vertices.values()):
            return _result(9, "tropical realization", False, f"hyperplane {s}")
        # support zonotope: all e_a - e_c edges have exact length 2 s_c eps^(c-a)
        for sigma in permutations(range(1, n + 1)):
            for k in range(n - 1):
                a, c = sigma[k], sigma[k + 1]
                if a > c:
                    continue
                sigma2 = list(sigma)
                sigma2[k], sigma2[k + 1] = sigma2[k + 1], sigma2[k]
                v1 = R.vertices[R.support[sigma]]
                v2 = R.vertices[R.support[tuple(sigma2)]]
                lam = 2 * s[c - 1] * eps ** (c - a)
                want = tuple(
                    lam if i == a else (-lam if i == c else Fraction(0))
                    for i in range(1, n + 1)
                )
                if tuple(x - y for x, y in zip(v2, v1)) != want:
                    return _result(9, "tropical realization", False, f"zonotope {s}")
    return _result(9, "tropical realization", True, f"all strict |s| <= {total_cap}")


def criterion_10(level="full"):
    """Bicho recovery: counts, dual lattice, bijection, conjecture reports."""
    nmax = 5 if level == "full" else 4
    for n in range(2, nmax + 1):
        for d in pt.normalized_decorations(n):
            graph = bi.build_bic(d)
            flows_n = fl.kostant(graph, bi.netflow_d(graph))
            cliques = fl.max_cliques(graph)
            trees_n = pt.count_permutrees(d)
            if not (flows_n == len(cliques) == trees_n):
                return _result(10, "bicho recovery", False, f"counts {d}")
            lat = pt.rotation_lattice(d)
            dual = bi.rotation_from_adjacency(d)
            mapping = {T: bi.permutree_clique(T) for T in lat.elements}
            if set(mapping.values()) != set(cliques):
                return _result(10, "bicho recovery", False, f"cliques {d}")
            if not isomorphic_via(lat, dual, mapping):
                return _result(10, "bicho recovery", False, f"dual poset {d}")
            if set(d.symbols) <= {"n", "d"}:
                for T in lat.elements:
                    if bi.dflow_to_permutree(bi.permutree_to_dflow(T), d) != T:
                        return _result(10, "bicho recovery", False, f"roundtrip {d}")
            rep = bi.check_conjectures(d)
            if rep["conjecture_2"] != "PASS" or rep.get("conjecture_1") == "FAIL":
                return _result(10, "bicho recovery", False, f"conjectures {d}")
    return _result(10, "bicho recovery", True, f"all decorations, n <= {nmax}")


def criterion_11(level="full"):
    """Generic clique oracle matches delta_w; non-transitivity witness."""
    total_cap = 6 if level == "full" else 4
    for s in _strict_compositions(total_cap):
        graph = og.build_oru(s)
        mc = set(fl.max_cliques(graph))
        dw = {og.delta_w(w, s) for w in sw.all_words(s)}
        if mc != dw:
            return _result(11, "clique oracle", False, f"{s}")
    G = fl.example_graph()
    rs = fl.routes(G)
    exceptional = [r for r in rs if all(fl.coherent(G, r, t) for t in rs)]
    conflicting = [
        (p, q) for p, q in combinations(rs, 2) if not fl.coherent(G, p, q)
    ]
    ok = len(rs) == 5 and len(exceptional) == 3 and len(conflicting) == 1
    if ok:
        p, q = conflicting[0]
        r1 = exceptional[0]
        ok = fl.coherent(G, r1, p) and fl.coherent(G, r1, q)
        ok = ok and len(fl.max_cliques(G)) == 2
    return _result(11, "clique oracle", ok, f"oru(s) |s| <= {total_cap} + witness")


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
