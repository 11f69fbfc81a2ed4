from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutree_lab import caps
from permutree_lab import oruga as og
from permutree_lab import s_weak_order as sw
from permutree_lab import verify
from permutree_lab import weak_order as wo
from permutree_lab.errors import ResourceCapError, ValidationError
from permutree_lab.posets import Hasse

RUN_S = (1, 1, 2, 1, 3, 1, 2)
RUN_W = (3, 3, 7, 2, 5, 4, 5, 5, 7, 1, 6)


def test_count_formula():
    assert sw.count_s_trees((1, 1, 1, 1)) == 24
    assert sw.count_s_trees((1, 2, 2)) == 15
    assert sw.count_s_trees((1, 2, 1)) == 8
    assert sw.count_s_trees((0, 1, 2)) == 12  # weak compositions allowed


def test_tree_word_bijection_figure():
    s = (2, 1, 1, 2)
    w = (2, 4, 1, 1, 4, 3)
    tree = sw.word_to_tree(w, s)
    assert sw.tree_to_word(tree, s) == w


def test_single_node_tree():
    s = (3,)
    tree = sw.word_to_tree((1, 1, 1), s)
    assert tree == (1, (None, None, None, None))
    assert sw.tree_to_word(tree, s) == (1, 1, 1)


@pytest.mark.parametrize("s", [(1, 1, 1), (1, 2, 1), (2, 2), (1, 2, 2), (2, 1, 1, 2)])
def test_tree_word_roundtrip(s):
    words = sw.all_words(s)
    assert len(words) == sw.count_s_trees(s)
    for w in words:
        assert sw.tree_to_word(sw.word_to_tree(w, s), s) == w


def test_word_validation():
    with pytest.raises(ValidationError):
        sw.check_word((1, 2, 1), (1, 1, 1))  # wrong multiplicities
    with pytest.raises(ValidationError):
        sw.check_word((1, 2, 1), (2, 1))  # pattern 121
    with pytest.raises(ValidationError):
        sw.word_to_tree((1, 1), (0, 2))  # strict needed on the word side
    with pytest.raises(ValidationError, match=r"letter multiplicities \(1, 1, 0\) != s"):
        sw.word_to_tree((2, 1), (1, 1, 1))
    for read in (sw.tree_to_word, sw.tree_to_bumps):
        with pytest.raises(ValidationError, match="tree labels are not exactly"):
            read((3, (None,)), (1, 1, 1))


def _in_order(tree):
    """The in-order reading by recursion: s_i copies of i separate the
    children of node i.  The oracle for `tree_to_word`."""
    out = []

    def rec(t):
        if t is None:
            return
        label, children = t
        for k, ch in enumerate(children):
            if k:
                out.append(label)
            rec(ch)

    rec(tree)
    return tuple(out)


def _max_split(w):
    """The tree of a word by recursion: split at the occurrences of the
    maximum.  The oracle for `word_to_tree`."""

    def rec(chunk):
        if not chunk:
            return None
        m = max(chunk)
        idx = [k for k, v in enumerate(chunk) if v == m]
        parts = []
        prev = 0
        for k in idx:
            parts.append(chunk[prev:k])
            prev = k + 1
        parts.append(chunk[prev:])
        return (m, tuple(rec(p) for p in parts))

    return rec(tuple(w))


def _seek_bumps(tree, n):
    """Bump v by a walk per node: the leaves passed before node v when every
    node below v is read as a leaf.  The oracle for `tree_to_bumps`."""

    def seek(t, v, counter):
        for ch in t[1]:
            if ch is None or ch[0] < v:
                counter[0] += 1
            elif ch[0] == v:
                return counter[0]
            else:
                got = seek(ch, v, counter)
                if got is not None:
                    return got
        return None

    return {v: seek(tree, v, [0]) for v in range(1, n)}


def _graft(tree, k, new):
    """Put `new` on leaf k, counted in in-order, of `tree`, by recursion.
    Returns the new tree and k less the leaves passed, which is negative
    once grafted."""
    label, children = tree
    cs = list(children)
    for i, ch in enumerate(cs):
        if ch is None:
            if k == 0:
                cs[i] = new
                return (label, tuple(cs)), -1
            k -= 1
        else:
            cs[i], k = _graft(ch, k, new)
            if k < 0:
                break
    return (label, tuple(cs)), k


def _graft_tree(bumps, s):
    """Grafting node by node with `_graft`.  The oracle for
    `bumps_to_tree`, which grafts on a leaf list."""
    n = len(s)
    tree = (n, (None,) * (s[n - 1] + 1))
    for v in range(n - 1, 0, -1):
        tree, _ = _graft(tree, bumps[v], (v, (None,) * (s[v - 1] + 1)))
    return tree


def test_bump_hub_matches_the_tree_recursions():
    words = 0
    for s in verify._strict_compositions(7):
        for w in sw.all_words(s):
            tree = _max_split(w)
            assert sw.word_to_tree(w, s) == tree, (s, w)
            assert sw.tree_to_word(tree, s) == _in_order(tree) == w, (s, w)
            bumps = sw.word_to_bumps(w, s)
            assert sw.tree_to_bumps(tree, s) == _seek_bumps(tree, len(s)) == bumps, (s, w)
            assert sw.bumps_to_tree(bumps, s) == _graft_tree(bumps, s), (s, w)
            assert sw.bumps_to_word(bumps, s) == w, (s, w)
            words += 1
    assert words == 23116
    trees = 0  # every tree, also over weak compositions, where no word exists
    for s in [(1, 2, 1), (0, 1, 2), (2, 0, 1), (1, 0, 0, 1), (0, 2, 0, 2), (2, 2, 2, 2)]:
        for b in sw.bump_vectors(s):
            tree = sw.bumps_to_tree(b, s)
            assert tree == _graft_tree(b, s), (s, b)
            assert sw.tree_to_bumps(tree, s) == _seek_bumps(tree, len(s)) == b, (s, b)
            trees += 1
    assert trees == 182


def _check_word_two_pass(w, s):
    """The two-pass `check_word`: counts first, then a slice maximum since
    each letter's last occurrence.  The oracle for the one-pass check."""
    s = sw.check_composition(s, strict=True)
    w = tuple(w)
    n = len(s)
    counts = [0] * n
    for v in w:
        if not 1 <= v <= n:
            raise ValidationError(f"letter {v} outside [1, {n}]")
        counts[v - 1] += 1
    if tuple(counts) != s:
        raise ValidationError(f"letter multiplicities {tuple(counts)} != s = {s}")
    last = {}
    for k, v in enumerate(w):
        if v in last and max(w[last[v] : k]) > v:
            raise ValidationError(f"word contains the pattern 121 at letter {v}")
        last[v] = k
    return w


def _verdict(check, w, s):
    try:
        return check(w, s)
    except ValidationError as exc:
        return str(exc)


def test_check_word_matches_the_two_pass_oracle():
    kinds = Counter()
    for s in verify._strict_compositions(5):
        n = len(s)
        arrangements = set(permutations(sw.sorted_word(s)))
        words = set(arrangements)
        for w in arrangements:
            half = len(w) // 2
            words |= {w[:half] + (x,) + w[half:] for x in (0, 1, n, n + 1)}  # range or count
            words |= {w[1:], w + (w[0],)}  # wrong count, a 121 kept or made
        accepted = set()
        for w in sorted(words):
            got = _verdict(sw.check_word, w, s)
            assert got == _verdict(_check_word_two_pass, w, s), (s, w)
            if got == w:
                accepted.add(w)
            elif "outside" in got:
                kinds["range"] += 1
            elif "121" in got:
                kinds["121"] += 1
            else:
                has_121 = any(v in w[:k] and max(w[w.index(v) : k]) > v for k, v in enumerate(w))
                kinds["count and 121" if has_121 else "count"] += 1
        assert accepted == set(sw.all_words(s)), s
    assert set(kinds) == {"range", "121", "count", "count and 121"}, kinds


def _by_pair(m, n):
    """A multiset tuple read as a dict keyed by (c, a), with every entry there."""
    pairs = sw.multiset_pairs(n)
    assert len(m) == len(pairs)
    return dict(zip(pairs, m))


def _encode(by_pair, n):
    """A dict keyed by (c, a) written as a multiset tuple."""
    return tuple(by_pair[p] for p in sw.multiset_pairs(n))


def test_multiset_pairs_order():
    assert sw.multiset_pairs(3) == ((2, 1), (3, 1), (3, 2))
    for n in range(9):
        pairs = [(c, a) for c in range(1, n + 1) for a in range(1, c)]
        assert sw.multiset_pairs(n) == tuple(sorted(pairs, key=lambda p: (p[1], p[0])))


def test_inversion_multiset_running_example():
    m = _by_pair(sw.inversion_multiset(RUN_W, RUN_S), 7)
    assert m[(7, 2)] == 1
    assert m[(3, 1)] == 2
    assert m[(3, 2)] == 2
    sorted_w = sw.sorted_word(RUN_S)
    m0 = _by_pair(sw.inversion_multiset(sorted_w, RUN_S), 7)
    assert all(v == 0 for v in m0.values())
    rev = sw.reverse_sorted_word(RUN_S)
    mtop = _by_pair(sw.inversion_multiset(rev, RUN_S), 7)
    assert all(mtop[(c, a)] == RUN_S[c - 1] for (c, a) in mtop)


def test_inversion_multiset_is_the_prefix_count():
    # |(c, a)| counts the c's in the prefix before the first a.
    for s in verify._strict_compositions(7):
        n = len(s)
        for w in sw.all_words(s):
            want = {
                (c, a): w[: w.index(a)].count(c)
                for a in range(1, n)
                for c in range(a + 1, n + 1)
            }
            assert _by_pair(sw.inversion_multiset(w, s), n) == want


def _inversions_by_pair(w, n):
    """The dict kernel: at the first a, copy the running count of every
    c > a, keyed by (c, a).  The oracle for the tuple layout."""
    counts = [0] * (n + 1)
    out = {}
    for a in w:
        if not counts[a]:
            for c in range(a + 1, n + 1):
                out[(c, a)] = counts[c]
        counts[a] += 1
    return out


def _tc_closure_by_pair(m, s):
    """The dict closure in one pass, a from n-2 down to 1 and b upward."""
    n = len(s)
    m = dict(m)
    for a in range(n - 2, 0, -1):
        for b in range(a + 1, n):
            if m[(b, a)]:
                for c in range(b + 1, n + 1):
                    if m[(c, a)] < m[(c, b)]:
                        m[(c, a)] = m[(c, b)]
    return m


def _join_by_pair(m1, m2, s):
    """The dict join: the closure of the pointwise max."""
    return _tc_closure_by_pair({k: v if v >= m2[k] else m2[k] for k, v in m1.items()}, s)


def test_tuples_match_the_dict_kernels():
    # every word and every sibling join with |s| <= 7, entry by entry
    words = joins = 0
    for s in verify._strict_compositions(7):
        n = len(s)
        H = sw.s_hasse(s)
        multis = {w: sw.inversion_multiset(w, s) for w in H.elements}
        by_pair = {w: _inversions_by_pair(w, n) for w in H.elements}
        for w, m in multis.items():
            assert _by_pair(m, n) == by_pair[w], (s, w)
            assert sw.tc_closure(m, s) == m, (s, w)
        for z in H.elements:
            for x, y in combinations(H.up_covers(z), 2):
                got = sw.join_multisets(multis[x], multis[y], s)
                assert _by_pair(got, n) == _join_by_pair(by_pair[x], by_pair[y], s), (s, x, y)
                joins += 1
        words += len(H)
    assert (words, joins) == (23116, 54622)


def _fixpoint_closure(m, s):
    """The transitive closure by repeating the rule until nothing changes."""
    n = len(s)
    m = dict(m)
    changed = True
    while changed:
        changed = False
        for a in range(1, n - 1):
            for b in range(a + 1, n):
                if m[(b, a)] == 0:
                    continue
                for c in range(b + 1, n + 1):
                    if m[(c, a)] < m[(c, b)]:
                        m[(c, a)] = m[(c, b)]
                        changed = True
    return m


@st.composite
def _in_range_multisets(draw):
    """A strict composition s with n <= 8 and any m with 0 <= |(c, a)| <= s_c."""
    s = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=8)))
    n = len(s)
    m = {
        (c, a): draw(st.integers(0, s[c - 1]))
        for a in range(1, n)
        for c in range(a + 1, n + 1)
    }
    return s, m


@settings(max_examples=500, deadline=None)
@given(_in_range_multisets())
def test_tc_closure_matches_the_fixpoint(case):
    s, m = case
    closed = sw.tc_closure(_encode(m, len(s)), s)
    assert _by_pair(closed, len(s)) == _fixpoint_closure(m, s)
    assert sw.transitivity_ok(closed, s) is None


def test_checks_run_once_where_values_enter(monkeypatch):
    calls = Counter()
    for name in ("check_composition", "check_word"):

        def counted(*args, _name=name, _check=getattr(sw, name), **kwargs):
            calls[_name] += 1
            return _check(*args, **kwargs)

        monkeypatch.setattr(sw, name, counted)
    for s in [(1, 2, 2), (2, 1, 1, 2)]:
        calls.clear()
        H = sw.s_hasse(s)
        # each cover goes through the public `transpose_ascent`, which checks
        # its word once; the benchmark's tracer counts those calls
        covers = len(H.covers)
        assert calls == {"check_composition": 2 + covers, "check_word": covers}
    calls.clear()
    sw.add_ascents(RUN_W, {(2, 5), (5, 7), (1, 6)}, RUN_S)
    assert calls == {"check_composition": 1, "check_word": 1}  # inside check_word
    m = sw.inversion_multiset(RUN_W, RUN_S)
    calls.clear()
    assert sw.word_from_multiset(m, RUN_S) == RUN_W
    assert calls == {"check_composition": 1}


def test_multiset_transitivity_planarity():
    for s in [(1, 2, 1), (1, 2, 2)]:
        for w in sw.all_words(s):
            m = sw.inversion_multiset(w, s)
            assert sw.transitivity_ok(m, s) is None
            assert sw.planarity_ok(m, s) is None
            assert sw.word_from_multiset(m, s) == w
            assert sw.word_from_multiset(list(m), s) == w


def test_invalid_multiset_rejected():
    s = (1, 1, 1)
    m = _encode({(2, 1): 1, (3, 1): 0, (3, 2): 1}, 3)  # transitivity violated
    with pytest.raises(ValidationError, match="transitivity") as err:
        sw.word_from_multiset(m, s)
    assert err.value.witness == (1, 2, 3)
    with pytest.raises(ValidationError, match=r"outside \[0, s_3\]"):
        sw.word_from_multiset(_encode({(2, 1): 0, (3, 1): 2, (3, 2): 0}, 3), s)
    for check, m, length in [
        (sw.word_from_multiset, (1,), 1),
        (sw.word_from_multiset, (0, 0, 5, 0), 4),
        (sw.validate_multiset, (0, 0, 0, 0), 4),
        (sw.transitivity_ok, (1,), 1),
        (sw.planarity_ok, (1,), 1),
    ]:
        with pytest.raises(ValidationError, match=f"multiset has length {length}, not 3"):
            check(m, s)


def test_s_leq():
    assert sw.s_leq(sw.sorted_word(RUN_S), RUN_W, RUN_S)
    w2 = (3, 3, 7, 2, 7, 5, 4, 5, 5, 1, 6)
    assert sw.s_leq(RUN_W, w2, RUN_S)
    H = sw.s_hasse((1, 2, 2))
    incomparable = [
        (a, b) for a in H.elements for b in H.elements if not H.leq(a, b) and not H.leq(b, a)
    ]
    assert incomparable


def test_transpose_ascent_example():
    assert sw.transpose_ascent(RUN_W, (5, 7), RUN_S) == (3, 3, 7, 2, 7, 5, 4, 5, 5, 1, 6)
    with pytest.raises(ValidationError):
        sw.transpose_ascent(RUN_W, (1, 2), RUN_S)


def test_ascents_blocks():
    assert sw.ascents((2, 4, 1, 1, 4, 3)) == [(1, 4), (2, 4)]
    b = sw.blocks(RUN_W)
    assert b[5] == (4, 7)
    assert b[7] == (2, 8)


def test_add_ascents_worked_example():
    A = {(2, 5), (5, 7), (1, 6)}
    wA = sw.add_ascents(RUN_W, A, RUN_S)
    assert wA == (3, 3, 7, 7, 5, 2, 4, 5, 5, 6, 1)
    m = _by_pair(sw.inversion_multiset(RUN_W, RUN_S), 7)
    mA = _by_pair(sw.inversion_multiset(wA, RUN_S), 7)
    bumped = sorted(k for k in m if mA[k] == m[k] + 1)
    assert bumped == [(5, 2), (6, 1), (7, 2), (7, 4), (7, 5)]
    assert all(mA[k] in (m[k], m[k] + 1) for k in m)


def test_add_ascents_degenerate():
    assert sw.add_ascents(RUN_W, set(), RUN_S) == RUN_W
    for pair in sw.ascents(RUN_W):
        assert sw.add_ascents(RUN_W, {pair}, RUN_S) == sw.transpose_ascent(RUN_W, pair, RUN_S)


@pytest.mark.parametrize("s", verify._strict_compositions(5))
def test_add_ascents_matches_fixpoint(s):
    for w in sw.all_words(s):
        asc = sw.ascents(w)
        for r in range(len(asc) + 1):
            for A in combinations(asc, r):
                assert sw.add_ascents(w, A, s) == sw.add_ascents_fixpoint(w, A, s)


def test_criterion_7_reports_a_closure_error(monkeypatch):
    # a ValidationError from an A-closure is a failed result naming s, w and
    # A, not an exception that the CLI would report as invalid input
    def refuse(w, A, s):
        raise ValidationError("multiset transitivity fails")

    monkeypatch.setattr(sw, "add_ascents", refuse)
    result = verify.criterion_7(level="quick")
    assert not result["ok"]
    assert result["detail"] == "closure s=(1,) w=(1,) A=[]: multiset transitivity fails"


def test_criterion_7_reports_a_broken_dkk_dual(monkeypatch):
    # the dual of each s-oruga triangulation loses one cover: the first
    # order with a cover, s = (1, 1), must fail the DKK comparison
    build = og.hasse_from_adjacency

    def drop_a_cover(s):
        H = build(s)
        return Hasse(H.elements, sorted(H.cover_pairs())[1:])

    monkeypatch.setattr(og, "hasse_from_adjacency", drop_a_cover)
    result = verify.criterion_7(level="quick")
    assert not result["ok"]
    assert result["detail"] == "DKK dual (1, 1)"


def _decode_join(x, y, s):
    """Oracle for criterion 7's sibling join: the closure of the pointwise
    max decoded back into a word, or None when no word has that multiset."""
    m = sw.join_multisets(sw.inversion_multiset(x, s), sw.inversion_multiset(y, s), s)
    try:
        return sw.word_from_multiset(m, s)
    except ValidationError:
        return None


@pytest.mark.parametrize("total", range(1, 7))
def test_sibling_join_lookup_matches_the_decode(total, monkeypatch):
    # up to |s| = 6 `_s_lattice_ok` compares the join of every sibling pair
    # z + p, z + q with `_closure(add_ascents, z, {p, q}, s)`; with the decode
    # oracle in its place it passes only if the lookup gives the oracle's
    # element, or refuses where the oracle refuses, on every pair
    def oracle(fn, z, A, s):
        x, y = (sw.transpose_ascent(z, pair, s) for pair in A)
        return _decode_join(x, y, s)

    monkeypatch.setattr(verify, "_closure", oracle)
    for s in verify._strict_compositions(total, min_total=total):
        tally = Counter()
        assert verify._s_lattice_ok(sw.s_hasse(s), s, tally), s
        assert tally["sibling_joins"] == tally["add_ascents_joins"], s


def test_s_lattice_ok_refuses_a_missing_sibling_join(monkeypatch):
    # |s| = 7 runs no add_ascents comparison, and `is_lattice` is forced to
    # pass, so only the sibling-join lookup can notice the join is gone
    s = (1, 1, 5)
    H = sw.s_hasse(s)
    x, y = H.up_covers(H.minimum())
    j = H.join(x, y)
    assert _decode_join(x, y, s) == j
    cut = Hasse(
        [w for w in H.elements if w != j],
        [(lo, hi) for lo, hi in H.cover_pairs() if j not in (lo, hi)],
    )
    for diagram in (H, cut):
        monkeypatch.setattr(diagram, "is_lattice", lambda: True)
    assert verify._s_lattice_ok(H, s, Counter())
    assert not verify._s_lattice_ok(cut, s, Counter())


def test_hasse_counts_and_bounds(monkeypatch):
    H = sw.s_hasse((1, 2, 2))
    assert len(H) == 15 and H.is_lattice()
    H = sw.s_hasse((1, 2, 1))
    assert len(H) == 8 and H.is_lattice()
    assert H.minimum() == sw.sorted_word((1, 2, 1))
    assert H.maximum() == sw.reverse_sorted_word((1, 2, 1))
    # the cap `s_trees` counts the elements: |s| = 12 gives 7, |s| = 10 gives 10!
    monkeypatch.setitem(caps.DEFAULT_CAPS, "s_trees", 6)
    with pytest.raises(ResourceCapError, match="s_trees: requested size 7 exceeds cap 6"):
        sw.s_hasse((6, 6))
    assert len(sw.s_hasse((6, 6), cap=7)) == 7
    monkeypatch.undo()
    assert len(sw.s_hasse((6, 6))) == 7
    with pytest.raises(ResourceCapError, match="s_trees: requested size 3628800 exceeds cap 40320"):
        sw.s_hasse((1,) * 10)


def test_covers_are_transpositions():
    s = (1, 2, 2)
    H = sw.s_hasse(s)
    for w in H.elements:
        ups = set(H.up_covers(w))
        assert ups == {sw.transpose_ascent(w, p, s) for p in sw.ascents(w)}


def test_ones_case_matches_weak_order():
    H = sw.s_hasse((1, 1, 1, 1))
    W = wo.weak_order_hasse(4)
    assert H.cover_pairs() == W.cover_pairs()
    for pi in wo.all_perms(4):
        m = _by_pair(sw.inversion_multiset(pi, (1, 1, 1, 1)), 4)
        assert {k for k, v in m.items() if v} == {(j, i) for i, j in wo.inversions(pi)}


def test_faces():
    s = (1, 2, 1)
    faces = []
    for w in sw.all_words(s):
        asc = sw.ascents(w)
        for r in range(len(asc) + 1):
            for A in combinations(asc, r):
                faces.append(sw.SFace(w, A, s))
    vertices = [f for f in faces if not f.A]
    assert len(vertices) == 8
    for f in faces:
        assert sw.face_contains(sw.SFace(f.word, frozenset(), s), f)
    # |A| = n-1 faces are exactly the maximal ones
    for f in faces:
        strictly_above = [
            g for g in faces if sw.face_contains(f, g) and (g.word, g.A) != (f.word, f.A)
        ]
        assert (len(f.A) == 2) == (not strictly_above)
    with pytest.raises(ValidationError):
        sw.SFace((1, 2, 2, 3), {(1, 3)}, s)


def test_serialization():
    assert sw.serialize_word((3, 2, 2, 1)) == "3,2,2,1"
