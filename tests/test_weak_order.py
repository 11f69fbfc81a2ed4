import tracemalloc
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutree_lab import caps
from permutree_lab import weak_order as wo
from permutree_lab.errors import ResourceCapError, ValidationError


def test_inversions_examples():
    assert sorted(wo.inversions((4, 1, 3, 2, 5))) == [(1, 4), (2, 3), (2, 4), (3, 4)]
    assert wo.inversions((1, 2, 3, 4, 5)) == frozenset()
    assert wo.inversions((3, 2, 1)) == frozenset({(1, 2), (1, 3), (2, 3)})


def test_versions_complement():
    for pi in wo.all_perms(4):
        inv, ver = wo.inversions(pi), wo.versions(pi)
        assert not inv & ver and len(inv) + len(ver) == 6


def test_lehmer_examples():
    assert wo.lehmer_code((4, 1, 3, 2, 5)) == (1, 2, 1, 0)
    assert wo.lehmer_code((1, 2, 3, 4)) == (0, 0, 0)
    assert wo.lehmer_code((5, 4, 3, 2, 1)) == (4, 3, 2, 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_lehmer_roundtrip(n):
    """`perm_of_rows` decodes the rows as a Lehmer code: row i holds a_i bits."""
    for pi in wo.all_perms(n):
        rows = wo.rows_of_perm(pi)
        assert wo.perm_of_rows(rows) == pi
        assert wo.lehmer_code(pi) == tuple(row.bit_count() for row in rows[1:n])


def test_perm_of_rows_refuses_rows_of_no_permutation():
    # not cotransitive, not transitive, a bit on the diagonal, more bits than larger values
    for rows in [(0, 8, 0, 0), (0, 4, 8, 0), (0, 2, 0, 0), (0, 14, 0, 0), (0, 16, 0, 16, 0, 0)]:
        assert wo.perm_of_rows(rows) is None


@pytest.mark.parametrize("n", range(2, 6))
def test_inversion_sets_transitive_cotransitive(n):
    for pi in wo.all_perms(n):
        inv = wo.inversions(pi)
        assert wo.transitivity_witness(inv, n) is None
        assert wo.cotransitivity_witness(inv, n) is None
        assert wo.perm_from_inversions(inv, n) == pi


@pytest.mark.parametrize(
    "pairs, n, message, witness",
    [
        ({(1, 2), (2, 3)}, 3, "inversion set not transitive", (1, 2, 3)),
        ({(1, 2), (2, 3), (1, 4)}, 4, "inversion set not transitive", (1, 2, 3)),
        ({(1, 3)}, 3, "inversion set not cotransitive", (1, 2, 3)),
        ({(1, 4)}, 4, "inversion set not cotransitive", (1, 2, 4)),
        ({(2, 4), (1, 3)}, 4, "inversion set not cotransitive", (1, 2, 3)),
        ({(2, 1)}, 2, "pair (2, 1) outside 1 <= i < j <= 2", (2, 1)),
        ({(1, 5)}, 3, "pair (1, 5) outside 1 <= i < j <= 3", (1, 5)),
        ({(1, 2), (3, 2)}, 3, "pair (3, 2) outside 1 <= i < j <= 3", (3, 2)),
    ],
)
def test_perm_from_inversions_errors(pairs, n, message, witness):
    for given in (pairs, iter(sorted(pairs))):  # a one-shot iterator names the same fault
        with pytest.raises(ValidationError) as info:
            wo.perm_from_inversions(given, n)
        assert (str(info.value), info.value.witness) == (message, witness)


@pytest.mark.parametrize("n", range(1, 6))
def test_perm_from_inversions_every_pair_set(n):
    # the witness scans pick the error: transitivity first, then cotransitivity
    universe = list(combinations(range(1, n + 1), 2))
    for r in range(len(universe) + 1):
        for pairs in map(frozenset, combinations(universe, r)):
            t, c = wo.transitivity_witness(pairs, n), wo.cotransitivity_witness(pairs, n)
            if t is None and c is None:
                assert wo.inversions(wo.perm_from_inversions(pairs, n)) == pairs
                continue
            with pytest.raises(ValidationError) as info:
                wo.perm_from_inversions(pairs, n)
            if t is not None:
                want = ("inversion set not transitive", t)
            else:
                want = ("inversion set not cotransitive", c)
            assert (str(info.value), info.value.witness) == want


@st.composite
def pair_sets(draw):
    n = draw(st.integers(0, 9))
    universe = list(combinations(range(1, n + 1), 2))
    return n, draw(st.sets(st.sampled_from(universe))) if universe else set()


@settings(max_examples=300, deadline=None)
@given(pair_sets())
def test_transitive_closure_matches_fixpoint(case):
    n, pairs = case
    closure = set(pairs)
    while True:
        more = {(i, k) for i, j in closure for j2, k in closure if j == j2} - closure
        if not more:
            break
        closure |= more
    assert wo.transitive_closure_pairs(pairs, n) == closure


@pytest.mark.parametrize("pairs, n", [({(4, 5)}, 3), ({(1, 5)}, 3)])
def test_transitive_closure_refuses_pairs_out_of_range(pairs, n):
    with pytest.raises(ValidationError) as info:
        wo.transitive_closure_pairs(pairs, n)
    (pair,) = pairs
    assert (str(info.value), info.value.witness) == (
        f"pair {pair} outside 1 <= i < j <= {n}",
        pair,
    )


@pytest.mark.parametrize("n", range(7))
def test_row_kernels_match_the_pair_definitions(n):
    universe = frozenset(combinations(range(1, n + 1), 2))
    for pi in wo.all_perms(n):
        pos = wo.inverse(pi)
        inv = frozenset((i, j) for i, j in universe if pos[i - 1] > pos[j - 1])
        assert wo.inversions(pi) == inv
        assert wo.versions(pi) == universe - inv
        assert wo.lehmer_code(pi) == tuple(
            sum(1 for j in range(i + 1, n + 1) if (i, j) in inv) for i in range(1, n)
        )
        rows = wo.rows_of_perm(pi)
        assert rows == wo.rows_of_pairs(inv, n)
        assert wo.pairs_of_rows(rows) == sorted(inv)
        assert wo.perm_of_rows(rows) == pi


def test_weak_leq_examples():
    e = (1, 2, 3)
    for pi in wo.all_perms(3):
        assert wo.weak_leq(e, pi)
    # incomparable pair: inversion sets {(1,2)} and {(2,3)}
    assert not wo.weak_leq((2, 1, 3), (1, 3, 2))
    assert not wo.weak_leq((1, 3, 2), (2, 1, 3))
    # comparable: {(1,2)} inside {(1,2),(1,3)}
    assert wo.weak_leq((2, 1, 3), (2, 3, 1))
    for pi in wo.all_perms(4):
        for sigma in wo.all_perms(4):
            assert wo.weak_leq(pi, sigma) == (wo.inversions(pi) <= wo.inversions(sigma))


@pytest.mark.parametrize(
    "call, args",
    [
        (wo.lattice_meet_join, ((1, 1, 3), (1, 2, 3))),
        (wo.lattice_meet_join, ((0, 1, 2), (1, 2, 0))),
        (wo.weak_leq, ((1, 1), (2, 1))),
        (wo.inversions, ((1, 1),)),
        (wo.versions, ((0, 1),)),
        (wo.lehmer_code, ((5, 1),)),
    ],
)
def test_weak_order_refuses_non_permutations(call, args):
    with pytest.raises(ValidationError, match="not a permutation"):
        call(*args)


def test_cover_relations():
    # sigma covers pi iff sigma = pi o s_i with one more inversion
    H = wo.weak_order_hasse(4)
    covers = H.cover_pairs()
    for pi in wo.all_perms(4):
        for i in range(1, 4):
            sigma = wo.right_mult(pi, i)
            gained = len(wo.inversions(sigma)) == len(wo.inversions(pi)) + 1
            assert ((pi, sigma) in covers) == gained


@pytest.mark.parametrize("n", range(2, 7))
def test_meet_join_against_hasse(n):
    H = wo.weak_order_hasse(n)
    elems = H.elements
    for i, a in enumerate(elems):
        for b in elems[i:]:
            m, j = wo.lattice_meet_join(a, b)
            assert m == H.meet(a, b)
            assert j == H.join(a, b)


def test_meet_join_trivial_cases():
    pi = (3, 1, 4, 2)
    assert wo.lattice_meet_join(pi, pi) == (pi, pi)
    w0 = wo.longest(4)
    assert wo.lattice_meet_join(pi, w0) == (pi, w0)
    # incomparable atoms join to the closure of their union
    assert wo.lattice_meet_join((2, 1, 3), (1, 3, 2)) == ((1, 2, 3), (3, 2, 1))


def test_reduced_words():
    assert sorted(wo.reduced_words((3, 2, 1))) == [(1, 2, 1), (2, 1, 2)]
    assert wo.reduced_words((1, 2, 3)) == {()}
    words = wo.reduced_words((4, 3, 2, 1))
    assert len(words) == 16
    for w in words:
        assert wo.evaluate_word(w, 4) == (4, 3, 2, 1)
        assert len(w) == len(wo.inversions((4, 3, 2, 1)))


def _reduced_words_by_recursion(pi):
    """Oracle: the recursive listing the layered one replaced, every word
    of pi as a first left descent of pi^{-1} followed by a word of the rest."""
    done = wo.identity(len(pi))

    @lru_cache(maxsize=None)
    def rec(pos):
        if pos == done:
            return frozenset({()})
        return frozenset(
            (l,) + w
            for l in range(1, len(pos))
            if pos[l - 1] > pos[l]
            for w in rec(wo.right_mult(pos, l))
        )

    return set(rec(wo.inverse(pi)))


def test_reduced_words_match_the_recursive_listing():
    for n in range(7):
        for pi in wo.all_perms(n):
            assert wo.reduced_words(pi) == _reduced_words_by_recursion(pi), pi


def test_reduced_words_memory():
    """The layers hold one prefix list per position tuple, two layers at a
    time; the recursive listing peaked at 35 MB on these 48,048 words."""
    tracemalloc.start()
    try:
        words = wo.reduced_words((5, 6, 4, 3, 2, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(words) == 48_048
    assert peak < 20 * 2**20


@pytest.mark.parametrize("word, n", [((5,), 3), ((1, 0), 3), ((1, 3, 2), 3), ((1,), 1)])
def test_evaluate_word_refuses_a_letter_out_of_range(word, n):
    bad = next(a for a in word if not 1 <= a < n)
    with pytest.raises(ValidationError, match=rf"letter {bad} outside \[1, {n - 1}\]"):
        wo.evaluate_word(word, n)


def test_reduced_words_cap(monkeypatch):
    """The cap counts words, not n: the identity of S_9 has one, and w0 of
    S_7 has 1,100,742,656, refused on the first layer's size past the cap."""
    assert wo.reduced_words(tuple(range(1, 10))) == {()}
    with pytest.raises(ResourceCapError, match="reduced_words: requested size 521272 exceeds cap 300000"):
        wo.reduced_words(wo.longest(7))
    monkeypatch.setitem(caps.DEFAULT_CAPS, "reduced_words", 767)
    with pytest.raises(ResourceCapError, match="reduced_words: requested size 768 exceeds cap 767"):
        wo.reduced_words(wo.longest(5))
    assert len(wo.reduced_words(wo.longest(5), cap=768)) == 768


def test_fixed_pattern_avoidance():
    pi = (4, 2, 1, 3, 5)
    for j in (2, 3, 4):
        assert wo.avoids_fixed_pattern(pi, j, "jki")
    assert not wo.avoids_fixed_pattern(pi, 3, "kij")  # contains 4,2,3
    for j in (2, 3):
        assert wo.avoids_fixed_pattern((1, 2, 3, 4), j, "jki")
        assert wo.avoids_fixed_pattern((1, 2, 3, 4), j, "kij")
    assert not wo.avoids_fixed_pattern((4, 2, 3, 1), 2, "jki")  # 2,3,1
    with pytest.raises(ValidationError):
        wo.avoids_fixed_pattern((1, 2, 3), 3, "jki")


def test_fixed_pattern_matches_triple_scan():
    from itertools import combinations

    for pi in wo.all_perms(5):
        for j in (2, 3, 4):
            jki = any(
                pi[p] == j and pi[q] > j and pi[r] < j
                for p, q, r in combinations(range(5), 3)
            )
            kij = any(
                pi[p] > j and pi[q] < j and pi[r] == j
                for p, q, r in combinations(range(5), 3)
            )
            assert wo.avoids_fixed_pattern(pi, j, "jki") == (not jki)
            assert wo.avoids_fixed_pattern(pi, j, "kij") == (not kij)


def test_serialization():
    assert wo.serialize((3, 4, 2, 1)) == "3421"
    assert wo.parse_perm("3421") == (3, 4, 2, 1)
    big = tuple(range(1, 11))
    assert wo.parse_perm(wo.serialize(big)) == big
    with pytest.raises(ValidationError):
        wo.parse_perm("3441")
