import hashlib
import itertools
import re
import tracemalloc

import pytest

from permutree_lab import automata as am
from permutree_lab import verify
from permutree_lab import weak_order as wo
from permutree_lab.errors import ValidationError

# sha256 over repr((word, sorted, residual, trace)) of `permutree_sort` for
# every (U, D) in `verify._disjoint_pairs(n)` order and every pi in
# `all_perms` order, 3 <= n <= 6: 61,794 sorts, the 6,588 single-automaton
# sorts (U = {j} or D = {j}) among them, so a change to either sorter's
# word, residual or trace on any of these inputs must re-record it
SORT_SHA256 = "12132f95bd6feb7cb612178f4897126904cf3f2e1b8a6dc8a668f51b7ef1a9f8"
# sha256 over repr(coxeter_sorting_word(pi, c)) for 3 <= n <= 6, every c in
# `itertools.permutations(range(1, n))` order and every pi
COXETER_WORD_SHA256 = "373aae636c16ab3f0780d83461ede788798eea3eeb8399684ee5f19100ee34c8"
# sha256 over repr(lex_min_accepted_word(pi, product(U, D, n), range(1, n)))
# for 3 <= n <= 5, (U, D) and pi in the order above: 3,474 words
LEX_MIN_SHA256 = "a967de0d76adbf069fa8ad5e658a01de0ced708196d62a726cc7b24453d895e1"


def test_single_automaton_examples():
    U2 = am.build_single("U", 2, 3)
    assert U2.accepts((2, 1, 2))
    assert not U2.accepts((1, 2, 1))
    assert U2.accepts(())
    U4 = am.build_single("U", 4, 6)
    assert U4.accepts((3, 5, 2, 1, 3))
    with pytest.raises(ValidationError):
        am.build_single("U", 1, 3)
    with pytest.raises(ValidationError):
        am.build_single("X", 2, 4)


def test_mirror_automaton():
    D2 = am.build_single("D", 2, 3)
    assert D2.accepts((1, 2, 1))
    assert not D2.accepts((2, 1, 2))


def test_state_counts_and_classes():
    aut = am.build_single("U", 2, 4)
    classes = sorted(aut.classify.values())
    assert classes.count("healthy") == 3  # spine 2, 3, 4
    assert classes.count("ill") == 3
    assert classes.count("dead") == 2


def test_same_state_examples():
    U2 = am.build_single("U", 2, 4)
    words = wo.reduced_words((4, 3, 1, 2))
    assert len(words) == 5
    assert {U2.run(w) for w in words} == {("healthy", 4)}
    words = wo.reduced_words((4, 3, 2, 1))
    accepted = [w for w in words if U2.accepts(w)]
    assert len(accepted) == 7
    assert {U2.run(w) for w in accepted} == {("ill", 4)}
    dead = {}
    for w in words:
        st = U2.run(w)
        if U2.classify[st] == "dead":
            dead[st] = dead.get(st, 0) + 1
    assert sorted(dead.values()) == [2, 7]


def test_refined_state_cases_n5():
    U4 = am.build_single("U", 4, 5)
    for pi, cls, count in [
        ((3, 2, 1, 4, 5), "healthy", 2),
        ((4, 3, 2, 1, 5), "ill", 16),
        ((4, 3, 2, 5, 1), "dead", 35),
    ]:
        words = wo.reduced_words(pi)
        assert len(words) == count
        states = {U4.run(w) for w in words}
        assert len(states) == 1
        assert U4.classify[states.pop()] == cls


def test_product_classification():
    aut = am.product({2}, {2}, 3)
    # neither reduced word of 321 is accepted by both factors
    assert not aut.accepts((2, 1, 2))
    assert not aut.accepts((1, 2, 1))
    empty = am.product(set(), set(), 4)
    for pi in wo.all_perms(4):
        assert all(empty.accepts(w) for w in wo.reduced_words(pi))


def eager_product(U, D, n):
    """P(U, D) built whole by a search from its initial state, with
    `transitions` holding non-loops only: the oracle for `am.product`."""
    factors = [am.build_single("U", j, n) for j in sorted(U)]
    factors += [am.build_single("D", j, n) for j in sorted(D)]
    initial = tuple(a.initial for a in factors)
    transitions, classify, stack = {}, {initial: None}, [initial]
    while stack:
        st = stack.pop()
        classes = [a.classify[s] for a, s in zip(factors, st)]
        classify[st] = "dead" if "dead" in classes else "ill" if "ill" in classes else "healthy"
        if classify[st] == "dead":
            continue  # dead states absorb: keep all letters as loops
        for letter in range(1, n):
            nxt = tuple(a.step(s, letter) for a, s in zip(factors, st))
            if nxt != st:
                transitions[st, letter] = nxt
                if nxt not in classify:
                    classify[nxt] = None
                    stack.append(nxt)
    return initial, transitions, classify


@pytest.mark.parametrize("n", range(3, 7))
def test_product_steps_as_the_eager_product(n):
    pairs = verify._disjoint_pairs(n) + ([(frozenset({2}), frozenset({2}))] if n == 3 else [])
    for U, D in pairs:
        initial, transitions, classify = eager_product(U, D, n)
        aut = am.product(U, D, n)
        assert aut.initial == initial
        # `classify` lists each state after the one it was found from, so
        # the product has stepped into every state before it is read here
        for st in classify:
            assert aut.classify[st] == classify[st], (U, D, st)
            for letter in range(1, n):
                assert aut.step(st, letter) == transitions.get((st, letter), st), (U, D, st, letter)
        assert set(aut.classify) == set(classify)


def test_sort_builds_only_the_states_it_reaches():
    pi = tuple(range(9, 0, -1))
    tracemalloc.start()
    try:
        out = am.permutree_sort(pi, {2, 4, 6, 8}, {3, 5, 7})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.sorted
    # the whole reachable product has 59,109 states and takes about 36 MB
    assert peak < 1_000_000


def test_product_skeleton_s4():
    aut = am.product({3}, {2}, 4)
    for pi in wo.all_perms(4):
        has = any(aut.accepts(w) for w in wo.reduced_words(pi))
        assert has == am.avoids_all(pi, {3}, {2})


def test_overlapping_u_and_d_are_refused():
    with pytest.raises(ValidationError, match=r"U and D must be disjoint, both contain \[2\]"):
        am.permutree_sort((3, 2, 1), {2}, {2})


def test_sorting_worked_traces():
    out = am.permutree_sort((3, 4, 2, 1), {2}, set())
    assert out.sorted
    assert out.word == (2, 1, 3, 2, 3)
    assert wo.evaluate_word(out.word, 4) == (3, 4, 2, 1)
    out = am.permutree_sort((4, 2, 3, 1), {2}, set())
    assert not out.sorted
    assert out.residual == (1, 2, 4, 3)
    out = am.permutree_sort((5, 4, 2, 1, 3), {2}, {4})
    assert out.sorted and out.word[0] == 3


def test_sort_trace_structure():
    out = am.permutree_sort((3, 4, 2, 1), {2}, set())
    assert len(out.trace) == len(out.word)
    pi0, j0, l0 = out.trace[0]
    assert pi0 == (3, 4, 2, 1) and l0 == out.word[0]


def test_resorting_residual_terminates():
    # re-sorting residuals keeps making progress until a fixpoint
    pi = (4, 2, 3, 1)
    seen = []
    for _ in range(10):
        out = am.permutree_sort(pi, {2}, set())
        seen.append(pi)
        if out.residual == pi:
            break
        pi = out.residual
    assert pi not in seen[:-1]
    assert am.permutree_sort(pi, {2}, set()).sorted or pi == seen[-1]


def test_all_sorts_are_pinned():
    digest, count = hashlib.sha256(), 0
    for n in range(3, 7):
        for U, D in verify._disjoint_pairs(n):
            for pi in wo.all_perms(n):
                out = am.permutree_sort(pi, U, D)
                digest.update(repr((out.word, out.sorted, out.residual, out.trace)).encode())
                count += 1
    assert count == 61794
    assert digest.hexdigest() == SORT_SHA256


def test_coxeter_sorting_words_are_pinned():
    digest = hashlib.sha256()
    for n in range(3, 7):
        for c in itertools.permutations(range(1, n)):
            for pi in wo.all_perms(n):
                digest.update(repr(am.coxeter_sorting_word(pi, c)).encode())
    assert digest.hexdigest() == COXETER_WORD_SHA256


def test_lex_min_words_are_pinned():
    digest, count = hashlib.sha256(), 0
    for n in range(3, 6):
        for U, D in verify._disjoint_pairs(n):
            aut = am.product(U, D, n)
            for pi in wo.all_perms(n):
                digest.update(repr(am.lex_min_accepted_word(pi, aut, range(1, n))).encode())
                count += 1
    assert count == 3474
    assert digest.hexdigest() == LEX_MIN_SHA256


def test_priority_is_configurable():
    out_default = am.permutree_sort((3, 4, 2, 1), set(), set())
    out_rev = am.permutree_sort((3, 4, 2, 1), set(), set(), priority=(3, 2, 1))
    assert out_default.sorted and out_rev.sorted
    assert out_default.word != out_rev.word


@pytest.mark.parametrize(
    "priority, message",
    [
        ((0,), "priority letter 0 is not in 1..2"),
        ((5,), "priority letter 5 is not in 1..2"),
        ((3, 2, 1), "priority letter 3 is not in 1..2"),
        ((1,), "priority misses the letter 2"),
        ((2, 1, 1), "priority letter 1 is repeated"),
    ],
)
def test_priority_must_order_the_letters(priority, message):
    for call in (
        lambda: am.permutree_sort((2, 3, 1), {2}, set(), priority=priority),
        lambda: am.permutree_sort((2, 3, 1), set(), set(), priority=priority),
        lambda: am.generating_tree(3, {2}, set(), priority=priority),
    ):
        with pytest.raises(ValidationError, match=re.escape(message)):
            call()
    assert am.permutree_sort((2, 3, 1), set(), set(), priority=(2, 1)).sorted


def test_generating_tree_counts():
    words, children = am.generating_tree(4, {2, 3}, set())
    assert len(words) == 14
    assert () in words
    for U, D in [({2}, {3}), ({3}, {2}), (set(), {2, 3})]:
        ws, _ = am.generating_tree(4, U, D)
        assert len(ws) == 14
    ws, _ = am.generating_tree(4, set(), set())
    assert len(ws) == 24
    ws, _ = am.generating_tree(4, {2}, set())
    from permutree_lab import permutree as pt

    assert len(ws) == pt.count_permutrees(pt.Decoration("nunn"))


def test_generating_tree_prefix_closed_and_structure():
    words, children = am.generating_tree(4, {3}, {2})
    for w in words:
        for k in range(len(w)):
            assert w[:k] in words
    roots = [w for w in words if not w]
    assert roots == [()]
    assert sum(len(v) for v in children.values()) == len(words) - 1


def test_coxeter_sorting_example():
    word, sortable = am.coxeter_sort((3, 4, 2, 1), (2, 1, 3))
    assert word == (2, 1, 3, 2, 3)
    assert sortable
    assert am.coxeter_sort((1, 2, 3, 4), (1, 2, 3)) == ((), True)
    with pytest.raises(ValidationError):
        am.coxeter_sort((2, 1, 3), (1, 1))


def test_coxeter_element_sets():
    assert am.coxeter_element_sets((2, 1, 3), 4) == ({2}, {3})
    assert am.coxeter_element_sets((1, 2, 3), 4) == (set(), {2, 3})
    assert am.coxeter_element_sets((3, 2, 1), 4) == ({2, 3}, set())


def test_coxeter_catalan_counts():
    from itertools import permutations

    for n, catalan in [(3, 5), (4, 14)]:
        for c in permutations(range(1, n)):
            cnt = sum(1 for pi in wo.all_perms(n) if am.coxeter_sort(pi, c)[1])
            assert cnt == catalan

