"""Sorting automata over reduced words, permutree sorting, Coxeter sorting.

The automaton U(j) walks a spine of healthy states h_j, h_{j+1}, ..., h_n,
moving up on s_k, branching to the ill state i_k on s_{k-1}, and dying from
i_k on s_k; all other letters loop.  D(j) is the mirror image with the spine
descending to h_1.  Healthy and ill states accept, dead states absorb.
States are keyed by (class, spine position), never by drawn coordinates.
"""

from __future__ import annotations

from functools import lru_cache

from .caps import cap_for, require_cap
from .errors import ValidationError
from .weak_order import (
    all_perms,
    avoids_fixed_pattern,
    check_perm,
    identity,
    inverse,
    right_mult,
    rows_of_perm,
)

HEALTHY, ILL, DEAD = "healthy", "ill", "dead"


class PermutreeAutomaton:
    """Complete deterministic automaton over the alphabet {1, ..., n-1}.

    `transitions` maps (state, letter) -> state; a missing arrow is a loop.
    `classify` maps each state to healthy/ill/dead.
    """

    def __init__(self, initial, transitions, classify):
        self.initial = initial
        self.transitions = transitions
        self.classify = classify

    def step(self, state, letter):
        return self.transitions.get((state, letter), state)

    def run(self, word):
        """Final state after reading the word left to right."""
        state = self.initial
        for letter in word:
            state = self.step(state, letter)
        return state

    def accepts(self, word) -> bool:
        return self.classify[self.run(word)] != DEAD


class _Product(PermutreeAutomaton):
    """P(U, D), stepped on demand: a state is the tuple of factor states.

    `step` steps every factor the first time it meets an arrow, stores the
    arrow in `transitions` (loops too) and files a new state in `classify`,
    so both hold only the states a run has reached.
    """

    def __init__(self, factors):
        self.factors = factors
        initial = tuple(a.initial for a in factors)
        super().__init__(initial, {}, {})
        self._file(initial)

    def _file(self, state):
        classes = [a.classify[s] for a, s in zip(self.factors, state)]
        self.classify[state] = DEAD if DEAD in classes else ILL if ILL in classes else HEALTHY

    def step(self, state, letter):
        nxt = self.transitions.get((state, letter))
        if nxt is None:
            nxt = state  # dead states absorb
            if self.classify[state] != DEAD:
                nxt = tuple(a.step(s, letter) for a, s in zip(self.factors, state))
                self._file(nxt)
            self.transitions[state, letter] = nxt
        return nxt


def build_single(kind, j, n) -> PermutreeAutomaton:
    """The automaton U(j) (kind='U') or D(j) (kind='D') over s_1..s_{n-1}.

    D(j) is U(n+1-j) in a mirror: spine position k <-> n+1-k, letter l <-> n-l.
    """
    if not 2 <= j <= n - 1:
        raise ValidationError(f"j={j} outside [2, {n - 1}]")
    if kind not in ("U", "D"):
        raise ValidationError(f"kind must be 'U' or 'D', got {kind!r}")
    flip = kind == "D"
    spot = (lambda k: n + 1 - k) if flip else (lambda k: k)
    letter = (lambda l: n - l) if flip else (lambda l: l)
    transitions, classify = {}, {}
    for k in range(spot(j), n + 1):
        h, i = (HEALTHY, spot(k)), (ILL, spot(k))
        classify[h], classify[i] = HEALTHY, ILL
        transitions[(h, letter(k - 1))] = i
        if k < n:
            d = (DEAD, spot(k))
            classify[d] = DEAD
            transitions[(h, letter(k))] = (HEALTHY, spot(k + 1))
            transitions[(i, letter(k))] = d
    return PermutreeAutomaton((HEALTHY, j), transitions, classify)


def product(U, D, n) -> PermutreeAutomaton:
    """Synchronous product P(U, D) of all U(j), j in U, and D(j), j in D.

    A product state is dead as soon as one factor is dead, ill when some
    factor is ill and none dead.  States are built as runs reach them, at
    most one per letter read; the empty product is the one state ().
    """
    return _product_cached(frozenset(U), frozenset(D), n)


@lru_cache(maxsize=512)  # holds every (U, D, n) with n <= 7: 366 keys
def _product_cached(U, D, n) -> PermutreeAutomaton:
    return _Product([build_single(k, j, n) for k, js in (("U", U), ("D", D)) for j in sorted(js)])


def _check_disjoint(U, D):
    """U and D as frozensets built in ascending order, refused if they meet."""
    U, D = frozenset(sorted(U)), frozenset(sorted(D))
    if U & D:
        raise ValidationError(f"U and D must be disjoint, both contain {sorted(U & D)}")
    return U, D


def _check_priority(priority, n):
    """`priority`, or 1..n-1 when None; refuses a letter out of range, repeated or missing."""
    if priority is None:
        return tuple(range(1, n))
    priority = tuple(priority)
    for k, l in enumerate(priority):
        if l not in range(1, n) or l in priority[:k]:
            why = "is repeated" if l in range(1, n) else f"is not in 1..{n - 1}"
            raise ValidationError(f"priority letter {l!r} {why}")
    if len(priority) < n - 1:  # the letters are distinct and in range
        raise ValidationError(f"priority misses the letter {min(set(range(1, n)) - set(priority))}")
    return priority


def avoids_all(pi, U, D) -> bool:
    return all(avoids_fixed_pattern(pi, j, "jki") for j in U) and all(
        avoids_fixed_pattern(pi, j, "kij") for j in D
    )


class SortOutcome:
    """Result of permutree sorting: the produced word, whether it sorted the
    input (equivalently: the word is a reduced word of the input), the
    residual permutation, and the per-step trace."""

    __slots__ = ("word", "sorted", "residual", "trace")

    def __init__(self, word, sorted_, residual, trace):
        self.word = tuple(word)
        self.sorted = sorted_
        self.residual = residual
        self.trace = tuple(trace)

    def __repr__(self):
        return f"SortOutcome(word={self.word}, sorted={self.sorted}, residual={self.residual})"


def _swap(pi, pos, l):
    """s_l o pi in place on the one-line list `pi` and its position list
    `pos` = pi^{-1}: the values l and l+1 trade places at pos[l-1] and pos[l]."""
    a, b = pos[l - 1], pos[l]
    pi[a - 1], pi[b - 1] = l + 1, l
    pos[l - 1], pos[l] = b, a


def _sort_single(pi, j, kind, priority):
    """({j}, {}) or ({}, {j}) permutree sorting (the single-automaton algorithm).

    One greedy loop takes the priority-first reversed letter not banned: the
    ill letter of spine position j (moving with j) until the ill move, which
    is taken only when no other letter is reversed; then s_cut, the letter
    that moved j, so j stays.  `j` is a checked spine position.
    """
    pi, pos = list(pi), list(inverse(pi))
    word, trace, ill_taken = [], [], False
    while True:
        ill, step = (j - 1, j) if kind == "U" else (j, j - 1)
        banned = step if ill_taken else ill
        l = next((l for l in priority if l != banned and pos[l - 1] > pos[l]), None)
        if l is None:
            if ill_taken or pos[ill - 1] < pos[ill]:
                return word, tuple(pi), trace
            l, ill_taken = ill, True
        trace.append((tuple(pi), j, l))
        _swap(pi, pos, l)
        word.append(l)
        if l == step:
            j += 1 if kind == "U" else -1


@lru_cache(maxsize=4096)  # a sort moves a few small sets many times
def _move(S, frm, to):
    """S after a letter that carries the factor at `frm` to `to` and forgets
    one at `to`, built in ascending order so that it prints by its value."""
    if frm in S or to in S:
        S = frozenset(sorted(S - {frm} | {to} if frm in S else S - {to}))
    return S


def _sort_multiple(pi, U, D, priority):
    """(U, D)-permutree sorting: follow P(U, D) without building it; U and D
    are frozensets built in ascending order.  A healthy letter hits no
    factor; only when there is none, an ill letter may, if each factor it
    sends to an ill state is safe to forget (no reduced word of pi can
    revisit it; pi[:m] holds the values 1..m iff max(pos[:m]) == m)."""
    pi, pos = list(pi), list(inverse(pi))
    word, trace = [], []
    while True:
        healthy = [l for l in priority if pos[l - 1] > pos[l] and l + 1 not in U and l not in D]
        picks = healthy or [  # with no healthy letter, each descent hits a factor
            l
            for l in priority
            if pos[l - 1] > pos[l]
            and (l + 1 not in U or max(pos[: l + 1]) == l + 1)
            and (l not in D or max(pos[: l - 1], default=0) == l - 1)
        ]
        if not picks:
            return word, tuple(pi), trace
        l = picks[0]
        trace.append((tuple(pi), (U, D), l))
        _swap(pi, pos, l)
        word.append(l)
        U, D = _move(U, l, l + 1), _move(D, l + 1, l)


def permutree_sort(pi, U, D, priority=None, cap=None) -> SortOutcome:
    """Produce a reduced word accepted by P(U, D); it is a reduced word of pi
    exactly when pi is (U, D)-permutree minimal.  The inversions of pi bound
    the letters of the word, each traced with a copy of pi, so they are
    checked against the cap `sort_letters` first.

    >>> permutree_sort((3, 4, 2, 1), {2}, set()).sorted
    True
    >>> permutree_sort((4, 2, 3, 1), {2}, set()).residual
    (1, 2, 4, 3)
    """
    pi = check_perm(pi)
    U, D = _check_disjoint(U, D)
    n = len(pi)
    priority = _check_priority(priority, n)
    if n * (n - 1) // 2 > cap_for("sort_letters", cap):  # the most inversions any pi has
        require_cap("sort_letters", sum(map(int.bit_count, rows_of_perm(pi))), cap)
    aut = product(U, D, n)  # checks each spine position j first
    if len(U) + len(D) == 1:
        (j,) = U or D
        word, res, trace = _sort_single(pi, j, "U" if U else "D", priority)
    else:
        word, res, trace = _sort_multiple(pi, U, D, priority)
    outcome = SortOutcome(word, res == identity(n), res, trace)
    if not aut.accepts(outcome.word):
        raise AssertionError(f"sorting produced a rejected word for {pi}")
    return outcome


def minimal_permutations(n, U, D):
    U, D = _check_disjoint(U, D)
    return [pi for pi in all_perms(n) if avoids_all(pi, U, D)]


def lex_min_accepted_word(pi, automaton, priority):
    """Priority-lexicographic minimal reduced word of pi accepted by the automaton.

    The search steps the position tuple pi^{-1}, where s_l o pi swaps the
    entries l-1 and l and l is a left descent iff pos[l-1] > pos[l].  It
    goes depth first on an explicit path and files every (pos, state) pair
    it backs out of.  Callers check pi.
    """
    done = identity(len(pi))
    failed = set()
    word, path = [], [(inverse(pi), automaton.initial, iter(priority))]  # word[k] led into path[k + 1]
    while path:
        pos, state, letters = path[-1]
        if pos == done:
            return tuple(word)
        for l in letters:
            if pos[l - 1] < pos[l]:
                continue
            nxt = automaton.step(state, l)
            if automaton.classify[nxt] == DEAD:
                continue
            after = right_mult(pos, l)
            if (after, nxt) not in failed:
                word.append(l)
                path.append((after, nxt, iter(priority)))
                break
        else:
            failed.add((pos, state))
            path.pop()
            del word[-1:]  # the letter into the pair; none at the start
    return None


def generating_tree(n, U, D, priority=None, cap=None):
    """Prefix tree of the lex-minimal accepted reduced words of all
    (U, D)-minimal permutations.

    Returns (words, children) where children maps each word to its one-letter
    extensions inside the set.  The word set is closed under prefixes and has
    one node per minimal permutation.
    """
    require_cap("generating_tree_n", n, cap)
    U, D = _check_disjoint(U, D)
    priority = _check_priority(priority, n)
    aut = product(U, D, n)
    words = set()
    for pi in minimal_permutations(n, U, D):
        w = lex_min_accepted_word(pi, aut, priority)
        if w is None:
            raise AssertionError(f"minimal permutation {pi} has no accepted word")
        words.add(w)
    for w in list(words):
        for k in range(len(w)):
            if w[:k] not in words:
                raise AssertionError(f"prefix closure fails at {w[:k]} < {w}")
    children = {w: [] for w in words}
    for w in words:
        if w:
            children[w[:-1]].append(w)
    return words, children


def coxeter_element_sets(c, n):
    """U_c, D_c: j goes to U_c when s_j appears before s_{j-1} in c."""
    if sorted(c) != list(range(1, n)):
        raise ValidationError(f"{c} is not a Coxeter element word for n={n}")
    pos = {l: k for k, l in enumerate(c)}
    U = frozenset(j for j in range(2, n) if pos[j] < pos[j - 1])
    D = frozenset(j for j in range(2, n) if pos[j] > pos[j - 1])
    return U, D


def coxeter_sorting_word(pi, c):
    """The c-sorting word: greedy reduced subword of c^infinity, with factors.

    It steps the position list pi^{-1}, as `lex_min_accepted_word` does, and
    stops after a pass over c that moves nothing, which for a Coxeter word c
    happens only at the identity.  Callers check pi and c.
    """
    pos = list(inverse(pi))
    word, factors = [], []
    while True:
        factor = set()
        for l in c:
            if pos[l - 1] > pos[l]:
                pos[l - 1], pos[l] = pos[l], pos[l - 1]
                word.append(l)
                factor.add(l)
        if not factor:
            return tuple(word), factors
        factors.append(frozenset(factor))


def coxeter_sort(pi, c):
    """c-sorting word of pi and the nested-factor sortability test.

    >>> coxeter_sort((3, 4, 2, 1), (2, 1, 3))
    ((2, 1, 3, 2, 3), True)
    """
    pi = check_perm(pi)
    c = tuple(c)
    if sorted(c) != list(range(1, len(pi))):
        raise ValidationError(f"{c} is not a Coxeter element word")
    word, factors = coxeter_sorting_word(pi, c)
    sortable = all(factors[k + 1] <= factors[k] for k in range(len(factors) - 1))
    return word, sortable
