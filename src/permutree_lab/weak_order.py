"""Permutations of [n], their inversion combinatorics, and the weak order.

Convention: a pair (i, j) with i < j is an *inversion* of pi when the value i
appears after the value j in one-line notation, i.e. pi^{-1}(i) > pi^{-1}(j).
Most libraries use the transposed (position-based) convention; everything in
this package consistently uses the value-based one, which is the convention
that matches tables of permutations with trees.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as _permutations

from .caps import require_cap
from .errors import ValidationError
from .posets import Hasse, hasse_by_bfs

Perm = tuple


def check_perm(pi) -> Perm:
    pi = tuple(pi)
    n = len(pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise ValidationError(f"not a permutation of [{n}]: {pi}")
    return pi


def identity(n) -> Perm:
    return tuple(range(1, n + 1))


def longest(n) -> Perm:
    return tuple(range(n, 0, -1))


def inverse(pi) -> Perm:
    inv = [0] * len(pi)
    for pos, v in enumerate(pi, start=1):
        inv[v - 1] = pos
    return tuple(inv)


def inversions(pi):
    """Inversion set {(i, j) : i < j, i appears after j}.

    >>> sorted(inversions((4, 1, 3, 2, 5)))
    [(1, 4), (2, 3), (2, 4), (3, 4)]
    """
    pos = inverse(pi)
    n = len(pi)
    return frozenset(
        (i, j) for i in range(1, n) for j in range(i + 1, n + 1) if pos[i - 1] > pos[j - 1]
    )


def versions(pi):
    """Complement of the inversion set inside {(i,j) : i < j}."""
    pos = inverse(pi)
    n = len(pi)
    return frozenset(
        (i, j) for i in range(1, n) for j in range(i + 1, n + 1) if pos[i - 1] < pos[j - 1]
    )


def lehmer_code(pi):
    """a_i = number of j > i appearing before i; length n-1.

    >>> lehmer_code((4, 1, 3, 2, 5))
    (1, 2, 1, 0)
    """
    pos = inverse(pi)
    n = len(pi)
    return tuple(
        sum(1 for j in range(i + 1, n + 1) if pos[i - 1] > pos[j - 1]) for i in range(1, n)
    )


def lehmer_decode(code):
    """Inverse of `lehmer_code`; codes satisfy 0 <= a_i <= n-i."""
    n = len(code) + 1
    for i, a in enumerate(code, start=1):
        if not 0 <= a <= n - i:
            raise ValidationError(f"Lehmer entry a_{i}={a} outside [0,{n - i}]")
    seq = [n]
    for i in range(n - 1, 0, -1):
        seq.insert(code[i - 1], i)
    return tuple(seq)


def transitive_closure_pairs(pairs, n):
    """Closure of a set of pairs (i, j), i < j, under (i,j),(j,k) -> (i,k)."""
    rows = [0] * (n + 1)  # bit j of rows[i]: the pair (i, j)
    for i, j in pairs:
        rows[i] |= 1 << j
    for k in range(n, 0, -1):
        bit, row = 1 << k, rows[k]
        for i in range(1, n + 1):
            if rows[i] & bit:
                rows[i] |= row
    out = []
    for i, r in enumerate(rows[1:], 1):
        while r:
            out.append((i, (r & -r).bit_length() - 1))
            r &= r - 1
    return frozenset(out)


def transitivity_witness(pairs, n):
    """Return a triple (i,j,k) violating transitivity, or None."""
    s = set(pairs)
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            if (i, j) not in s:
                continue
            for k in range(j + 1, n + 1):
                if (j, k) in s and (i, k) not in s:
                    return (i, j, k)
    return None


def cotransitivity_witness(pairs, n):
    """Return (i,l,j) with (i,j) present but neither (i,l) nor (l,j), or None."""
    s = set(pairs)
    for i in range(1, n):
        for j in range(i + 2, n + 1):
            if (i, j) not in s:
                continue
            for l in range(i + 1, j):
                if (i, l) not in s and (l, j) not in s:
                    return (i, l, j)
    return None


def perm_from_inversions(pairs, n) -> Perm:
    """The unique permutation whose inversion set is `pairs`.

    It is built first; the witness scans run only to say why a set fails.
    """
    s = frozenset(pairs)
    # value i precedes value j (i < j) exactly when (i, j) is not an inversion
    seq = []
    for i in range(n, 0, -1):
        k = 0
        while k < len(seq) and (i, seq[k]) in s:  # i must come after seq[k]
            k += 1
        seq.insert(k, i)
    pi = tuple(seq)
    if inversions(pi) == s:
        return pi
    w = transitivity_witness(s, n)
    if w is not None:
        raise ValidationError("inversion set not transitive", witness=w)
    w = cotransitivity_witness(s, n)
    if w is not None:
        raise ValidationError("inversion set not cotransitive", witness=w)
    raise ValidationError("pair set is not realizable as an inversion set")


def weak_leq(pi, sigma) -> bool:
    """pi <= sigma in the weak order, i.e. inv(pi) is contained in inv(sigma)."""
    if len(pi) != len(sigma):
        raise ValidationError("sizes differ")
    return inversions(pi) <= inversions(sigma)


def lattice_meet_join(pi, sigma):
    """Meet and join in the weak order.

    The candidates come from the transitive closures of the version/inversion
    unions; both are checked to be bounds of the right kind before returning.
    The statement of the closure formula in the literature is ambiguous about
    which operation gets which closure, so the order-theoretic verification is
    part of the contract (the full Hasse-diagram comparison lives in tests).
    """
    n = len(pi)
    if len(sigma) != n:
        raise ValidationError("sizes differ")
    all_pairs = frozenset((i, j) for i in range(1, n) for j in range(i + 1, n + 1))
    join_inv = transitive_closure_pairs(inversions(pi) | inversions(sigma), n)
    meet_inv = all_pairs - transitive_closure_pairs(versions(pi) | versions(sigma), n)
    meet = perm_from_inversions(meet_inv, n)
    join = perm_from_inversions(join_inv, n)
    for bound in (pi, sigma):
        if not (weak_leq(meet, bound) and weak_leq(bound, join)):
            raise AssertionError(f"closure candidates do not bound {bound}")
    return meet, join


def right_mult(pi, i) -> Perm:
    """pi o s_i: swap positions i and i+1 (1-based)."""
    lst = list(pi)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def left_mult(pi, i) -> Perm:
    """s_i o pi: swap the values i and i+1."""
    lst = list(pi)
    p, q = lst.index(i), lst.index(i + 1)
    lst[p], lst[q] = lst[q], lst[p]
    return tuple(lst)


def left_descents(pi):
    """Generators s_l with l, l+1 reversed; the letters that can start a reduced word."""
    pos = inverse(pi)
    return [l for l in range(1, len(pi)) if pos[l - 1] > pos[l]]


def evaluate_word(word, n) -> Perm:
    """Product s_{a_1} ... s_{a_k} acting on the identity (left action)."""
    pi = identity(n)
    for a in reversed(word):
        pi = left_mult(pi, a)
    return pi


def reduced_words(pi, cap=None):
    """All reduced words of pi, as tuples of generator indices.

    >>> sorted(reduced_words((3, 2, 1)))
    [(1, 2, 1), (2, 1, 2)]
    """
    pi = check_perm(pi)
    require_cap("reduced_words_n", len(pi), cap)

    @lru_cache(maxsize=None)
    def rec(p):
        if p == identity(len(p)):
            return frozenset({()})
        out = set()
        for l in left_descents(p):
            for w in rec(left_mult(p, l)):
                out.add((l,) + w)
        return frozenset(out)

    result = set(rec(pi))
    rec.cache_clear()
    return result


def avoids_fixed_pattern(pi, j, kind) -> bool:
    """Avoidance of the fixed-j pattern jki (kind='jki') or kij (kind='kij').

    jki: no subsequence j, k, i with i < j < k; here j is the literal value.
    """
    n = len(pi)
    if not 2 <= j <= n - 1:
        raise ValidationError(f"j={j} outside [2, {n - 1}]")
    if kind not in ("jki", "kij"):
        raise ValidationError(f"unknown pattern kind {kind!r}")
    pos_j = pi.index(j)
    seen_big = False
    for v in pi[pos_j + 1 :] if kind == "jki" else pi[:pos_j]:
        if v > j:
            seen_big = True
        elif v < j and seen_big:
            return False
    return True


def all_perms(n):
    return [tuple(p) for p in _permutations(range(1, n + 1))]


def weak_order_hasse(n) -> Hasse:
    """Hasse diagram of the weak order: sigma covers pi iff sigma = pi o s_i adds an inversion."""
    return hasse_by_bfs(
        identity(n),
        lambda pi: [right_mult(pi, i) for i in range(1, n) if pi[i - 1] < pi[i]],
    )


def serialize(pi) -> str:
    if len(pi) <= 9:
        return "".join(str(v) for v in pi)
    return ",".join(str(v) for v in pi)


def parse_perm(text) -> Perm:
    text = text.strip()
    if "," in text:
        return check_perm(int(v) for v in text.split(","))
    return check_perm(int(c) for c in text)
