"""Permutations of [n], their inversion combinatorics, and the weak order.

Convention: a pair (i, j) with i < j is an *inversion* of pi when the value i
appears after the value j in one-line notation, i.e. pi^{-1}(i) > pi^{-1}(j).
Most libraries use the transposed (position-based) convention; everything in
this package consistently uses the value-based one, which is the convention
that matches tables of permutations with trees.

This module owns the one layout of an inversion set, rows over 0..n with bit
j of row i set iff (i, j) is in the set; each pair-set function here encodes
the pairs, runs a row kernel and decodes.
"""

from __future__ import annotations

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
    """pi^{-1}; a loop kernel that does not check pi, so its callers check it first."""
    inv = [0] * len(pi)
    for pos, v in enumerate(pi, start=1):
        inv[v - 1] = pos
    return tuple(inv)


def rows_of_perm(pi):
    """The inversions of pi as rows over 0..n, from one left-to-right scan:
    row v is the mask of the larger values placed before v.

    >>> rows_of_perm((4, 1, 3, 2, 5))
    (0, 16, 24, 16, 0, 0)
    """
    rows = [0] * (len(pi) + 1)
    seen = 0
    for v in pi:
        rows[v] = seen >> v + 1 << v + 1
        seen |= 1 << v
    return tuple(rows)


def rows_of_pairs(pairs, n):
    """Pairs (i, j) as rows over 0..n, bit j of row i; a pair outside
    1 <= i < j <= n is refused.

    >>> rows_of_pairs({(1, 4), (2, 3), (2, 4), (3, 4)}, 5)
    (0, 16, 24, 16, 0, 0)
    """
    rows = [0] * (n + 1)
    for i, j in pairs:
        if not 1 <= i < j <= n:
            raise ValidationError(f"pair {(i, j)} outside 1 <= i < j <= {n}", witness=(i, j))
        rows[i] |= 1 << j
    return tuple(rows)


def pairs_of_rows(rows):
    """The pairs (i, j) of the rows, in increasing order.

    >>> pairs_of_rows((0, 16, 24, 16, 0, 0))
    [(1, 4), (2, 3), (2, 4), (3, 4)]
    """
    out = []
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            out.append((i, low.bit_length() - 1))
            row ^= low
    return out


def close_rows(rows):
    """Close a list of rows in place under (i, j), (j, k) -> (i, k): for k
    from n down to 1, every row holding k takes row k, already closed above k.

    >>> rows = [0, 4, 8, 0]
    >>> close_rows(rows); rows
    [0, 12, 8, 0]
    """
    for k in range(len(rows) - 1, 0, -1):
        bit, row = 1 << k, rows[k]
        for i in range(1, k):
            if rows[i] & bit:
                rows[i] |= row


def perm_of_rows(rows):
    """The permutation with these rows, or None.  From n down to 1, value i
    goes in after popcount(row i) of the larger values, as a Lehmer code is
    decoded; the result is checked by recomputing its rows.

    >>> perm_of_rows((0, 16, 24, 16, 0, 0)), perm_of_rows((0, 8, 0, 0))
    ((4, 1, 3, 2, 5), None)
    """
    seq = []
    for i in range(len(rows) - 1, 0, -1):
        seq.insert(rows[i].bit_count(), i)
    pi = tuple(seq)
    return pi if rows_of_perm(pi) == tuple(rows) else None


def inversions(pi):
    """Inversion set {(i, j) : i < j, i appears after j}.

    >>> sorted(inversions((4, 1, 3, 2, 5)))
    [(1, 4), (2, 3), (2, 4), (3, 4)]
    """
    return frozenset(pairs_of_rows(rows_of_perm(check_perm(pi))))


def versions(pi):
    """Complement of the inversion set inside {(i,j) : i < j}: the inversions of pi reversed."""
    return frozenset(pairs_of_rows(rows_of_perm(check_perm(pi)[::-1])))


def lehmer_code(pi):
    """a_i = number of j > i appearing before i, the bits of row i; length n-1.

    >>> lehmer_code((4, 1, 3, 2, 5))
    (1, 2, 1, 0)
    """
    return tuple(row.bit_count() for row in rows_of_perm(check_perm(pi))[1:-1])


def transitive_closure_pairs(pairs, n):
    """Closure of a set of pairs (i, j), i < j, under (i,j),(j,k) -> (i,k)."""
    rows = list(rows_of_pairs(pairs, n))
    close_rows(rows)
    return frozenset(pairs_of_rows(rows))


def transitivity_witness(pairs, n):
    """Return a triple (i,j,k) violating transitivity, or None."""
    rows = rows_of_pairs(pairs, n)
    for i, j in pairs_of_rows(rows):
        missing = rows[j] & ~rows[i]  # the k with (j, k) but not (i, k)
        if missing:
            return (i, j, (missing & -missing).bit_length() - 1)
    return None


def cotransitivity_witness(pairs, n):
    """Return (i,l,j) with (i,j) present but neither (i,l) nor (l,j), or None."""
    rows = rows_of_pairs(pairs, n)
    for i, j in pairs_of_rows(rows):
        for l in range(i + 1, j):
            if not (rows[i] >> l & 1 or rows[l] >> j & 1):
                return (i, l, j)
    return None


def perm_from_inversions(pairs, n) -> Perm:
    """The unique permutation whose inversion set is `pairs`.

    It is built from the rows; the witness scans run only to say why a set fails.
    """
    rows = rows_of_pairs(pairs, n)
    pi = perm_of_rows(rows)
    if pi is not None:
        return pi
    pairs = pairs_of_rows(rows)
    w = transitivity_witness(pairs, n)
    if w is not None:
        raise ValidationError("inversion set not transitive", witness=w)
    w = cotransitivity_witness(pairs, n)
    if w is not None:
        raise ValidationError("inversion set not cotransitive", witness=w)
    raise ValidationError("pair set is not realizable as an inversion set")


def weak_leq(pi, sigma) -> bool:
    """pi <= sigma in the weak order, i.e. inv(pi) is contained in inv(sigma)."""
    pi, sigma = check_perm(pi), check_perm(sigma)
    if len(pi) != len(sigma):
        raise ValidationError("sizes differ")
    return all(x | y == y for x, y in zip(rows_of_perm(pi), rows_of_perm(sigma)))


def lattice_meet_join(pi, sigma):
    """Meet and join in the weak order.

    The join's inversions close the union of the inversions.  The versions
    of a permutation are the inversions of its reverse, so the meet is the
    reverse of the join of the reverses.  A closure holds what it closes, so
    both are bounds; `perm_of_rows` checks that each closure is an inversion
    set (the full Hasse-diagram comparison lives in tests).
    """
    pi, sigma = check_perm(pi), check_perm(sigma)
    if len(sigma) != len(pi):
        raise ValidationError("sizes differ")
    out = []
    for a, b in ((pi, sigma), (pi[::-1], sigma[::-1])):
        rows = [x | y for x, y in zip(rows_of_perm(a), rows_of_perm(b))]
        close_rows(rows)
        out.append(perm_of_rows(rows))
    join, reversed_meet = out
    if join is None or reversed_meet is None:
        raise AssertionError("a closure of inversions is not an inversion set")
    return reversed_meet[::-1], join


def right_mult(pi, i) -> Perm:
    """pi o s_i: swap positions i and i+1 (1-based); callers check pi and i
    first.  On a position list pi^{-1} this is the left action s_i o pi."""
    lst = list(pi)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def evaluate_word(word, n) -> Perm:
    """Product s_{a_1} ... s_{a_k} acting on the identity (left action); s_a
    o pi swaps the entries a-1 and a of the position list pi^{-1}."""
    pos = list(range(1, n + 1))
    for a in reversed(word):
        if not 1 <= a < n:
            raise ValidationError(f"letter {a} outside [1, {n - 1}]")
        pos[a - 1], pos[a] = pos[a], pos[a - 1]
    return inverse(pos)


def reduced_words(pi, cap=None):
    """All reduced words of pi, as tuples of generator indices, found on the
    position tuple pi^{-1}: l is a left descent iff pos[l-1] > pos[l].

    The words grow one letter per layer, each layer holding the prefixes
    that reach each position tuple.  A layer's size, the prefixes of the
    layer before times their descents, is checked against the cap
    `reduced_words` before the layer is built.  The sizes only grow and end
    at the word count, so a refusal names the first size past the cap, once
    the layers below it are built.

    >>> sorted(reduced_words((3, 2, 1)))
    [(1, 2, 1), (2, 1, 2)]
    """
    pi = check_perm(pi)
    layer, size = {inverse(pi): [()]}, 1
    while True:
        require_cap("reduced_words", size, cap)
        descents = {pos: [l for l in range(1, len(pos)) if pos[l - 1] > pos[l]] for pos in layer}
        size = sum(len(layer[pos]) * len(ls) for pos, ls in descents.items())
        if not size:  # the identity alone, reached by every word
            (words,) = layer.values()
            return set(words)
        nxt = {}
        for pos, ls in descents.items():
            for l in ls:
                nxt.setdefault(right_mult(pos, l), []).extend(w + (l,) for w in layer[pos])
        layer = nxt


def avoids_fixed_pattern(pi, j, kind) -> bool:
    """Avoidance of the fixed-j pattern jki (kind='jki') or kij (kind='kij').

    jki: no subsequence j, k, i with i < j < k; here j is the literal value.  Callers check pi.
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
