"""Stirling s-permutations, s-decreasing trees, and the s-weak order.

An s-decreasing tree has node i carrying s_i + 1 ordered children with labels
decreasing toward the leaves; reading node labels in in-order gives the
121-avoiding rearrangement of 1^{s_1} ... n^{s_n} (the Stirling s-permutation)
when s is strict.  The order compares inversion multisets |(c, a)| in [0, s_c]
counting occurrences of c before the a-block, as tuples over `multiset_pairs`.
Trees, words and the d-flows of `oruga` meet at the bump vector: each has one
encoder into it and one decoder out of it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, islice, product

from .caps import require_cap
from .errors import ValidationError
from .posets import Hasse, hasse_by_bfs

Word = tuple


def check_composition(s, strict=False):
    s = tuple(map(int, s))
    low = min(s, default=1)
    if low < 0:
        raise ValidationError(f"composition entries must be >= 0: {s}")
    if strict and low == 0:
        raise ValidationError(f"operation needs a strict composition (no zeros): {s}")
    return s


def count_s_trees(s) -> int:
    """prod_{i=1}^{n-1} (1 + s_{n-i+1} + ... + s_n); weak compositions allowed.

    >>> count_s_trees((1, 2, 2))
    15
    """
    return _count_s_trees(check_composition(s))


def _count_s_trees(s) -> int:
    """`count_s_trees` on a checked s."""
    total, tail = 1, 0
    for i in range(len(s) - 1, 0, -1):
        tail += s[i]
        total *= 1 + tail
    return total


# --- s-decreasing trees: node = (label, (child, ...)), leaf = None ----------


def check_tree(tree, s):
    """`tree`, refused unless its labels are exactly [n], its root is n and
    node i has s_i + 1 children labeled below i, checked in that order."""
    s = check_composition(s)
    n = len(s)
    nodes = []  # (label, the bound it must not pass, child count), in pre-order
    stack = [(tree, n)]
    while stack:
        t, bound = stack.pop()
        if t is not None:
            label, children = t
            nodes.append((label, bound, len(children)))
            stack.extend((ch, label - 1) for ch in reversed(children))
    if sorted(label for label, _, _ in nodes) != list(range(1, n + 1)):
        raise ValidationError("tree labels are not exactly [n]")
    if (0 if tree is None else tree[0]) != n:
        raise ValidationError(f"root must be labeled {n}")
    for label, bound, arity in nodes:
        if label > bound:
            raise ValidationError(f"label {label} not decreasing below {bound}")
        if arity != s[label - 1] + 1:
            raise ValidationError(f"node {label} must have {s[label - 1] + 1} children")
    return tree


def bump_vectors(s):
    """Every bump vector {v: b_v} with 0 <= b_v <= s_{v+1} + ... + s_n, for
    v = 1, ..., n-1; `s` is a checked composition."""
    levels = range(len(s) - 1, 0, -1)
    for combo in product(*(range(sum(s[v:]) + 1) for v in levels)):
        yield dict(zip(levels, combo))


def all_s_trees(s):
    """Every s-decreasing tree, built by grafting n-1, ..., 1 onto leaf gaps."""
    s = check_composition(s)
    return [bumps_to_tree(b, s) for b in bump_vectors(s)]


def tree_to_word(tree, s) -> Word:
    """In-order reading: s_i copies of i separate the children of node i."""
    s = check_composition(s, strict=True)
    return bumps_to_word(tree_to_bumps(tree, s), s)


def word_to_tree(w, s):
    """Inverse of `tree_to_word`."""
    s = check_composition(s, strict=True)
    return bumps_to_tree(word_to_bumps(w, s), s)


# --- Stirling s-permutations ------------------------------------------------


def check_word(w, s) -> Word:
    s = check_composition(s, strict=True)
    w = tuple(w)
    n = len(s)
    counts = [0] * n
    # 121-avoidance: once a letter's block is left it never returns.  Bit v
    # of `closed` is set once a letter above v follows a v.
    seen = closed = 0
    bad = None
    for v in w:
        if not 1 <= v <= n:
            raise ValidationError(f"letter {v} outside [1, {n}]")
        counts[v - 1] += 1
        bit = 1 << v
        if closed & bit and bad is None:
            bad = v
        closed |= seen & (bit - 1)
        seen |= bit
    if tuple(counts) != s:
        raise ValidationError(f"letter multiplicities {tuple(counts)} != s = {s}")
    if bad is not None:
        raise ValidationError(f"word contains the pattern 121 at letter {bad}")
    return w


def sorted_word(s) -> Word:
    s = check_composition(s, strict=True)
    return tuple(v for v in range(1, len(s) + 1) for _ in range(s[v - 1]))


def reverse_sorted_word(s) -> Word:
    return tuple(reversed(sorted_word(s)))


def all_words(s):
    s = check_composition(s, strict=True)
    return sorted(bumps_to_word(b, s) for b in bump_vectors(s))


def blocks(w):
    """a-block spans as closed index intervals [start, end]."""
    first, last = {}, {}
    for k, v in enumerate(w):
        first.setdefault(v, k)
        last[v] = k
    return {v: (first[v], last[v]) for v in first}


@lru_cache(maxsize=16)
def _layout(n):
    """`multiset_pairs(n)`, each pair's index, and the index steps of `tc_closure`."""
    pairs = tuple((c, a) for a in range(1, n) for c in range(a + 1, n + 1))
    ix = {p: k for k, p in enumerate(pairs)}
    steps = tuple(
        (ix[b, a], tuple((ix[c, a], ix[c, b]) for c in range(b + 1, n + 1)))
        for a in range(n - 2, 0, -1)
        for b in range(a + 1, n)
    )
    return pairs, ix, steps


def multiset_pairs(n):
    """The pairs (c, a), a < c <= n, an inversion multiset counts: a ascending, then c."""
    return _layout(n)[0]


def inversion_multiset(w, s):
    """|(c, a)| = number of occurrences of c before the a-block, for a < c.

    >>> m = inversion_multiset((3,3,7,2,5,4,5,5,7,1,6), (1,1,2,1,3,1,2))
    >>> m[multiset_pairs(7).index((7, 2))]
    1
    """
    return _inversions(check_word(w, s), len(s))


def _inversions(w, n):
    """`inversion_multiset` of a checked word in one pass: at the first a,
    copy the running counts of the letters c > a."""
    counts, columns = [0] * (n + 1), [()] * (n + 1)
    for a in w:
        if not counts[a]:
            columns[a] = counts[a + 1 :]
        counts[a] += 1
    return tuple(chain.from_iterable(columns))


def _index(m, s):
    """Each pair's index in a multiset over `s`, once `m` has one entry per pair."""
    pairs, ix, _ = _layout(len(s))
    if len(m) != len(pairs):
        raise ValidationError(f"multiset has length {len(m)}, not {len(pairs)}")
    return ix


def transitivity_ok(m, s):
    """The first a < b < c with |(b, a)| > 0 and |(c, a)| < |(c, b)|, or None."""
    ix = _index(m, s)
    for a, b, c in combinations(range(1, len(s) + 1), 3):
        if m[ix[b, a]] != 0 and m[ix[c, a]] < m[ix[c, b]]:
            return (a, b, c)
    return None


def planarity_ok(m, s):
    """The first a < b < c with |(b, a)| < s_b and |(c, b)| < |(c, a)|, or None."""
    ix = _index(m, s)
    for a, b, c in combinations(range(1, len(s) + 1), 3):
        if m[ix[b, a]] != s[b - 1] and m[ix[c, b]] < m[ix[c, a]]:
            return (a, b, c)
    return None


def validate_multiset(m, s):
    _index(m, s)
    for (c, a), k in zip(multiset_pairs(len(s)), m):
        if not 0 <= k <= s[c - 1]:
            raise ValidationError(f"|({c},{a})| = {k} outside [0, s_{c}]")
    w = transitivity_ok(m, s)
    if w is not None:
        raise ValidationError("multiset transitivity fails", witness=w)
    w = planarity_ok(m, s)
    if w is not None:
        raise ValidationError("multiset planarity fails", witness=w)
    return m


def bumps_to_word(bumps, s) -> Word:
    """Gap insertion: place the copies of v at gap `bumps[v]` of the word so
    far, for v = n-1, ..., 1; `s` is a checked strict composition."""
    n = len(s)
    word = [n] * s[n - 1] if n else []
    for v in range(n - 1, 0, -1):
        k = bumps[v]
        if not 0 <= k <= len(word):
            raise ValidationError(f"bump flow {k} at level {v} out of range")
        word[k:k] = [v] * s[v - 1]
    return tuple(word)


def word_to_bumps(w, s):
    """Inverse of `bumps_to_word`: at the first v, b_v counts the letters
    above v read so far.

    >>> b = word_to_bumps((3,3,7,2,5,4,5,5,7,1,6), (1,1,2,1,3,1,2))
    >>> [b[v] for v in range(1, 7)]
    [9, 3, 0, 2, 1, 2]
    """
    w, n = check_word(w, s), len(s)
    counts, bumps = [0] * (n + 1), {}
    for v in w:
        if not counts[v]:
            bumps[v] = sum(counts[v + 1 :])
        counts[v] += 1
    return {v: bumps[v] for v in range(1, n)}


def bumps_to_tree(bumps, s):
    """Grafting: node v goes on leaf `bumps[v]` of the tree so far, for
    v = n-1, ..., 1; `s` is a checked composition, zeros allowed.  The leaves
    are kept in in-order as (node, slot) pairs, and grafting v on one
    splices v's s_v + 1 leaves in its place."""
    n = len(s)
    if n == 0:
        return None
    kids = [None] + [[None] * (x + 1) for x in s]  # kids[v]: the child labels of node v
    leaves = [(n, i) for i in range(s[n - 1] + 1)]
    for v in range(n - 1, 0, -1):
        k = bumps[v]
        if not 0 <= k < len(leaves):
            raise ValidationError(f"graft position {k} out of range at node {v}")
        parent, slot = leaves[k]
        kids[parent][slot] = v
        leaves[k : k + 1] = [(v, i) for i in range(s[v - 1] + 1)]
    trees = [None]  # trees[v]: the subtree at v; children are smaller, so built first
    for v in range(1, n + 1):
        trees.append((v, tuple(None if c is None else trees[c] for c in kids[v])))
    return trees[n]


def tree_to_bumps(tree, s):
    """Inverse of `bumps_to_tree`, in one pre-order walk.  Node v was grafted
    on the leaf after the b_v items before it that hang from a node >= v:
    the leaves, and the nodes below v whose parent is not below v."""
    n = len(s)
    passed, bumps = [0] * (n + 1), {}
    stack = [(check_tree(tree, s), n)]  # (subtree, label of its parent)
    while stack:
        t, parent = stack.pop()
        label = 0 if t is None else t[0]
        for v in range(label + 1, parent + 1):
            passed[v] += 1
        if t is not None:
            bumps[label] = passed[label]
            stack.extend((ch, label) for ch in reversed(t[1]))
    return {v: bumps[v] for v in range(1, n)}


def word_from_multiset(m, s) -> Word:
    """Decode an inversion multiset, refusing one no word has."""
    return _decode(tuple(m), check_composition(s, strict=True))


def _decode(m, s):
    """Decode by the column sums, which are the bump counts, and check the
    round trip; only a refusal runs `validate_multiset`, to name the fault."""
    n, entries = len(s), iter(m)  # column a is the next n - a entries
    try:
        w = bumps_to_word({a: sum(islice(entries, n - a)) for a in range(1, n)}, s)
        if _inversions(w, n) == m:
            return w
    except ValidationError:  # a column sum out of range, so some entry is too
        pass
    validate_multiset(m, s)
    raise ValidationError("multiset does not arise from a Stirling s-permutation")


def s_leq(w1, w2, s) -> bool:
    """Coordinatewise comparison of inversion multisets."""
    return all(x <= y for x, y in zip(inversion_multiset(w1, s), inversion_multiset(w2, s)))


def ascents(w):
    """Pairs (a, c), a < c, with 'ac' a substring of w."""
    return sorted({(a, c) for a, c in zip(w, w[1:]) if a < c})


def check_ascents(w, A) -> frozenset:
    """A as a frozenset, refused unless every pair is an ascent of `w`."""
    A = frozenset(A)
    bad = sorted(A.difference(ascents(w)))
    if bad:
        raise ValidationError(f"A contains non-ascents of {w}: {bad}", witness=bad[0])
    return A


def transpose_ascent(w, pair, s) -> Word:
    """u1 B_a c u2 -> u1 c B_a u2: the cover relation of the s-weak order.

    >>> transpose_ascent((3,3,7,2,5,4,5,5,7,1,6), (5, 7), (1,1,2,1,3,1,2))
    (3, 3, 7, 2, 7, 5, 4, 5, 5, 1, 6)
    """
    a, c = pair
    w = check_word(w, s)
    if (a, c) not in zip(w, w[1:]) or not a < c:
        raise ValidationError(f"({a},{c}) is not an ascent of {w}")
    start = w.index(a)
    end = w.index(c, start) - 1  # the a-block holds no letter above a
    if w[end] != a:
        raise AssertionError(f"the {a}-block of {w} is not followed by {c}")
    return move_block(w, start, end)


def move_block(w, start, end) -> Word:
    """u1 B_a c u2 -> u1 c B_a u2, where the a-block B_a spans w[start..end]
    and c = w[end + 1]; unchecked, for callers that hold the spans."""
    return w[:start] + (w[end + 1],) + w[start : end + 1] + w[end + 2 :]


def tc_closure(m, s):
    """Transitive closure: |(c, a)| >= |(c, b)| whenever |(b, a)| > 0, in one
    pass, a from n-2 down to 1 and b upward, so every entry read is final."""
    m = list(m)
    for ba, steps in _layout(len(s))[2]:
        if m[ba]:
            for ca, cb in steps:
                if m[ca] < m[cb]:
                    m[ca] = m[cb]
    return tuple(m)


def add_ascents(w, A, s) -> Word:
    """w + A: entry (c, a) grows, below s_c, iff bit c of `gain[a]` is set.

    `hops[b]` holds the letters an A-chain reaches from the b-block.  c is
    in `gain[a]` when the chain from the greatest letter below c whose block
    holds the a-block reaches c: with p the least letter above a whose block
    does, `hops[a]` gives the c up to p and `gain[p]` the others.

    >>> add_ascents((3,3,7,2,5,4,5,5,7,1,6), {(2,5),(5,7),(1,6)}, (1,1,2,1,3,1,2))
    (3, 3, 7, 7, 5, 2, 4, 5, 5, 6, 1)
    """
    w = check_word(w, s)
    A = check_ascents(w, A)
    n, spans = len(s), blocks(w)
    hops, gain = [0] * (n + 1), [0] * (n + 1)
    for a in range(n, 0, -1):
        i, j = spans[a]
        x = w[j + 1] if j + 1 < len(w) else None
        if (a, x) in A:
            hops[a] = 1 << x | (hops[x] if spans[x][0] == j + 1 else 0)
        p = next((p for p in range(a + 1, n + 1) if spans[p][0] < i and j < spans[p][1]), None)
        gain[a] = hops[a] if p is None else hops[a] & (2 << p) - 1 | gain[p]
    out = tuple(
        k + (k < s[c - 1] and gain[a] >> c & 1)
        for (c, a), k in zip(multiset_pairs(n), _inversions(w, n))
    )
    return _decode(out, s)


def add_ascents_fixpoint(w, A, s) -> Word:
    """Oracle for `add_ascents`: increment A, then close under transitivity."""
    w = check_word(w, s)
    m, ix = list(_inversions(w, len(s))), _layout(len(s))[1]
    for a, c in A:
        m[ix[c, a]] += 1
    return _decode(tc_closure(m, s), s)


def s_hasse(s, cap=None) -> Hasse:
    """Hasse diagram of the s-weak order via ascent transpositions; the
    letters of its words (|s|) are checked against the cap `s_letters` and its
    count_s_trees(s) elements against the cap `s_trees` first."""
    s = check_composition(s, strict=True)
    require_cap("s_letters", sum(s), cap)
    require_cap("s_trees", _count_s_trees(s), cap)
    return hasse_by_bfs(
        sorted_word(s), lambda w: [transpose_ascent(w, pair, s) for pair in ascents(w)]
    )


def join_candidate(w1, w2, s):
    """tc of the pointwise max of the inversion multisets; the join when valid."""
    return join_multisets(inversion_multiset(w1, s), inversion_multiset(w2, s), s)


def join_multisets(m1, m2, s):
    """tc of the pointwise max of two inversion multisets."""
    return tc_closure(map(max, m1, m2), s)


class SFace:
    """Face (w, A) of the s-permutahedron: the interval [w, w + A]."""

    __slots__ = ("word", "A", "s")

    def __init__(self, word, A, s):
        self.s = check_composition(s, strict=True)
        self.word = check_word(word, self.s)
        self.A = check_ascents(self.word, A)

    def upper(self) -> Word:
        return add_ascents(self.word, self.A, self.s)

    def __repr__(self):
        return f"SFace({self.word}, A={sorted(self.A)})"

    def __eq__(self, other):
        return (self.word, self.A, self.s) == (other.word, other.A, other.s)

    def __hash__(self):
        return hash((self.word, self.A, self.s))


def face_contains(f, g) -> bool:
    """f contained in g as faces: [w_f, w_f + A_f] inside [w_g, w_g + A_g]."""
    if f.s != g.s:
        raise ValidationError("faces live over different compositions")
    return s_leq(g.word, f.word, f.s) and s_leq(f.upper(), g.upper(), f.s)


def serialize_word(w) -> str:
    return ",".join(str(v) for v in w)

