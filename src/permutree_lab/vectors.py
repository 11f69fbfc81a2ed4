"""Inversion and cubic sets of permutrees: the constructive meet and the
cubical embedding.

The inversion set B(T) records directed descendance (pairs (i, j), i < j,
with j below i); the cubic set C(T) records, per node, the members of the
right/only child component that exceed the node.  Inversion sets drive the
meet; cubic vectors embed the rotation lattice into the box
[0, n-1] x ... x [0, 1].  Both cubic readings take every slot's component
as a bitmask from one rooted walk of the tree (`permutree.slot_sides`).
"""

from __future__ import annotations

from .errors import ValidationError
from .permutree import (
    DOWNISH,
    UPISH,
    Permutree,
    _tree_from_pairs,
    as_decoration,
    insert,
    rotation_lattice,
    slot_sides,
)
from .weak_order import cotransitivity_witness, rows_of_pairs, transitivity_witness


def inversion_vector(tree):
    """Entry i (1 <= i < n) counts the pairs (i, j) of B(T): the bits of row i."""
    return tuple(row.bit_count() for row in tree.inversion_rows()[1 : tree.n])


def validate_inversion_set(pairs, delta):
    """Check the four conditions; raise with the witness triple on failure."""
    n = delta.n
    pairs = frozenset(pairs)
    rows = rows_of_pairs(pairs, n)  # refuses a pair outside 1 <= i < j <= n
    w = transitivity_witness(pairs, n)
    if w is not None:
        raise ValidationError("condition 1 (transitivity) fails", witness=w)
    w = cotransitivity_witness(pairs, n)
    if w is not None:
        raise ValidationError("condition 2 (cotransitivity) fails", witness=w)
    for j in range(2, n):
        above_j = -1 << j + 1
        for i in range(1, j):
            if not rows[i] >> j & 1:  # condition 3: (j, k), (i, k) in, (i, j) out
                cond, bad = 3, rows[j] & rows[i] if delta[j] in DOWNISH else 0
            else:  # condition 4: (i, j), (i, k) in, (j, k) out
                cond, bad = 4, ~rows[j] & rows[i] & above_j if delta[j] in UPISH else 0
            if bad:
                k = (bad & -bad).bit_length() - 1
                raise ValidationError(
                    f"condition {cond} fails at delta_{j}={delta[j]}", witness=(i, j, k)
                )
    return pairs


def permutree_from_inversion_set(pairs, delta) -> Permutree:
    """Inverse of `Permutree.inversion_pairs`: grid placement of the values, then insertion."""
    delta = as_decoration(delta)
    pairs = validate_inversion_set(pairs, delta)
    return _tree_from_pairs(pairs, delta)


def meet_via_inversions(tree, other) -> Permutree:
    """Greatest lower bound in the rotation lattice, computed on inversion sets.

    B(T ^ T') keeps a common inversion (i, j) only when every l strictly
    between them has (i, l) or (l, j) common as well.
    """
    if tree.delta != other.delta:
        raise ValidationError("meet requires a common decoration")
    kept = tree.inversion_pairs() & other.inversion_pairs()
    # greatest fixpoint: keep (i, j) only while every l between has a kept
    # witness on one side; a single pass is not idempotent around 'n' nodes
    while True:
        nxt = frozenset(
            (i, j)
            for i, j in kept
            if all((i, l) in kept or (l, j) in kept for l in range(i + 1, j))
        )
        if nxt == kept:
            return _tree_from_pairs(kept, tree.delta)
        kept = nxt


def cubic_set(tree) -> frozenset:
    """C(T): for downish i the right child component, otherwise the members
    of the only child component larger than i."""
    side = slot_sides(tree)
    pairs = set()
    for i, cs in enumerate(tree.children, 1):
        behind = side(i, cs[-1])  # for a downish i, all larger than i
        pairs.update((i, j) for j in range(i + 1, tree.n + 1) if behind >> j & 1)
    return frozenset(pairs)


def cubic_vector(tree):
    """Entry i (1 <= i < n) counts the pairs (i, j) of C(T).

    >>> cubic_vector(insert((4, 1, 3, 2, 5), "nnnnn"))
    (1, 2, 1, 0)
    """
    side = slot_sides(tree)
    nodes = enumerate(tree.children[:-1], 1)  # 1 <= i < n
    return tuple((side(i, cs[-1]) >> i + 1).bit_count() for i, cs in nodes)


def extremal_permutree(delta, corner) -> Permutree:
    """Permutree whose cubic vector is the given box corner (entries 0 or n-i).

    Built by stacking the corner-0 values increasingly at the bottom of the
    table, then v_n, then the maximal values decreasingly on top.
    """
    delta = as_decoration(delta)
    n = delta.n
    corner = tuple(corner)
    if len(corner) != n - 1:
        raise ValidationError(f"corner must have length {n - 1}")
    for i, r in enumerate(corner, start=1):
        if r not in (0, n - i):
            raise ValidationError(f"corner entry r_{i}={r} not in {{0, {n - i}}}")
    lows = [i for i in range(1, n) if corner[i - 1] == 0]
    highs = [i for i in range(1, n) if corner[i - 1] != 0 and corner[i - 1] == n - i]
    pi = tuple(lows + [n] + sorted(highs, reverse=True))
    tree = insert(pi, delta)
    got = cubic_vector(tree)
    if got != corner:
        raise ValidationError(f"extremal construction failed: got {got} for {corner}")
    return tree


def cubical_embedding(delta, cap=None):
    """Map permutree -> cubic vector over the whole rotation lattice.

    Injective, image inside [0,n-1] x ... x [0,1], Hasse edges axis-parallel.
    """
    lattice = rotation_lattice(delta, cap)
    return lattice, {t: cubic_vector(t) for t in lattice.elements}
