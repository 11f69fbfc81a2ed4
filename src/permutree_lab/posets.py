"""Finite posets given by their Hasse diagrams.

Elements are arbitrary hashable values.  Order, meets and joins are computed
from cover reachability alone, so a `Hasse` instance serves as the brute-force
oracle against which the constructive lattice operations are checked.
Down-sets and up-sets are bitmasks along one linear extension, each built on
the first query that reads it: a meet (join) is one AND and one highest-bit
(lowest-bit) test, and the lattice test meets only pairs of lower covers.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .errors import ValidationError


class Hasse:
    def __init__(self, elements, covers):
        """`covers` is an iterable of pairs (lo, hi) meaning hi covers lo."""
        self.elements = list(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.covers = [(self.index[a], self.index[b]) for a, b in covers]
        m = len(self.elements)
        self._up = [[] for _ in range(m)]
        self._dn = [[] for _ in range(m)]
        for a, b in self.covers:
            self._up[a].append(b)
            self._dn[b].append(a)
        # Kahn's algorithm: `_order` lists the indices along a linear extension.
        pending = [len(lo) for lo in self._dn]
        order = self._order = [i for i in range(m) if not pending[i]]
        for i in order:
            for j in self._up[i]:
                pending[j] -= 1
                if not pending[j]:
                    order.append(j)
        if len(order) != m:
            raise ValidationError("the cover relation has a cycle")

    @cached_property
    def down(self):
        """Bit p of down[i] is set iff `_order[p]` is i or lies below it."""
        return _masks(self._order, self._dn, range(len(self._order)))

    @cached_property
    def up(self):
        """Bit p of up[i] is set iff `_order[p]` is i or lies above it."""
        return _masks(self._order, self._up, reversed(range(len(self._order))))

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.index

    def leq(self, x, y):
        down = self.down
        return bool(down[self.index[y]] >> (down[self.index[x]].bit_length() - 1) & 1)

    def minimum(self):
        bots = [x for i, x in enumerate(self.elements) if not self._dn[i]]
        return bots[0] if len(bots) == 1 else None

    def maximum(self):
        tops = [x for i, x in enumerate(self.elements) if not self._up[i]]
        return tops[0] if len(tops) == 1 else None

    def meet(self, x, y):
        """Greatest lower bound, or None if it does not exist."""
        # The highest bit of `common` is a maximal member, and the meet exists
        # iff that member's down-set is all of `common` (never when it is 0).
        down = self.down
        common = down[self.index[x]] & down[self.index[y]]
        k = self._order[common.bit_length() - 1]
        return self.elements[k] if down[k] == common else None

    def join(self, x, y):
        """Least upper bound, or None if it does not exist."""
        # The lowest bit of `common` is a minimal member, and the join exists
        # iff that member's up-set is all of `common` (never when it is 0).
        up = self.up
        common = up[self.index[x]] & up[self.index[y]]
        k = self._order[(common & -common).bit_length() - 1]
        return self.elements[k] if up[k] == common else None

    def is_lattice(self):
        """A non-empty finite poset is a lattice iff it has a top and a bottom
        and any two lower covers of one element have a meet (dual of Bjoerner,
        Edelman and Ziegler, Discrete Comput. Geom. 5 (1990), Lemma 2.1)."""
        if self.elements and (self.maximum() is None or self.minimum() is None):
            return False
        down, at = self.down, self._order
        for lower in self._dn:
            for a, b in combinations(lower, 2):
                common = down[a] & down[b]
                if down[at[common.bit_length() - 1]] != common:
                    return False
        return True

    def up_covers(self, x):
        return [self.elements[j] for j in self._up[self.index[x]]]

    def cover_pairs(self):
        return {(self.elements[a], self.elements[b]) for a, b in self.covers}

    def to_json(self, key=str):
        nodes = [key(x) for x in self.elements]
        edges = sorted([nodes[a], nodes[b]] for a, b in self.covers)
        return {"nodes": sorted(nodes), "edges": edges}


def _masks(order, steps, positions):
    """Bit p of masks[i] is set iff `order[p]` is i or is reached from i by
    `steps`; `positions` visits each element after every element it steps to."""
    masks = [0] * len(order)
    for p in positions:
        i = order[p]
        acc = 1 << p
        for j in steps[i]:
            acc |= masks[j]
        masks[i] = acc
    return masks


def hasse_by_bfs(bottom, up_covers, key=None) -> Hasse:
    """Hasse diagram of everything above `bottom`, found by BFS over the
    covers `up_covers(x)` and listed sorted by `key`.

    One instance is kept per element: an up-cover equal to an element
    already seen is replaced at once by that element's first instance, so
    the copy is freed during the search.
    """
    seen = {bottom: bottom}
    frontier = [bottom]
    covers = set()
    while frontier:
        nxt = []
        for x in frontier:
            for y in up_covers(x):
                if y in seen:
                    y = seen[y]
                else:
                    seen[y] = y
                    nxt.append(y)
                covers.add((x, y))
        frontier = nxt
    return Hasse(sorted(seen, key=key), covers)


def isomorphic_via(hasse_a, hasse_b, mapping):
    """Check that `mapping` is a poset isomorphism (on Hasse diagrams)."""
    if len(hasse_a) != len(hasse_b):
        return False
    image = {mapping[x] for x in hasse_a.elements}
    if len(image) != len(hasse_b) or any(y not in hasse_b for y in image):
        return False
    want = {(mapping[a], mapping[b]) for a, b in hasse_a.cover_pairs()}
    return want == hasse_b.cover_pairs()
