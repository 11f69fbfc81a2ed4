"""Finite posets given by their Hasse diagrams.

Elements are arbitrary hashable values.  Order, meets and joins are computed
from cover reachability alone, so a `Hasse` instance serves as the brute-force
oracle against which the constructive lattice operations are checked.
Down-sets are bitmasks along a linear extension, built on the first order
query: a meet is one AND and one highest-bit test, and a join scans them.
"""

from __future__ import annotations

from functools import cached_property

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
        down = [0] * len(self._order)
        for p, i in enumerate(self._order):
            acc = 1 << p
            for j in self._dn[i]:
                acc |= down[j]
            down[i] = acc
        return down

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
        """Least upper bound, or None: the upper bound placed first in the
        order (the smallest down-set holding x and y), if every other holds it."""
        down = self.down
        both = down[self.index[x]] | down[self.index[y]]
        ups = [d for d in down if d | both == d]
        least = min(ups, default=None)
        if least is None or any(d | least != d for d in ups):
            return None
        return self.elements[self._order[least.bit_length() - 1]]

    def is_lattice(self):
        """Every pair has a meet and a join: for a finite non-empty poset,
        there is a top and every pair has a meet."""
        if self.elements and self.maximum() is None:
            return False
        down, at = self.down, self._order
        for i, dx in enumerate(down):
            for dy in down[i + 1 :]:
                common = dx & dy
                if down[at[common.bit_length() - 1]] != common:
                    return False
        return True

    def up_covers(self, x):
        return [self.elements[j] for j in self._up[self.index[x]]]

    def cover_pairs(self):
        return {(self.elements[a], self.elements[b]) for a, b in self.covers}

    def to_json(self, key=str):
        nodes = [key(x) for x in self.elements]
        edges = sorted([key(self.elements[a]), key(self.elements[b])] for a, b in self.covers)
        return {"nodes": sorted(nodes), "edges": edges}


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
