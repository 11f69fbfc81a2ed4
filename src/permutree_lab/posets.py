"""Finite posets given by their Hasse diagrams.

Elements are arbitrary hashable values.  Order, meets and joins are computed
from cover reachability alone, so a `Hasse` instance serves as the brute-force
oracle against which the constructive lattice operations are checked.
Down-sets are kept as integer bitmasks.
"""

from __future__ import annotations


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
        # down[i] = bitmask of {j : elements[j] <= elements[i]}
        self.down = self._reach(self._dn)
        self.up = self._reach(self._up)

    def _reach(self, adj):
        m = len(self.elements)
        seen = [False] * m
        mask = [0] * m
        order = []

        def visit(start):
            stack = [(start, 0)]
            while stack:
                node, k = stack.pop()
                if k == 0:
                    if seen[node]:
                        continue
                    seen[node] = True
                deps = adj[node]
                if k < len(deps):
                    stack.append((node, k + 1))
                    if not seen[deps[k]]:
                        stack.append((deps[k], 0))
                else:
                    order.append(node)

        for i in range(m):
            visit(i)
        for i in order:
            acc = 1 << i
            for j in adj[i]:
                acc |= mask[j]
            mask[i] = acc
        return mask

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.index

    def leq(self, x, y):
        return bool(self.down[self.index[y]] >> self.index[x] & 1)

    def minimum(self):
        bots = [x for i, x in enumerate(self.elements) if not self._dn[i]]
        return bots[0] if len(bots) == 1 else None

    def maximum(self):
        tops = [x for i, x in enumerate(self.elements) if not self._up[i]]
        return tops[0] if len(tops) == 1 else None

    def meet(self, x, y):
        """Greatest lower bound, or None if it does not exist."""
        common = self.down[self.index[x]] & self.down[self.index[y]]
        i = self._unique_top(common, self.down)
        return self.elements[i] if i is not None else None

    def join(self, x, y):
        common = self.up[self.index[x]] & self.up[self.index[y]]
        i = self._unique_top(common, self.up)
        return self.elements[i] if i is not None else None

    @staticmethod
    def _unique_top(mask, masks):
        # member of `mask` whose reachability set contains all of `mask`
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            if mask & ~masks[i] == 0:
                return i
        return None

    def is_lattice(self):
        xs = self.elements
        for i, x in enumerate(xs):
            for y in xs[i + 1 :]:
                if self.meet(x, y) is None or self.join(x, y) is None:
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
    covers `up_covers(x)` and listed sorted by `key`."""
    seen = {bottom}
    frontier = [bottom]
    covers = []
    while frontier:
        nxt = []
        for x in frontier:
            for y in up_covers(x):
                covers.append((x, y))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return Hasse(sorted(seen, key=key), set(covers))


def isomorphic_via(hasse_a, hasse_b, mapping):
    """Check that `mapping` is a poset isomorphism (on Hasse diagrams)."""
    if len(hasse_a) != len(hasse_b):
        return False
    image = {mapping[x] for x in hasse_a.elements}
    if len(image) != len(hasse_b) or any(y not in hasse_b for y in image):
        return False
    want = {(mapping[a], mapping[b]) for a, b in hasse_a.cover_pairs()}
    return want == hasse_b.cover_pairs()
