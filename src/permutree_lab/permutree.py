"""Permutrees: insertion from decorated permutations, rotations, lattices.

A permutree is a directed unrooted tree on nodes 1..n where the decoration
symbol of a node fixes its slot arity: 'n' one parent/one child, 'd' one
parent/two children, 'u' two parents/one child, 'x' two of each.  Nodes in a
left slot are smaller than the slot owner, nodes in a right slot larger.

Trees compare equal exactly when they share decoration and inversion set
B(T) = {(i, j) : i < j and j is a descendant of i}; the slot structure is
canonical given those data.  A tree holds B(T) as one bitmask row per node
(bit j of row i set iff (i, j) is in B(T), the layout `weak_order` owns), its
identity; the pair set and the string key are decoded from the rows there.
`insert` fills the rows as it places the nodes; `children_first` derives
them for trees from `rotate` and `permutree_from_json`.  One rooted walk
gives every slot's component.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import product
from math import factorial

from .caps import require_cap
from .errors import ValidationError
from .posets import Hasse, hasse_by_bfs
from .weak_order import (
    all_perms,
    check_perm,
    identity,
    longest,
    pairs_of_rows,
    perm_from_inversions,
    rows_of_pairs,
    transitive_closure_pairs,
)

SYMBOLS = "ndux"
DOWNISH = {"d", "x"}
UPISH = {"u", "x"}


class Decoration:
    """Length-n symbol vector over n(one), d(own), u(p), x(=updown).

    Positions 1 and n are silently normalized to 'n'; `normalized_ends`
    records whether that rewrite happened.
    """

    __slots__ = ("symbols", "normalized_ends")

    def __init__(self, symbols):
        syms = tuple(symbols)
        if any(c not in SYMBOLS for c in syms):
            raise ValidationError(f"decoration symbols must be in '{SYMBOLS}': {syms}")
        self.normalized_ends = False
        if len(syms) >= 1 and syms[0] != "n":
            syms = ("n",) + syms[1:]
            self.normalized_ends = True
        if len(syms) >= 2 and syms[-1] != "n":
            syms = syms[:-1] + ("n",)
            self.normalized_ends = True
        self.symbols = syms

    @property
    def n(self):
        return len(self.symbols)

    def __getitem__(self, i):
        """Symbol at 1-based position i."""
        return self.symbols[i - 1]

    def __eq__(self, other):
        return isinstance(other, Decoration) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __str__(self):
        return "".join(self.symbols)

    def __repr__(self):
        return f"Decoration({''.join(self.symbols)!r})"

    def refines(self, other) -> bool:
        """Coordinatewise n < {d,u} < x order."""
        rank = {"n": 0, "d": 1, "u": 1, "x": 2}
        if self.n != other.n:
            return False
        for a, b in zip(self.symbols, other.symbols):
            if rank[a] > rank[b] or (rank[a] == 1 == rank[b] and a != b):
                return False
        return True


def as_decoration(delta) -> Decoration:
    """`delta` itself when it is a Decoration, else the Decoration of its symbols."""
    return delta if isinstance(delta, Decoration) else Decoration(delta)


def parse_decoration(text) -> Decoration:
    return Decoration(text.strip())


def normalized_decorations(n):
    """All 4^(n-2) decorations with ends already 'n', lexicographic in 'ndux'."""
    if n <= 2:
        return [Decoration("n" * n)]
    return [Decoration("n" + "".join(mid) + "n") for mid in product(SYMBOLS, repeat=n - 2)]


class Permutree:
    __slots__ = ("n", "delta", "children", "parents", "_rows", "_inv", "_hash")

    def __init__(self, n, delta, children, rows=None):
        self.n = n
        self.delta = delta
        self.children = children  # tuple over 1..n of slot tuples, entries node|None
        # each child slot is mirrored in a parent slot; a node with two parent
        # slots keeps its smaller parent on the left
        parents = [[None, None] if s in UPISH else [None] for s in delta.symbols]
        for p, slots in enumerate(children, 1):
            for c in slots:
                if c is not None:
                    parents[c - 1][0 if p < c else -1] = p
        self.parents = tuple(map(tuple, parents))
        self._rows = rows  # given by `insert`, else derived on the first query
        self._inv = None
        self._hash = None

    def inversion_rows(self):
        """B(T) as a tuple over 0..n: bit j of row i is set iff (i, j) is in
        B(T), i.e. i < j and j a descendant of i; filled by `insert`, or
        built in one children-first pass.

        >>> insert((4, 1, 3, 2, 5), "nnnnn").inversion_rows()
        (0, 16, 24, 16, 0, 0)
        """
        if self._rows is None:
            below = [0] * (self.n + 1)  # bit j of below[v]: j is a descendant of v
            for v in children_first(self):
                for c in self.children[v - 1]:
                    if c is not None:
                        below[v] |= below[c] | 1 << c
            self._rows = tuple(b >> i + 1 << i + 1 for i, b in enumerate(below))
        return self._rows

    def sorted_inversion_pairs(self):
        """The pairs of B(T) in increasing order, read off the rows."""
        return pairs_of_rows(self.inversion_rows())

    def inversion_pairs(self):
        """B(T) = {(i, j) : i < j and j a descendant of i}, decoded from the rows."""
        if self._inv is None:
            self._inv = frozenset(self.sorted_inversion_pairs())
        return self._inv

    def direct_edges(self):
        """Edges (child, parent) of the underlying tree."""
        return [(c, p) for p, cs in enumerate(self.children, 1) for c in cs if c is not None]

    def __eq__(self, other):
        return (
            isinstance(other, Permutree)
            and self.delta == other.delta
            and self.inversion_rows() == other.inversion_rows()
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.delta.symbols, self.inversion_rows()))
        return self._hash

    def __repr__(self):
        return f"Permutree({self.delta}, B={self.sorted_inversion_pairs()})"

    def key(self) -> str:
        """Canonical string key: the sorted inversion pair list."""
        return ";".join(f"{i},{j}" for i, j in self.sorted_inversion_pairs())

    def to_json(self):
        slots = []
        for i in range(1, self.n + 1):
            cs = self.children[i - 1]
            if len(cs) == 2:
                slots.append({"LD": cs[0], "RD": cs[1]})
            else:
                slots.append({"D": cs[0]})
        return {"n": self.n, "delta": str(self.delta), "children": slots}


def permutree_from_json(data) -> Permutree:
    """Inverse of `Permutree.to_json`; refuses slots that `check_permutree` refuses."""
    try:
        n, delta, slots = data["n"], data["delta"], data["children"]
        if not isinstance(delta, str):
            raise ValidationError(f"malformed permutree JSON: delta {delta!r} is not a string")
        if type(n) is not int or n < 0:
            raise ValidationError(f"malformed permutree JSON: n {n!r} is not an int >= 0")
        if len(slots) != n:
            raise ValidationError(f"malformed permutree JSON: n = {n} but {len(slots)} children")
        delta = parse_decoration(delta)
        children = []
        for i, slot in enumerate(slots, 1):
            cs = (slot["LD"], slot["RD"]) if delta[i] in DOWNISH else (slot["D"],)
            for c in cs:
                if c is not None and not (type(c) is int and 1 <= c <= n):
                    raise ValidationError(
                        f"malformed permutree JSON: node {i}'s child {c!r} is not a node of 1..{n}"
                    )
            children.append(cs)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValidationError(f"malformed permutree JSON: {exc!r}") from None
    return check_permutree(Permutree(n, delta, tuple(children)))


def check_permutree(tree) -> Permutree:
    """`tree` itself when it is the insertion tree of one of its linear
    extensions; a cycle or any slot that differs is refused."""
    order = children_first(tree)
    if len(order) < tree.n:
        raise ValidationError(
            "the child slots admit no linear extension (a cycle, or one parent slot claimed twice)"
        )
    want = insert(order, tree.delta)
    slots = list(zip(tree.children, tree.parents))
    for v, want_slots in enumerate(zip(want.children, want.parents), 1):
        if slots[v - 1] != want_slots:
            raise ValidationError(f"node {v}'s slots differ from the insertion tree", witness=v)
    return tree


def insert(pi, delta) -> Permutree:
    """Insertion algorithm: read the table of pi bottom-up, strings catch/release.

    The permutation is a linear extension of the result, and the fibers of
    this map are exactly the congruence classes of the decoration.
    """
    pi = check_perm(pi)
    delta = as_decoration(delta)
    n = len(pi)
    if delta.n != n:
        raise ValidationError(f"decoration size {delta.n} != permutation size {n}")

    syms = delta.symbols
    children = [None] * n
    below = [0] * (n + 1)  # bit j of below[v]: j is a descendant of v
    # zones are column intervals (lo, hi) between active walls; each carries the
    # string top: None or the node whose parent slot the string leaves
    walls = [i for i, s in enumerate(syms, 1) if s in DOWNISH]
    bounds = [0] + walls + [n + 1]
    zones = [[bounds[k], bounds[k + 1], None] for k in range(len(bounds) - 1)]

    for v in pi:
        dv = syms[v - 1]
        if dv in DOWNISH:
            z = next(k for k, zone in enumerate(zones) if zone[1] == v)
            zone, right = zones[z], zones.pop(z + 1)
            cs = children[v - 1] = (zone[2], right[2])
            zone[1] = right[1]
        else:
            z = next(k for k, zone in enumerate(zones) if zone[0] < v < zone[1])
            zone = zones[z]
            cs = children[v - 1] = (zone[2],)
        for c in cs:
            if c is not None:
                below[v] |= below[c] | 1 << c
        if dv in UPISH:
            zones[z : z + 1] = [[zone[0], v, v], [v, zone[1], v]]
        else:
            zone[2] = v

    rows = tuple(b >> i + 1 << i + 1 for i, b in enumerate(below))
    return Permutree(n, delta, tuple(children), rows)


def children_first(tree):
    """The least linear extension of `tree`, children before parents, by a
    heap-ordered Kahn pass; cut short when nodes wait on a cycle, or on a
    child slot whose parent slot another parent took."""
    waiting = [len(cs) - cs.count(None) for cs in tree.children]
    ready = [v for v in range(1, tree.n + 1) if not waiting[v - 1]]  # sorted, so a heap
    order = []
    while ready:
        v = heappop(ready)
        order.append(v)
        for p in tree.parents[v - 1]:
            if p is not None:
                waiting[p - 1] -= 1
                if not waiting[p - 1]:
                    heappush(ready, p)
    return tuple(order)


def linear_extensions(tree):
    """The fiber of the insertion map: all topological orders, children
    first, in lexicographic order.  Each layer extends every order by each
    node whose children are all placed, in increasing order."""
    below = [sum(1 << c for c in cs if c is not None) for cs in tree.children]
    layer = [((), 0)]  # an order and the mask of its nodes
    for _ in range(tree.n):
        layer = [
            (order + (v,), placed | 1 << v)
            for order, placed in layer
            for v in range(1, tree.n + 1)
            if not placed >> v & 1 and below[v - 1] & ~placed == 0
        ]
    return [order for order, _ in layer]


def _tree_from_pairs(pairs, delta) -> Permutree:
    """Internal reconstruction: minimal linear extension of the pair set, then insert."""
    pi = perm_from_inversions(pairs, delta.n)
    tree = insert(pi, delta)
    if tree.inversion_rows() != rows_of_pairs(pairs, delta.n):
        raise ValidationError("pair set is not the inversion set of any permutree")
    return tree


def bottom(delta) -> Permutree:
    """Minimal permutree: i -> i+1 for all i, empty inversion set."""
    delta = as_decoration(delta)
    return insert(identity(delta.n), delta)


def top(delta) -> Permutree:
    """Maximal permutree: the insertion of the longest permutation."""
    delta = as_decoration(delta)
    return insert(longest(delta.n), delta)


def rotate(tree, edge) -> Permutree:
    """Increasing rotation along a tree edge i -> j (i < j, i a child of j).

    Every edge cut survives except the one of the rotated edge; on inversion
    sets this is the transitive closure of adding (i, j), checked on the
    result's rows.  j takes i's right (or only) child slot and i takes j's
    left (or only) parent slot; the two nodes displaced fill the slots that
    held i, j.
    """
    i, j = edge
    if not (1 <= i < j <= tree.n):
        raise ValidationError(f"need an edge (i, j) with i < j, got {edge}")
    if i not in tree.children[j - 1]:
        raise ValidationError(f"({i}->{j}) is not an edge of the permutree", witness=edge)
    children = [list(s) for s in tree.children]
    ci = 1 if tree.delta[i] in DOWNISH else 0
    down, up = children[i - 1][ci], tree.parents[j - 1][0]
    children[j - 1][children[j - 1].index(i)], children[i - 1][ci] = down, j
    if up is not None:
        children[up - 1][children[up - 1].index(j)] = i
    out = Permutree(tree.n, tree.delta, tuple(map(tuple, children)))
    closure = transitive_closure_pairs(tree.sorted_inversion_pairs() + [(i, j)], tree.n)
    if out.inversion_rows() != rows_of_pairs(closure, tree.n):
        raise ValidationError("rotated slots disagree with the closure of B(T) + (i, j)", edge)
    return out


def increasing_rotations(tree):
    """Edges (i, j), i < j, i child of j: the Hasse moves going up."""
    return sorted((c, p) for c, p in tree.direct_edges() if c < p)


def rotation_lattice(delta, cap=None) -> Hasse:
    """Hasse diagram of the rotation order, built by BFS from the bottom tree."""
    delta = as_decoration(delta)
    require_cap("rotation_lattice_n", delta.n, cap)
    return hasse_by_bfs(
        bottom(delta),
        lambda tree: [rotate(tree, edge) for edge in increasing_rotations(tree)],
        key=_size_then_pairs,
    )


def _size_then_pairs(tree):
    """The lattice's listing order: |B(T)|, then the sorted pairs."""
    pairs = tree.sorted_inversion_pairs()
    return len(pairs), pairs


def count_permutrees(delta, cap=None) -> int:
    """Number of delta-permutrees.

    Updown positions cut the count into independent sections and each up may
    be flipped to a down without changing it; inside a section the count
    strips the topmost node (an 'n' root of a run, or a 'd' root splitting
    by labels).  The memo is bounded against the cap
    `permutree_count_sections` before the count starts.
    """
    delta = as_decoration(delta)
    sections = [tuple("d" if c == "u" else c for c in sec) for sec in updown_sections(delta)]
    require_cap("permutree_count_sections", _memo_bound(sections), cap)
    memo = {}
    total = 1
    for sec in sections:
        total *= _count_section(sec, memo)
    return total


def _memo_bound(sections) -> int:
    """Bound on the sub-sections `_count_section` memoizes.  With g_0..g_k the
    'n' runs between a section's 'd's, each sub-section keeps a range
    g_i..g_j and some count of each run's 'n's: sum over i <= j of
    prod_{l=i..j} (g_l + 1)."""
    total = 0
    for sec in sections:
        ending = 0  # the sum over i <= j for the current j
        for g in map(len, "".join(sec).split("d")):
            ending = (ending + 1) * (g + 1)
            total += ending
    return total


def updown_sections(delta):
    """Symbol runs delimited by 'x' positions, with the 'x' endpoints read as 'n'."""
    syms = delta.symbols
    n = len(syms)
    cuts = [0] + [p for p in range(n) if syms[p] == "x"] + [n - 1]
    if n == 0:
        return []
    sections = []
    for k in range(len(cuts) - 1):
        lo, hi = cuts[k], cuts[k + 1]
        sec = list(syms[lo : hi + 1])
        if sec and sec[0] == "x":
            sec[0] = "n"
        if sec and sec[-1] == "x":
            sec[-1] = "n"
        sections.append(tuple(sec))
    return sections


def _count_section(sec, memo) -> int:
    """Permutrees of one {n, d} section, by its topmost node: one of the 'n'
    roots of a run, each run counted once times its length, or a 'd' root
    splitting the section in two.  The count depends on the run lengths
    alone, so `memo`, shared within one count, is keyed by them; it is
    filled bottom-up, over ranges of runs by width, each range's lengths in
    product order, so that every sub-section is counted first.  A section
    with no 'd' is one run, counted as its length's factorial, unmemoized."""
    if "d" not in sec:
        return factorial(len(sec))
    runs = tuple(map(len, "".join(sec).split("d")))
    for width in range(1, len(runs) + 1):
        for i in range(len(runs) - width + 1):
            for key in product(*(range(g + 1) for g in runs[i : i + width])):
                if sum(key) + width - 1 <= 1:
                    memo[key] = 1
                    continue
                roots_n = sum(
                    g * memo[key[:r] + (g - 1,) + key[r + 1 :]] for r, g in enumerate(key) if g
                )
                roots_d = sum(memo[key[:r]] * memo[key[r:]] for r in range(1, width))
                memo[key] = roots_n + roots_d
    return memo[runs]


def insertion_fibers(delta):
    """Partition of S_n into insertion fibers, as {tree: sorted list of perms}."""
    delta = as_decoration(delta)
    fibers = {}
    for pi in all_perms(delta.n):
        fibers.setdefault(insert(pi, delta), []).append(pi)
    return fibers


def slot_sides(tree):
    """`side(i, c)`: the component of T - v_i behind i's slot holding c, as a
    bitmask over the nodes (0 for an empty slot).  Components may climb
    through the second parent of a node below i; one walk of the undirected
    tree from node 1 gives each node's mask of itself and all beyond it."""
    n = tree.n
    up = [0] * (n + 1)  # each node's neighbour towards the root; 0 at the root
    order = [1] if n else []
    for v in order:  # grows while read: a breadth-first walk
        for w in tree.children[v - 1] + tree.parents[v - 1]:
            if w is not None and w != up[v]:
                up[w] = v
                order.append(w)
    mask = [1 << v for v in range(n + 1)]
    for v in reversed(order):
        mask[up[v]] |= mask[v]
    outside = (1 << n + 1) - 2

    def side(i, c):
        if c is None:
            return 0
        return mask[c] if up[c] == i else outside ^ mask[i]

    return side


def permutreehedron_vertex(tree):
    """Vertex coordinates of the permutreehedron; all points sum to C(n+1, 2).

    Here d and the slot sizes count whole components of T - v_i (the subtree
    below a slot can climb back up through two-parent nodes), not just nodes
    reachable by directed paths.
    """
    side = slot_sides(tree)
    coords = []
    for i, (cs, ps) in enumerate(zip(tree.children, tree.parents), 1):
        below = [side(i, c).bit_count() for c in cs]
        above = [side(i, p).bit_count() for p in ps]
        a = 1 + sum(below)
        if len(below) == 2:  # downish
            a += below[0] * below[1]
        if len(above) == 2:  # upish; both adjustments apply when the symbol is 'x'
            a -= above[0] * above[1]
        coords.append(a)
    return tuple(coords)


def edge_cuts(tree):
    """One ordered partition (I || [n] \\ I) per tree edge, I on the child side."""
    side = slot_sides(tree)
    nodes = frozenset(range(1, tree.n + 1))
    masks = [side(p, c) for c, p in tree.direct_edges()]
    below = [frozenset(v for v in nodes if mask >> v & 1) for mask in masks]
    return {(b, nodes - b) for b in below}


def lattice_to_json(hasse):
    return hasse.to_json(key=lambda t: t.key())
