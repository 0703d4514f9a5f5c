"""Labeled polygons with pairwise non-crossing diagonals.

The basic value is a convex n-gon whose sides carry distinct labels and
whose interior holds a set of non-crossing diagonals.  Sides are indexed
by position: position p is the side spanning vertices p and p+1 mod n.
A diagonal is an unordered pair of non-adjacent vertex indices, stored
sorted.

A `Dissection` built by a caller is checked; the ones the program derives
from checked ones are made by `Dissection._made` and not checked again.

The dihedral group of order 2n acts by rotating (`_turned`) and reflecting
(`_reflected`) positions; `dihedral_canonical` picks a distinguished
representative of each orbit.
`enumerate_diagonal_sets` and `cayley_count` count dissections two ways,
once by backtracking and once in closed form.

A dissection and its dual tree are one object: rooted at a side, the
diagonals cut off blocks of side positions that nest as the tree's nodes
do (`_rooted_tree`).  `dual_tree` reads its regions off the blocks rooted
at side 0; its regions and edges depend only on n and the diagonal set,
so they are cached per diagonal set (`_dual_shape`) and the labels join
at the leaves.  `_node_degrees` reads the degrees a grade of faces at a
time for `associahedron`.

Every move of a dissection lives here.  One flip, `_flip`, serves every
twist: it reverses a run of sides and mirrors the pairs inside it,
diagonals and blocks alike.  `twist` and `marked_twist` flip along a
diagonal, and `moduli`'s least-member rule turns a node (`_Node.turn`)
by flipping its block, then each child's where it lands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import (
    AdjacentDiagonal,
    CrossingDiagonals,
    DuplicateLabel,
    InvariantViolation,
    MismatchedPolygons,
    NoInfinitySide,
    NoSuchDiagonal,
    RangeError,
    TooManyDiagonals,
)


def label_sort_key(label):
    # labels are opaque tokens; keying by type name first gives a total
    # order even when integer and string labels are mixed
    return (type(label).__name__, label)


def normalize_diagonal(d, n):
    """Return d as a sorted vertex pair, validated for an n-gon."""
    try:
        u, v = d
    except (TypeError, ValueError):
        raise AdjacentDiagonal(f"not a vertex pair: {d!r}") from None
    if not (isinstance(u, int) and isinstance(v, int)) or type(u) is bool or type(v) is bool:
        raise AdjacentDiagonal(f"vertex indices must be integers: {d!r}")
    if not (0 <= u < n and 0 <= v < n):
        raise RangeError(f"diagonal {d!r} has a vertex outside 0..{n - 1}")
    if u > v:
        u, v = v, u
    if v - u < 2 or v - u > n - 2:
        raise AdjacentDiagonal(f"diagonal {(u, v)} joins adjacent vertices of a {n}-gon")
    return (u, v)


def diagonals_cross(d1, d2, n):
    """True iff the two diagonals strictly interleave around the n-cycle.

    Sharing an endpoint does not count as crossing.
    """
    a, b = normalize_diagonal(d1, n)
    c, d = normalize_diagonal(d2, n)
    return (a < c < b < d) or (c < a < d < b)


@dataclass(frozen=True)
class Dissection:
    """An n-gon with labeled sides and non-crossing diagonals.

    labels: tuple of n distinct tokens, position p labeling the side
        spanning vertices p and p+1 mod n.
    diagonals: frozenset of sorted vertex pairs, pairwise non-crossing,
        at most n-3 of them.

    Built by a caller, it is checked: each pair goes through
    normalize_diagonal, and then the count and the crossings.  One the
    program derives from checked parts comes from `_made`, unchecked.
    """

    labels: tuple
    diagonals: frozenset = frozenset()

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        n = len(labels)
        if n < 3:
            raise RangeError(f"a polygon needs at least 3 sides, got {n}")
        if len(set(labels)) != n:
            raise DuplicateLabel(f"side labels must be distinct: {labels!r}")
        diags = sorted({normalize_diagonal(d, n) for d in self.diagonals})
        if len(diags) > n - 3:
            raise TooManyDiagonals(f"{len(diags)} diagonals in a {n}-gon (max {n - 3})")
        # sorted, so a <= c: they cross when c lies inside (a, b), d beyond
        for i, (a, b) in enumerate(diags):
            for c, d in diags[i + 1:]:
                if a < c < b < d:
                    raise CrossingDiagonals(f"{(a, b)} crosses {(c, d)}")
        object.__setattr__(self, "diagonals", frozenset(diags))

    @classmethod
    def _made(cls, labels, diagonals):
        # derived from checked parts, so only the two fields are set
        self = object.__new__(cls)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "diagonals", diagonals)
        return self

    @property
    def n(self):
        return len(self.labels)

    def encoding(self):
        """Canonical comparable encoding: (labels, sorted diagonal list)."""
        return (self.labels, tuple(sorted(self.diagonals)))

    def split_labels(self, d):
        """Labels on the two sides of diagonal d, each in boundary order.

        The first part covers positions i..j-1 for d = (i, j), the second
        the rest.  Raises NoSuchDiagonal if d is not in the dissection.
        """
        i, j = self._own(d)
        return (self.labels[i:j], self.labels[j:] + self.labels[:i])

    def _own(self, d):
        # d as a sorted pair, when it is one of the diagonals
        d = normalize_diagonal(d, self.n)
        if d not in self.diagonals:
            raise NoSuchDiagonal(f"{d} not in {sorted(self.diagonals)}")
        return d

    def __repr__(self):
        return f"Dissection({self.labels!r}, {sorted(self.diagonals)!r})"


def polygon_diagonals(n):
    """All diagonals of an n-gon, sorted lexicographically.

    There are n(n-3)/2 of them.
    """
    if n < 3:
        raise RangeError(f"need n >= 3, got {n}")
    return [(i, j) for i in range(n - 2) for j in range(i + 2, n) if (i, j) != (0, n - 1)]


@lru_cache(maxsize=None)
def _noncrossing_sets(n):
    # all pairwise non-crossing diagonal sets of the n-gon, grouped by
    # size, each group in lexicographic order (DFS over the sorted
    # diagonal list extends every prefix in order); a later candidate e
    # has e[0] >= d[0], so it crosses d exactly when d[0] < e[0] < d[1] < e[1]
    diags = polygon_diagonals(n)
    by_size = [[] for _ in range(n - 2)]
    chosen = []

    def grow(candidates):
        by_size[len(chosen)].append(tuple(chosen))
        for idx, d in enumerate(candidates):
            chosen.append(d)
            grow([e for e in candidates[idx + 1:] if not d[0] < e[0] < d[1] < e[1]])
            chosen.pop()

    grow(diags)
    return tuple(tuple(group) for group in by_size)


def enumerate_diagonal_sets(n, k):
    """All k-element non-crossing diagonal sets of the n-gon.

    Deterministic lexicographic order; the count equals cayley_count(n, k).
    """
    if n < 3:
        raise RangeError(f"need n >= 3, got {n}")
    if not 0 <= k <= n - 3:
        raise RangeError(f"need 0 <= k <= {n - 3} for a {n}-gon, got k={k}")
    return _noncrossing_sets(n)[k]


def cayley_count(n, k):
    """Number of n-gon dissections by k non-crossing diagonals.

    Closed form C(n-3, k) * C(n-1+k, k) / (k+1); always an integer.
    """
    if n < 3:
        raise RangeError(f"need n >= 3, got {n}")
    if not 0 <= k <= n - 3:
        raise RangeError(f"need 0 <= k <= {n - 3} for a {n}-gon, got k={k}")
    return comb(n - 3, k) * comb(n - 1 + k, k) // (k + 1)


def dihedral_canonical(diss):
    """The least dissection in the dihedral orbit of `diss`.

    Least means lexicographically least (labels, diagonals) encoding over
    all 2n rotations and reflections applied simultaneously to label
    positions and diagonal endpoints.  Because the labels are distinct,
    exactly one rotation and one reflected rotation begin with the least
    label, and those two first differ at their second entry, one of the
    least label's two neighbours: comparing the neighbours decides.
    """
    labels = diss.labels
    n = len(labels)
    # int labels alone, or str labels alone, order as their keys do
    plain = set(map(type, labels)) in ({int}, {str})
    keys = labels if plain else [label_sort_key(x) for x in labels]
    r = keys.index(min(keys))
    after, before = keys[(r + 1) % n], keys[r - 1]
    if after == before:
        raise InvariantViolation(f"the rotation and the reflection of {labels!r} tie")
    labels, diagonals = (_turned if after < before else _reflected)(labels, diss.diagonals, r)
    return Dissection._made(labels, frozenset(diagonals))


def _turned(labels, diagonals, r):
    # the polygon turned so side r comes first: side p goes to p - r
    n = len(labels)
    moved = []
    for u, v in diagonals:
        u, v = (u - r) % n, (v - r) % n
        moved.append((u, v) if u < v else (v, u))
    return labels[r:] + labels[:r], moved


def _reflected(labels, diagonals, k):
    # the polygon reflected: side p goes to k - p, vertex v to k + 1 - v
    n = len(labels)
    moved = []
    for u, v in diagonals:
        u, v = (k + 1 - u) % n, (k + 1 - v) % n
        moved.append((u, v) if u < v else (v, u))
    return labels[k::-1] + labels[:k:-1], moved


# ---------------------------------------------------------------------------
# dual trees
#
# Pick a root side.  Every diagonal cuts off a block of side positions
# away from it, and the blocks nest the way the nodes of the dual tree
# do: a node's units are its child blocks and, between them, single
# sides, in position order.  The root is side 0 or side n-1, so no block
# wraps past position n-1.


def _flip(labels, pairs, a, b):
    # the one twist primitive: sides a..b-1 reverse, and each pair inside
    # a..b, a sorted diagonal or a block of sides, goes to its mirror
    labels = labels[:a] + labels[a:b][::-1] + labels[b:]
    return labels, [(a + b - y, a + b - x) if a <= x and y <= b else (x, y) for x, y in pairs]


def twist(diss, d):
    """Break the polygon along d = (i, j) and reflect the piece on vertices i..j.

    The sides at positions i..j-1 reverse, however many there are, and
    so do the diagonals among vertices i..j (`_flip`).  Twisting twice
    along the same diagonal is the exact identity.
    """
    labels, diags = _flip(diss.labels, diss.diagonals, *diss._own(d))
    return Dissection._made(labels, frozenset(diags))


def marked_twist(diss, d):
    """Twist along d, always reflecting the piece away from the side n.

    The side labeled n plays the role of the distinguished puncture; the
    reflected piece never contains it, which makes the marked twist an
    exact involution with a pinned frame.  With side n on positions i..j-1,
    the twist is followed by the reflection of the whole polygon about the
    same axis (`_reflected`): that piece goes back, the other reflects.
    """
    n, (i, j) = diss.n, diss._own(d)
    if n not in diss.labels:
        raise NoInfinitySide(f"no side labeled {n} in {diss.labels!r}")
    labels, diags = _flip(diss.labels, diss.diagonals, i, j)
    if i <= diss.labels.index(n) < j:
        labels, diags = _reflected(labels, diags, (i + j - 1) % n)
    return Dissection._made(labels, frozenset(diags))


def _block(d, n, root):
    # the side positions cut off by the diagonal d, on the side away from
    # the root; the root side itself is never inside a block
    i, j = d
    return (j, n) if i <= root < j else (i, j)


def _diagonal(block, n):
    a, b = block
    return (0, a) if b == n else (a, b)


class _Node(NamedTuple):
    """One node of a rooted dual tree.

    Its units are its child blocks and, between them, single sides.
    """

    block: tuple        # its side positions (start, stop)
    children: list      # the blocks of its child nodes, in order

    @property
    def last(self):
        """Where the last unit starts."""
        b = self.block[1]
        if self.children and self.children[-1][1] == b:
            return self.children[-1][0]
        return b - 1

    def turn(self, labels, pairs):
        """Reverse the order of this node's units, each keeping its content.

        The node's block flips, then each child's block flips back where
        it lands; pairs are the blocks of a tree holding this node.
        """
        a, b = self.block
        labels, pairs = _flip(labels, pairs, a, b)
        for x, y in self.children:
            labels, pairs = _flip(labels, pairs, a + b - y, a + b - x)
        return labels, pairs


def _rooted_tree(blocks, n, root):
    # the nodes in post-order, children before parents: one per block,
    # then the root node, whose block is every position but the root.
    # Blocks are taken by start, outer before inner; a node is complete
    # once a block starts at or past its end.
    nodes = []
    stack = [((1, n) if root == 0 else (0, n - 1), [])]
    for block in sorted(blocks, key=lambda blk: (blk[0], -blk[1])):
        while block[0] >= stack[-1][0][1]:
            nodes.append(_Node(*stack.pop()))
        stack[-1][1].append(block)
        stack.append((block, []))
    while stack:
        nodes.append(_Node(*stack.pop()))
    return nodes


def _node_degrees(diagonals, n):
    # (F, k, 2) sorted diagonals of F sets -> (F, k + 1) sorted node
    # degrees of their trees rooted at side 0, without building a tree.
    # Each diagonal's block is `_block(d, n, 0)`; a block's depth counts
    # the blocks containing it, itself included, and its children are the
    # blocks it contains one level deeper.  A node's degree is its span
    # plus one, less (span - 1) per child; the root's is n, less that per
    # top block.
    i, j = diagonals[..., 0], diagonals[..., 1]
    start, stop = np.where(i == 0, j, i), np.where(i == 0, n, j)
    taken = stop - start - 1
    inside = (start[:, :, None] <= start[:, None, :]) & (stop[:, None, :] <= stop[:, :, None])
    depth = inside.sum(axis=1, dtype=np.int16)
    child = inside & (depth[:, None, :] == depth[:, :, None] + 1)
    degree = taken + 2 - (child * taken[:, None, :]).sum(axis=2, dtype=np.int16)
    root = n - np.where(depth == 1, taken, 0).sum(axis=1, dtype=np.int16)
    return np.sort(np.column_stack((root, degree)), axis=1)


@dataclass(frozen=True)
class DualTree:
    """Dual tree of a dissection.

    One vertex per subpolygon (region), one internal edge per diagonal,
    one leaf per polygon side.  Regions are stored as vertex cycles in
    the polygon's boundary orientation, each starting at its least
    vertex, and sorted; `leaf_cycle` walks the tree as a planar tree and
    reads the leaf labels back off.
    """

    regions: tuple          # tuple of vertex cycles (tuples of vertex indices)
    edges: tuple            # (region_index, region_index, diagonal) per diagonal
    leaves: tuple           # (region_index, label) indexed by side position
    n: int

    def degrees(self):
        return tuple(len(cycle) for cycle in self.regions)

    def leaf_cycle(self):
        """Labels read in planar order around the tree, starting at side 0.

        A round trip: the result equals the source dissection's label
        tuple whenever the tree is well formed.
        """
        adjacency = {}
        for r1, r2, d in self.edges:
            adjacency[(r1, d)] = r2
            adjacency[(r2, d)] = r1
        out = []

        def walk(region, start, steps):
            # a region entered along (a, b) meets it as (b, a), so it
            # walks on from a through all its other edges
            cycle = self.regions[region]
            for t in range(start, start + steps):
                a, b = cycle[t % len(cycle)], cycle[(t + 1) % len(cycle)]
                if (b - a) % self.n == 1:
                    out.append(self.leaves[a][1])
                else:
                    nxt = adjacency[(region, (a, b) if a < b else (b, a))]
                    walk(nxt, self.regions[nxt].index(a), len(self.regions[nxt]) - 1)

        root = self.leaves[0][0]
        walk(root, self.regions[root].index(0), len(self.regions[root]))
        return tuple(out)


def dual_tree(diss):
    """Build the dual tree of a dissection from its blocks rooted at side 0.

    The regions and edges depend only on n and the diagonal set, so they
    come from `_dual_shape`, cached per diagonal set and shared by every
    tree of that set; the labels enter only at the leaves.
    """
    regions, edges, owner = _dual_shape(diss.n, diss.diagonals)
    return DualTree(regions=regions, edges=edges, leaves=tuple(zip(owner, diss.labels)), n=diss.n)


@lru_cache(maxsize=256)
def _dual_shape(n, diagonals):
    # (regions, edges, owning region of each side position) of the dual
    # tree.  A node's region walks from the start of its block over its
    # units, one vertex per single side and a jump over each child block,
    # and closes along the node's diagonal (side 0 for the root).  Each
    # child block is the tree edge to its node and each single side a
    # leaf.  Only repeated lookups of one set read an entry again; 256
    # entries hold the 197 sets of n = 7 (0.19 MiB traced), and a sweep
    # that takes each set once keeps at most 256 entries (under 0.5 MiB).
    nodes = _rooted_tree([_block(d, n, 0) for d in diagonals], n, 0)
    cycles, owner = [], [nodes[-1].block] * n       # side 0 is a leaf of the root
    for node in nodes:
        a, b = node.block
        jumps, vertices = dict(node.children), []
        while a < b:
            vertices.append(a)
            if a in jumps:
                a = jumps[a]
            else:
                owner[a] = node.block
                a += 1
        cycles.append(tuple(sorted(vertices + [b % n])))
    order = sorted(range(len(nodes)), key=cycles.__getitem__)
    region = {nodes[t].block: r for r, t in enumerate(order)}
    edges = sorted(((*sorted((region[node.block], region[child])), _diagonal(child, n))
                    for node in nodes for child in node.children), key=lambda e: e[2])
    return tuple(cycles[t] for t in order), tuple(edges), tuple(map(region.get, owner))


def superimpose(g1, g2):
    """Overlay two single-diagonal dissections of the same labeled polygon.

    Returns the two-diagonal dissection when the diagonals differ and do
    not cross, else None: the SI condition fails both for crossing
    diagonals and for the degenerate identical pair.
    Raises MismatchedPolygons when the polygons do not match or either
    input does not carry exactly one diagonal.
    """
    if g1.labels != g2.labels:
        raise MismatchedPolygons(f"label cycles differ: {g1.labels!r} vs {g2.labels!r}")
    if len(g1.diagonals) != 1 or len(g2.diagonals) != 1:
        raise MismatchedPolygons("superimpose needs single-diagonal dissections")
    (d1,) = g1.diagonals
    (d2,) = g2.diagonals
    if d1 == d2:
        return None
    if diagonals_cross(d1, d2, g1.n):
        return None
    return Dissection._made(g1.labels, frozenset((d1, d2)))


def si_condition(g1, g2):
    """True iff the two single-diagonal dissections superimpose cleanly."""
    return superimpose(g1, g2) is not None
