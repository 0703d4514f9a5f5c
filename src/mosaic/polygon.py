"""Labeled polygons with pairwise non-crossing diagonals.

The basic value is a convex n-gon whose sides carry distinct labels and
whose interior holds a set of non-crossing diagonals.  Sides are indexed
by position: position p is the side spanning vertices p and p+1 mod n.
A diagonal is an unordered pair of non-adjacent vertex indices, stored
sorted.

The dihedral group of order 2n acts by rotating and reflecting positions;
`dihedral_canonical` picks a distinguished representative of each orbit.
`enumerate_diagonal_sets` and `cayley_count` count dissections two ways,
once by backtracking and once in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import (
    AdjacentDiagonal,
    CrossingDiagonals,
    DuplicateLabel,
    InvariantViolation,
    MismatchedPolygons,
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
    if not (isinstance(u, int) and isinstance(v, int)):
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
        diags = sorted(normalize_diagonal(d, n) for d in self.diagonals)
        if len(set(diags)) != len(diags):
            diags = sorted(set(diags))
        if len(diags) > n - 3:
            raise TooManyDiagonals(f"{len(diags)} diagonals in a {n}-gon (max {n - 3})")
        # sorted, so a <= c: they cross when c lies inside (a, b), d beyond
        for i, (a, b) in enumerate(diags):
            for c, d in diags[i + 1:]:
                if a < c < b < d:
                    raise CrossingDiagonals(f"{(a, b)} crosses {(c, d)}")
        object.__setattr__(self, "diagonals", frozenset(diags))

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
        d = normalize_diagonal(d, self.n)
        if d not in self.diagonals:
            raise NoSuchDiagonal(f"{d} not in {sorted(self.diagonals)}")
        i, j = d
        return (self.labels[i:j], self.labels[j:] + self.labels[:i])

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
    # diagonal list extends every prefix in order)
    diags = polygon_diagonals(n)
    by_size = [[] for _ in range(n - 2)]
    chosen = []

    def grow(candidates):
        by_size[len(chosen)].append(tuple(chosen))
        for idx, d in enumerate(candidates):
            chosen.append(d)
            grow([e for e in candidates[idx + 1:] if not diagonals_cross(d, e, n)])
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
    num = comb(n - 3, k) * comb(n - 1 + k, k)
    if num % (k + 1):
        raise InvariantViolation(f"C(n-3, k) * C(n-1+k, k) = {num} for n = {n}, "
                                 f"k = {k} is not divisible by {k + 1}")
    return num // (k + 1)


def _map_diagonals(diagonals, vertex_map, n):
    out = []
    for u, v in diagonals:
        a, b = vertex_map(u) % n, vertex_map(v) % n
        out.append((a, b) if a < b else (b, a))
    out.sort()
    return tuple(out)


def dihedral_canonical(diss):
    """The least dissection in the dihedral orbit of `diss`.

    Least means lexicographically least (labels, diagonals) encoding over
    all 2n rotations and reflections applied simultaneously to label
    positions and diagonal endpoints.  Because the labels are distinct,
    exactly one rotation and one reflected rotation begin with the least
    label, so only those two candidates are compared.
    """
    labels = diss.labels
    n = diss.n
    keys = [label_sort_key(x) for x in labels]
    r = keys.index(min(keys))
    rotated = labels[r:] + labels[:r]
    reversed_labels = labels[::-1]
    r2 = (n - 1 - r) % n
    reflected = reversed_labels[r2:] + reversed_labels[:r2]
    rot_key = tuple(label_sort_key(x) for x in rotated)
    ref_key = tuple(label_sort_key(x) for x in reflected)
    # distinct labels make a tie impossible: equality would force the
    # cycle to be reflection symmetric, which pairs up unequal entries
    if rot_key == ref_key:
        raise InvariantViolation(f"the rotation and the reflection of {labels!r} tie")
    if rot_key < ref_key:
        new_labels = rotated
        diags = _map_diagonals(diss.diagonals, lambda v: v - r, n)
    else:
        new_labels = reflected
        diags = _map_diagonals(diss.diagonals, lambda v: n - v - r2, n)
    return Dissection(new_labels, frozenset(diags))


@dataclass(frozen=True)
class DualTree:
    """Dual tree of a dissection.

    One vertex per subpolygon (region), one internal edge per diagonal,
    one leaf per polygon side.  Regions are stored as vertex cycles in
    the polygon's boundary orientation; `leaf_cycle` walks the tree as a
    planar tree and reads the leaf labels back off.
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
        side_region = {}
        for pos, (region, _) in enumerate(self.leaves):
            side_region[pos] = region
        out = []

        def boundary(region_index):
            cycle = self.regions[region_index]
            return [(cycle[t], cycle[(t + 1) % len(cycle)]) for t in range(len(cycle))]

        def walk(region_index, entry_edge):
            edges = boundary(region_index)
            start = next(t for t, (a, b) in enumerate(edges)
                         if {a, b} == set(entry_edge)) + 1
            for step in range(len(edges) - 1):
                a, b = edges[(start + step) % len(edges)]
                if (b - a) % self.n == 1:
                    out.append(self.leaves[a][1])
                else:
                    key = (a, b) if a < b else (b, a)
                    walk(adjacency[(region_index, key)], key)

        start_region = side_region[0]
        cycle = self.regions[start_region]
        # rotate the walk so the side (0, 1) is emitted first
        pos0 = next(t for t in range(len(cycle))
                    if cycle[t] == 0 and cycle[(t + 1) % len(cycle)] == 1)
        rotated = cycle[pos0:] + cycle[:pos0]
        for t in range(len(rotated)):
            a, b = rotated[t], rotated[(t + 1) % len(rotated)]
            if (b - a) % self.n == 1:
                out.append(self.leaves[a][1])
            else:
                key = (a, b) if a < b else (b, a)
                walk(adjacency[(start_region, key)], key)
        return tuple(out)


def _split_regions(cycle, diagonals):
    # recursively cut the vertex cycle along its diagonals; every region
    # inherits the boundary orientation of its parent
    if not diagonals:
        return [tuple(cycle)]
    d = diagonals[0]
    rest = diagonals[1:]
    u, v = d
    iu = cycle.index(u)
    iv = cycle.index(v)
    ia, ib = (iu, iv) if iu < iv else (iv, iu)
    part1 = cycle[ia:ib + 1]
    part2 = cycle[ib:] + cycle[:ia + 1]
    set1 = set(part1)
    in1, in2 = [], []
    for e in rest:
        if e[0] in set1 and e[1] in set1:
            in1.append(e)
        else:
            in2.append(e)
    return _split_regions(part1, in1) + _split_regions(part2, in2)


def dual_tree(diss):
    """Build the dual tree of a dissection.

    The tree has one vertex per region with degree equal to the region's
    side count, |diagonals| internal edges, and n leaves.
    """
    n = diss.n
    diagonals = sorted(diss.diagonals)
    regions = _split_regions(list(range(n)), diagonals)
    regions.sort(key=lambda cycle: tuple(sorted(cycle)))
    regions = tuple(regions)
    owners = {}
    for idx, cycle in enumerate(regions):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            owners.setdefault((a, b) if a < b else (b, a), []).append(idx)
    edges = []
    for d in diagonals:
        touching = owners.get(d, [])
        if len(touching) != 2:
            raise InvariantViolation(f"diagonal {d} borders {len(touching)} regions")
        edges.append((touching[0], touching[1], d))
    leaves = []
    for pos in range(n):
        side = (pos, (pos + 1) % n)
        side_owners = owners.get(side if side[0] < side[1] else side[::-1], [])
        if len(side_owners) != 1:
            raise InvariantViolation(f"side {side} borders {len(side_owners)} regions")
        leaves.append((side_owners[0], diss.labels[pos]))
    if len(regions) != len(diagonals) + 1 or min(map(len, regions)) < 3:
        raise InvariantViolation(
            f"{len(diagonals)} diagonals cut {[len(c) for c in regions]}-sided regions")
    return DualTree(regions=regions, edges=tuple(edges), leaves=tuple(leaves), n=n)


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
    return Dissection(g1.labels, frozenset((d1, d2)))


def si_condition(g1, g2):
    """True iff the two single-diagonal dissections superimpose cleanly."""
    return superimpose(g1, g2) is not None
