"""The face lattice of the associahedron, realized on a fixed polygon.

Faces of the (n-3)-dimensional associahedron correspond to the
dissections of an n-gon whose sides carry the frozen labels 1..n-1
followed by the marked side n: a face of codimension k is a set of k
noncrossing diagonals, and F <= G means F's diagonal set contains G's.
The reference labeling is never permuted here; everything symmetric
lives in the cell-complex modules.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import RangeError
from .polygon import (
    Dissection,
    _node_degrees,
    enumerate_diagonal_sets,
    polygon_diagonals,
    superimpose,
)


def reference_polygon(n, diagonals=()):
    """The fixed frame: sides labeled 1..n-1 in cyclic order, then n marked."""
    if n < 4:
        raise RangeError(f"need n >= 4, got {n}")
    return Dissection(tuple(range(1, n + 1)), frozenset(diagonals))


@dataclass(frozen=True)
class Face:
    """One face: a noncrossing diagonal set on the reference n-gon."""

    n: int
    diagonals: tuple

    @property
    def codim(self):
        return len(self.diagonals)

    @property
    def dimension(self):
        return (self.n - 3) - self.codim

    @property
    def dissection(self):
        return reference_polygon(self.n, self.diagonals)


class FaceLattice:
    """Faces graded by codimension with the grade-adjacent covering relation.

    Covering pairs are worked out when asked for; the general order
    F <= G is the subset test diagonals(F) >= diagonals(G).
    """

    def __init__(self, n, grades):
        self.n = n
        self.grades = grades

    def faces_at(self, codim):
        if codim not in self.grades:
            raise RangeError(f"no faces of codim {codim} in K for n={self.n}")
        return self.grades[codim]

    def all_faces(self):
        for k in sorted(self.grades):
            yield from self.grades[k]

    @property
    def top(self):
        return self.grades[0][0]

    def minima(self):
        """The vertices: full triangulations."""
        return self.grades[self.n - 3]

    def facets(self):
        return self.grades[1]

    def leq(self, f, g):
        return set(f.diagonals) >= set(g.diagonals)

    def covering_faces(self, face):
        """Faces one grade up (one diagonal fewer) containing `face`."""
        ds = face.diagonals
        return tuple(Face(self.n, ds[:t] + ds[t + 1:]) for t in range(len(ds)))

    def f_vector(self):
        return tuple(len(self.grades[k]) for k in sorted(self.grades))


def face_lattice(n):
    """Every face of the associahedron on the reference n-gon.

    Grade k holds cayley_count(n, k) faces; the unique top face has no
    diagonals and the minima are the Catalan-many triangulations.
    """
    if not 4 <= n <= 10:
        raise RangeError(f"face lattice supports 4 <= n <= 10, got {n}")
    grades = {k: tuple(Face(n, ds) for ds in enumerate_diagonal_sets(n, k))
              for k in range(n - 2)}
    return FaceLattice(n, grades)


def face_factorizations(n, k):
    """`face_factorization` of every codim-k face, one grade at a time.

    One row per face, in `enumerate_diagonal_sets(n, k)` order; the sets
    enumerated there are valid, so no dissection is built.
    """
    sets = enumerate_diagonal_sets(n, k)
    flat = chain.from_iterable(chain.from_iterable(sets))
    rows = np.fromiter(flat, dtype=np.int16, count=2 * k * len(sets))
    return _node_degrees(rows.reshape(len(sets), k, 2), n)


def face_factorization(face):
    """Subpolygon side counts of the face's product decomposition.

    A face with k diagonals is a product of k+1 smaller associahedra,
    one per node of its dual tree.  The sizes n_i are the sorted node
    degrees, read off the nesting of the blocks the diagonals cut off
    away from side 0 (`polygon._node_degrees`); face.dissection is built
    first because it is the validity check, rejecting crossing, adjacent,
    out-of-range and too many diagonals and removing duplicates.  The
    sizes satisfy sum(n_i) = n + 2k and sum(n_i - 3) = (n-3) - k.
    """
    diss = face.dissection
    rows = np.array(list(diss.diagonals), dtype=np.int16).reshape(1, -1, 2)
    return tuple(_node_degrees(rows, diss.n)[0].tolist())


@dataclass(frozen=True)
class FacetGraph:
    """Codim-1 faces with an edge whenever superimposition succeeds."""

    n: int
    vertices: tuple              # single diagonals
    edges: tuple                 # (diagonal, diagonal, meet diagonal pair)

    def degree(self, d):
        return sum(1 for u, v, _ in self.edges if d in (u, v))


def facet_si_graph(n):
    """Adjacency of the facets of the associahedron.

    Two facets are adjacent exactly when their diagonals superimpose;
    the superimposed pair is their shared codim-2 face, so the edge
    count equals cayley_count(n, 2).
    """
    if not 4 <= n <= 10:
        raise RangeError(f"facet graph supports 4 <= n <= 10, got {n}")
    diags = polygon_diagonals(n)
    edges = []
    for a in range(len(diags)):
        base = reference_polygon(n, (diags[a],))
        for b in range(a + 1, len(diags)):
            meet = superimpose(base, reference_polygon(n, (diags[b],)))
            if meet is not None:
                edges.append((diags[a], diags[b],
                              tuple(sorted(meet.diagonals))))
    return FacetGraph(n=n, vertices=tuple(diags), edges=tuple(edges))


def g_hat_strata(n):
    """Facet counts by free-part size.

    The free part of a diagonal is the side run away from the marked
    side n; size i occurs for n - i diagonals, 2 <= i <= n-2, and the
    sizes sum to n(n-3)/2.
    """
    if n < 4:
        raise RangeError(f"need n >= 4, got {n}")
    out = {}
    for i, j in polygon_diagonals(n):
        out[j - i] = out.get(j - i, 0) + 1
    return {size: out[size] for size in sorted(out)}
