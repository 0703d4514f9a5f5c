"""Cell complexes of twist classes of labeled polygons.

A labeled dissection determines a cell; two dissections give the same
cell when a chain of twists and symmetries carries one to the other.  A
twist breaks the polygon along a diagonal, reflects one piece, and
reglues; the moves are `polygon`'s.  Two regimes are supported:

  projective   twists along any diagonal, together with the full
               dihedral relabeling group; tiles number (n-1)!/2.
  double-cover marked twists (always reflecting the piece away from the
               side labeled n) together with cyclic rotations only;
               tiles number (n-1)!.

A twist class is the dual tree of the dissection with the cyclic order
at each internal node taken up to reflection, except that in the double
cover the node holding side n keeps its orientation.  So the class's
members are the independent orientations of the nodes, 2^k of them once
normalized: up to one global reflection in the projective regime, with
the root fixed in the double cover.  Rooting the tree at side 1
(projective) or side n (double cover), as `polygon` nests the blocks the
diagonals cut off, the least member is the one in which every node that
may turn lists its first unit (child block or single side) starting with
a smaller label than its last.  `cell_class`, which needs no complex,
applies that rule node by node.  Which nodes turn fixes a least member,
so the flip tables a grade's `_Grade` makes give every least member of
its diagonal sets: one comparison a node moves a labeling from row to
row, and the last row reads off the least labels and their set.

`build_complex` enumerates every cell of one regime for one n, graded by
diagonal count (codimension).  Each grade grows from the one above: add
every compatible diagonal to every cell, then walk all results through
the grade's flip tables at once (`_least_codes`); the build drops a
grade's tables once it has grown.  A cell of codimension k lies on
exactly 2(k - codim_offset) distinct cells of codimension k-1
(codim_offset is 1 in a divisor subcomplex), each incidence of
multiplicity 2^(k-1), so a grade's incidence is one table with a sorted
row of parents per cell.

A cell is stored only as its code: its least member's labels read in
base n+1, times the number of diagonal sets of its grade, plus the index
of its set.  Each grade is one sorted int64 array of codes, and cells
are numbered in code order, grade by grade.  `ModuliComplex.decode`, the
one reader of codes, turns a grade's slice into label rows and set
indices at once: for `cells`, the covering map, the divisor check and the
`cli` exports.  `resolve` encodes a Cell and finds it by one search in
its grade's codes.  A lookup makes a `_Grade` the first time it needs
the grade, and the complex keeps it with its tables (`_lookup`):
`cell_for` walks them a row at a time for one dissection, then searches
as `resolve` does.  The queries read the codes and the parent tables as
arrays and make no Cell: divisors, surface recognition, and the
covering map and the divisor factorization check.  Those two walk their
cells through the kept grades' tables (`_row_indices`, with
`_least_codes`, one call a grade): the covering map a slice of a grade
at a time and the check a divisor's cells at once, and push each level's
parent rows through the map a slice at a time (`_check_map`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import combinations, permutations
from math import factorial, prod

import numpy as np

from .errors import (
    BadSubsetSize,
    CheckReport,
    InvariantViolation,
    MismatchedPolygons,
    MosaicError,
    NotASurface,
    RangeError,
    UnknownCell,
    UnknownLabel,
)
from .polygon import (
    Dissection,
    _block,
    _diagonal,
    _Node,
    _rooted_tree,
    _turned,
    cayley_count,
    enumerate_diagonal_sets,
    polygon_diagonals,
)
from .polygon import marked_twist, twist    # re-exported: callers look the twists up here too

PROJECTIVE = "projective"
DOUBLE_COVER = "double-cover"
_MODES = (PROJECTIVE, DOUBLE_COVER)

_BUILD_LIMIT = 8
_SLICE = 2048       # the fewest rows a slice through the flip tables holds (_slice_rows)


def _check_mode(mode):
    if mode not in _MODES:
        raise RangeError(f"mode must be one of {_MODES}, got {mode!r}")


# ---------------------------------------------------------------------------
# the least member of a twist class
#
# Turn the polygon (`_turned`) so the root side sits at position 0
# (label 1, projective) or n-1 (label n, double cover), and take the
# rooted dual tree from polygon's nested blocks (`_rooted_tree`).
# Turning a node reverses its units' order and keeps their content: one
# flip of its block, then one flip back of each child's (`_Node.turn`).


def _root(n, mode):
    return 0 if mode == PROJECTIVE else n - 1


def _tree(blocks, n, mode):
    # the nodes that may turn, children before parents: one per block
    # first, then the projective root; the double cover's root never
    # turns
    nodes = _rooted_tree(blocks, n, _root(n, mode))
    return nodes[:-1] if mode == DOUBLE_COVER else nodes


@dataclass(frozen=True)
class Cell:
    """A twist class of labeled dissections.

    labels/diagonals give the least member of the class in the regime's
    normal form; codim equals the diagonal count; size is the number of
    normalized dissections in the class, always 2^codim.
    """

    mode: str
    labels: tuple
    diagonals: tuple
    size: int = field(compare=False)
    index: int = field(default=None, compare=False)

    @property
    def codim(self):
        return len(self.diagonals)

    @property
    def representative(self):
        return Dissection(self.labels, frozenset(self.diagonals))


def cell_class(diss, mode):
    """The cell containing a dissection with labels 1..n.

    Projective regime: classes under all twists and the dihedral group.
    Double-cover regime: classes under marked twists and cyclic
    rotations.  The representative is the least normalized member,
    found by orienting each node of the rooted dual tree in turn.
    """
    _check_mode(mode)
    labels, diags = _least_member(diss, mode)
    return Cell(mode=mode, labels=labels, diagonals=diags, size=1 << len(diags))


def _least_member(diss, mode):
    # the labels and diagonals of cell_class's least member, as tuples
    n = diss.n
    labels = diss.labels
    if set(labels) != set(range(1, n + 1)):
        raise UnknownLabel(f"cell classes need labels 1..{n}, got {labels!r}")
    r = labels.index(1) if mode == PROJECTIVE else (labels.index(n) + 1) % n
    labels, diagonals = _turned(labels, diss.diagonals, r)
    blocks = [_block(d, n, _root(n, mode)) for d in diagonals]
    for node in _tree(blocks, n, mode):
        if labels[node.block[0]] > labels[node.last]:
            labels, blocks = node.turn(labels, blocks)
    return labels, tuple(sorted([_diagonal(blk, n) for blk in blocks]))


# ---------------------------------------------------------------------------
# the graded complex


class _Level:
    """Incidence between grade k and the grade above it.

    Row i of parents lists, in increasing order, the 2(k - codim_offset)
    distinct cells of grade k-1 on which cell start + i lies; each of
    these incidences has multiplicity 2^(k-1).  parents is int32, as
    every cell index fits below 2^31.  build_complex reads the rows off
    its one sort of the grade's (code, parent) keys: the parents of the
    pairs with equal codes, 2k in a run, which the sort leaves in
    increasing order.
    """

    __slots__ = ("start", "parents")

    def __init__(self, start, parents):
        self.start = start
        self.parents = parents

    @property
    def pc_codes(self):
        """Sorted (parent<<32 | child) codes, one per incidence pair."""
        child = np.arange(self.start, self.start + len(self.parents), dtype=np.int64)
        return np.sort((self.parents.astype(np.int64) << 32) | child[:, None], axis=None)


def _labelings(n, mode):
    # every label cycle in the regime's frame, in lexicographic order:
    # label 1 first (projective) or label n last (double cover)
    if mode == PROJECTIVE:
        return [(1,) + perm for perm in permutations(range(2, n + 1))]
    return [perm + (n,) for perm in permutations(range(1, n))]


class _Grade:
    """The diagonal sets of one grade and their flip tables.

    Each diagonal is numbered by its place in polygon_diagonals, so a
    diagonal set is also a bit mask.  The flip tables have a row
    t << m | p for set t, whose tree's m nodes, children first, have
    turned where the bits of p are set.  flips holds the tables ends,
    weights and turned, which _least_codes walks: ends[j] the two
    positions that node j compares then, its first unit's start and its
    last's; weights each position's weight in the code of the least
    member; and turned the index of the least member's diagonal set.
    order holds the positions in the order the least member reads their
    labels.  ends and order are int8, weights int64 and turned int32.

    cell_for reads the rest: first_row takes a set's bit mask to its
    first row, s << m; node j compares the labels at positions
    ends[a + row] and ends[b + row], for (1 << j, a, b) = steps[j], and
    turns where the first is the greater, which adds 1 << j to the row.
    flat holds ends, order and turned flattened, as memoryviews.

    weights repeats order for _least_codes, whose one einsum walks a
    2048-row slice of n = 8, grade 4 in 135 us, against 170 us through
    order (2-vCPU Xeon, numpy 2.4).  A walk takes slices of at least
    2048 rows, and at most 65 slices a grade (_slice_rows): the n = 8
    projective build walks 273 slices, the n = 8 double cover 312.
    """

    def __init__(self, n, mode, k):
        self.sets, block_id = enumerate_diagonal_sets(n, k), _blocks(n, mode)
        trees = [_tree([_block(d, n, _root(n, mode)) for d in ds], n, mode) for ds in self.sets]
        # the non-root nodes come first in a tree, one per diagonal
        self.ids = np.array([[block_id[node.block] for node in tree[:k]] for tree in trees],
                            dtype=np.int8).reshape(len(self.sets), k)
        self.masks = (np.int64(1) << self.ids).sum(axis=1)
        self._by_mask = np.argsort(self.masks)
        count, m = len(self.sets), len(trees[0])
        size = count << m
        # once p has turned in set t, order[t, p, x] is the position whose
        # label sits at x and ids[t, p] holds the numbers of the diagonals
        order = np.broadcast_to(np.arange(n, dtype=np.int8), (count, 1, n))
        ids, ends, t = self.ids[:, None], [], np.arange(count)[:, None, None]
        for j in range(m):
            nodes, p = [tree[j] for tree in trees], np.arange(1 << j)[:, None]
            at = np.array([(node.block[0], node.last) for node in nodes])[:, None]
            ends.append(np.tile(order[t, p, at].transpose(2, 0, 1), 1 << (m - j)))
            turn, move = map(np.array, zip(*[_turn(n, mode, node.block, tuple(node.children))
                                             for node in nodes]))
            order = np.concatenate([order, order[t, p, turn[:, None]]], axis=1)
            ids = np.concatenate([ids, move[t, ids]], axis=1)
        ends = np.array(ends, dtype=np.int8).reshape(m, 2, size)
        self.order = np.ascontiguousarray(order.reshape(size, n))
        # weights[row, order[row, x]] is the weight of the label read xth:
        # a cell's code is the base-(n+1) value of its labels times the
        # number of diagonal sets, plus the index of its set, so it sorts
        # as cells do
        weights = np.empty(self.order.shape, dtype=np.int64)
        place = (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
        weights[np.arange(size)[:, None], self.order] = place * count
        turned = self.set_index((np.int64(1) << ids.reshape(size, k)).sum(axis=1))
        self.flips = ends, weights, turned.astype(np.int32)
        self.first_row = {mask: s << m for s, mask in enumerate(self.masks.tolist())}
        self.steps = tuple((1 << j, 2 * j * size, (2 * j + 1) * size) for j in range(m))
        self.flat = tuple(memoryview(a.ravel()) for a in (ends, self.order, self.flips[2]))

    def set_index(self, masks):
        """The indices of the diagonal sets with these bit masks (any, for others)."""
        at = np.searchsorted(self.masks, masks, sorter=self._by_mask)
        return self._by_mask[at.clip(max=len(self.masks) - 1)]


@lru_cache(maxsize=None)
def _blocks(n, mode):
    # the number in polygon_diagonals of each block's diagonal, in that order
    return {_block(d, n, _root(n, mode)): t for t, d in enumerate(polygon_diagonals(n))}


@lru_cache(maxsize=4096)
def _turn(n, mode, block, children):
    # a node's turn (`_Node.turn`): the position each label comes from,
    # and the number each block of a tree holding the node moves to
    block_id = _blocks(n, mode)
    order, moved = _Node(block, list(children)).turn(tuple(range(n)), list(block_id))
    return order, np.array([block_id[blk] for blk in moved], dtype=np.int8)


def _slice_rows(count):
    """The rows in each slice of a walk of count rows.

    Three walks take these slices: a grade's growth through the flip
    tables (_grow), the cells of a cover grade (covering_map) and a
    level's parent rows (_check_map); _row_indices walks what it is
    handed.  2048 (_SLICE), or count >> 6 once that is more, so no walk
    takes more than 65 slices and numpy's per-call cost stays small
    against the work.  A growing slice's temporaries, about 150 bytes a
    row, stay under a third of the int64 keys of a grade that long.
    Every grade of n <= 7 has fewer than 64 * 2048 rows, so it walks
    2048 rows at a time.
    """
    return max(_SLICE, count >> 6)


def _least_codes(flips, labels, sets):
    """The codes of the least members of labelings: cell_class's node loop on arrays.

    labels holds the labelings and sets their set indices in the grade
    whose flip tables these are (_Grade.flips).  Node j turns where its
    first label is the greater, which moves the labeling to another row
    of the tables.
    """
    ends, weights, turned = flips
    flat, row = labels.ravel(), sets << len(ends)
    start = np.arange(0, flat.size, labels.shape[1])
    for j, (first, last) in enumerate(ends):
        row += (flat[start + first[row]] > flat[start + last[row]]) << j
    return np.einsum("ij,ij->i", labels, weights[row]) + turned[row]


@lru_cache(maxsize=None)
def _diagonal_bits(n):
    # row r, entries u * n + v and v * n + u: 1 << the number in
    # polygon_diagonals of the diagonal (u, v) of a polygon turned by r,
    # ((u - r) % n, (v - r) % n); a turned set's bit mask is a row's sum
    bits = [0] * (n * n)
    for t, (u, v) in enumerate(polygon_diagonals(n)):
        bits[u * n + v] = bits[v * n + u] = 1 << t
    return tuple(tuple(bits[(u - r) % n * n + (v - r) % n] for u in range(n) for v in range(n))
                 for r in range(n))


@lru_cache(maxsize=None)
def _digits(n, width):
    # row v: the width base-(n+1) digits of v, most significant first, as
    # int8; cached for every _unpack, so the one array is read-only
    digits = np.indices((n + 1,) * width, dtype=np.int8).reshape(width, -1).T.copy()
    digits.flags.writeable = False
    return digits


def _unpack(codes, n, set_count):
    """The int8 label rows and the int32 set indices of the cells with these codes.

    A code's label value splits, by one divmod, into its first n - n//2
    digits and its last n//2, and each half reads its digits from a table
    (_digits) with take, which costs less than fancy indexing on the one
    code of cells[i]; a chunk of 16K codes at a time.
    """
    labels, sets = np.divmod(codes, set_count)
    low = n // 2
    high_digits, low_digits = _digits(n, n - low), _digits(n, low)
    rows, step = np.empty((len(codes), n), dtype=np.int8), 1 << 14
    for lo in range(0, len(codes), step):
        high, rest = np.divmod(labels[lo:lo + step], (n + 1) ** low)
        rows[lo:lo + step, :n - low] = high_digits.take(high, axis=0)
        rows[lo:lo + step, n - low:] = low_digits.take(rest, axis=0)
    return rows, sets.astype(np.int32)


class _Cells(Sequence):
    """The cells of a complex by index, decoded a grade's slice of codes at a time."""

    def __init__(self, complex_, indices):
        self._complex, self._range = complex_, indices

    def __len__(self):
        return len(self._range)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Cells(self._complex, self._range[i])
        index = self._range[i]
        return next(iter(_Cells(self._complex, range(index, index + 1))))

    def __iter__(self):
        if self._range.step != 1:
            return map(self.__getitem__, range(len(self)))
        return (Cell(self._complex.mode, tuple(row), sets[s], 1 << k, index)
                for k, lo, labels, at, sets in self._complex.decode(self._range)
                for index, (row, s) in enumerate(zip(labels.tolist(), at.tolist()), lo))


class ModuliComplex:
    """All cells of one regime for one n, graded by codimension.

    codes maps each grade to the sorted codes of its cells, the only form
    in which a cell is stored; cells are numbered densely in code order,
    grade by grade, and decode reads them back.  The incidence
    between grades k-1 and k is held in levels[k].  A divisor subcomplex
    keeps the ambient codes of its cells, with codim_offset 1: its top
    cells sit at codimension 1 of the ambient complex.  A complex also
    keeps what its lookups make once: each grade with its flip tables
    (_lookup), the label splits of grade 1 that every divisor reads, and
    for the walks each grade's diagonal sets as one array (_cell_rows).
    """

    def __init__(self, n, mode, codes, levels, codim_offset=0, divisor_set=None):
        self.n = n
        self.mode = mode
        self.levels = dict(levels)
        self.codim_offset = codim_offset
        self.divisor_set = divisor_set
        self._codes = dict(sorted(codes.items()))
        # each grade's index range, and what reading or finding one of its
        # cells needs: the codes viewed as Python ints, the diagonal sets
        # and each set's index
        self.grade_range, self._grades, start = {}, {}, 0
        for k, grade in self._codes.items():
            sets = enumerate_diagonal_sets(n, k)
            self.grade_range[k] = (start, start + len(grade))
            self._grades[k] = (memoryview(grade), start, sets,
                               {ds: s for s, ds in enumerate(sets)})
            start += len(grade)
        self._label_set = frozenset(range(1, n + 1))
        self._tables, self._grade1_splits, self._set_ends = {}, None, {}

    def _index(self, k, labels, s):
        # the index of the cell of grade k with these least labels and set
        # index s, or None: its code, found by one search in the grade;
        # labels are within 1..n
        codes, start, sets, _ = self._grades[k]
        code, base = 0, self.n + 1
        for x in labels:
            code = code * base + x
        code = code * len(sets) + s
        at = bisect_left(codes, code)
        if at < len(codes) and codes[at] == code:
            return start + at
        return None

    def _find(self, cell):
        # the index of a Cell; labels outside 1..n would carry in its code
        labels, k, index = cell.labels, cell.codim, None
        if cell.mode == self.mode and len(labels) == self.n and self._label_set.issuperset(labels):
            grade = self._grades.get(k)
            s = grade and grade[3].get(cell.diagonals)
            index = None if s is None else self._index(k, labels, s)
        if index is None:
            raise UnknownCell(f"{cell!r} is not a cell of this complex")
        return index

    def _lookup(self, k):
        """Grade k's _Grade, made the first time a lookup needs it and kept."""
        if k not in self._tables:
            self._tables[k] = _Grade(self.n, self.mode, k)
        return self._tables[k]

    def decode(self, indices):
        """Cells of an index range (step 1), read from their codes a grade's slice at a time.

        Yields each slice's grade, first index, int8 label rows and int32
        indices into the grade's diagonal sets, and those sets.  A range
        of another step, or one holding an index outside the complex's
        cells, raises RangeError when the first slice is asked for; an
        empty range yields nothing.
        """
        if indices.step != 1:
            raise RangeError(f"decode needs a range of step 1, got {indices!r}")
        size = len(self.cells)
        if indices and (indices.start < 0 or indices.stop > size):
            raise RangeError(f"decode needs a range inside the {size} cells, got {indices!r}")
        for k, (start, end) in self.grade_range.items():
            a, b = max(start, indices.start), min(end, indices.stop)
            if a < b:
                sets = self._grades[k][2]
                yield k, a, *_unpack(self._codes[k][a - start:b - start], self.n, len(sets)), sets

    # -- shape ------------------------------------------------------------

    @property
    def cells(self):
        """Every cell by index, decoded from its code when read."""
        return _Cells(self, range(sum(map(len, self._codes.values()))))

    @property
    def max_codim(self):
        return max(self.grade_range)

    @property
    def dimension(self):
        return (self.n - 3) - self.codim_offset

    def is_full_depth(self):
        return self.max_codim == self.n - 3

    def cells_at(self, codim):
        if codim not in self.grade_range:
            raise RangeError(f"no grade {codim} in this complex")
        start, end = self.grade_range[codim]
        return self.cells[start:end]

    def tiles(self):
        """The top-dimensional cells."""
        return self.cells_at(self.codim_offset)

    def f_vector(self):
        """Cell counts by codimension, starting at codim_offset."""
        return tuple(map(len, self._codes.values()))

    def euler_characteristic(self):
        return sum((-1) ** (self.n - 3 - k) * len(c) for k, c in self._codes.items())

    # -- queries ----------------------------------------------------------

    def cell_for(self, diss):
        """The cell of this complex containing the given dissection.

        Its labels and diagonals are turned to the root frame, label 1
        first (projective) or label n last (double cover), which fixes the
        row of its diagonal set in the grade's flip tables (_lookup).
        Each node compares two labels and turns where the first is the
        greater, which moves to another row; that row reads off the least
        member's labels and names its diagonal set, whose code is then
        found in the grade.  A grade the complex lacks is walked the same
        way, so its UnknownCell names the least member too.
        """
        n, labels, k = self.n, diss.labels, len(diss.diagonals)
        if diss.n != n:
            raise UnknownCell(f"dissection has {diss.n} sides, complex has {n}")
        if not self._label_set.issuperset(labels):
            raise UnknownLabel(f"cell classes need labels 1..{n}, got {labels!r}")
        r = labels.index(1) if self.mode == PROJECTIVE else (labels.index(n) + 1) % n
        labels, bits = labels[r:] + labels[:r], _diagonal_bits(n)[r]
        grade = self._lookup(k)
        ends, order, turned = grade.flat
        row = grade.first_row[sum([bits[u * n + v] for u, v in diss.diagonals])]
        for bit, a, b in grade.steps:
            if labels[ends[a + row]] > labels[ends[b + row]]:
                row += bit
        least, s = tuple([labels[x] for x in order[row * n:row * n + n]]), turned[row]
        index = self._index(k, least, s) if k in self._grades else None
        # the grade's own tuple of the diagonals: a result adds one tuple,
        # its labels
        cell = Cell(self.mode, least, grade.sets[s], 1 << k, index)
        if index is None:
            raise UnknownCell(f"{cell!r} is not a cell of this complex")
        return cell

    def resolve(self, cell):
        """This complex's cell equal to a Cell, found by its code."""
        return self.cells[self._find(cell)]

    def coboundary_counts(self, cell):
        """For each t, the number of codim k-t cells whose closure holds `cell`.

        Computed by walking the incidence upward one grade at a time and
        counting distinct cells; t = 0 counts the cell itself.
        """
        frontier, k = [self._find(cell)], cell.codim
        out = {0: 1}
        for t in range(1, k - self.codim_offset + 1):
            level = self.levels[k - t + 1]
            frontier = set(level.parents[[f - level.start for f in frontier]].ravel().tolist())
            out[t] = len(frontier)
        return out


def _key_shift(k, n, sets, rows):
    """The low bits that a (code, parent) key of grade k gives its parent.

    A code of the grade is below (n+1)^n times its number of diagonal
    sets, and a parent below rows; InvariantViolation is raised unless
    both fit one int64 key, in at most 63 bits.
    """
    shift = rows.bit_length()
    bits = ((n + 1) ** n * sets - 1).bit_length() + shift
    if bits > 63:
        raise InvariantViolation(f"grade {k}: a (code, parent) key needs {bits} bits, "
                                 f"more than the 63 of an int64")
    return shift


def _grow(grade, prev, rows, sets):
    """Add each diagonal of the grade's sets to the cells of grade prev.

    rows and sets give those cells' labels and set indices in cell order.
    With no prev the rows' sets are the grade's own and none is added
    (grade 0: every labeling with the empty set).  Returns one int64 key
    per result, code << shift | parent: the code of its least member, from
    the grade's flip tables, and the row it grew from, in the low shift
    bits; and shift.  The results come in runs, one per set and each of
    its below-sets, the set's diagonals taken in turn: a run is the rows
    of one below-set, in cell order, grown into the one set.  Each slice
    of results finds the runs it covers by one search and repeats their
    offsets and sets, so no result needs a search of its own; the rows
    are put in set order by numpy's radix sort.
    """
    n = rows.shape[1]
    shift = _key_shift(grade.ids.shape[1], n, len(grade.sets), len(rows))
    # each set grows from the sets with one diagonal fewer
    below = np.arange(len(grade.sets))[:, None] if prev is None else prev.set_index(
        grade.masks[:, None] - (np.int64(1) << grade.ids))
    # a stable sort of keys of at most 16 bits is a radix sort; int16 holds
    # every set index, as no grade at n <= 9 has more than 1485 sets and
    # _key_shift stops any build past n = 9
    by_set = np.argsort(sets.astype(np.int16), kind="stable").astype(np.int32)
    bounds = np.searchsorted(sets, np.arange(below.max() + 2), sorter=by_set)
    # run r takes the rows of set below.flat[r] into set target[r]
    sizes = np.diff(bounds)[below.ravel()]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    offset = bounds[below.ravel()] - starts      # result i of run r: by_set[offset[r] + i]
    target = np.arange(len(sizes)) // below.shape[1]
    keys = np.empty(ends[-1], dtype=np.int64)
    width = _slice_rows(len(keys))
    for lo in range(0, len(keys), width):
        hi = min(lo + width, len(keys))
        r0, r1 = np.searchsorted(ends, (lo, hi - 1), side="right")
        counts = np.minimum(ends[r0:r1 + 1], hi) - np.maximum(starts[r0:r1 + 1], lo)
        parent = by_set[np.repeat(offset[r0:r1 + 1], counts) + np.arange(lo, hi)]
        code = _least_codes(grade.flips, rows[parent], np.repeat(target[r0:r1 + 1], counts))
        keys[lo:hi] = code << shift | parent
    return keys, shift


def _parent_table(k, start, firsts, parents):
    """The parents of each cell of grade k as one increasing row of 2k per cell.

    parents holds the parent of each (parent, added diagonal) pair, the
    pairs in the order of their sorted keys, so by code and then by
    parent, and firsts the place of each cell's first pair.
    InvariantViolation is raised unless every cell, counted from start,
    is reached by 2k pairs with distinct parents; as each row is sorted,
    a repeat sits next to its twin.
    """
    hits = np.diff(firsts, append=len(parents))
    bad = np.flatnonzero(hits != 2 * k)
    if len(bad):
        raise InvariantViolation(
            f"grade {k}: cell {start + bad[0]} is reached by "
            f"{hits[bad[0]]} (parent, diagonal) pairs, not {2 * k}")
    table = parents.reshape(-1, 2 * k)
    repeats = table[:, 1:] == table[:, :-1]
    bad = np.flatnonzero(repeats.any(axis=1))
    if len(bad):
        row = table[bad[0]]
        raise InvariantViolation(
            f"grade {k}: cell {start + bad[0]} is reached more than once "
            f"from cell {row[1:][repeats[bad[0]]][0]}")
    return table


def build_complex(n, mode=PROJECTIVE, max_codim=None):
    """Enumerate the full cell complex for one n.

    Each grade grows from the one above: grade 0 from every labeling,
    grade k by adding each compatible diagonal to each cell of grade
    k-1, whose rows _grow takes in whole runs of one set's cells; the
    last grade is not decoded, as nothing grows from it.  Each
    (parent, diagonal) pair gives one int64 key: the code of
    its result's least member, shifted up, with its parent's index in
    the low bits.  One in-place sort of the keys then gives the whole
    grade: the first code of each run of equal codes is a cell, so the
    cells come out sorted, and they are all the complex stores of the
    grade; a run's length is the number of pairs reaching its cell; and
    the parents in sorted order, 2k to a run and each row increasing,
    are the grade's int32 parent table.  Each incidence has
    multiplicity 2^(k-1).  InvariantViolation is raised unless a key
    fits 63 bits, a grade holds as many cells as closed_form_f_vector
    says and, checked next, each cell below the tiles is reached by 2k
    pairs, two per diagonal, from 2k distinct parents.  max_codim
    truncates the build below that grade.

    n = 3 is allowed and yields the one-point complex; it turns up as a
    factor of divisor subcomplexes.
    """
    _check_mode(mode)
    if not 3 <= n <= _BUILD_LIMIT:
        raise RangeError(f"full enumeration supports 3 <= n <= {_BUILD_LIMIT}, got {n}")
    top = n - 3
    if max_codim is not None:
        if max_codim < 0:
            raise RangeError(f"max_codim must be >= 0, got {max_codim}")
        top = min(max_codim, top)
    expected = closed_form_f_vector(n, mode)

    codes, levels, start = {}, {}, 0
    rows = np.array(_labelings(n, mode), dtype=np.int8)
    sets, prev = np.zeros(len(rows), dtype=np.int32), None
    for k in range(top + 1):
        grade = _Grade(n, mode, k)
        keys, shift = _grow(grade, prev, rows, sets)
        grade.flips = grade.order = grade.flat = None      # prev lives on while the next grows
        del rows, sets
        # one sort gives the cells, the first code of each run of equal
        # codes; the runs' lengths; and, in the same order, their parents,
        # increasing within each run
        keys.sort()
        parents = np.empty(len(keys), dtype=np.int32)
        np.bitwise_and(keys, (1 << shift) - 1, out=parents, casting="unsafe")
        keys >>= shift
        first = np.r_[True, keys[1:] != keys[:-1]]
        codes[k] = keys[first]
        del keys
        if len(codes[k]) != expected[k]:
            raise InvariantViolation(
                f"grade {k}: {len(codes[k])} cells, the closed form has {expected[k]}")
        if k:
            above, start = start, start + len(codes[k - 1])
            parents += above
            levels[k] = _Level(start, _parent_table(k, start, np.flatnonzero(first), parents))
        del parents, first                 # not held while the next grade grows
        if k < top:                        # nothing grows from the last grade
            (rows, sets), prev = _unpack(codes[k], n, len(grade.sets)), grade

    return ModuliComplex(n=n, mode=mode, codes=codes, levels=levels)


def _row_indices(target, rows, counts, ends, first=0):
    """The indices of the cells of a projective complex holding dissections.

    rows holds each dissection's labels on target.n sides, counts its
    number of diagonals and ends its diagonals, row after row.  Each row
    is turned so label 1 comes first, with its diagonals turned along and
    numbered into a bit mask by cell_for's table (_diagonal_bits).  The
    rows of each grade walk, in one _least_codes call, the flip tables of
    the grade the target keeps (ModuliComplex._lookup) from their own
    sets, and their least members' codes are found among the target's by
    one searchsorted per grade.  Callers bound the rows they hand over:
    one slice of a cover grade, or one divisor (n = 8: at most 12,645).
    UnknownCell names the first row that lies in no cell of the target,
    counting from first: the number of rows[0] in a longer walk.
    """
    n, bits = target.n, np.array(_diagonal_bits(target.n))
    r = np.argmax(rows == 1, axis=1).astype(np.int8)
    # row i turned is window r[i] of row i written out twice
    windows = np.lib.stride_tricks.sliding_window_view(np.hstack([rows, rows]), n, axis=1)
    turned = windows[np.arange(len(rows)), r]
    owner = np.repeat(np.arange(len(rows), dtype=np.int32), counts)
    masks = np.zeros(len(rows), dtype=np.int64)
    np.bitwise_or.at(masks, owner, bits[r[owner], ends[:, 0] * n + ends[:, 1]])
    found = np.full(len(rows), -1, dtype=np.int64)
    for k, (start, end) in target.grade_range.items():
        mine = np.flatnonzero(counts == k)
        if not len(mine):
            continue
        grade, own = target._lookup(k), target._codes[k]
        sets = grade.set_index(masks[mine])
        codes = _least_codes(grade.flips, turned[mine], sets)
        at = np.searchsorted(own, codes).clip(max=end - start - 1)
        # set_index finds a set for any mask; the hit needs its own
        hit = (own[at] == codes) & (grade.masks[sets] == masks[mine])
        found[mine[hit]] = start + at[hit]
    bad = np.flatnonzero(found < 0)
    if len(bad):
        i, lo = bad[0], counts[:bad[0]].sum()
        diagonals = tuple(map(tuple, ends[lo:lo + counts[i]].tolist()))
        raise UnknownCell(f"row {first + i}: {tuple(rows[i].tolist())!r} with diagonals "
                          f"{diagonals!r} lies in no cell of this complex")
    return found


def _parent_rows(complex_, k, cells):
    # the parent-table rows of these cells of grade k; a tile has none
    if k == complex_.codim_offset:
        return np.zeros((len(cells), 0), dtype=np.int64)
    return complex_.levels[k].parents[cells - complex_.levels[k].start]


def _check_map(source, image, target_rows, fiber, size, name):
    """The failures of the map sending source cell i to target cell image[i].

    Each of the size target cells, called name cells, must have fiber
    cells over it, and each source cell's parent row, mapped and sorted,
    must equal its image's row: target_rows(k, cells) for images of grade
    k.  A level's rows go through the map a slice at a time (_slice_rows)
    and each slice is sorted in place, so no copy of a whole level is
    made.  Hand the image over writeable: np.bincount copies a read-only
    one.
    """
    fibers = np.bincount(image, minlength=size)
    failures = [f"fiber over {name} cell {index} has {fibers[index]} cells"
                for index in np.flatnonzero(fibers != fiber).tolist()]
    for k, level in sorted(source.levels.items()):
        width = _slice_rows(len(level.parents))
        for lo in range(0, len(level.parents), width):
            pushed = image[level.parents[lo:lo + width]]
            pushed.sort(axis=1)
            first = level.start + lo
            targets = image[first:first + len(pushed)]
            want = target_rows(k, targets)
            for row in np.flatnonzero((pushed != want).any(axis=1)).tolist():
                failures.append(
                    f"grade {k}: the parents of cell {first + row} map to "
                    f"{pushed[row].tolist()}, the parents of its image {targets[row]} "
                    f"are {want[row].tolist()}")
    return failures


# ---------------------------------------------------------------------------
# counting in closed form


def tile_count(n, mode=PROJECTIVE):
    _check_mode(mode)
    if n < 3:
        raise RangeError(f"need n >= 3, got {n}")
    half = factorial(n - 1)
    return half if mode == DOUBLE_COVER else half // 2


def closed_form_f_vector(n, mode=PROJECTIVE):
    """Cell counts by codimension without enumeration.

    Classes carry 2^k dissections each, so codim k holds
    tiles * cayley_count(n, k) / 2^k cells, an exact division.
    """
    tiles = tile_count(n, mode)
    return tuple(tiles * cayley_count(n, k) // 2**k for k in range(n - 2))


def euler_closed_form(n):
    """Euler characteristic of the projective complex, in closed form.

    Zero for even n; for odd n the value is
    (-1)^((n-3)/2) * (n-2) * ((n-4)!!)^2.
    """
    if n < 4:
        raise RangeError(f"need n >= 4, got {n}")
    if n % 2 == 0:
        return 0
    sign = -1 if ((n - 3) // 2) % 2 else 1
    return sign * (n - 2) * prod(range(n - 4, 0, -2)) ** 2


def euler_proof_sum(n):
    """The same Euler characteristic as an unsimplified alternating sum.

    Codim k carries closed_form_f_vector(n)[k] cells of dimension
    n-3-k; summing signs over grades gives the characteristic without
    invoking the closed form.
    """
    if n < 4:
        raise RangeError(f"need n >= 4, got {n}")
    return sum((-1) ** (n - 3 - k) * cells for k, cells in enumerate(closed_form_f_vector(n)))


# ---------------------------------------------------------------------------
# divisor subcomplexes


def _cell_rows(complex_, indices):
    """The cells of a range of indices as label rows, diagonal counts and diagonals."""
    slices, ends = [], complex_._set_ends
    for k, _, labels, s, sets in complex_.decode(indices):
        if k not in ends:       # a grade's sets as one array, made once
            ends[k] = np.array(sets, dtype=np.int8).reshape(len(sets), k, 2)
        slices.append((labels, np.full(len(labels), k), ends[k][s].reshape(-1, 2)))
    return tuple(map(np.concatenate, zip(*slices)))


def _splits(rows, counts, ends):
    # each diagonal's row, and the bit mask of the labels on positions
    # i..j-1 of its row: a difference of prefix sums of 1 << label
    prefix = np.zeros((len(rows), rows.shape[1] + 1), dtype=np.int64)
    prefix[:, 1:] = np.cumsum(np.int64(1) << rows, axis=1)
    row = np.repeat(np.arange(len(rows)), counts)
    return row, prefix[row, ends[:, 1]] - prefix[row, ends[:, 0]]


def normalize_divisor_subset(n, subset):
    """The label set of a divisor of the n-gon complex, normalized to omit n.

    A diagonal separates S exactly when it separates the complement, so
    a set holding n is replaced by its complement.  Needs labels within
    1..n and 2 <= |S| <= n-2.
    """
    S = frozenset(subset)
    if not S <= set(range(1, n + 1)):
        raise UnknownLabel(f"subset {sorted(S)!r} is not within 1..{n}")
    if not 2 <= len(S) <= n - 2:
        raise BadSubsetSize(f"need 2 <= |S| <= {n - 2}, got {sorted(S)}")
    return frozenset(range(1, n + 1)) - S if n in S else S


def divisor_subcomplex(complex_, subset):
    """Cells having a diagonal that splits off exactly the given labels.

    The subset is normalized by normalize_divisor_subset.  The result is
    a ModuliComplex with codim_offset 1 whose top cells are the codim-1
    cells of the ambient complex carrying the split; a lower cell belongs
    to it when a parent in its parent-table row does.  It needs grade 1
    built.
    """
    if complex_.mode != PROJECTIVE:
        raise MosaicError("divisor subcomplexes live in the projective complex")
    if complex_.codim_offset != 0:
        raise MosaicError("cannot take a divisor of a divisor")
    if 1 not in complex_.grade_range:
        raise RangeError("a divisor needs grade 1 of the ambient complex, "
                         "which this complex is not built to")
    n = complex_.n
    S = normalize_divisor_subset(n, subset)

    # a grade-1 cell carries the split when the labels on one side of its
    # one diagonal are S or its complement
    start, end = complex_.grade_range[1]
    if complex_._grade1_splits is None:         # decoded once, for every divisor
        complex_._grade1_splits = _splits(*_cell_rows(complex_, range(start, end)))[1]
    split = complex_._grade1_splits
    mask = sum(1 << x for x in S)
    inside = np.zeros(len(complex_.cells), dtype=bool)
    inside[start:end] = (split == mask) | (split == (1 << n + 1) - 2 - mask)
    # twists keep every diagonal's label split and deleting a diagonal
    # keeps the others, so above grade 1 a cell is in the divisor exactly
    # when one of its parents is
    for k in range(2, complex_.max_codim + 1):
        level = complex_.levels[k]
        inside[level.start:level.start + len(level.parents)] = \
            inside[level.parents].any(axis=1)
    selected = np.flatnonzero(inside)
    new_id = np.full(len(complex_.cells), -1, dtype=np.int32)
    new_id[selected] = np.arange(len(selected))

    codes, levels = {}, {}
    for k in range(1, complex_.max_codim + 1):
        start, end = complex_.grade_range[k]
        lo, hi = np.searchsorted(selected, (start, end)).tolist()
        codes[k] = complex_._codes[k][selected[lo:hi] - start]
        if k >= 2:
            level = complex_.levels[k]
            # renumbering keeps each row sorted; the parents outside the
            # divisor drop out and 2(k-1) stay
            rows = new_id[level.parents[selected[lo:hi] - level.start]]
            keep = rows >= 0
            width = keep.sum(axis=1)
            bad = np.flatnonzero(width != 2 * (k - 1))
            if len(bad):
                raise InvariantViolation(
                    f"grade {k}: divisor cell {lo + bad[0]} lies on {width[bad[0]]} "
                    f"divisor cells of grade {k - 1}, not {2 * (k - 1)}")
            levels[k] = _Level(lo, rows[keep].reshape(hi - lo, 2 * (k - 1)))
    return ModuliComplex(n=n, mode=PROJECTIVE, codes=codes, levels=levels,
                         codim_offset=1, divisor_set=S)


def _halves(sub):
    """Both halves of every cell of a divisor, as _row_indices takes them.

    The diagonal of a cell that cuts off S splits its polygon in two: the
    S half, the sides on the arc of positions holding S relabeled 1..|S|
    in order and the cut closing it as side |S|+1, and the complement
    half likewise.  Each half keeps the diagonals inside its arc.
    InvariantViolation is raised unless every cell has one such diagonal.
    """
    n, S = sub.n, sub.divisor_set
    rows, counts, ends = _cell_rows(sub, range(len(sub.cells)))
    row, split = _splits(rows, counts, ends)
    mask = sum(1 << x for x in S)
    cut = (split == mask) | (split == (1 << n + 1) - 2 - mask)
    hits = np.bincount(row[cut], minlength=len(rows))
    bad = np.flatnonzero(hits != 1)
    if len(bad):
        raise InvariantViolation(f"divisor cell {bad[0]}: {hits[bad[0]]} of its "
                                 f"diagonals cut off {sorted(S)}, not 1")
    i, j = ends[cut].T.astype(np.int64)
    first = split[cut] == mask              # S sits on positions i..j-1
    halves = []
    for side, x in ((sorted(S), np.where(first, i, j)),
                    (sorted(set(range(1, n + 1)) - S), np.where(first, j, i))):
        span, label = len(side), np.zeros(n + 1, dtype=np.int8)
        label[side] = np.arange(1, span + 1)
        arc = (x[:, None] + np.arange(span)) % n
        moved = (ends - x[row, None]) % n
        inner = (moved <= span).all(axis=1) & ~cut
        halves.append((np.hstack([label[np.take_along_axis(rows, arc, axis=1)],
                                  np.full((len(rows), 1), span + 1, dtype=np.int8)]),
                       np.bincount(row[inner], minlength=len(rows)), moved[inner]))
    return halves


@dataclass
class DivisorReport(CheckReport):
    """Outcome of checking one divisor against its product model."""

    n: int
    subset: frozenset
    factor_sizes: tuple
    sub_f_vector: tuple = ()
    cells_checked: int = 0
    incidences_checked: int = 0

    def __str__(self):
        m1, m2 = self.factor_sizes
        return (f"divisor {sorted(self.subset)} of n={self.n}: "
                f"{self.cells_checked} cells vs {m1}-gon x {m2}-gon product, "
                f"{self.incidences_checked} incidences: {self.verdict}")


def verify_divisor_factorization(complex_, subset, factors=None):
    """Check a divisor subcomplex against the product of two smaller complexes.

    Splitting every cell along its separating diagonal and relabeling
    each half must give a bijection onto pairs of cells of the
    (|S|+1)-gon and (n-|S|+1)-gon complexes, shifting grades by one and
    matching the incidence relation.  The halves are cut from the cells'
    codes (_halves) and looked up in each factor all at once by
    _row_indices; each cell's parent row must map onto the product row
    of its image (s, t): s's parents beside t and s beside t's (_check_map).
    Given factors must be the full projective complexes of those sizes,
    or MismatchedPolygons names the one that is not.
    """
    if not complex_.is_full_depth():
        raise MosaicError("divisor factorization needs a fully built complex")
    sub = divisor_subcomplex(complex_, subset)
    S = sub.divisor_set
    n = complex_.n
    m1, m2 = len(S) + 1, n - len(S) + 1
    if factors is None:
        factors = (build_complex(m1, PROJECTIVE), build_complex(m2, PROJECTIVE))
    factor_s, factor_c = factors
    if (factor_s.n, factor_c.n) != (m1, m2):
        raise MismatchedPolygons(
            f"factors of the divisor {sorted(S)} of n={n} must be the {m1}-gon and "
            f"{m2}-gon complexes, got {factor_s.n} and {factor_c.n}")
    for which, f in zip(("first", "second"), factors):
        wrong = [f"mode {f.mode}"] * (f.mode != PROJECTIVE) \
            + [f"codim_offset {f.codim_offset}"] * (f.codim_offset != 0) \
            + [f"grades only up to codim {f.max_codim} of {f.n - 3}"] * (not f.is_full_depth())
        if wrong:
            raise MismatchedPolygons(f"the {which} factor of the divisor {sorted(S)} must be "
                                     f"a full projective complex; it has {', '.join(wrong)}")

    report = DivisorReport(n=n, subset=S, factor_sizes=(m1, m2),
                           sub_f_vector=sub.f_vector())

    halves = _halves(sub)
    found_s, found_c = (_row_indices(factor, *half) for factor, half in zip(factors, halves))
    codim = np.repeat(list(sub.grade_range), sub.f_vector())
    codim_s, codim_c = halves[0][1], halves[1][1]
    for i in np.flatnonzero(codim != codim_s + codim_c + 1).tolist():
        report.failures.append(
            f"cell {i}: codim {codim[i]} vs factors {codim_s[i]}+{codim_c[i]}+1")
    # a product cell (s, t) is numbered s * size_c + t
    size_c, image = len(factor_c.cells), found_s * len(factor_c.cells) + found_c
    report.cells_checked = len(image)
    if report.failures:
        return report
    report.incidences_checked = sum(level.parents.size for level in sub.levels.values())

    def product_rows(k, cells):
        # the rows of the cells (s, t), gathered for each codim a of s
        s, t = np.divmod(cells, size_c)
        codim_of_s = np.searchsorted(np.cumsum(factor_s.f_vector()), s, side="right")
        rows = np.empty((len(cells), 2 * (k - 1)), dtype=np.int64)
        for a in np.unique(codim_of_s).tolist():
            mine = codim_of_s == a
            rows[mine] = np.sort(np.hstack([
                _parent_rows(factor_s, a, s[mine]) * size_c + t[mine, None],
                s[mine, None] * size_c + _parent_rows(factor_c, k - 1 - a, t[mine])]), axis=1)
        return rows

    report.failures += _check_map(sub, image, product_rows, 1,
                                  len(factor_s.cells) * size_c, "product")
    return report


def divisor_label_classes(n):
    """All label subsets giving distinct divisors, normalized to omit n.

    Those are the subsets of 1..n-1 with 2 <= |S| <= n-2, by size and
    then in lexicographic order.
    """
    return [frozenset(c) for r in range(2, n - 1) for c in combinations(range(1, n), r)]


# ---------------------------------------------------------------------------
# the double cover mapping onto the projective complex


@dataclass
class CoveringReport(CheckReport):
    """Outcome of checking the 2-to-1 cell map double cover -> projective.

    mapping is the read-only int64 array of each cover cell's image.
    """

    n: int
    mapping: np.ndarray

    def __str__(self):
        return f"double cover of n={self.n}: {len(self.mapping)} cells map 2-to-1: {self.verdict}"


def covering_map(cover, projective):
    """Map each double-cover cell to its projective cell and verify.

    A cell's image is the projective least member of the labels and
    diagonals read from its code: the map forgets the orientation of the
    root node.  Each grade's cells are decoded and found by _row_indices
    a slice at a time (_slice_rows, at most 65 slices a grade) and
    written into one int64 image, so the walk holds one slice's arrays
    beside the image, and the check the fiber counts: the traced peak at
    n = 8 is 6.45 MiB, 1.6 times the 3.97 MiB image, and at n = 9 the
    map adds its 96 MiB image to the 713 MiB of the two complexes.
    Every fiber must have
    exactly two cells, and the parent-table row of each cell must map
    onto the row of its image (_check_map); the incidences on both sides
    have multiplicity 2^(k-1).
    """
    if cover.mode != DOUBLE_COVER or projective.mode != PROJECTIVE:
        raise MosaicError("need a double-cover complex and a projective complex")
    if cover.n != projective.n:
        raise MosaicError(f"sizes differ: {cover.n} vs {projective.n}")
    if not (cover.is_full_depth() and projective.is_full_depth()):
        raise MosaicError("covering check needs fully built complexes")
    image = np.empty(len(cover.cells), dtype=np.int64)
    for start, end in cover.grade_range.values():
        width = _slice_rows(end - start)
        for lo in range(start, end, width):
            hi = min(lo + width, end)
            image[lo:hi] = _row_indices(projective, *_cell_rows(cover, range(lo, hi)), lo)
    failures = _check_map(cover, image, partial(_parent_rows, projective), 2,
                          len(projective.cells), "projective")
    image.flags.writeable = False
    return CoveringReport(n=cover.n, mapping=image, failures=failures)


# ---------------------------------------------------------------------------
# surface recognition for the 2-dimensional complexes


@dataclass(frozen=True)
class SurfaceReport:
    """Classification of a closed 2-dimensional complex."""

    euler: int
    orientable: bool
    identified_surface: str
    tiles: int
    edges: int
    vertices: int


def _flags(complex_):
    """The flags of a 2-dimensional complex, read off its parent tables.

    A flag is a (tile, edge, vertex) row: the edge sits in the vertex's
    row and the tile in the edge's.  Flag 4e + 2i + j is edge e at its
    vertex i on its tile j, so a flag's mate across its edge is f ^ 1 and
    its mate at the other vertex of its tile and edge f ^ 2.  Returns the
    rows and each flag's mate at the other edge of its tile and vertex.
    NotASurface names the edge that does not have two vertices, or the
    tile with a vertex that does not meet two of its edges.
    """
    offset = complex_.codim_offset
    edges, vertices = complex_.levels[offset + 1], complex_.levels[offset + 2]
    held = vertices.parents.ravel() - edges.start
    count = np.bincount(held, minlength=len(edges.parents))
    bad = np.flatnonzero(count != 2)
    if len(bad):
        raise NotASurface(f"edge cell {edges.start + bad[0]} has {count[bad[0]]} "
                          f"endpoint vertices, not 2")
    # entry i of the flattened vertex rows belongs to vertex row i // width
    ends = np.argsort(held, kind="stable") // vertices.parents.shape[1] + vertices.start
    tile = np.tile(edges.parents, 2).ravel()
    vertex = np.repeat(ends, 2)
    # the flags of a tile and vertex pair off, one on each edge
    corners, meets = np.unique(np.stack([tile, vertex], axis=1), axis=0, return_counts=True)
    bad = np.flatnonzero(meets != 2)
    if len(bad):
        (t, v), meet = corners[bad[0]], meets[bad[0]]
        raise NotASurface(f"tile {t}: vertex cell {v} meets {meet} of its edges, not 2")
    by_corner = np.lexsort((vertex, tile))
    other_edge = np.empty_like(by_corner)
    other_edge[by_corner] = by_corner.reshape(-1, 2)[:, ::-1].ravel()
    return np.stack([tile, np.arange(len(tile)) // 4 + edges.start, vertex], axis=1), other_edge


def _flag_components(mates):
    """The least flag of each component under the mates, and whether they 2-colour.

    One pass hands each flag's mates the other colour; the colouring is
    consistent when no flag is handed both colours.
    """
    mates = [mate.tolist() for mate in mates]
    colour, roots, consistent = [-1] * len(mates[0]), [], True
    for root in range(len(colour)):
        if colour[root] < 0:
            roots.append(root)
            stack = [(root, 0)]
            while stack:
                f, c = stack.pop()
                if colour[f] < 0:
                    colour[f] = c
                    stack += [(mate[f], 1 - c) for mate in mates]
                elif colour[f] != c:
                    consistent = False
    return roots, consistent


def classify_surface(complex_):
    """Identify a closed surface from its tiling.

    Requires a 2-dimensional complex built to full depth.  The flags read
    off its parent tables (_flags) must form one cycle per tile under the
    two mates that keep the tile, and one component under all three; the
    surface is orientable exactly when they 2-colour the flags, every
    mate taking the other colour.  The name follows from the Euler
    characteristic.
    """
    if complex_.dimension != 2:
        raise NotASurface(f"complex has dimension {complex_.dimension}, need 2")
    if complex_.max_codim - complex_.codim_offset != 2:
        raise NotASurface("complex is not built to full depth")
    n_tiles, n_edges, n_vertices = complex_.f_vector()
    euler = n_tiles - n_edges + n_vertices

    flags, other_edge = _flags(complex_)
    every = np.arange(len(flags))
    # cells are numbered from the tiles on, so a tile's index is its rank
    starts, _ = _flag_components((every ^ 2, other_edge))
    bad = np.flatnonzero(np.bincount(flags[starts, 0], minlength=n_tiles) != 1)
    if len(bad):
        raise NotASurface(f"tile {bad[0]}: boundary is not a single cycle")
    roots, orientable = _flag_components((every ^ 1, every ^ 2, other_edge))
    if len(roots) > 1:
        raise NotASurface("complex is not connected")

    if orientable:
        if euler % 2:
            raise InvariantViolation(f"orientable surface with odd Euler "
                                     f"characteristic {euler}")
        genus = (2 - euler) // 2
        if genus == 0:
            name = "S_0 (sphere)"
        elif genus == 1:
            name = "S_1 (torus)"
        else:
            name = f"S_{genus} (orientable, genus {genus})"
    else:
        crosscaps = 2 - euler
        name = f"N_{crosscaps} (connected sum of {crosscaps} projective planes)"
    return SurfaceReport(euler=euler, orientable=orientable,
                         identified_surface=name, tiles=n_tiles,
                         edges=n_edges, vertices=n_vertices)
