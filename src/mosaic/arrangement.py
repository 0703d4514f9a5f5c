"""Intersections and chambers of the coordinate-equality arrangement.

The hyperplanes x_i = x_j for 1 <= i < j <= n-1 intersect along flats
that are exactly the set partitions of {1..n-1}: points on a flat agree
within each block.  Everything here is partition bookkeeping, no linear
algebra.  Chambers are modeled as linear orders of the coordinates,
counted by honest enumeration rather than the factorial that the count
must equal.
"""

from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import MosaicError, RangeError


@dataclass(frozen=True)
class Flat:
    """A partition of {1..m}; blocks are sorted tuples, sorted by head."""

    blocks: tuple

    def __post_init__(self):
        seen = set()
        for block in self.blocks:
            if not block:
                raise MosaicError("empty block in flat")
            if tuple(sorted(block)) != block:
                raise MosaicError(f"block {block!r} is not sorted")
            if seen & set(block):
                raise MosaicError(f"block {block!r} overlaps another block")
            seen.update(block)
        if seen != set(range(1, len(seen) + 1)):
            raise MosaicError(f"blocks do not cover 1..{len(seen)}: {self.blocks!r}")
        if tuple(sorted(self.blocks)) != self.blocks:
            raise MosaicError("blocks are not in canonical order")

    @property
    def ground_size(self):
        return sum(len(b) for b in self.blocks)

    @property
    def codim(self):
        return self.ground_size - len(self.blocks)

    def contains_hyperplane(self, pair):
        i, j = pair
        for block in self.blocks:
            if i in block:
                return j in block
        return False

    def nonsingleton_blocks(self):
        return tuple(b for b in self.blocks if len(b) > 1)

    def is_irreducible(self):
        """Exactly one merged block: the flat of a single coincidence."""
        return len(self.nonsingleton_blocks()) == 1


def _flat(blocks):
    return Flat(tuple(sorted(tuple(sorted(b)) for b in blocks)))


def hyperplanes(n):
    """All C(n-1, 2) coordinate-equality pairs."""
    if n < 4:
        raise RangeError(f"need n >= 4, got {n}")
    return tuple(combinations(range(1, n), 2))


def _partitions(items):
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for sub in _partitions(rest):
        yield ((head,),) + sub
        for t in range(len(sub)):
            yield sub[:t] + ((head,) + sub[t],) + sub[t + 1:]


def flats(n):
    """Every flat of the arrangement: all set partitions of {1..n-1}."""
    if not 4 <= n <= 9:
        raise RangeError(f"flat enumeration supports 4 <= n <= 9, got {n}")
    out = [_flat(blocks) for blocks in _partitions(tuple(range(1, n)))]
    out.sort(key=lambda f: (f.codim, f.blocks))
    return tuple(out)


def irreducible_cells(n, k):
    """Flats merging exactly one block of k+1 coordinates.

    These are the codim-k flats through C(k+1, 2) hyperplanes; there
    are C(n-1, k+1) of them.
    """
    if n < 4:
        raise RangeError(f"need n >= 4, got {n}")
    if not 1 <= k <= n - 3:
        raise RangeError(f"need 1 <= k <= {n - 3}, got {k}")
    out = []
    ground = range(1, n)
    for merged in combinations(ground, k + 1):
        rest = [(x,) for x in ground if x not in merged]
        out.append(_flat([merged] + rest))
    return tuple(out)


def chamber_counts(n):
    """(cones, projective chambers), counted over linear orders.

    A chamber of the arrangement is a strict ordering of the n-1
    coordinates; projectively an ordering and its reversal coincide, so
    the one counted is the one whose first coordinate is the smaller end.
    """
    if not 4 <= n <= 10:
        raise RangeError(f"chamber enumeration supports 4 <= n <= 10, got {n}")
    cones = projective = 0
    for order in permutations(range(1, n)):
        cones += 1
        projective += order[0] < order[-1]
    return cones, projective


def divisor_correspondence(n):
    """Irreducible flats paired with their merged label block.

    The block of an irreducible flat is the label subset whose divisor
    subcomplex factors as the product of two smaller complexes; counts
    match grade by grade.
    """
    if n < 4:
        raise RangeError(f"need n >= 4, got {n}")
    out = {}
    for k in range(1, n - 2):
        for flat in irreducible_cells(n, k):
            out[flat] = frozenset(flat.nonsingleton_blocks()[0])
    return out
