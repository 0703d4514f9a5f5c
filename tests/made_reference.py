"""The dissections the program derives without checking them, checked.

`Dissection._made` trusts its caller: a dihedral image, a superposition,
a twist, a composition or a relabeling of checked dissections is made
without going through the constructor's checks.  `differences` passes
each such dissection through the public constructor, which must hand it
back unchanged, with its labels a tuple, its diagonals a frozenset and
every pair a tuple of two plain ints.  The generators below make them
over every input of a given size.

Run as a script, `python tests/made_reference.py SIDES N` checks
`compose_single` on every composite of at most SIDES sides and
`dihedral_canonical` on every dissection of the N-gon, and exits 1 on
any difference.
"""

import sys
from itertools import chain

from mosaic.errors import MosaicError
from mosaic.moduli import marked_twist, twist
from mosaic.operad import _all_dissections, _label_bijections, compose_single, relabel
from mosaic.polygon import (
    Dissection,
    dihedral_canonical,
    enumerate_diagonal_sets,
    polygon_diagonals,
    superimpose,
)


def differences(made):
    """What the public constructor finds wrong with each made dissection."""
    for diss in made:
        try:
            again = Dissection(diss.labels, diss.diagonals)
        except MosaicError as err:
            yield f"{diss!r} is rejected: {type(err).__name__}: {err}"
            continue
        if again != diss or type(diss.labels) is not tuple \
                or type(diss.diagonals) is not frozenset:
            yield f"{diss!r} is {again!r} once checked"
        elif any(type(d) is not tuple or len(d) != 2 or type(d[0]) is not int
                 or type(d[1]) is not int for d in diss.diagonals):
            yield f"{diss!r} holds a pair that is not a tuple of plain ints"


def dissections(n):
    """Every dissection of the n-gon under two labelings of 1..n."""
    labels = tuple(range(1, n + 1))
    for k in range(n - 2):
        for ds in enumerate_diagonal_sets(n, k):
            for lab in (labels, labels[2:] + labels[:2]):
                yield Dissection(lab, frozenset(ds))


def pooled(n):
    """`operad._all_dissections` of the n-gon."""
    yield from _all_dissections(n, 100)


def composed(max_operand, max_sides):
    """compose_single on every operand pair of at most max_operand sides
    each whose composite has at most max_sides, for every choice of sides."""
    for n1 in range(3, max_operand + 1):
        for n2 in range(3, min(max_operand, max_sides + 2 - n1) + 1):
            for g in _all_dissections(n1, 100):
                for h in _all_dissections(n2, 200):
                    for a in g.labels:
                        for b in h.labels:
                            yield compose_single(g, a, h, b)


def relabeled(n):
    """relabel of every dissection of the n-gon under the sweep's bijections."""
    for diss in _all_dissections(n, 100):
        for sigma in _label_bijections(diss.labels):
            yield relabel(diss, sigma)


def canonical(n):
    """dihedral_canonical of every dissection of the n-gon, two labelings."""
    return map(dihedral_canonical, dissections(n))


def twisted(n):
    """twist and marked_twist along every diagonal of every dissection."""
    for diss in dissections(n):
        for d in diss.diagonals:
            yield twist(diss, d)
            yield marked_twist(diss, d)


def superimposed(n):
    """superimpose on every pair of diagonals of the n-gon."""
    labels = tuple(range(1, n + 1))
    for d1 in polygon_diagonals(n):
        for d2 in polygon_diagonals(n):
            both = superimpose(Dissection(labels, {d1}), Dissection(labels, {d2}))
            if both is not None:
                yield both


if __name__ == "__main__":
    sides, n = map(int, sys.argv[1:3])
    made, bad = 0, []
    for diss in chain(composed(sides - 1, sides), canonical(n)):
        made += 1
        bad += differences([diss])
    print(f"compose_single up to {sides} sides and dihedral_canonical at n = {n}: "
          f"{made} made, {len(bad)} differ", *bad[:3], sep="\n  ")
    sys.exit(1 if bad else 0)
