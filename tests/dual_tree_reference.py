"""Region cutting: the reference for dual trees.

The regions of a dissection are found by cutting the vertex cycle along
one diagonal at a time, and each diagonal's and side's regions are read
off the cut cycles.  This was `dual_tree`'s own algorithm before it read
the tree off the nested blocks of `polygon._rooted_tree`, so the tests
compare the two.  Run as a script, it compares them at the n given on
the command line.
"""

import sys

from mosaic.errors import InvariantViolation
from mosaic.polygon import Dissection, DualTree, dual_tree, enumerate_diagonal_sets


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


def reference_dual_tree(diss):
    """The dual tree of a dissection, by cutting its vertex cycle."""
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


def _rotations(cycle):
    return {cycle[t:] + cycle[:t] for t in range(len(cycle))}


def compare_with_reference(n):
    """Compare dual_tree with the reference on every dissection of the n-gon.

    Each dissection is taken under two labelings.  The regions must come
    in the same order and agree up to rotation, the edges and leaves
    must be identical, and the leaf cycle must read the labels back.
    Returns the number of trees compared.
    """
    labels = tuple(range(1, n + 1))
    compared = 0
    for k in range(n - 2):
        for ds in enumerate_diagonal_sets(n, k):
            for lab in (labels, labels[2:] + labels[:2]):
                diss = Dissection(lab, frozenset(ds))
                tree, ref = dual_tree(diss), reference_dual_tree(diss)
                assert len(tree.regions) == len(ref.regions), diss
                for cycle, expected in zip(tree.regions, ref.regions):
                    assert cycle in _rotations(expected), (diss, tree.regions, ref.regions)
                assert (tree.edges, tree.leaves, tree.n) == (ref.edges, ref.leaves, ref.n), diss
                assert tree.leaf_cycle() == lab, diss
                compared += 1
    return compared


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        print(f"n = {arg}: {compare_with_reference(int(arg))} dual trees match the reference")
