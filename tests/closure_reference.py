"""Twist closure: the brute-force reference for twist classes.

A class is found by twisting a normalized dissection along every
diagonal until nothing new appears, and its representative is the least
member.  This is slow (every member is twisted along every diagonal) but
follows the definition directly, so the tests compare `cell_class` and
`build_complex` against it.
"""

from collections import Counter
from itertools import permutations

from mosaic.moduli import PROJECTIVE, Cell
from mosaic.polygon import enumerate_diagonal_sets


def _twist_window(labels, diags, i, j):
    new_labels = labels[:i] + labels[i:j][::-1] + labels[j:]
    out = []
    for u, v in diags:
        if i <= u and v <= j:
            u, v = i + j - v, i + j - u
        out.append((u, v))
    out.sort()
    return new_labels, tuple(out)


def _move(diags, vertex, n):
    out = []
    for u, v in diags:
        a, b = vertex(u) % n, vertex(v) % n
        out.append((a, b) if a < b else (b, a))
    out.sort()
    return tuple(out)


def dihedral_least(labels, diags, n):
    """The least of the two dihedral images that put label 1 first."""
    r = labels.index(1)
    rotated = labels[r:] + labels[:r]
    reflected = labels[::-1]
    r2 = n - 1 - r
    reflected = reflected[r2:] + reflected[:r2]
    if rotated <= reflected:
        return rotated, _move(diags, lambda v: v - r, n)
    return reflected, _move(diags, lambda v: n - v - r2, n)


def rotate_infinity_last(labels, diags, n):
    r = (labels.index(n) + 1) % n
    return labels[r:] + labels[:r], _move(diags, lambda v: v - r, n)


def normalize(labels, diags, n, mode):
    if mode == PROJECTIVE:
        return dihedral_least(labels, diags, n)
    return rotate_infinity_last(labels, diags, n)


def closure(labels, diags, n, mode):
    """Every normalized member of the class of a normalized dissection.

    In the double cover the side n stays at position n-1, and every
    window twist keeps it there, so no renormalization is needed.
    """
    start = (labels, diags)
    seen = {start}
    stack = [start]
    while stack:
        cur_labels, cur_diags = stack.pop()
        for u, v in cur_diags:
            nxt = _twist_window(cur_labels, cur_diags, u, v)
            if mode == PROJECTIVE:
                nxt = dihedral_least(*nxt, n)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def closure_cell_class(diss, mode):
    """The least member of the class of `diss`, found by closure."""
    n = diss.n
    labels, diags = normalize(diss.labels, tuple(sorted(diss.diagonals)), n, mode)
    members = closure(labels, diags, n, mode)
    rep_labels, rep_diags = min(members)
    return Cell(mode=mode, labels=rep_labels, diagonals=rep_diags, size=len(members))


def _labelings(n, mode):
    if mode == PROJECTIVE:
        return [(1,) + p for p in permutations(range(2, n + 1)) if p[0] < p[-1]]
    return [p + (n,) for p in permutations(range(1, n))]


def closure_build(n, mode):
    """Cells and levels of the full complex, by closure over every grade.

    Returns (cells, levels): cells as (labels, diagonals, index, size)
    tuples in index order, levels as {k: {(parent, child): multiplicity}}.
    Each normalized dissection is one member of one class; the incidence
    of a class with a parent class counts the pairs of a member and a
    diagonal whose deletion lands in the parent.
    """
    labelings = _labelings(n, mode)
    cells = []
    levels = {}
    prev_class = prev_gid = None
    for k in range(n - 2):
        class_of = {}
        reps, sizes = [], []
        for labels in labelings:
            for diags in enumerate_diagonal_sets(n, k):
                if (labels, diags) in class_of:
                    continue
                members = closure(labels, diags, n, mode)
                for member in members:
                    class_of[member] = len(reps)
                reps.append(min(members))
                sizes.append(len(members))
        order = sorted(range(len(reps)), key=reps.__getitem__)
        gid = [0] * len(reps)
        for local in order:
            gid[local] = len(cells)
            cells.append(reps[local] + (len(cells), sizes[local]))
        if k:
            levels[k] = Counter(
                (prev_gid[prev_class[(labels, diags[:t] + diags[t + 1:])]], gid[local])
                for (labels, diags), local in class_of.items() for t in range(k))
        prev_class, prev_gid = class_of, gid
    return cells, levels
