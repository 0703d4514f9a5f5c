"""Compositions and dihedral images against the old vertex maps.

`compose_single` and `dihedral_canonical` map diagonal endpoints with
inline arithmetic.  The functions below keep the earlier form: one
vertex map per call, applied through a lambda to each endpoint and
reduced mod the side count, the pairs sorted.  `differences` compares
the two on every composite of the axiom sweep's label pools and on the
canonical form of every composite and of every pooled dissection under
the sweep's label bijections.

Run as a script, `python tests/compose_reference.py SIDES` checks every
composite of at most SIDES sides and exits 1 on any difference.
"""

import sys

from mosaic.operad import _all_dissections, _label_bijections, compose_single, relabel
from mosaic.polygon import Dissection, dihedral_canonical, label_sort_key


def map_diagonals(diagonals, vertex_map, n):
    out = []
    for u, v in diagonals:
        a, b = vertex_map(u) % n, vertex_map(v) % n
        out.append((a, b) if a < b else (b, a))
    out.sort()
    return tuple(out)


def reference_compose(g, a, h, b):
    """g o_a h with each operand's vertices moved by a lambda."""
    p, q = g.labels.index(a), h.labels.index(b)
    n1, n2 = g.n, h.n
    total = n1 + n2 - 2
    labels = g.labels[p + 1:] + g.labels[:p] + h.labels[q + 1:] + h.labels[:q]
    diagonals = ((0, n1 - 1),) + map_diagonals(g.diagonals, lambda v: v - p - 1, n1) \
        + map_diagonals(h.diagonals, lambda v: n1 - 1 + (v - q - 1) % n2, total)
    return Dissection(labels, frozenset(diagonals))


def reference_canonical(diss):
    """The rotation or reflection that starts at the least label."""
    labels, n = diss.labels, diss.n
    keys = [label_sort_key(x) for x in labels]
    r = keys.index(min(keys))
    if keys[(r + 1) % n] < keys[r - 1]:
        new_labels, vertex = labels[r:] + labels[:r], lambda v: v - r
    else:
        new_labels, vertex = labels[r::-1] + labels[:r:-1], lambda v: r + 1 - v
    return Dissection(new_labels, frozenset(map_diagonals(diss.diagonals, vertex, n)))


def gluings(sides):
    """(g, a, h, b) for every pooled operand pair whose composite has at
    most `sides` sides, and every choice of glued sides."""
    for n1 in range(3, sides):
        for n2 in range(3, sides + 3 - n1):
            for g in _all_dissections(n1, 100):
                for h in _all_dissections(n2, 200):
                    for a in g.labels:
                        for b in h.labels:
                            yield g, a, h, b


def wraps(g, a, h, b):
    """True when a diagonal of h ends at vertex q, where side b starts:
    the vertex that the old map sends to total and then, mod total, to 0."""
    q = h.labels.index(b)
    return any(q in d for d in h.diagonals)


def differences(sides):
    """Each composite or canonical form that differs from the reference."""
    for g, a, h, b in gluings(sides):
        got, want = compose_single(g, a, h, b), reference_compose(g, a, h, b)
        if got != want:
            yield f"{g!r} o_{a!r},{b!r} {h!r} is {got!r}, not {want!r}"
        if dihedral_canonical(got) != reference_canonical(got):
            yield f"the canonical form of {got!r} is {dihedral_canonical(got)!r}"
    for n in range(3, sides + 1):
        for diss in _all_dissections(n, 100):
            for sigma in _label_bijections(diss.labels):
                image = relabel(diss, sigma)
                if dihedral_canonical(image) != reference_canonical(image):
                    yield f"the canonical form of {image!r} is {dihedral_canonical(image)!r}"


if __name__ == "__main__":
    sides = int(sys.argv[1])
    bad = list(differences(sides))
    print(f"compose_single and dihedral_canonical up to {sides} sides against the "
          f"old vertex maps: {len(bad)} differ", *bad[:3], sep="\n  ")
    sys.exit(1 if bad else 0)
