"""Plain-Python readers of a built complex: the references for its array readers.

`reference_cell` decodes one cell's code with Python ints, as
`ModuliComplex` did before `cells` decoded a grade at a time with
`_unpack`.  `reference_payload` and `reference_dot` are the `complex
--json` and `--dot` renderings as they were made from whole dicts, with
the incidence read row by row from the parent tables.
"""

from itertools import combinations

from mosaic.moduli import Cell


def reference_cell(complex_, index):
    """The cell with this index, decoded from its code with Python ints."""
    for k, (codes, start, sets, _) in complex_._grades.items():
        if index < start + len(codes):
            break
    code, s = divmod(codes[index - start], len(sets))
    labels, base = [], complex_.n + 1
    for _ in range(complex_.n):
        code, x = divmod(code, base)
        labels.append(x)
    return Cell(complex_.mode, tuple(labels[::-1]), sets[s], 1 << k, index)


def reference_cells(complex_):
    return [reference_cell(complex_, i) for i in range(sum(complex_.f_vector()))]


def reference_pairs(complex_):
    """Every (parent, child, multiplicity), grade by grade, by child, by parent."""
    for k in sorted(complex_.levels):
        level = complex_.levels[k]
        for child, parents in enumerate(level.parents.tolist(), level.start):
            for parent in parents:
                yield parent, child, 1 << (k - 1)


def reference_payload(complex_):
    """The object that `mosaic complex --json` prints with json.dumps."""
    cells = [{"id": cell.index, "codim": cell.codim,
              "representative": {"labels": list(cell.labels),
                                 "diagonals": [list(d) for d in cell.diagonals]}}
             for cell in reference_cells(complex_)]
    boundary = sorted({(p, c) for p, c, _ in reference_pairs(complex_)})
    start, end = complex_.grade_range[complex_.codim_offset]
    return {"n": complex_.n, "mode": complex_.mode, "cells": cells,
            "boundary": [list(pair) for pair in boundary],
            "tiles": [reference_cell(complex_, i).index for i in range(start, end)]}


def reference_dot(complex_):
    """The text that `mosaic complex --dot` prints, tiles looked up by index.

    A facet joins every two tiles of its row in the parent table of the
    grade below the tiles; a complex without that grade (n = 3) has no
    edges.
    """
    name = f"tiles_n{complex_.n}_{complex_.mode.replace('-', '_')}"
    lines = [f"graph {name} {{"]
    for gid in range(*complex_.grade_range[complex_.codim_offset]):
        label = " ".join(str(x) for x in reference_cell(complex_, gid).labels)
        lines.append(f'  t{gid} [label="{label}"];')
    if complex_.codim_offset + 1 in complex_.levels:
        level = complex_.levels[complex_.codim_offset + 1]
        for facet, parents in enumerate(level.parents.tolist(), level.start):
            for u, v in combinations(parents, 2):
                lines.append(f"  t{u} -- t{v};  // facet {facet}")
    lines.append("}")
    return "\n".join(lines)
