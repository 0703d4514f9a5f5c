"""The least-member rule in Python: the reference for the flip tables.

`build_complex` finds least members by walking each grade's flip
tables, which a `moduli._Grade` makes once (`_Grade.flips`,
`moduli._least_codes`); `cell_class` turns the nodes of a rooted dual
tree one at a time (`moduli._least_member`).
`differences` pushes a seeded sample of labelings on every diagonal set
of the n-gon through `_grow` and compares each code with the code of
`_least_member`.  It also packs the largest sampled code of each grade
with the parent field of the full build's keys, whose width the closed
form fixes, and unpacks it again.  `lookup_differences` compares
`ModuliComplex.cell_for`, which reads the tables of the grades its
complex keeps a row at a time, with `cell_class` on seeded dissections
of every grade of a complex.

Run as a script, `python tests/least_reference.py N` compares the codes
at the n given, in both regimes, and for n <= 8 also builds both
complexes and compares their lookups; it exits 1 on any difference.
"""

import random
import sys
from math import factorial

import numpy as np

from mosaic.errors import MosaicError
from mosaic.moduli import (
    _BUILD_LIMIT,
    DOUBLE_COVER,
    PROJECTIVE,
    _Grade,
    _grow,
    _key_shift,
    _least_member,
    build_complex,
    cell_class,
    closed_form_f_vector,
)
from mosaic.polygon import Dissection


def random_dissection(rng, n, k):
    """Labels 1..n in random order and k diagonals of a random triangulation."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    triangulation = []
    stack = [list(range(n))]
    while stack:
        vs = stack.pop()
        if len(vs) < 4:
            continue
        apex = rng.randrange(1, len(vs) - 1)
        if apex > 1:
            triangulation.append((vs[0], vs[apex]))
        if apex < len(vs) - 2:
            triangulation.append((vs[apex], vs[-1]))
        stack.append(vs[:apex + 1])
        stack.append(vs[apex:])
    return Dissection(tuple(labels), frozenset(rng.sample(triangulation, k)))


def sample_labelings(rng, n, mode, count):
    """count random labelings in the regime's frame: 1 first or n last."""
    out = []
    for _ in range(count):
        rest = list(range(2, n + 1) if mode == PROJECTIVE else range(1, n))
        rng.shuffle(rest)
        out.append([1] + rest if mode == PROJECTIVE else rest + [n])
    return out


def differences(n, mode, samples, seed=0):
    """The sampled labelings whose code from _grow differs from _least_member's.

    Returns the differences and the bits of each grade's full-build key.
    """
    rng = random.Random(seed)
    # the rows each grade of the full build grows from: every labeling,
    # then the cells of the grade above
    above = (factorial(n - 1),) + closed_form_f_vector(n, mode)
    bad, bits = [], {}
    for k in range(n - 2):
        grade = _Grade(n, mode, k)
        number = {ds: s for s, ds in enumerate(grade.sets)}
        rows = np.array(sample_labelings(rng, n, mode, samples * len(grade.sets)), dtype=np.int8)
        sets = np.repeat(np.arange(len(grade.sets), dtype=np.int32), samples)
        keys, shift = _grow(grade, None, rows, sets)
        codes, parents = keys >> shift, keys & ((1 << shift) - 1)
        if sorted(parents.tolist()) != list(range(len(rows))):
            bad.append(f"grade {k}: the keys' parents are not each row once")
        for code, parent in zip(codes.tolist(), parents.tolist()):
            ds = grade.sets[sets[parent]]
            labels, diagonals = _least_member(Dissection(tuple(rows[parent].tolist()),
                                                         frozenset(ds)), mode)
            want = 0
            for x in labels:
                want = want * (n + 1) + x
            want = want * len(grade.sets) + number[diagonals]
            if code != want:
                bad.append(f"grade {k}: {tuple(rows[parent].tolist())} on {ds}: "
                           f"code {code}, the rule gives {want}")
        # the largest code beside the largest parent of the full build
        wide, last = _key_shift(k, n, len(grade.sets), above[k]), above[k] - 1
        top = codes.max() << wide | np.int64(last)
        bits[k] = int(top).bit_length()
        if top < 0 or top >> wide != codes.max() or top & ((1 << wide) - 1) != last:
            bad.append(f"grade {k}: code {codes.max()} does not survive a {wide}-bit parent")
    return bad, bits


def lookup_differences(complex_, samples, seed=0):
    """The sampled dissections whose cell_for differs from cell_class.

    samples seeded dissections per grade of the complex; a lookup differs
    when it raises, or when its labels, diagonals or size differ from
    cell_class's, or the cell at its index does.
    """
    rng, bad = random.Random(seed), []
    for k in complex_.grade_range:
        for _ in range(samples):
            diss = random_dissection(rng, complex_.n, k)
            want = cell_class(diss, complex_.mode)
            try:
                got = complex_.cell_for(diss)
            except MosaicError as err:
                got = err
            if isinstance(got, MosaicError) or complex_.cells[got.index] != want \
                    or (got.labels, got.diagonals, got.size) != (want.labels, want.diagonals,
                                                                 want.size):
                bad.append(f"{diss}: cell_for gives {got!r}, cell_class {want}")
    return bad


if __name__ == "__main__":
    failed = False
    for arg in sys.argv[1:]:
        n = int(arg)
        for mode in (PROJECTIVE, DOUBLE_COVER):
            bad, bits = differences(n, mode, samples=16, seed=n)
            failed = failed or bool(bad)
            print(f"n = {n} {mode}: {len(bad)} codes differ from the rule; "
                  f"keys of up to {max(bits.values())} bits", *bad[:3], sep="\n  ")
            if n <= _BUILD_LIMIT:
                complex_ = build_complex(n, mode)
                bad = lookup_differences(complex_, samples=500, seed=n)
                failed = failed or bool(bad)
                print(f"n = {n} {mode}: {len(bad)} of {500 * len(complex_.grade_range)} "
                      f"cell_for lookups differ from cell_class", *bad[:3], sep="\n  ")
    sys.exit(1 if failed else 0)
