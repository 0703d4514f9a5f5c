"""The least-member rule against twist closure, the definition of a class."""

import random

import numpy as np
import pytest

from closure_reference import closure_build, closure_cell_class
from mosaic.moduli import DOUBLE_COVER, PROJECTIVE, cell_class, marked_twist, twist
from mosaic.polygon import Dissection

MODES = (PROJECTIVE, DOUBLE_COVER)


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


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", (3, 4, 5, 6, 7))
def test_build_matches_closure(n, mode, cache):
    complex_ = cache.full(n, mode)
    cells, levels = closure_build(n, mode)
    assert [(c.labels, c.diagonals, c.index, c.size) for c in complex_.cells] == cells
    assert sorted(complex_.levels) == sorted(levels)
    for k, level in levels.items():
        for name in ("pc_codes", "pc_counts", "cp_codes", "cp_counts"):
            assert np.array_equal(getattr(complex_.levels[k], name),
                                  getattr(level, name)), (k, name)


@pytest.mark.parametrize("mode", MODES)
def test_cell_class_matches_closure_on_random_dissections(mode):
    rng = random.Random(20260718)
    for n in range(4, 13):
        for _ in range(24):
            diss = random_dissection(rng, n, rng.randrange(n - 2))
            got, want = cell_class(diss, mode), closure_cell_class(diss, mode)
            assert (got, got.size) == (want, want.size), diss


@pytest.mark.parametrize("mode,move", [(PROJECTIVE, twist), (DOUBLE_COVER, marked_twist)])
def test_cell_class_is_invariant_under_random_twist_sequences(mode, move):
    rng = random.Random(7)
    for n in range(4, 13):
        for _ in range(12):
            diss = random_dissection(rng, n, rng.randrange(1, n - 2))
            cell = cell_class(diss, mode)
            for _ in range(3 * n):
                diss = move(diss, rng.choice(sorted(diss.diagonals)))
                assert cell_class(diss, mode) == cell, diss
