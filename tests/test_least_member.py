"""The least-member rule against twist closure, the definition of a class."""

import random

import numpy as np
import pytest

from closure_reference import closure_build, closure_cell_class
from least_reference import differences
from mosaic import moduli
from mosaic.errors import InvariantViolation
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
        assert complex_.levels[k].pc_codes.tolist() == sorted((p << 32) | c for p, c in level)
        assert set(level.values()) == {1 << (k - 1)}


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


@pytest.mark.parametrize("mode", MODES)
def test_flip_tables_match_the_least_member_rule_at_n8(mode):
    # every diagonal set of the octagon, each with a seeded sample of
    # labelings, against cell_class's rule; the closure oracle stops at n = 7
    bad, bits = differences(8, mode, samples=8, seed=20261019)
    assert bad == []
    assert sorted(bits) == list(range(6))


@pytest.mark.parametrize("mode", MODES)
def test_build_fails_without_the_least_member_rule(mode, monkeypatch):
    least = moduli._least_codes

    def unturned(flips, labels, sets):
        # each node compares its first label with itself, so none turns
        ends, weights, turned = flips
        return least((ends[:, [0, 0]], weights, turned), labels, sets)

    monkeypatch.setattr(moduli, "_least_codes", unturned)
    # the unturned results outnumber the cells: the tiles in the
    # projective regime, the cells of grade 1 in the double cover
    grade = 0 if mode == PROJECTIVE else 1
    with pytest.raises(InvariantViolation,
                       match=rf"^grade {grade}: \d+ cells, the closed form has \d+$"):
        moduli.build_complex(5, mode)


@pytest.mark.parametrize("mode", MODES)
def test_build_checks_that_each_cell_is_reached_by_2k_pairs(mode, monkeypatch):
    # move one result of grade 1 onto another cell: the grade keeps its
    # cell count, but one cell is reached 2k - 1 times and one 2k + 1
    least = moduli._least_codes
    moved = []

    def skewed(flips, labels, sets):
        codes = least(flips, labels, sets)
        other = np.flatnonzero(codes != codes[0])
        # a grade-1 tree has two nodes that may turn, one in the double cover
        if len(flips[0]) == (2 if mode == PROJECTIVE else 1) and len(other) and not moved:
            codes[0] = codes[other[0]]
            moved.append(True)
        return codes

    monkeypatch.setattr(moduli, "_least_codes", skewed)
    with pytest.raises(InvariantViolation,
                       match=r"^grade 1: cell \d+ is reached by [13] .* not 2$"):
        moduli.build_complex(5, mode)


@pytest.mark.parametrize("mode", MODES)
def test_build_checks_that_each_cell_has_2k_distinct_parents(mode, monkeypatch):
    # let one cell of grade 1 be reached twice from the same parent, by
    # copying one (code, parent) key onto its twin with the same code: it
    # keeps its 2k pairs, but they come from fewer than 2k cells
    grow = moduli._grow

    def repeated(grade, prev, *args):
        keys, shift = grow(grade, prev, *args)
        if grade.ids.shape[1] == 1:
            twin = np.flatnonzero(keys >> shift == keys[0] >> shift)
            keys[twin[1]] = keys[twin[0]]
        return keys, shift

    monkeypatch.setattr(moduli, "_grow", repeated)
    with pytest.raises(InvariantViolation,
                       match=r"^grade 1: cell \d+ is reached more than once from cell \d+$"):
        moduli.build_complex(5, mode)
