"""The least-member rule against twist closure, the definition of a class."""

import random
from collections import Counter

import numpy as np
import pytest

from closure_reference import closure_build, closure_cell_class
from least_reference import differences, random_dissection
from mosaic import moduli, polygon
from mosaic.acceptance import ComplexCache, _c07_divisors
from mosaic.errors import InvariantViolation, MosaicError, UnknownCell, UnknownLabel
from mosaic.moduli import DOUBLE_COVER, PROJECTIVE, cell_class, marked_twist, twist
from mosaic.polygon import Dissection

MODES = (PROJECTIVE, DOUBLE_COVER)


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


def dihedral_image(diss, rotation, reflect):
    """diss moved back by rotation positions, after an optional reflection."""
    n, labels, diagonals = diss.n, diss.labels, diss.diagonals
    if reflect:
        # side p goes to n-1-p, vertex v to n-v
        labels, diagonals = labels[::-1], [((n - u) % n, (n - v) % n) for u, v in diagonals]
    return Dissection(labels[rotation:] + labels[:rotation],
                      frozenset(((u - rotation) % n, (v - rotation) % n) for u, v in diagonals))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_cell_for_matches_cell_class_on_random_dissections(n, mode, cache):
    # the flip-table lookup against the node-by-node rule, every field,
    # on seeded dissections, their dihedral images and their twists
    complex_, rng = cache.full(n, mode), random.Random(7000 + n)
    for k in range(n - 2):
        for _ in range(40):
            diss = random_dissection(rng, n, k)
            image = dihedral_image(diss, rng.randrange(n), rng.random() < 0.5)
            moved = [diss, image]
            if k:
                d = rng.choice(sorted(diss.diagonals))
                moved += [twist(diss, d), marked_twist(diss, d)]
            for d in moved:
                got, want = complex_.cell_for(d), complex_.resolve(cell_class(d, mode))
                assert (got.mode, got.labels, got.diagonals, got.size, got.index) \
                    == (want.mode, want.labels, want.diagonals, want.size, want.index), d
                assert got.diagonals is complex_.cells[got.index].diagonals, d


def _unknown_cell(complex_, diss, mode):
    # cell_for raises UnknownCell itself, naming the least member
    with pytest.raises(MosaicError) as info:
        complex_.cell_for(diss)
    assert type(info.value) is UnknownCell
    assert not isinstance(info.value, (KeyError, IndexError))
    assert str(info.value) == f"{cell_class(diss, mode)!r} is not a cell of this complex"


@pytest.mark.parametrize("mode", MODES)
def test_cell_for_raises_unknown_cell_past_max_codim(mode):
    shallow, rng = moduli.build_complex(6, mode, max_codim=1), random.Random(6)
    for k in (2, 3):
        for _ in range(5):
            _unknown_cell(shallow, random_dissection(rng, 6, k), mode)
    diss = random_dissection(rng, 6, 1)
    assert shallow.cell_for(diss) == cell_class(diss, mode)


def test_cell_for_raises_unknown_cell_outside_a_divisor(cache):
    sub = moduli.divisor_subcomplex(cache.full(6), {1, 2})
    # grade 0 is not in a divisor; (0, 2) cuts off 3 and 4, not 1 and 2
    _unknown_cell(sub, Dissection((1, 2, 3, 4, 5, 6)), PROJECTIVE)
    _unknown_cell(sub, Dissection((3, 1, 4, 2, 5, 6), frozenset({(0, 2)})), PROJECTIVE)
    # (1, 3) cuts off 1 and 2 in both
    for diagonals in ({(1, 3)}, {(1, 3), (3, 5)}):
        diss = Dissection((3, 1, 2, 4, 5, 6), frozenset(diagonals))
        cell = sub.cell_for(diss)
        want = sub.resolve(cell_class(diss, PROJECTIVE))
        assert (cell.labels, cell.diagonals, cell.index) == (want.labels, want.diagonals,
                                                              want.index)


@pytest.mark.parametrize("mode", MODES)
def test_cell_for_raises_unknown_label_outside_1_to_n(mode, cache):
    complex_ = cache.full(5, mode)
    for labels in ((0, 1, 2, 3, 4), (1, 2, 3, 4, 6), ("a", "b", "c", "d", "e")):
        with pytest.raises(UnknownLabel):
            complex_.cell_for(Dissection(labels, frozenset({(0, 2)})))


def test_lookups_make_each_grade_flip_tables_once(monkeypatch):
    # two covering maps and criterion 7's 35 divisor checks make each
    # lookup complex's grades once; the builds, made first, are not counted
    cover, projective = moduli.build_complex(7, DOUBLE_COVER), moduli.build_complex(7)
    factors = ComplexCache()
    for n in (3, 4, 5, 6):
        factors.full(n)
    made, init = Counter(), moduli._Grade.__init__

    def counted(grade, n, mode, k):
        # a grade of one complex: n, the nodes that may turn and k
        init(grade, n, mode, k)
        made[n, len(grade.flips[0]), k] += 1

    monkeypatch.setattr(moduli._Grade, "__init__", counted)
    for _ in range(2):
        assert moduli.covering_map(cover, projective).passed
    assert made == {(7, k + 1, k): 1 for k in range(5)}
    passed, detail = _c07_divisors(factors, [5, 6])
    assert passed and detail.startswith("35 divisor classes"), detail
    assert max(made.values()) == 1
    assert {(n, k + 1, k) for n in (3, 4, 5) for k in range(n - 2)} <= set(made)


@pytest.mark.parametrize("mode", MODES)
def test_the_build_keeps_no_flip_tables(mode, monkeypatch):
    # each grade's tables are dropped once it has grown, before the grade
    # below grows from it, and the complex keeps none
    grow, seen = moduli._grow, []

    def watched(grade, prev, *args):
        seen.append((grade.flips is not None,
                     prev and (prev.flips, prev.order, prev.flat)))
        return grow(grade, prev, *args)

    monkeypatch.setattr(moduli, "_grow", watched)
    complex_ = moduli.build_complex(6, mode)
    assert complex_._tables == {}
    assert seen == [(True, None)] + [(True, (None, None, None))] * 3


def _outcome(find, diss):
    # the cell found, every field, or the UnknownCell message
    try:
        return repr(find(diss))
    except UnknownCell as err:
        return str(err)


def test_cell_for_finds_least_members_only_in_the_flip_tables(cache, monkeypatch):
    # every grade of full, truncated and divisor complexes, the grades
    # each lacks included, against cell_class's node-by-node rule, which
    # is patched out once its answers are known
    rng, cases = random.Random(25), []
    complexes = [cache.full(6, mode) for mode in MODES] \
        + [moduli.build_complex(6, mode, max_codim=1) for mode in MODES] \
        + [moduli.divisor_subcomplex(cache.full(6), {1, 2})]
    for complex_ in complexes:
        for k in range(4):
            for _ in range(20):
                diss = random_dissection(rng, 6, k)
                want = _outcome(lambda d: complex_.resolve(cell_class(d, complex_.mode)), diss)
                cases.append((complex_, diss, want))

    def unused(diss, mode):
        raise AssertionError("cell_for turned the nodes one at a time")

    monkeypatch.setattr(moduli, "_least_member", unused)
    for complex_, diss, want in cases:
        assert _outcome(complex_.cell_for, diss) == want, diss
    found = sum(not want.endswith("is not a cell of this complex") for *_, want in cases)
    assert 0 < found < len(cases)


def test_row_lookups_walk_the_kept_flip_tables(cache, monkeypatch):
    # the covering map and the divisor check find their cells without
    # the build's _grow
    cover, projective = cache.full(5, DOUBLE_COVER), cache.full(5)
    ambient, factors = cache.full(6), (cache.full(3), cache.full(5))

    def unused(*args):
        raise AssertionError("a lookup grew through _grow")

    monkeypatch.setattr(moduli, "_grow", unused)
    assert moduli.covering_map(cover, projective).passed
    assert moduli.verify_divisor_factorization(ambient, {1, 2}, factors).passed


@pytest.mark.parametrize("mode", MODES)
def test_a_second_build_turns_no_node(mode, monkeypatch):
    # the block numbering and each node's turn are made once per n and
    # mode, for the builds and every lookup grade
    moduli.build_complex(6, mode)
    turn, calls = polygon._Node.turn, []

    def counted(node, *args):
        calls.append(node)
        return turn(node, *args)

    monkeypatch.setattr(polygon._Node, "turn", counted)
    complex_ = moduli.build_complex(6, mode)
    for k in range(4):
        complex_._lookup(k)
    assert calls == []
