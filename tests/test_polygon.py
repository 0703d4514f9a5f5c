"""Dissections, crossing tests, enumeration, canonical forms."""

import itertools
import math
import random
import re
from dataclasses import replace
from math import comb

import numpy as np
import pytest

from dual_tree_reference import compare_with_reference, reference_dual_tree
from mosaic.errors import (
    AdjacentDiagonal,
    CrossingDiagonals,
    DuplicateLabel,
    InvariantViolation,
    MismatchedPolygons,
    NoSuchDiagonal,
    RangeError,
    TooManyDiagonals,
)
from mosaic.polygon import (
    Dissection,
    _dual_shape,
    cayley_count,
    dihedral_canonical,
    diagonals_cross,
    dual_tree,
    enumerate_diagonal_sets,
    label_sort_key,
    normalize_diagonal,
    polygon_diagonals,
    si_condition,
    superimpose,
)

# counts of all diagonal sets per n, any size, frozen
TOTAL_SETS = {3: 1, 4: 3, 5: 11, 6: 45, 7: 197, 8: 903, 9: 4279, 10: 20793}

# full triangulations per n, frozen
TRIANGULATIONS = {4: 2, 5: 5, 6: 14, 7: 42, 8: 132, 9: 429, 10: 1430}


# ---------------------------------------------------------------------------
# crossing predicate against plane geometry

def _vertex(v, n):
    angle = 2.0 * math.pi * v / n
    return (math.cos(angle), math.sin(angle))


def _orientation(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def crossing_by_geometry(d1, d2, n):
    """Proper intersection of the two open chords on the regular n-gon.

    Independent of the combinatorial test: no three vertices of a circle
    are collinear, so strict sign checks decide every non-degenerate pair.
    """
    a, b = d1
    c, d = d2
    if len({a, b, c, d}) < 4:
        return False
    pa, pb, pc, pd = (_vertex(x, n) for x in (a, b, c, d))
    o1 = _orientation(pa, pb, pc)
    o2 = _orientation(pa, pb, pd)
    o3 = _orientation(pc, pd, pa)
    o4 = _orientation(pc, pd, pb)
    return o1 * o2 < 0 and o3 * o4 < 0


@pytest.mark.parametrize("n", range(4, 10))
def test_crossing_matches_geometry(n):
    diags = polygon_diagonals(n)
    for i, d1 in enumerate(diags):
        for d2 in diags[i:]:
            assert diagonals_cross(d1, d2, n) == crossing_by_geometry(d1, d2, n), \
                (n, d1, d2)


def test_crossing_is_symmetric_and_irreflexive():
    assert diagonals_cross((0, 2), (1, 3), 4)
    assert diagonals_cross((1, 3), (0, 2), 4)
    assert not diagonals_cross((0, 2), (0, 2), 4)
    # shared endpoint never crosses
    assert not diagonals_cross((0, 2), (0, 3), 5)


def test_normalize_diagonal():
    assert normalize_diagonal((4, 1), 6) == (1, 4)
    with pytest.raises(AdjacentDiagonal):
        normalize_diagonal((2, 3), 6)
    with pytest.raises(AdjacentDiagonal):
        normalize_diagonal((0, 5), 6)      # wraps to a side
    with pytest.raises(RangeError):
        normalize_diagonal((0, 6), 6)
    with pytest.raises(AdjacentDiagonal):
        normalize_diagonal((0, 1, 2), 6)
    with pytest.raises(AdjacentDiagonal):
        normalize_diagonal((0.5, 2), 6)
    # bool is an int subclass, yet (True, 3) is no vertex pair
    for d in ((True, 3), (0, False)):
        with pytest.raises(AdjacentDiagonal, match=r"^vertex indices must be integers: "):
            normalize_diagonal(d, 6)
        with pytest.raises(AdjacentDiagonal, match=r"^vertex indices must be integers: "):
            Dissection((1, 2, 3, 4, 5, 6), [d])


# ---------------------------------------------------------------------------
# Dissection validation

def test_dissection_accepts_valid_input():
    d = Dissection((1, 2, 3, 4, 5), frozenset({(3, 0), (0, 2)}))
    assert d.n == 5
    assert d.diagonals == frozenset({(0, 3), (0, 2)})
    assert d.encoding() == ((1, 2, 3, 4, 5), ((0, 2), (0, 3)))


def test_dissection_rejects_small_polygons():
    with pytest.raises(RangeError):
        Dissection((1, 2))


def test_dissection_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabel):
        Dissection((1, 2, 2, 4))


def test_dissection_rejects_too_many_diagonals():
    with pytest.raises(TooManyDiagonals):
        Dissection((1, 2, 3, 4), frozenset({(0, 2), (1, 3)}))


def test_dissection_rejects_crossing_diagonals():
    with pytest.raises(CrossingDiagonals):
        Dissection((1, 2, 3, 4, 5), frozenset({(0, 2), (1, 3)}))
    # every pair, given unsorted, is rejected exactly when diagonals_cross
    # says so, naming the sorted pairs in order
    for n in (6, 7):
        labels = tuple(range(1, n + 1))
        for d1, d2 in itertools.combinations(polygon_diagonals(n), 2):
            given = frozenset({d1[::-1], d2[::-1]})
            if diagonals_cross(d1, d2, n):
                message = re.escape(f"{d1} crosses {d2}")
                with pytest.raises(CrossingDiagonals, match=f"^{message}$"):
                    Dissection(labels, given)
            else:
                assert Dissection(labels, given).diagonals == {d1, d2}


def _validated_diagonals(labels, diagonals):
    # the constructor's checks written out: every diagonal through
    # normalize_diagonal, duplicates dropped, then the count and the
    # crossings, in that order
    n = len(labels)
    diags = sorted(set(normalize_diagonal(d, n) for d in diagonals))
    if len(diags) > n - 3:
        raise TooManyDiagonals(f"{len(diags)} diagonals in a {n}-gon (max {n - 3})")
    for i, (a, b) in enumerate(diags):
        for c, d in diags[i + 1:]:
            if a < c < b < d:
                raise CrossingDiagonals(f"{(a, b)} crosses {(c, d)}")
    return frozenset(diags)


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("diagonals", [
    [(3, 0)],                              # a reversed pair
    [[0, 3]],                              # a list pair
    [(True, 3)],                           # a bool vertex
    [(np.int64(0), 3)],                    # numpy ints
    [(0, np.int32(3))],
    [(0, 6)],                              # a vertex out of range
    [(-1, 2)],
    [(2, 3)],                              # adjacent vertices
    [(0, 5)],                              # adjacent across vertex 0
    [(0, 1, 2)],                           # not a pair
    [(0.0, 2)],
    [(0, 2), (0, 2)],                      # a duplicate, given twice
    [(0, 2), (2, 0)],
    [(0, 2), (0, 3), (0, 4), (1, 3)],      # too many diagonals
    [(0, 3), (1, 4)],                      # crossing diagonals
    [(4, 1), (0, 3)],
    [(0, 2), (2, 4), (0, 4)],              # valid, normalized
    [],
])
def test_normalized_pairs_are_taken_as_the_full_checks_would(diagonals):
    # a caller's pairs, normalized or not, all go through the checks:
    # the constructor must accept and reject exactly what the written-out
    # checks do, with the same exception and message
    labels = tuple(range(1, 7))
    got = _outcome(lambda: Dissection(labels, diagonals).diagonals)
    assert got == _outcome(_validated_diagonals, labels, diagonals)
    if isinstance(got, frozenset):
        assert all(type(d) is tuple for d in got)


def test_split_labels():
    d = Dissection((1, 2, 3, 4, 5, 6), frozenset({(1, 4)}))
    assert d.split_labels((1, 4)) == ((2, 3, 4), (5, 6, 1))
    with pytest.raises(NoSuchDiagonal):
        d.split_labels((0, 2))


# ---------------------------------------------------------------------------
# enumeration against the closed form

@pytest.mark.parametrize("n", range(3, 11))
def test_enumeration_matches_closed_form(n):
    total = 0
    for k in range(n - 2):
        sets = enumerate_diagonal_sets(n, k)
        assert len(sets) == len(set(sets))
        assert len(sets) == cayley_count(n, k)
        assert len(sets) == comb(n - 3, k) * comb(n - 1 + k, k) // (k + 1)
        for ds in sets:
            assert ds == tuple(sorted(ds))
            for i, d1 in enumerate(ds):
                for d2 in ds[i + 1:]:
                    assert not diagonals_cross(d1, d2, n)
        total += len(sets)
    assert total == TOTAL_SETS[n]
    assert len(enumerate_diagonal_sets(n, n - 3)) == TRIANGULATIONS.get(n, 1)


def test_polygon_diagonals_count():
    for n in range(4, 12):
        assert len(polygon_diagonals(n)) == n * (n - 3) // 2
    assert list(polygon_diagonals(4)) == [(0, 2), (1, 3)]


def test_cayley_count_rejects_bad_grades():
    with pytest.raises(RangeError):
        cayley_count(5, 3)
    with pytest.raises(RangeError):
        cayley_count(5, -1)


# ---------------------------------------------------------------------------
# dihedral canonical form

def _rotated(diss, r):
    n = diss.n
    labels = diss.labels[r:] + diss.labels[:r]
    diags = frozenset(tuple(sorted(((u - r) % n, (v - r) % n)))
                      for u, v in diss.diagonals)
    return Dissection(labels, diags)


def _reflected(diss):
    # reflection through vertex 0: side p goes to side n-1-p
    n = diss.n
    labels = diss.labels[::-1]
    diags = frozenset(tuple(sorted(((n - u) % n, (n - v) % n)))
                      for u, v in diss.diagonals)
    return Dissection(labels, diags)


def _orbit(diss):
    images = set()
    for base in (diss, _reflected(diss)):
        for r in range(diss.n):
            images.add(_rotated(base, r))
    return images


@pytest.mark.parametrize("labels", [
    (2, 4, 1, 5, 3),
    (1, 2, 3, 4, 5),
    (5, 4, 3, 2, 1),
])
def test_canonical_constant_on_pentagon_orbits(labels):
    for k in range(3):
        for ds in enumerate_diagonal_sets(5, k):
            diss = Dissection(labels, frozenset(ds))
            canon = dihedral_canonical(diss)
            orbit = _orbit(diss)
            assert canon in orbit
            # least means least (labels, diagonals) encoding over the orbit
            assert canon.encoding() == min(d.encoding() for d in orbit)
            for image in orbit:
                assert dihedral_canonical(image) == canon


def test_canonical_is_idempotent():
    diss = Dissection((4, 1, 6, 3, 2, 5), frozenset({(0, 2), (2, 5)}))
    canon = dihedral_canonical(diss)
    assert dihedral_canonical(canon) == canon
    assert canon in _orbit(diss)


def test_canonical_handles_mixed_label_types():
    diss = Dissection(("b", 2, "a", 1), frozenset({(1, 3)}))
    canon = dihedral_canonical(diss)
    assert canon in _orbit(diss)
    for image in _orbit(diss):
        assert dihedral_canonical(image) == canon


def _least_image(diss):
    # brute force: the least (labels, diagonals) encoding of all 2n
    # images, labels compared by label_sort_key
    return min(_orbit(diss), key=lambda d: (tuple(map(label_sort_key, d.labels)),
                                            tuple(sorted(d.diagonals))))


@pytest.mark.parametrize("n", range(3, 9))
def test_canonical_is_the_least_of_all_images(n):
    # every dissection, under shuffled integer labels, the same as
    # letters, and labels that mix integers and strings
    rng = random.Random(n)
    labelings = []
    for _ in range(3):
        ints = list(range(1, n + 1))
        rng.shuffle(ints)
        mixed = [str(x) if rng.random() < 0.5 else x for x in range(n)]
        rng.shuffle(mixed)
        labelings += [tuple(ints), tuple(chr(96 + x) for x in ints), tuple(mixed)]
    for k in range(n - 2):
        for ds in enumerate_diagonal_sets(n, k):
            for labels in labelings:
                diss = Dissection(labels, frozenset(ds))
                assert dihedral_canonical(diss) == _least_image(diss)


class _AlikeLabel:
    # distinct under hashing but equal under ==, so two of them are
    # distinct labels whose sort keys tie
    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h

    def __eq__(self, other):
        return isinstance(other, _AlikeLabel)


def test_canonical_raises_when_the_neighbours_of_the_least_label_tie():
    labels = (_AlikeLabel(1), _AlikeLabel(2), _AlikeLabel(3))
    with pytest.raises(InvariantViolation, match="tie"):
        dihedral_canonical(Dissection(labels))


# ---------------------------------------------------------------------------
# dual trees

@pytest.mark.parametrize("n", (5, 6, 7))
def test_dual_tree_shape(n):
    labels = tuple(range(1, n + 1))
    for k in range(n - 2):
        for ds in enumerate_diagonal_sets(n, k):
            tree = dual_tree(Dissection(labels, frozenset(ds)))
            assert len(tree.regions) == k + 1
            assert len(tree.edges) == k
            assert len(tree.leaves) == n
            assert all(size >= 3 for size in tree.degrees())
            assert sum(tree.degrees()) == n + 2 * k


@pytest.mark.parametrize("n", (5, 6, 7))
def test_leaf_cycle_round_trip(n):
    # planar walk of the tree reads the side labels back in order
    labels = tuple(range(1, n + 1))
    scrambled = labels[2:] + labels[:2]
    for k in range(n - 2):
        for ds in enumerate_diagonal_sets(n, k):
            for lab in (labels, scrambled):
                diss = Dissection(lab, frozenset(ds))
                assert dual_tree(diss).leaf_cycle() == lab


@pytest.mark.parametrize("n", range(3, 9))
def test_dual_tree_matches_region_cutting(n):
    # same regions up to rotation, same edges and leaves, leaf cycle = labels
    assert compare_with_reference(n) == 2 * TOTAL_SETS[n]


@pytest.mark.parametrize("n", (3, 4, 6, 8))
def test_region_cycles_start_at_their_least_vertex(n):
    # each cycle runs in boundary orientation from its least vertex, so
    # it is its vertex set in increasing order
    assert dual_tree(Dissection(tuple(range(1, n + 1)))).regions == (tuple(range(n)),)
    for k in range(1, n - 2):
        for ds in enumerate_diagonal_sets(n, k):
            regions = dual_tree(Dissection(tuple(range(1, n + 1)), frozenset(ds))).regions
            assert all(cycle == tuple(sorted(cycle)) for cycle in regions)
            assert list(regions) == sorted(regions)


def test_dual_trees_of_one_diagonal_set_share_their_shape():
    # the regions and edges are cached per diagonal set; only the leaves
    # carry each dissection's own labels
    diagonals = frozenset({(0, 2), (0, 4), (4, 6)})
    first = Dissection((1, 2, 3, 4, 5, 6, 7), diagonals)
    second = Dissection((3, 1, 7, 5, 2, 6, 4), set(diagonals))
    trees = [dual_tree(first), dual_tree(second)]
    for diss, tree in zip((first, second), trees):
        ref = reference_dual_tree(diss)
        # the reference cuts cycles that may start anywhere; rotate each
        # to its least vertex, where `dual_tree` starts them
        least = [cycle.index(min(cycle)) for cycle in ref.regions]
        regions = tuple(c[t:] + c[:t] for c, t in zip(ref.regions, least))
        assert tree == replace(ref, regions=regions)
        assert tree.leaf_cycle() == diss.labels
    assert trees[0].regions is trees[1].regions
    assert _dual_shape.cache_info().maxsize is not None


def test_dual_tree_single_region():
    tree = dual_tree(Dissection((1, 2, 3, 4)))
    assert tree.degrees() == (4,)
    assert tree.edges == ()


# ---------------------------------------------------------------------------
# superimposition

def test_superimpose_compatible_pair():
    g1 = Dissection((1, 2, 3, 4, 5), frozenset({(0, 2)}))
    g2 = Dissection((1, 2, 3, 4, 5), frozenset({(0, 3)}))
    combined = superimpose(g1, g2)
    assert combined == Dissection((1, 2, 3, 4, 5), frozenset({(0, 2), (0, 3)}))
    assert si_condition(g1, g2)


def test_superimpose_crossing_pair_is_none():
    g1 = Dissection((1, 2, 3, 4, 5), frozenset({(0, 2)}))
    g2 = Dissection((1, 2, 3, 4, 5), frozenset({(1, 3)}))
    assert superimpose(g1, g2) is None
    assert not si_condition(g1, g2)


def test_superimpose_identical_pair_is_none():
    g = Dissection((1, 2, 3, 4, 5), frozenset({(0, 2)}))
    assert superimpose(g, g) is None
    assert not si_condition(g, g)


def test_superimpose_rejects_mismatched_inputs():
    g1 = Dissection((1, 2, 3, 4, 5), frozenset({(0, 2)}))
    g2 = Dissection((1, 2, 3, 5, 4), frozenset({(0, 2)}))
    with pytest.raises(MismatchedPolygons):
        superimpose(g1, g2)
    bare = Dissection((1, 2, 3, 4, 5))
    with pytest.raises(MismatchedPolygons):
        superimpose(g1, bare)
