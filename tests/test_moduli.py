"""Twists, cell complexes, divisors, coverings, surfaces."""

import re
import tracemalloc
from functools import partial
from itertools import combinations, product
from math import comb, factorial

import numpy as np
import pytest

from cells_reference import reference_cells
from twist_reference import differences as twist_differences
from mosaic import moduli
from mosaic.errors import (
    BadSubsetSize,
    InvariantViolation,
    MismatchedPolygons,
    MosaicError,
    NoInfinitySide,
    NoSuchDiagonal,
    NotASurface,
    RangeError,
    UnknownCell,
    UnknownLabel,
)
from mosaic.moduli import (
    DOUBLE_COVER,
    PROJECTIVE,
    Cell,
    ModuliComplex,
    _Level,
    _cell_rows,
    _check_map,
    _flags,
    _halves,
    _key_shift,
    _parent_rows,
    _row_indices,
    build_complex,
    cell_class,
    classify_surface,
    closed_form_f_vector,
    covering_map,
    divisor_label_classes,
    divisor_subcomplex,
    euler_closed_form,
    euler_proof_sum,
    marked_twist,
    normalize_divisor_subset,
    tile_count,
    twist,
    verify_divisor_factorization,
)
from mosaic.polygon import (
    Dissection,
    cayley_count,
    diagonals_cross,
    enumerate_diagonal_sets,
    polygon_diagonals,
)

# cell counts by codim, frozen; the double cover doubles every entry
F_PROJECTIVE = {
    4: (3, 3),
    5: (12, 30, 15),
    6: (60, 270, 315, 105),
    7: (360, 2520, 5040, 3780, 945),
}

EULER = {4: 0, 5: -3, 6: 0, 7: 45, 8: 0, 9: -1575, 10: 0, 11: 99225}


# ---------------------------------------------------------------------------
# twists

def test_twist_reflects_the_flap():
    d = Dissection((1, 2, 3, 4), frozenset({(0, 2)}))
    assert twist(d, (0, 2)) == Dissection((2, 1, 3, 4), frozenset({(0, 2)}))


def test_twist_carries_interior_diagonals_along():
    d = Dissection((1, 2, 3, 4, 5), frozenset({(0, 2), (0, 3)}))
    assert twist(d, (0, 3)) == Dissection((3, 2, 1, 4, 5),
                                          frozenset({(0, 3), (1, 3)}))


def test_twist_requires_the_diagonal():
    d = Dissection((1, 2, 3, 4, 5), frozenset({(0, 2)}))
    with pytest.raises(NoSuchDiagonal):
        twist(d, (0, 3))


@pytest.mark.parametrize("n", (5, 6))
def test_twist_is_an_involution(n):
    labels = tuple(range(1, n + 1))
    scrambled = labels[1:] + labels[:1]
    for k in range(1, n - 2):
        for ds in enumerate_diagonal_sets(n, k):
            for lab in (labels, scrambled):
                diss = Dissection(lab, frozenset(ds))
                for d in ds:
                    once = twist(diss, d)
                    assert sorted(once.labels) == sorted(lab)
                    assert d in once.diagonals
                    assert len(once.diagonals) == k
                    assert twist(once, d) == diss


def test_marked_twist_fixes_the_infinity_side():
    # the flap not carrying the side labeled n gets reflected
    d = Dissection((1, 2, 3, 4, 5), frozenset({(0, 3)}))
    assert marked_twist(d, (0, 3)) == Dissection((3, 2, 1, 4, 5),
                                                 frozenset({(0, 3)}))
    d = Dissection((1, 2, 3, 4, 5), frozenset({(2, 4)}))
    assert marked_twist(d, (2, 4)) == Dissection((1, 2, 4, 3, 5),
                                                 frozenset({(2, 4)}))


def test_marked_twist_is_an_involution():
    labels = (1, 2, 3, 4, 5, 6)
    for k in range(1, 4):
        for ds in enumerate_diagonal_sets(6, k):
            diss = Dissection(labels, frozenset(ds))
            for d in ds:
                once = marked_twist(diss, d)
                # the reflected flap dodges the marked side, which stays put
                assert once.labels[5] == 6
                assert marked_twist(once, d) == diss


def test_marked_twist_needs_a_marked_side():
    d = Dissection((1, 2, 3, 5), frozenset({(0, 2)}))
    with pytest.raises(NoInfinitySide):
        marked_twist(d, (0, 2))


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_twists_match_the_window_twists_of_the_closure_reference(n):
    # every diagonal of every dissection, with side n on each side of each
    # diagonal: the marked twist's wrapped case is the second labeling
    bad, made = twist_differences(n, seed=n)
    assert made and not bad, bad[:3]


# ---------------------------------------------------------------------------
# twist classes

def test_cell_class_sizes_are_powers_of_two():
    for n, mode in ((5, PROJECTIVE), (5, DOUBLE_COVER), (6, PROJECTIVE)):
        labels = tuple(range(1, n + 1))
        for k in range(n - 2):
            for ds in enumerate_diagonal_sets(n, k):
                cell = cell_class(Dissection(labels, frozenset(ds)), mode)
                assert cell.size == 2 ** k
                assert cell.codim == k


def test_projective_class_is_twist_and_dihedral_invariant():
    diss = Dissection((4, 1, 3, 2, 5), frozenset({(0, 2), (2, 4)}))
    cell = cell_class(diss, PROJECTIVE)
    assert cell.labels[0] == 1
    for d in diss.diagonals:
        assert cell_class(twist(diss, d), PROJECTIVE) == cell
    rotated = Dissection(diss.labels[2:] + diss.labels[:2],
                         frozenset({(3, 0), (0, 2)}))
    assert cell_class(rotated, PROJECTIVE) == cell
    reflected = Dissection(diss.labels[::-1],
                           frozenset(tuple(sorted(((5 - u) % 5, (5 - v) % 5)))
                                     for u, v in diss.diagonals))
    assert cell_class(reflected, PROJECTIVE) == cell


def test_cover_class_separates_reflections():
    square = Dissection((1, 2, 3, 4))
    mirrored = Dissection((3, 2, 1, 4))
    assert cell_class(square, PROJECTIVE) == cell_class(mirrored, PROJECTIVE)
    assert cell_class(square, DOUBLE_COVER) != cell_class(mirrored, DOUBLE_COVER)
    # rotation stays inside the class, the marked side returns to the end
    rotated = Dissection((3, 4, 1, 2))
    assert cell_class(square, DOUBLE_COVER) == cell_class(rotated, DOUBLE_COVER)
    assert cell_class(square, DOUBLE_COVER).labels[-1] == 4


def test_cover_class_is_marked_twist_invariant():
    diss = Dissection((2, 1, 4, 3, 5), frozenset({(0, 2), (0, 3)}))
    cell = cell_class(diss, DOUBLE_COVER)
    assert cell.labels[-1] == 5
    for d in diss.diagonals:
        assert cell_class(marked_twist(diss, d), DOUBLE_COVER) == cell


def test_cell_class_validates_input():
    with pytest.raises(UnknownLabel):
        cell_class(Dissection((2, 3, 4, 5, 6)), PROJECTIVE)
    with pytest.raises(MosaicError):
        cell_class(Dissection((1, 2, 3, 4)), "affine")


# ---------------------------------------------------------------------------
# the complexes

@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_projective_f_vectors(n, cache):
    complex_ = cache.full(n)
    assert complex_.f_vector() == F_PROJECTIVE[n]
    assert complex_.f_vector() == closed_form_f_vector(n)
    assert len(complex_.tiles()) == tile_count(n) == factorial(n - 1) // 2
    assert complex_.is_full_depth()
    assert complex_.dimension == n - 3


@pytest.mark.parametrize("n", (4, 5, 6))
def test_double_cover_f_vectors(n, cache):
    complex_ = cache.full(n, DOUBLE_COVER)
    expected = tuple(2 * x for x in F_PROJECTIVE[n])
    assert complex_.f_vector() == expected
    assert complex_.f_vector() == closed_form_f_vector(n, DOUBLE_COVER)
    assert len(complex_.tiles()) == tile_count(n, DOUBLE_COVER) == factorial(n - 1)


def test_the_closed_forms_divide_exactly():
    # cayley_count and closed_form_f_vector floor-divide: both divisions
    # must be exact, Kirkman-Cayley by k + 1 and the classes by 2^k
    for n in range(3, 41):
        tiles = {PROJECTIVE: factorial(n - 1) // 2, DOUBLE_COVER: factorial(n - 1)}
        for k in range(n - 2):
            dissections = comb(n - 3, k) * comb(n - 1 + k, k)
            assert dissections % (k + 1) == 0
            assert cayley_count(n, k) == dissections // (k + 1)
            for mode, count in tiles.items():
                labeled = count * (dissections // (k + 1))
                assert labeled % 2**k == 0
                assert closed_form_f_vector(n, mode)[k] == labeled // 2**k


def test_smallest_complex_is_a_point():
    complex_ = build_complex(3)
    assert complex_.f_vector() == (1,)
    assert complex_.dimension == 0


def test_build_complex_range_and_mode_guards():
    with pytest.raises(RangeError):
        build_complex(2)
    with pytest.raises(RangeError):
        build_complex(9)
    with pytest.raises(MosaicError):
        build_complex(5, "affine")


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_euler_three_ways(n, cache):
    assert cache.full(n).euler_characteristic() == EULER[n]
    assert euler_closed_form(n) == EULER[n]
    assert euler_proof_sum(n) == EULER[n]


@pytest.mark.parametrize("n", sorted(EULER))
def test_euler_closed_form_matches_proof_sum(n):
    assert euler_closed_form(n) == euler_proof_sum(n) == EULER[n]


def test_coboundary_counts_follow_the_doubling_law(cache):
    # a codim k cell lies under exactly 2^t C(k, t) cells t grades up
    for n, mode in ((5, PROJECTIVE), (5, DOUBLE_COVER), (6, PROJECTIVE)):
        complex_ = cache.full(n, mode)
        for cell in complex_.cells:
            k = cell.codim
            expected = {t: (2 ** t) * comb(k, t) for t in range(k + 1)}
            assert complex_.coboundary_counts(cell) == expected


def test_pc_codes_pair_each_child_with_a_parent_one_codim_up(cache):
    complex_ = cache.full(5)
    codim = [cell.codim for cell in complex_.cells]
    for k, level in complex_.levels.items():
        codes = level.pc_codes.tolist()
        assert len(codes) == level.parents.size > 0
        for code in codes:
            parent, child = code >> 32, code & 0xFFFFFFFF
            assert codim[child] == codim[parent] + 1 == k


@pytest.mark.parametrize("n,mode", [
    (4, PROJECTIVE), (4, DOUBLE_COVER),
    (5, PROJECTIVE), (5, DOUBLE_COVER),
    (6, PROJECTIVE),
])
def test_tile_adjacency_is_regular(n, mode, cache):
    # the tile graph is the grade-1 parent table: each facet's row holds
    # two distinct tiles, and each tile lies on one facet per diagonal
    complex_ = cache.full(n, mode)
    tiles, facets = len(complex_.tiles()), complex_.levels[1].parents
    degree = n * (n - 3) // 2
    assert facets.shape == (tiles * degree // 2, 2)
    assert (facets[:, 0] < facets[:, 1]).all() and facets.max() < tiles
    assert (np.bincount(facets.ravel(), minlength=tiles) == degree).all()


def test_small_tile_graphs_are_cycles(cache):
    # three mutually adjacent tiles upstairs of the square, a hexagon cycle
    # on the double cover
    proj = cache.full(4).levels[1].parents.tolist()
    assert sorted(proj) == [[0, 1], [0, 2], [1, 2]]
    cover = cache.full(4, DOUBLE_COVER).levels[1].parents.tolist()
    assert sorted(cover) == [[0, 1], [0, 2], [1, 4], [2, 3], [3, 5], [4, 5]]


def test_cell_lookup_round_trip(cache):
    complex_ = cache.full(5)
    diss = Dissection((3, 1, 4, 2, 5), frozenset({(1, 3)}))
    cell = complex_.cell_for(diss)
    assert cell.index is not None
    assert complex_.cell_for(twist(diss, (1, 3))) == cell
    assert complex_.resolve(cell_class(diss, PROJECTIVE)) == cell


def test_cell_lookup_rejects_foreign_cells(cache):
    complex_ = cache.full(5)
    with pytest.raises(UnknownCell):
        complex_.cell_for(Dissection((1, 2, 3, 4)))
    with pytest.raises(UnknownCell):
        complex_.resolve(cell_class(Dissection((1, 2, 3, 4, 5)), DOUBLE_COVER))


def _fields(cells):
    # Cell equality ignores size and index
    return [(c.mode, c.labels, c.diagonals, c.size, c.index) for c in cells]


# the complexes whose cells are read against the Python-int decoder: n = 5
# under the three bare names, then n = 3..7 in both regimes and the
# divisor {1, 2, 3} at n = 7
CELL_VIEWS = {
    "projective": (5, PROJECTIVE, None),
    "double cover": (5, DOUBLE_COVER, None),
    "divisor": (6, PROJECTIVE, {1, 2, 3}),
    **{f"{name} n={n}": (n, mode, None)
       for name, mode in (("projective", PROJECTIVE), ("double cover", DOUBLE_COVER))
       for n in (3, 4, 6, 7)},
    "divisor n=7": (7, PROJECTIVE, {1, 2, 3}),
}


@pytest.mark.parametrize("name", list(CELL_VIEWS))
def test_cells_read_as_a_sequence(name, cache):
    n, mode, subset = CELL_VIEWS[name]
    complex_ = cache.full(n, mode)
    if subset:
        complex_ = divisor_subcomplex(complex_, subset)
    cells, size = complex_.cells, sum(complex_.f_vector())
    want = _fields(reference_cells(complex_))
    assert len(cells) == size
    assert _fields(cells) == want
    assert _fields(cells[i] for i in range(size)) == want
    assert _fields(cells[i] for i in range(-size, 0)) == want
    assert _fields(c for k in sorted(complex_.grade_range) for c in complex_.cells_at(k)) == want
    start, end = complex_.grade_range[complex_.codim_offset]
    assert _fields(complex_.tiles()) == want[start:end]
    for _, end in list(complex_.grade_range.values())[:-1]:
        assert _fields(cells[end - 1:end + 2]) == want[end - 1:end + 2]
    assert _fields(cells[3:9]) == want[3:9]
    # strided cells read one at a time: decode is never handed a step
    assert _fields(cells[::2]) == want[::2]
    assert _fields(cells[::-4]) == want[::-4]
    assert _fields(cells[2:][5:-1:2]) == want[2:][5:-1:2]
    assert _fields(cells[-1:][::-1]) == want[-1:]
    assert len(cells[size:]) == 0
    assert list(complex_.decode(range(3, 3))) == []
    for index in (size, -size - 1):
        with pytest.raises(IndexError):
            cells[index]
    for index in ("0", 1.0, None):
        with pytest.raises(TypeError):
            cells[index]
    with pytest.raises(TypeError):
        cells[0] = cells[-1]


# a cell of grade 2, which a complex built to max_codim 1 lacks
DEEP = cell_class(Dissection((1, 2, 3, 4, 5), frozenset({(0, 2), (0, 3)})), PROJECTIVE)


@pytest.mark.parametrize("cell", (
    # the other mode
    Cell(DOUBLE_COVER, (1, 2, 3, 4, 5), (), 1),
    # another n
    Cell(PROJECTIVE, (1, 2, 3, 4), (), 1),
    Cell(PROJECTIVE, (1, 2, 3, 4, 5, 6), (), 1),
    DEEP,
    # diagonal sets that no grade-1 set equals: crossing, unsorted, adjacent
    Cell(PROJECTIVE, (1, 2, 3, 4, 5), ((0, 2), (1, 3)), 4),
    Cell(PROJECTIVE, (1, 2, 3, 4, 5), ((1, 3), (0, 2)), 4),
    Cell(PROJECTIVE, (1, 2, 3, 4, 5), ((0, 1),), 2),
    # labels that are no permutation of 1..5, or no numbers; the last two
    # carry in base 6 onto the code of the tile (1, 2, 3, 5, 4)
    Cell(PROJECTIVE, (1, 2, 2, 4, 5), (), 1),
    Cell(PROJECTIVE, (0, 2, 3, 4, 5), (), 1),
    Cell(PROJECTIVE, ("a", "b", "c", "d", "e"), (), 1),
    Cell(PROJECTIVE, (1, 2, 3, 4, 10), (), 1),
    Cell(PROJECTIVE, (1, 2, 3, 6, -2), (), 1),
))
def test_resolve_raises_unknown_cell_for_a_cell_it_lacks(cell, cache):
    shallow = build_complex(5, max_codim=1)
    with pytest.raises(UnknownCell) as info:
        shallow.resolve(cell)
    assert type(info.value) is UnknownCell
    if cell is DEEP:
        assert cache.full(5).resolve(cell) == cell


@pytest.mark.parametrize("indices", (range(0, 6, 2), range(5, 0, -1)))
def test_decode_rejects_a_range_of_another_step(indices, cache):
    # a generator: the error comes with the first slice, before any code is read
    slices = cache.full(5).decode(indices)
    with pytest.raises(RangeError, match=rf"^decode needs a range of step 1, got "
                       rf"{re.escape(repr(indices))}$"):
        next(slices)


@pytest.mark.parametrize("indices", (range(-3, 2), range(50, 80), range(57, 58), range(-1, 0)))
def test_decode_rejects_a_range_outside_the_complex(indices, cache):
    slices = cache.full(5).decode(indices)
    with pytest.raises(RangeError, match=rf"^decode needs a range inside the 57 cells, got "
                       rf"{re.escape(repr(indices))}$"):
        next(slices)


def test_decode_reads_the_ranges_inside_the_complex(cache):
    complex_ = cache.full(5)
    assert list(complex_.decode(range(3, 3))) == []
    assert list(complex_.decode(range(-1, -1))) == list(complex_.decode(range(80, 80))) == []
    assert [(k, lo, len(labels)) for k, lo, labels, *_ in complex_.decode(range(0, 57))] == [
        (0, 0, 12), (1, 12, 30), (2, 42, 15)]
    # a slice is clamped by the range before decode sees it
    assert [cell.index for cell in complex_.cells[55:80]] == [55, 56]


def test_cells_at_rejects_missing_grades(cache):
    with pytest.raises(RangeError):
        cache.full(4).cells_at(5)


def test_truncated_build_stops_at_the_requested_grade():
    shallow = build_complex(6, PROJECTIVE, max_codim=1)
    assert shallow.f_vector() == F_PROJECTIVE[6][:2]
    assert not shallow.is_full_depth()
    assert shallow.max_codim == 1
    assert (np.bincount(shallow.levels[1].parents.ravel()) == 9).all()
    for cell in shallow.cells_at(1):
        assert shallow.coboundary_counts(cell) == {0: 1, 1: 2}


@pytest.mark.parametrize("n, mode, max_codim",
                         [(n, mode, None) for n in range(4, 8) for mode in (PROJECTIVE, DOUBLE_COVER)]
                         + [(7, mode, top) for mode in (PROJECTIVE, DOUBLE_COVER) for top in range(3)])
def test_codes_and_parent_rows_are_strictly_increasing(n, mode, max_codim, cache):
    # the one sort of (code, parent) keys orders a grade's codes and each
    # row of parents; the distinct-parents check compares neighbours only
    complex_ = cache.full(n, mode) if max_codim is None else build_complex(n, mode, max_codim)
    assert complex_.max_codim == (n - 3 if max_codim is None else max_codim)
    for codes in complex_._codes.values():
        assert (np.diff(codes) > 0).all()
    for level in complex_.levels.values():
        assert (np.diff(level.parents, axis=1) > 0).all()


def grade_sizes(n, mode):
    # (grade, diagonal sets, rows it grows from) for each grade of a build:
    # grade 0 from the (n-1)! labelings, grade k from the cells of grade k-1
    rows = (factorial(n - 1),) + closed_form_f_vector(n, mode)
    return [(k, cayley_count(n, k), rows[k]) for k in range(n - 2)]


@pytest.mark.parametrize("mode, needs", ((PROJECTIVE, (66, 71, 73, 74, 73, 70)),
                                         (DOUBLE_COVER, (67, 72, 74, 75, 74, 71))))
def test_keys_fit_an_int64_through_n_9_but_not_at_n_10(mode, needs):
    # at n = 9 the double cover's grade 4 needs exactly 63 bits
    for k, sets, rows in grade_sizes(9, mode):
        assert _key_shift(k, 9, sets, rows) == rows.bit_length()
    sizes = grade_sizes(10, mode)
    for k, sets, rows in sizes[:2]:
        assert _key_shift(k, 10, sets, rows) == rows.bit_length()
    for (k, sets, rows), bits in zip(sizes[2:], needs, strict=True):
        with pytest.raises(InvariantViolation, match=rf"^grade {k}: a \(code, parent\) key "
                                                     rf"needs {bits} bits, more than the 63 of an int64$"):
            _key_shift(k, 10, sets, rows)


@pytest.mark.parametrize("mode", (PROJECTIVE, DOUBLE_COVER))
def test_build_peaks_within_a_small_multiple_of_what_it_keeps(mode):
    # a grade is deduplicated by one in-place sort of its int64
    # (code, parent) keys, so the traced peak stays under 3.5 times the
    # bytes of the codes and parent tables the complex keeps (2.76 at
    # n = 7; the n = 8 builds, in CI, stay under 2.0)
    build_complex(7, mode)                  # warm the diagonal-set and turn caches
    tracemalloc.start()
    try:
        complex_ = build_complex(7, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {level.parents.dtype for level in complex_.levels.values()} == {np.dtype(np.int32)}
    kept = sum(codes.nbytes for codes in complex_._codes.values()) \
        + sum(level.parents.nbytes for level in complex_.levels.values())
    assert peak < 3.5 * kept, f"peak {peak} bytes, {kept} bytes kept"


def arithmetic_decode(codes, n, set_count):
    # a code's labels, one base-(n+1) digit a position, and its set index
    codes = np.asarray(codes, dtype=np.int64)
    powers = (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return codes[:, None] // set_count // powers % (n + 1), codes % set_count


def assert_unpacks(codes, n, set_count):
    rows, sets = moduli._unpack(codes, n, set_count)
    labels, want = arithmetic_decode(codes, n, set_count)
    assert rows.dtype == np.int8 and sets.dtype == np.int32
    assert (rows == labels).all() and (sets == want).all()


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("mode", (PROJECTIVE, DOUBLE_COVER))
def test_unpack_reads_the_digits_of_each_code(n, mode, cache):
    complex_ = cache.full(n, mode)
    chunk = 1 << 14
    for k, codes in complex_._codes.items():
        set_count, (start, end) = cayley_count(n, k), complex_.grade_range[k]
        assert_unpacks(codes, n, set_count)
        # the first and the last code, alone and through cells[i]
        for at in (0, len(codes) - 1):
            assert_unpacks(codes[at:at + 1], n, set_count)
            labels, s = arithmetic_decode(codes[at:at + 1], n, set_count)
            cell = complex_.cells[start + at]
            assert cell.labels == tuple(labels[0].tolist())
            assert cell.diagonals == enumerate_diagonal_sets(n, k)[s[0]]
        if len(codes) > chunk + 2:
            # a run that starts inside the grade and spans two chunks
            assert_unpacks(codes[1:chunk + 2], n, set_count)
    for width in {n // 2, n - n // 2}:
        table = moduli._digits(n, width)
        assert table.shape == ((n + 1) ** width, width) and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1


def test_unpack_reads_synthetic_codes_of_n_9():
    # n = 9 is past the build limit: every digit 0..9 at every position,
    # the two extreme label values and a run over two 16K chunks
    rng, n, set_count = np.random.default_rng(20261020), 9, cayley_count(9, 3)
    digits = rng.integers(0, n + 1, size=((1 << 14) + 100, n))
    digits[:n + 1] = np.arange(n + 1)[:, None]
    digits[-1] = n
    powers = (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = (digits @ powers) * set_count + rng.integers(0, set_count, size=len(digits))
    assert_unpacks(codes, n, set_count)
    assert_unpacks(codes[-1:], n, set_count)
    assert not moduli._digits(9, 4).flags.writeable and not moduli._digits(9, 5).flags.writeable


def slice_counts(n, mode, monkeypatch):
    # the number of _least_codes calls in each grade of a build
    counts, grow, least = [], moduli._grow, moduli._least_codes

    def counted_grow(*args):
        counts.append(0)
        return grow(*args)

    def counted_least(*args):
        counts[-1] += 1
        return least(*args)

    monkeypatch.setattr(moduli, "_grow", counted_grow)
    monkeypatch.setattr(moduli, "_least_codes", counted_least)
    build_complex(n, mode)
    return tuple(counts)


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("mode", (PROJECTIVE, DOUBLE_COVER))
def test_builds_to_n_7_walk_2048_rows_at_a_time(n, mode, monkeypatch):
    # grade 0 grows from the (n-1)! labelings, grade k >= 1 from the 2k
    # pairs that reach each of its cells
    pairs = [factorial(n - 1)] + [2 * k * cells
                                  for k, cells in enumerate(closed_form_f_vector(n, mode)) if k]
    assert max(pairs) < 64 * 2048
    assert slice_counts(n, mode, monkeypatch) == tuple(-(-p // 2048) for p in pairs)


@pytest.mark.parametrize("mode, slices", ((PROJECTIVE, (3, 25, 64, 65, 65, 51)),
                                          (DOUBLE_COVER, (3, 50, 64, 65, 65, 65))))
def test_n_8_builds_walk_at_most_65_slices_a_grade(mode, slices, monkeypatch):
    assert slice_counts(8, mode, monkeypatch) == slices


@pytest.mark.parametrize("n", range(4, 8))
@pytest.mark.parametrize("mode", (PROJECTIVE, DOUBLE_COVER))
def test_builds_in_slices_of_5_rows_match_the_default(n, mode, monkeypatch, cache):
    # slices of at least 5 rows cut many runs of one set's rows in two
    want = cache.full(n, mode)
    monkeypatch.setattr(moduli, "_SLICE", 5)
    got = build_complex(n, mode)
    assert got._codes.keys() == want._codes.keys() and got.levels.keys() == want.levels.keys()
    for k, codes in want._codes.items():
        assert np.array_equal(got._codes[k], codes)
    for k, level in want.levels.items():
        assert got.levels[k].start == level.start
        assert np.array_equal(got.levels[k].parents, level.parents)


@pytest.mark.parametrize("n", range(4, 9))
def test_set_indices_sort_alike_as_int16_and_int32(n, cache):
    # _grow radix-sorts an int16 copy of the set indices; no grade at
    # n <= 9 has 2^15 sets
    assert max(cayley_count(9, k) for k in range(7)) == 1485
    for mode in (PROJECTIVE, DOUBLE_COVER):
        complex_ = cache.full(n, mode)
        for k, codes in complex_._codes.items():
            sets = moduli._unpack(codes, n, cayley_count(n, k))[1]
            assert np.array_equal(np.argsort(sets.astype(np.int16), kind="stable"),
                                  np.argsort(sets, kind="stable"))


@pytest.mark.parametrize("count", (0, 1, 2047, 2048, 2049, 64 * 2048 - 1, 64 * 2048,
                                   64 * 2048 + 63, 64 * 2048 + 64, 10 ** 6 + 7, 3 * 10 ** 7))
def test_a_walk_takes_at_most_65_slices_of_at_least_2048_rows(count):
    width = moduli._slice_rows(count)
    assert width >= 2048 and -(-count // width) <= 65
    # a slice's temporaries, about 150 bytes a row, under a third of the keys
    assert width * 150 < count * 8 / 3 or width == 2048


# ---------------------------------------------------------------------------
# divisors

def test_divisor_of_the_pentagon(cache):
    complex_ = cache.full(5)
    sub = divisor_subcomplex(complex_, {1, 2})
    assert sub.f_vector() == (3, 3)
    assert sub.codim_offset == 1
    assert sub.divisor_set == frozenset({1, 2})
    assert sub.dimension == 1
    report = verify_divisor_factorization(complex_, {1, 2})
    assert report.passed, report.failures[:3]
    assert report.factor_sizes == (3, 4)
    assert report.cells_checked == sum(report.sub_f_vector)


def test_divisor_subsets_normalize_to_the_complement(cache):
    complex_ = cache.full(5)
    sub_a = divisor_subcomplex(complex_, {1, 2})
    sub_b = divisor_subcomplex(complex_, {3, 4, 5})
    assert sub_b.divisor_set == frozenset({1, 2})
    assert [c.index for c in sub_a.cells] == [c.index for c in sub_b.cells]


def test_divisor_factorization_for_the_hexagon(cache):
    complex_ = cache.full(6)
    report = verify_divisor_factorization(complex_, {1, 2, 3})
    assert report.passed, report.failures[:3]
    assert str(report) == ("divisor [1, 2, 3] of n=6: 36 cells vs 4-gon x 4-gon product, "
                           "72 incidences: pass")
    assert report.factor_sizes == (4, 4)
    assert report.sub_f_vector == (9, 18, 9)
    report = verify_divisor_factorization(complex_, {1, 2})
    assert report.passed
    assert report.factor_sizes == (3, 5)
    assert report.sub_f_vector == (12, 30, 15)


def test_divisor_coboundaries_follow_the_doubling_law(cache):
    # a divisor is a complex of dimension one less: a cell of ambient
    # codim k lies under 2^t C(k-1, t) of its cells t grades up
    complex_ = cache.full(6)
    for subset in divisor_label_classes(6):
        sub = divisor_subcomplex(complex_, subset)
        for cell in sub.cells:
            k = cell.codim
            expected = {t: (2 ** t) * comb(k - 1, t) for t in range(k)}
            assert sub.coboundary_counts(cell) == expected, (sorted(subset), cell)


def cut_arcs(cell, subset):
    # the vertex arcs (x, y), one per diagonal of the cell, whose sides
    # x..y-1 hold exactly the labels in subset
    n = len(cell.labels)
    return [(x, y) for i, j in cell.diagonals for x, y in ((i, j), (j, i))
            if {cell.labels[(x + t) % n] for t in range((y - x) % n)} == subset]


def arc_half(cell, x, y, side):
    # the sub-polygon on the vertex arc x..y: its sides relabeled 1.. in
    # the order of side, closed by the chord (x, y) as its last side
    n, span = len(cell.labels), (y - x) % len(cell.labels)
    rename = {v: t + 1 for t, v in enumerate(side)}
    labels = tuple(rename[cell.labels[(x + t) % n]] for t in range(span)) + (span + 1,)
    moved = [tuple(sorted(((u - x) % n, (v - x) % n))) for u, v in cell.diagonals]
    return Dissection(labels, frozenset(d for d in moved if d[1] <= span and d != (0, span)))


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_divisor_cells_match_a_separating_diagonal_scan(n, cache):
    # membership read through the parent tables equals a label test on
    # every diagonal of every ambient cell: the scan reads each cell's
    # cuts once and files the cell under every label set they cut off
    complex_ = cache.full(n)
    everything = frozenset(range(1, n + 1))
    scanned = {subset: [] for subset in divisor_label_classes(n)}
    for cell in complex_.cells:
        cuts = [frozenset(cell.labels[i:j]) for i, j in cell.diagonals]
        cuts = [everything - cut if n in cut else cut for cut in cuts]
        assert len(set(cuts)) == len(cuts), cell
        for cut in cuts:
            scanned[cut].append(cell.index)
    for subset, want in scanned.items():
        sub = divisor_subcomplex(complex_, subset)
        assert [complex_.resolve(cell).index for cell in sub.cells] == want, sorted(subset)


@pytest.mark.parametrize("n", (5, 6, 7))
def test_divisor_halves_resolve_in_bulk_as_cell_for_does(n, cache):
    # both halves of every divisor cell, looked up at once, land on the
    # cells the scalar route finds one dissection at a time
    complex_ = cache.full(n)
    for subset in divisor_label_classes(n):
        sub = divisor_subcomplex(complex_, subset)
        arcs = [cut_arcs(cell, subset)[0] for cell in sub.cells]
        sides = sorted(subset), sorted(set(range(1, n + 1)) - subset)
        for h, (side, half) in enumerate(zip(sides, _halves(sub))):
            factor = cache.full(len(side) + 1)
            scalar = [factor.cell_for(arc_half(cell, *arc[::-1 if h else 1], side)).index
                      for cell, arc in zip(sub.cells, arcs)]
            assert _row_indices(factor, *half).tolist() == scalar, (sorted(subset), h)


def test_divisor_needs_grade_one_of_the_ambient_complex():
    with pytest.raises(RangeError):
        divisor_subcomplex(build_complex(6, max_codim=0), {1, 2})


def test_divisor_factorization_needs_a_full_depth_complex():
    with pytest.raises(MosaicError, match="fully built"):
        verify_divisor_factorization(build_complex(6, max_codim=1), {1, 2})


def test_divisor_names_a_cell_with_the_wrong_number_of_parents():
    complex_ = build_complex(5)
    sub = divisor_subcomplex(complex_, {1, 2})
    inside = {complex_.resolve(cell).index for cell in sub.cells}
    # move one divisor parent of the divisor's first vertex off the divisor
    vertex = sub.cells_at(2)[0]
    level = complex_.levels[2]
    row = level.parents[complex_.resolve(vertex).index - level.start]
    row[[p in inside for p in row.tolist()].index(True)] = next(
        e for e in range(*complex_.grade_range[1]) if e not in inside)
    with pytest.raises(InvariantViolation, match=rf"^grade 2: divisor cell {vertex.index} "
                       r"lies on 1 divisor cells of grade 1, not 2$"):
        divisor_subcomplex(complex_, {1, 2})


def test_divisor_halves_need_one_diagonal_cutting_off_the_set(cache):
    # the cells of the divisor of {1, 2} carry no diagonal cutting off {1, 3}
    sub = divisor_subcomplex(cache.full(5), {1, 2})
    sub.divisor_set = frozenset({1, 3})
    with pytest.raises(InvariantViolation, match=r"^divisor cell 0: 0 of its diagonals "
                       r"cut off \[1, 3\], not 1$"):
        _halves(sub)


def test_divisor_factorization_reports_halves_of_the_wrong_codim(cache, monkeypatch):
    # each cell's halves swapped with those of the cell at the other end of
    # the divisor: the halves of a grade-2 cell carry one diagonal, of a
    # grade-1 cell none, so every cell's codims mismatch and no incidence
    # is checked
    def reversed_halves(sub):
        return [(rows[::-1], counts[::-1],
                 np.concatenate(np.split(ends, np.cumsum(counts)[:-1])[::-1]))
                for rows, counts, ends in _halves(sub)]

    monkeypatch.setattr(moduli, "_halves", reversed_halves)
    report = verify_divisor_factorization(cache.full(5), {1, 2})
    assert report.failures == ([f"cell {i}: codim 1 vs factors 0+1+1" for i in range(3)]
                               + [f"cell {i}: codim 2 vs factors 0+0+1" for i in range(3, 6)])
    assert (report.cells_checked, report.incidences_checked) == (6, 0)


def test_divisor_factorization_rejects_factors_of_the_wrong_size(cache):
    complex_ = cache.full(5)
    swapped = (cache.full(4), cache.full(3))
    with pytest.raises(MosaicError):
        verify_divisor_factorization(complex_, {1, 2}, swapped)


@pytest.mark.parametrize("subset, factors, message", (
    ({1, 2, 3}, lambda cache: (cache.full(4, DOUBLE_COVER), cache.full(4, DOUBLE_COVER)),
     "the first factor of the divisor [1, 2, 3] must be a full projective complex; "
     "it has mode double-cover"),
    ({1, 2}, lambda cache: (cache.full(3), build_complex(5, max_codim=1)),
     "the second factor of the divisor [1, 2] must be a full projective complex; "
     "it has grades only up to codim 1 of 2"),
    # a divisor subcomplex of the 5-gon complex has the size of the
    # complement factor, but its top cells sit at codimension 1
    ({1, 2}, lambda cache: (cache.full(3), divisor_subcomplex(cache.full(5), {1, 2})),
     "the second factor of the divisor [1, 2] must be a full projective complex; "
     "it has codim_offset 1"),
))
def test_divisor_factorization_names_a_factor_of_the_wrong_kind(subset, factors, message, cache):
    with pytest.raises(MismatchedPolygons, match=f"^{re.escape(message)}$"):
        verify_divisor_factorization(cache.full(6), subset, factors(cache))


@pytest.mark.parametrize("subset, moved, counted", (
    # a codim-1 cell of the S factor (the 4-gon) moved onto another tile:
    # the 6 product cells beside it, one per cell of the other factor,
    # each have a wrong row
    ({1, 2, 3}, 0, 6),
    # the same in the complement factor, beside the 3-gon's one cell
    ({1, 2}, 1, 1),
))
def test_divisor_factorization_counts_the_incidences_a_bad_factor_breaks(
        subset, moved, counted, cache):
    factors = [build_complex(len(subset) + 1), build_complex(7 - len(subset))]
    row = factors[moved].levels[1].parents[0]
    row[1] = next(t for t in range(*factors[moved].grade_range[0]) if t not in row)
    row.sort()
    report = verify_divisor_factorization(cache.full(6), subset, factors)
    grades = [int(re.match(r"grade (\d+): the parents of cell \d+ map to ", f)[1])
              for f in report.failures]
    # a product cell of the moved cell and a cell t of codim b lies at
    # grade 1 + 1 + b of the divisor
    other = factors[1 - moved]
    assert len(grades) == counted
    assert grades == sorted(2 + b for b, (lo, hi) in other.grade_range.items()
                            for _ in range(lo, hi)), report.failures


def test_check_map_names_the_grade_and_the_cell(cache):
    # the identity map of a complex onto itself passes; two swapped images
    # break the rows of those cells and of the cells below just one of
    # them, and two cells sent to one image leave the other's fiber empty
    complex_ = cache.full(5)
    size, rows = len(complex_.cells), partial(_parent_rows, complex_)
    image = np.arange(size)
    assert _check_map(complex_, image, rows, 1, size, "own") == []
    e, f = complex_.grade_range[1][0], complex_.grade_range[1][0] + 1
    image[[e, f]] = f, e
    failures = _check_map(complex_, image, rows, 1, size, "own")
    named = {(int(k), int(i)) for k, i in
             (re.match(r"grade (\d+): the parents of cell (\d+) map to ", x).groups()
              for x in failures)}
    level = complex_.levels[2]
    below = np.flatnonzero(np.isin(level.parents, [e, f]).sum(axis=1) == 1) + level.start
    assert len(below)
    assert named == {(1, e), (1, f)} | {(2, v) for v in below.tolist()}, failures
    image[[e, f]] = e, e
    failures = _check_map(complex_, image, rows, 1, size, "own")
    assert failures[:2] == [f"fiber over own cell {e} has 2 cells",
                            f"fiber over own cell {f} has 0 cells"]


def test_every_pentagon_divisor_class_passes(cache):
    complex_ = cache.full(5)
    classes = divisor_label_classes(5)
    assert len(classes) == 10
    for subset in classes:
        assert verify_divisor_factorization(complex_, subset).passed


@pytest.mark.parametrize("n", range(4, 11))
def test_divisor_label_classes_are_the_normalized_subsets(n):
    normalized = {normalize_divisor_subset(n, c)
                  for r in range(2, n - 1) for c in combinations(range(1, n + 1), r)}
    assert divisor_label_classes(n) == sorted(normalized, key=lambda s: (len(s), sorted(s)))


def test_divisor_guards(cache):
    complex_ = cache.full(5)
    with pytest.raises(BadSubsetSize):
        divisor_subcomplex(complex_, {1})
    with pytest.raises(BadSubsetSize):
        divisor_subcomplex(complex_, {1, 2, 3, 4})
    with pytest.raises(UnknownLabel):
        divisor_subcomplex(complex_, {1, 9})
    with pytest.raises(MosaicError):
        divisor_subcomplex(cache.full(5, DOUBLE_COVER), {1, 2})
    sub = divisor_subcomplex(complex_, {1, 2})
    with pytest.raises(MosaicError):
        divisor_subcomplex(sub, {1, 2})


# ---------------------------------------------------------------------------
# the double cover over the projective complex

@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_covering_map_is_two_to_one(n, cache):
    cover, projective = cache.full(n, DOUBLE_COVER), cache.full(n)
    report = covering_map(cover, projective)
    assert report.passed, report.failures[:3]
    assert str(report) == (f"double cover of n={n}: {2 * sum(F_PROJECTIVE[n])} cells "
                           f"map 2-to-1: pass")
    assert len(report.mapping) == 2 * sum(F_PROJECTIVE[n])
    assert report.mapping.tolist() == [projective.cell_for(cell.representative).index
                                       for cell in cover.cells]


def counted_walk(monkeypatch):
    # each _row_indices call of a covering map: its grade, its first
    # cover index and its number of rows
    calls, walk = [], moduli._row_indices

    def counted(target, rows, counts, ends, first=0):
        assert len(set(counts.tolist())) == 1
        calls.append((int(counts[0]), first, len(rows)))
        return walk(target, rows, counts, ends, first)

    monkeypatch.setattr(moduli, "_row_indices", counted)
    return calls


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_covering_map_walks_each_grade_in_slices_of_2048(n, monkeypatch, cache):
    cover = cache.full(n, DOUBLE_COVER)
    calls = counted_walk(monkeypatch)
    assert covering_map(cover, cache.full(n)).passed
    want = [(k, lo, min(2048, end - lo)) for k, (start, end) in cover.grade_range.items()
            for lo in range(start, end, 2048)]
    assert calls == want
    assert [sum(k == c for c, _, _ in calls) for k in cover.grade_range] == \
        [-(-2 * cells // 2048) for cells in F_PROJECTIVE[n]]


def test_the_n8_covering_map_walks_at_most_65_slices_a_grade(monkeypatch, cache):
    cover = build_complex(8, DOUBLE_COVER)
    calls = counted_walk(monkeypatch)
    assert covering_map(cover, cache.full(8)).passed
    slices = [sum(k == c for c, _, _ in calls) for k in cover.grade_range]
    assert max(slices) <= 65, slices
    # the slices tile the cover's cells in order, each inside one grade
    assert [lo for _, lo, _ in calls] == np.cumsum([0] + [m for _, _, m in calls[:-1]]).tolist()
    assert sum(m for _, _, m in calls) == len(cover.cells)
    assert all(lo + m <= cover.grade_range[k][1] for k, lo, m in calls)


def least_calls(monkeypatch):
    # the number of _least_codes calls since it was patched
    calls, least = [0], moduli._least_codes

    def counted(*args):
        calls[0] += 1
        return least(*args)

    monkeypatch.setattr(moduli, "_least_codes", counted)
    return calls


def test_the_n8_covering_map_walks_each_slice_in_one_least_codes_call(monkeypatch, cache):
    # one call for each of the 220 slices of the cover's grades
    projective, cover = cache.full(8), build_complex(8, DOUBLE_COVER)
    calls = least_calls(monkeypatch)
    assert covering_map(cover, projective).passed
    assert calls[0] == 220


def test_the_n8_divisor_check_walks_one_least_codes_call_a_grade_of_each_half(
        monkeypatch, cache):
    # the 3-gon half is all grade 0; the 7-gon half spans grades 0..4 of
    # the 7-gon complex, each in one call
    factors = cache.full(3), cache.full(7)
    calls = least_calls(monkeypatch)
    assert verify_divisor_factorization(cache.full(8), {1, 2}, factors).passed
    assert calls[0] == 6


@pytest.mark.parametrize("n", range(4, 10))
def test_the_turned_diagonal_table_numbers_each_turned_diagonal(n):
    table, number = moduli._diagonal_bits(n), {d: t for t, d in enumerate(polygon_diagonals(n))}
    assert len(table) == n and all(len(row) == n * n for row in table)
    for r, (u, v) in product(range(n), polygon_diagonals(n)):
        bit = 1 << number[tuple(sorted(((u - r) % n, (v - r) % n)))]
        assert table[r][u * n + v] == table[r][v * n + u] == bit, (r, u, v)


def test_the_covering_map_keeps_a_read_only_image(cache):
    mapping = covering_map(cache.full(5, DOUBLE_COVER), cache.full(5)).mapping
    assert mapping.dtype == np.int64
    assert not mapping.flags.writeable


def test_covering_map_names_a_lift_whose_parents_do_not_match(cache):
    projective = cache.full(5)
    cover = build_complex(5, DOUBLE_COVER)
    image = covering_map(cover, projective).mapping
    # give the first vertex of the cover an edge over no parent of its image
    level = cover.levels[2]
    row = level.parents[0]
    row[0] = next(e for e in range(*cover.grade_range[1])
                  if image[e] not in {image[p] for p in row})
    row.sort()
    report = covering_map(cover, projective)
    assert len(report.failures) == 1
    assert report.failures[0].startswith(f"grade 2: the parents of cell {level.start} map to ")


@pytest.mark.parametrize("edit", (
    # label 2 becomes a second 3: the image is no labeling 1..5
    lambda cell: (tuple(3 if x == 2 else x for x in cell.labels), cell.diagonals),
    # two crossing diagonals: the image has no diagonal set of the grade
    lambda cell: (cell.labels, ((0, 2), (1, 3))),
))
def test_covering_map_names_a_cover_cell_over_no_projective_cell(edit, cache):
    projective = cache.full(5)
    cover = build_complex(5, DOUBLE_COVER)
    cell = cover.cells_at(2)[0]
    labels, diagonals = edit(cell)
    if diagonals == cell.diagonals:
        # the covering map reads the cover's cells from their codes, so
        # the edit goes into the cell's stored code
        codes, sets = cover._codes[2], len(enumerate_diagonal_sets(5, 2))
        codes[0] = sum(x * 6 ** (4 - p) for p, x in enumerate(labels)) * sets + codes[0] % sets
        assert cover.cells[cell.index].labels == labels
        run = lambda: covering_map(cover, projective)
    else:
        # no set index holds crossing diagonals, so the cover's rows, the
        # edited one among them, go to _row_indices as arrays
        rows = [(c.labels, c.diagonals) for c in cover.cells]
        rows[cell.index] = labels, diagonals
        counts = np.fromiter((len(d) for _, d in rows), np.int64, len(rows))
        ends = np.fromiter((x for _, d in rows for e in d for x in e), np.int8, 2 * counts.sum())
        run = lambda: _row_indices(projective, np.array([r for r, _ in rows], dtype=np.int8),
                                   counts, ends.reshape(-1, 2))
    with pytest.raises(UnknownCell, match=rf"^row {cell.index}: {re.escape(repr(labels))} "
                       rf"with diagonals {re.escape(repr(diagonals))} lies in no cell"):
        run()


def test_covering_map_names_an_edited_cover_cell_by_its_cover_index(cache):
    # the edited cell sits in the third slice of grade 2 of the n = 7 cover
    projective, cover = cache.full(7), build_complex(7, DOUBLE_COVER)
    start, end = cover.grade_range[2]
    index = start + 2 * 2048 + 5
    assert index < min(start + 3 * 2048, end)
    cell = cover.cells[index]
    labels = tuple(3 if x == 2 else x for x in cell.labels)
    codes, sets = cover._codes[2], len(enumerate_diagonal_sets(7, 2))
    codes[index - start] = sum(x * 8 ** (6 - p) for p, x in enumerate(labels)) * sets \
        + codes[index - start] % sets
    assert cover.cells[index].labels == labels
    with pytest.raises(UnknownCell, match=rf"^row {index}: {re.escape(repr(labels))} "
                       rf"with diagonals {re.escape(repr(cell.diagonals))} lies in no cell"):
        covering_map(cover, projective)


def test_check_map_names_broken_rows_past_the_first_slice(cache):
    # rows 3000 and the last row of grade 2 of a copy of the n = 7 complex
    # get a parent outside their rows; mapped by the identity onto the
    # intact complex, each names its own cell, in the second and the
    # third slice of the level
    intact, broken = cache.full(7), build_complex(7)
    level = broken.levels[2]
    assert len(level.parents) > 4096
    rows = (3000, len(level.parents) - 1)
    for row in rows:
        parents = level.parents[row]
        parents[0] = next(e for e in range(*broken.grade_range[1]) if e not in parents)
        parents.sort()
    size = len(intact.cells)
    failures = _check_map(broken, np.arange(size), partial(_parent_rows, intact), 1, size, "own")
    assert failures == [
        f"grade 2: the parents of cell {level.start + row} map to "
        f"{level.parents[row].tolist()}, the parents of its image {level.start + row} "
        f"are {intact.levels[2].parents[row].tolist()}" for row in rows]


def test_row_indices_skip_a_grade_with_no_rows(cache):
    # tile rows only: grades 1 and 2 are handed no rows
    complex_ = cache.full(5)
    rows, counts, ends = _cell_rows(complex_, range(12))
    assert counts.tolist() == [0] * 12 and ends.shape == (0, 2)
    assert _row_indices(complex_, rows, counts, ends).tolist() == list(range(12))


def test_covering_map_guards(cache):
    with pytest.raises(MosaicError):
        covering_map(cache.full(4), cache.full(4))
    with pytest.raises(MosaicError):
        covering_map(cache.full(4, DOUBLE_COVER), cache.full(5))
    shallow = build_complex(4, DOUBLE_COVER, max_codim=0)
    with pytest.raises(MosaicError):
        covering_map(shallow, cache.full(4))


# ---------------------------------------------------------------------------
# surface recognition

def test_pentagon_complex_is_a_nonorientable_surface(cache):
    report = classify_surface(cache.full(5))
    assert (report.tiles, report.edges, report.vertices) == (12, 30, 15)
    assert report.euler == -3
    assert not report.orientable
    assert report.identified_surface == "N_5 (connected sum of 5 projective planes)"


def test_pentagon_double_cover_surface(cache):
    report = classify_surface(cache.full(5, DOUBLE_COVER))
    assert report.euler == -6
    assert not report.orientable
    assert report.identified_surface == "N_8 (connected sum of 8 projective planes)"


def test_hexagon_divisors_are_surfaces(cache):
    # D_S is the product of M0^{|S|+1} and M0^{7-|S|}: a point (m = 3) or a
    # circle (m = 4), both orientable, times a circle or N_5 (m = 5), which
    # is not; so each f-vector convolves the factors', the Euler
    # characteristics multiply, and D_S is the torus when |S| = 3 and N_5
    # otherwise
    complex_ = cache.full(6)
    euler = {3: 1, 4: euler_closed_form(4), 5: euler_closed_form(5)}
    for subset in divisor_label_classes(6):
        m1, m2 = len(subset) + 1, 7 - len(subset)
        report = classify_surface(divisor_subcomplex(complex_, subset))
        f = np.convolve(closed_form_f_vector(m1), closed_form_f_vector(m2)).tolist()
        assert [report.tiles, report.edges, report.vertices] == f, subset
        assert report.euler == euler[m1] * euler[m2], subset
        assert report.orientable == (max(m1, m2) <= 4), subset
        assert report.identified_surface == ("S_1 (torus)" if len(subset) == 3 else
                                             "N_5 (connected sum of 5 projective planes)")


def _surfaces(cache):
    yield cache.full(5)
    yield cache.full(5, DOUBLE_COVER)
    for subset in divisor_label_classes(6):
        yield divisor_subcomplex(cache.full(6), subset)


def test_tile_boundary_walks_match_the_compatible_diagonals(cache):
    # a tile's flags lie on its edges, its representative plus one
    # compatible diagonal, at their endpoints, the same plus two; the mates
    # that keep the tile walk all its flags in one cycle
    for complex_ in _surfaces(cache):
        n = complex_.n
        flags, other_edge = _flags(complex_)
        every = np.arange(len(flags))
        other_vertex = every ^ 2
        # each mate changes its column of the row and keeps the other two
        for mate, moved in ((every ^ 1, 0), (other_vertex, 2), (other_edge, 1)):
            assert (mate[mate] == every).all()
            for column in range(3):
                assert ((flags[mate, column] == flags[:, column]) == (column != moved)).all()
        for tile in complex_.tiles():
            base = frozenset(tile.diagonals)
            extra = [d for d in polygon_diagonals(n) if d not in base
                     and not any(diagonals_cross(d, e, n) for e in base)]
            want = {}
            for d in extra:
                corners = {complex_.cell_for(Dissection(tile.labels, base | {d, e})).index
                           for e in extra if e != d and not diagonals_cross(d, e, n)}
                want[complex_.cell_for(Dissection(tile.labels, base | {d})).index] = corners
            mine = np.flatnonzero(flags[:, 0] == tile.index)
            ends = {}
            for _, edge, vertex in flags[mine].tolist():
                ends.setdefault(edge, set()).add(vertex)
            assert ends == want, tile
            f, walk = mine[0], []
            for _ in extra:
                walk += [f, other_vertex[f]]
                f = other_edge[other_vertex[f]]
            assert f == mine[0] and sorted(walk) == mine.tolist(), tile


def _octahedron():
    # the octahedron in the n = 5 shape: 8 triangles, 12 edges on two of
    # them each, and 6 vertices on four edges each
    poles = [(0, 1), (2, 3), (4, 5)]
    faces = list(product(*poles))
    edges = [e for e in combinations(range(6), 2) if e not in poles]
    facets = np.array([[t for t, f in enumerate(faces) if set(e) <= set(f)] for e in edges],
                      dtype=np.int32)
    corners = np.array([[8 + i for i, e in enumerate(edges) if v in e] for v in range(6)],
                       dtype=np.int32)
    codes = {k: np.arange(size, dtype=np.int64) for k, size in enumerate((8, 12, 6))}
    return ModuliComplex(5, PROJECTIVE, codes, {1: _Level(8, facets), 2: _Level(20, corners)})


def test_classify_surface_names_the_sphere():
    report = classify_surface(_octahedron())
    assert (report.tiles, report.edges, report.vertices, report.euler) == (8, 12, 6, 2)
    assert report.orientable
    assert report.identified_surface == "S_0 (sphere)"


def test_classify_surface_names_orientable_surfaces_by_euler_characteristic(monkeypatch):
    # the octahedron's flags stay orientable; only the counts it reports change
    octahedron = _octahedron()
    monkeypatch.setattr(octahedron, "f_vector", lambda: (8, 12, 5))
    with pytest.raises(InvariantViolation) as raised:
        classify_surface(octahedron)
    assert str(raised.value) == "orientable surface with odd Euler characteristic 1"
    monkeypatch.setattr(octahedron, "f_vector", lambda: (8, 12, 2))
    report = classify_surface(octahedron)
    assert (report.euler, report.orientable) == (-2, True)
    assert report.identified_surface == "S_2 (orientable, genus 2)"


def test_classify_surface_names_an_edge_with_one_endpoint():
    complex_ = build_complex(5)
    level = complex_.levels[2]
    row = level.parents[0]
    lost = int(row[0])
    row[0] = next(e for e in range(*complex_.grade_range[1]) if e not in row)
    row.sort()
    with pytest.raises(NotASurface,
                       match=rf"^edge cell {lost} has 1 endpoint vertices, not 2$"):
        classify_surface(complex_)


def test_classify_surface_names_a_vertex_off_its_tile():
    # one facet moved onto a tile it does not bound: at the facet's ends
    # that tile meets one edge, or three
    complex_ = build_complex(5)
    row = complex_.levels[1].parents[0]
    row[1] = next(t for t in range(*complex_.grade_range[0]) if t not in row)
    row.sort()
    with pytest.raises(NotASurface,
                       match=r"^tile \d+: vertex cell \d+ meets \d+ of its edges, not 2$"):
        classify_surface(complex_)


def test_classify_surface_needs_one_component():
    # the n = 5 tables side by side, the second copy numbered after the first
    complex_ = build_complex(5)
    tiles, edges = complex_.f_vector()[:2]
    facets, corners = complex_.levels[1].parents, complex_.levels[2].parents
    codes = {k: np.tile(grade, 2) for k, grade in complex_._codes.items()}
    twice = ModuliComplex(5, PROJECTIVE, codes, {
        1: _Level(2 * tiles, np.vstack([facets, facets + tiles])),
        2: _Level(2 * (tiles + edges), np.vstack([corners + tiles, corners + tiles + edges]))})
    assert twice.f_vector() == (24, 60, 30)
    with pytest.raises(NotASurface, match=r"^complex is not connected$"):
        classify_surface(twice)


def test_classify_surface_needs_each_tile_bounded_by_one_cycle():
    # the two copies above, with the second copy's first tile renumbered
    # to tile 0 in its facet rows: tile 0's edges then form two cycles
    complex_ = build_complex(5)
    tiles, edges = complex_.f_vector()[:2]
    facets, corners = complex_.levels[1].parents, complex_.levels[2].parents
    copied = facets + tiles
    copied[copied == tiles] = 0
    codes = {k: np.tile(grade, 2) for k, grade in complex_._codes.items()}
    glued = ModuliComplex(5, PROJECTIVE, codes, {
        1: _Level(2 * tiles, np.vstack([facets, np.sort(copied, axis=1)])),
        2: _Level(2 * (tiles + edges), np.vstack([corners + tiles, corners + tiles + edges]))})
    with pytest.raises(NotASurface, match=r"^tile 0: boundary is not a single cycle$"):
        classify_surface(glued)


def test_classify_surface_needs_dimension_two(cache):
    with pytest.raises(NotASurface):
        classify_surface(cache.full(4))
    with pytest.raises(NotASurface):
        classify_surface(cache.full(6))
    with pytest.raises(NotASurface):
        classify_surface(build_complex(5, PROJECTIVE, max_codim=1))
