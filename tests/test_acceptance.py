"""Every acceptance criterion at full range, one pass/fail line each."""

from math import comb

import pytest

from mosaic import acceptance, moduli
from mosaic.moduli import DOUBLE_COVER, PROJECTIVE

PARAMS = [pytest.param(number, id=f"c{number:02d} {title}")
          for number, title, _ in acceptance.CRITERIA]


@pytest.mark.parametrize("number", PARAMS)
def test_criterion(number, cache):
    result = acceptance.run_criterion(number, cache, n_max=8)
    print(result.line())
    assert result.passed, f"criterion {number}: {result.detail}"
    assert not result.vacuous, f"criterion {number} must not be vacuous at n_max=8"


def test_run_all_reports_eleven_criteria(cache):
    results = acceptance.run_all(n_max=4, cache=cache)
    assert [r.number for r in results] == list(range(1, 12))
    assert all(r.passed for r in results)
    lines = [r.line() for r in results]
    assert all(line.startswith("[PASS] criterion") for line in lines)


@pytest.mark.parametrize("mode", (PROJECTIVE, DOUBLE_COVER))
@pytest.mark.parametrize("n", range(4, 8))
def test_coboundary_law_agrees_with_coboundary_counts(n, mode, cache):
    # the law passes per grade, so each count it computed is 2^t C(k, t);
    # the per-cell query must give the same counts for every cell
    complex_ = cache.full(n, mode)
    assert acceptance._coboundary_law(complex_) is None
    for cell in complex_.cells:
        k = cell.codim
        assert complex_.coboundary_counts(cell) == {t: (1 << t) * comb(k, t)
                                                    for t in range(k + 1)}


def test_coboundary_law_holds_at_n8(cache):
    assert acceptance._coboundary_law(cache.full(8)) is None


def test_coboundary_law_holds_on_divisors(cache):
    # codim_offset 1: a cell of ambient codim k keeps 2^t C(k-1, t)
    complex_ = cache.full(6)
    for subset in moduli.divisor_label_classes(6):
        assert acceptance._coboundary_law(moduli.divisor_subcomplex(complex_, subset)) is None


def test_coboundary_law_names_a_cell_with_a_moved_parent(cache):
    # move one parent of the first grade-2 cell to a grade-1 cell that
    # shares no tile with its other parents
    complex_ = cache.full(6)
    levels = {k: moduli._Level(level.start, level.parents.copy())
              for k, level in complex_.levels.items()}
    row, facets = levels[2].parents[0], levels[1]
    tiles = set(facets.parents[row - facets.start].ravel().tolist())
    moved = next(i for i, pair in enumerate(facets.parents.tolist(), facets.start)
                 if not tiles & set(pair))
    row[0] = moved
    broken = moduli.ModuliComplex(complex_.n, complex_.mode, complex_._codes, levels)
    cell = complex_.grade_range[2][0]
    counts = broken.coboundary_counts(broken.cells[cell])
    assert counts[2] != 4
    assert acceptance._coboundary_law(broken) == (
        f"{PROJECTIVE} n=6 cell {cell} (k=2): {counts[2]} cells at offset 2, expected 4")


def test_coboundary_law_stops_a_grade_whose_every_cell_breaks(cache):
    # every grade-2 cell loses a parent, so no frontier is left for t = 2
    complex_ = cache.full(5)
    levels = dict(complex_.levels)
    parents = levels[2].parents.copy()
    parents[:, 1] = parents[:, 0]
    levels[2] = moduli._Level(levels[2].start, parents)
    broken = moduli.ModuliComplex(complex_.n, complex_.mode, complex_._codes, levels)
    cell = complex_.grade_range[2][0]
    assert broken.coboundary_counts(broken.cells[cell])[1] == 3
    assert acceptance._coboundary_law(broken) == (
        f"{PROJECTIVE} n=5 cell {cell} (k=2): 3 cells at offset 1, expected 4")
