"""Every acceptance criterion at full range, one pass/fail line each."""

import re
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest

from mosaic import acceptance, arrangement, associahedron, moduli, operad, quasibraid
from mosaic.moduli import DOUBLE_COVER, PROJECTIVE

PARAMS = [pytest.param(number, id=f"c{number:02d} {title}")
          for number, title, *_ in acceptance.CRITERIA]


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


# run_all's lines at n_max 3, 4 and 8, timings masked: criteria 1 and
# 8-11 run their full ranges at every n_max, the others only their n up
# to n_max, vacuously when none is left
UNCLAMPED = {
    1: "diagonal-set counts: 36 (n, k) enumerations match the formula",
    8: "arrangement counts: irreducible counts C(n-1,k+1) and chambers ((n-1)!, /2) "
       "for n <= 10",
    9: "associahedron structure: grades and factorization identities on 26231 faces, "
       "n <= 10",
    10: "quasibraid presentation: strata, phi relations, surjectivity (n <= 9), "
        "4 juxtapositions",
    11: "operad axioms: 8226 sequential, 8226 parallel, 20424 equivariance, "
        "351 full compositions",
}
CLAMPED = {
    3: {2: "tile counts: no n in range (vacuous)",
        3: "Euler characteristic three ways: no n in range (vacuous)",
        4: "n=5 projective surface: n=5 not in range (vacuous)",
        5: "n=5 double cover: n=5 not in range (vacuous)",
        6: "coboundary law: no n in range (vacuous)",
        7: "divisor factorization: no n in range (vacuous)"},
    4: {2: "tile counts: tile counts (n-1)!/2 and (n-1)! for n in [4]",
        3: "Euler characteristic three ways: three-way Euler agreement for n in [4]: 0",
        4: "n=5 projective surface: n=5 not in range (vacuous)",
        5: "n=5 double cover: n=5 not in range (vacuous)",
        6: "coboundary law: 2^t C(k,t) law on 18 cells, n in [4], both regimes",
        7: "divisor factorization: no n in range (vacuous)"},
    8: {2: "tile counts: tile counts (n-1)!/2 and (n-1)! for n in [4, 5, 6, 7, 8]",
        3: "Euler characteristic three ways: three-way Euler agreement for "
           "n in [4, 5, 6, 7, 8]: 0, -3, 0, 45, 0",
        4: "n=5 projective surface: 12 pentagons, f=(12,30,15), chi=-3, nonorientable N_5",
        5: "n=5 double cover: 24 pentagons, chi=-6, nonorientable",
        6: "coboundary law: 2^t C(k,t) law on 40374 cells, n in [4, 5, 6, 7], both regimes",
        7: "divisor factorization: 35 divisor classes match their product complexes"},
}


@pytest.mark.parametrize("n_max", sorted(CLAMPED))
def test_run_all_lines_are_frozen(n_max, cache):
    texts = {**UNCLAMPED, **CLAMPED[n_max]}
    lines = [re.sub(r"\[[0-9.]+s\]$", "[T]", r.line())
             for r in acceptance.run_all(n_max=n_max, cache=cache)]
    assert lines == [f"[PASS] criterion {c:2d} {texts[c]} [T]" for c in range(1, 12)]


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


def law_slice(complex_, k):
    # the cells one slice of grade k holds in the law: as many as keep
    # the widest gather, 2^(t-1) C(k, t-1) frontier entries times the
    # width of their parent rows, within 2^15 entries
    widest = max((1 << t) * comb(k, t) * complex_.levels[k - t].parents.shape[1]
                 for t in range(k))
    return 2 ** 15 // widest


def repeat_a_parent(levels, k, cell):
    # the cell's first two parents made equal: 2k - 1 cells at offset 1
    row = levels[k].parents[cell - levels[k].start]
    row[1] = row[0]
    return 2 * k - 1


def move_a_parent(levels, k, cell):
    # the cell's first parent moved to a cell of grade k-1 that shares no
    # parent with its other parents, which keeps 2k cells at offset 1
    row, facets = levels[k].parents[cell - levels[k].start], levels[k - 1]
    near = set(facets.parents[row[1:] - facets.start].ravel().tolist())
    row[0] = next(i for i, pair in enumerate(facets.parents.tolist(), facets.start)
                  if not near & set(pair))


@pytest.fixture
def cover_seven(cache):
    # the n = 7 double cover with its parent tables copied, for breaking
    complex_ = cache.full(7, DOUBLE_COVER)
    levels = {k: moduli._Level(level.start, level.parents.copy())
              for k, level in complex_.levels.items()}
    return complex_, levels, lambda: moduli.ModuliComplex(7, DOUBLE_COVER, complex_._codes,
                                                          levels)


def test_coboundary_law_names_a_cell_in_its_third_slice(cover_seven):
    complex_, levels, broken = cover_seven
    start, end = complex_.grade_range[4]
    step = law_slice(complex_, 4)
    assert (step, end - start) == (341, 1890)        # six slices
    cell = start + 2 * step + 5
    got = repeat_a_parent(levels, 4, cell)
    assert acceptance._coboundary_law(broken()) == (
        f"{DOUBLE_COVER} n=7 cell {cell} (k=4): {got} cells at offset 1, expected 8")


def test_coboundary_law_names_the_earlier_of_two_broken_slices(cover_seven):
    # the earlier cell breaks only at offset 2, the later one at offset 1
    complex_, levels, broken = cover_seven
    start, step = complex_.grade_range[4][0], law_slice(complex_, 4)
    early, late = start + step + 7, start + 3 * step + 1
    move_a_parent(levels, 4, early)
    repeat_a_parent(levels, 4, late)
    complex_ = broken()
    counts = complex_.coboundary_counts(complex_.cells[early])
    assert counts[1] == 8 and counts[2] != 24
    assert acceptance._coboundary_law(complex_) == (
        f"{DOUBLE_COVER} n=7 cell {early} (k=4): {counts[2]} cells at offset 2, expected 24")


class Counted:
    """A complex with only the counts criteria 2, 4 and 5 read."""

    def __init__(self, tiles=0, f_vector=()):
        self._tiles, self._f_vector = tiles, f_vector

    def tiles(self):
        return range(self._tiles)

    def f_vector(self):
        return self._f_vector


class StubCache:
    """The shared cache, with the builds of some (n, mode) replaced."""

    def __init__(self, cache, stubs):
        self._cache, self._stubs = cache, stubs

    def full(self, n, mode=PROJECTIVE):
        return self._stubs.get((n, mode)) or self._cache.full(n, mode)


FAILED = SimpleNamespace(passed=False, failures=["broken"])
SPHERE = SimpleNamespace(euler=2, orientable=True, identified_surface="a sphere")

# one case per failure line of the gate: the one input its check reads is
# patched (module, name, value) or its cache stubbed ({(n, mode): stub})
FAILURES = [
    (1, (acceptance, "cayley_count", lambda n, k: 0), {},
     "count mismatch at n=3, k=0: 1 != 0"),
    (2, None, {(4, PROJECTIVE): Counted(tiles=2)}, "projective n=4: 2 tiles, expected 3"),
    (2, None, {(4, DOUBLE_COVER): Counted(tiles=5)}, "double cover n=4: 5 tiles, expected 6"),
    (3, (moduli, "euler_proof_sum", lambda n: 1), {},
     "n=4: enumerated/proof/closed = (0, 1, 0), expected 0"),
    (4, None, {(5, PROJECTIVE): Counted(f_vector=(12, 30, 14))},
     "f-vector (12, 30, 14), expected (12, 30, 15)"),
    (4, (moduli, "classify_surface", lambda complex_: SPHERE), {},
     "classified as a sphere, chi=2"),
    (5, None, {(5, DOUBLE_COVER): Counted(tiles=23)}, "23 tiles, expected 24"),
    (5, (moduli, "classify_surface", lambda complex_: SPHERE), {},
     "classified as a sphere, chi=2"),
    (6, (acceptance, "_coboundary_law", lambda complex_: "broken"), {}, "broken"),
    (7, (moduli, "divisor_label_classes", lambda n: []), {},
     "n=5: 0 divisor classes, expected 10"),
    (7, (moduli, "verify_divisor_factorization", lambda *args: FAILED), {},
     "n=5 S=[1, 2]: broken"),
    (8, (arrangement, "irreducible_cells", lambda n, k: []), {},
     "n=4, k=1: 0 irreducible flats"),
    (8, (arrangement, "chamber_counts", lambda n: (0, 0)), {}, "n=4: chambers (0, 0)"),
    (9, (acceptance, "cayley_count", lambda n, k: 0), {}, "n=4: grade 0 count off"),
    (9, (associahedron, "face_factorizations", lambda n, k: np.array([[2, 2]])), {},
     "n=4: factorization (2, 2) of codim 0 face"),
    # k triangles and an (n-k)-gon: every count right, the n=6 facet kinds not
    (9, (associahedron, "face_factorizations", lambda n, k: np.array([[3] * k + [n - k]])),
     {}, "n=6 facet kinds {(3, 5): 1}, expected {(4, 4): 3, (3, 5): 6}"),
    (10, (quasibraid, "generators", lambda n: []), {}, "n=4: 0 generators"),
    (10, (associahedron, "g_hat_strata", lambda n: {}), {}, "n=4: strata {2: 2}"),
    (10, (quasibraid, "check_phi", lambda n: FAILED), {}, "n=4: broken"),
    (10, (quasibraid, "pair_of_pants", lambda m, k: (None, None, FAILED)), {},
     "juxtaposition (3, 3): broken"),
    (11, (operad, "check_operad_axioms", lambda n: FAILED), {}, "broken"),
]


@pytest.mark.parametrize("number,patch,stubs,detail", [
    pytest.param(*case, id=f"c{case[0]:02d} {case[3]}") for case in FAILURES])
def test_a_broken_input_fails_its_criterion(number, patch, stubs, detail, cache, monkeypatch):
    if patch is not None:
        monkeypatch.setattr(*patch)
    result = acceptance.run_criterion(number, StubCache(cache, stubs), n_max=8)
    assert (result.passed, result.vacuous, result.detail) == (False, False, detail)
    assert result.line().startswith(f"[FAIL] criterion {number:2d} ")


def test_an_unknown_criterion_is_a_value_error(cache):
    with pytest.raises(ValueError, match="^no criterion 12$"):
        acceptance.run_criterion(12, cache)
