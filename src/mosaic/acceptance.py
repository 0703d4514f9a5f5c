"""The acceptance gate: every headline claim as one executable check.

Each criterion returns a single pass/fail line.  Builds are shared
through a ComplexCache so the expensive n = 8 complex is enumerated
once per process.  The coboundary law (criterion 6) is checked per
grade from the build's parent tables, with no Cell decoded.  Criteria
tied to full enumeration honor the n_max clamp (and report vacuous
passes when clamped away); pure-formula and small-structure criteria
always run their full stated ranges.
"""

import time
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from . import arrangement, associahedron, moduli, operad, quasibraid
from .moduli import DOUBLE_COVER, PROJECTIVE
from .polygon import cayley_count, enumerate_diagonal_sets


class ComplexCache:
    """Memoized builds so criteria can share complexes."""

    def __init__(self):
        self._store = {}

    def full(self, n, mode=PROJECTIVE):
        key = (n, mode)
        if key not in self._store:
            self._store[key] = moduli.build_complex(n, mode)
        return self._store[key]

    def tiles_only(self, n, mode):
        if (n, mode) in self._store:
            return self._store[(n, mode)]
        key = (n, mode, 0)
        if key not in self._store:
            self._store[key] = moduli.build_complex(n, mode, max_codim=0)
        return self._store[key]


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float
    vacuous: bool = False

    def line(self):
        flag = "PASS" if self.passed else "FAIL"
        extra = " (vacuous)" if self.vacuous else ""
        return (f"[{flag}] criterion {self.number:2d} {self.title}: "
                f"{self.detail}{extra} [{self.seconds:.1f}s]")


def _c01_cayley(cache, n_max):
    checked = 0
    for n in range(3, 11):
        for k in range(n - 2):
            got = len(enumerate_diagonal_sets(n, k))
            want = cayley_count(n, k)
            if got != want:
                return False, f"count mismatch at n={n}, k={k}: {got} != {want}", False
            checked += 1
    return True, f"{checked} (n, k) enumerations match the formula", False


def _c02_tiles(cache, n_max):
    ns = [n for n in range(4, 9) if n <= n_max]
    if not ns:
        return True, "no n in range", True
    for n in ns:
        half = factorial(n - 1) // 2
        got = len(cache.full(n, PROJECTIVE).tiles())
        if got != half:
            return False, f"projective n={n}: {got} tiles, expected {half}", False
        cover = (cache.tiles_only(n, DOUBLE_COVER) if n == 8
                 else cache.full(n, DOUBLE_COVER))
        got = len(cover.tiles())
        if got != 2 * half:
            return False, f"double cover n={n}: {got} tiles, expected {2 * half}", False
    return True, f"tile counts (n-1)!/2 and (n-1)! for n in {ns}", False


_EULER = {4: 0, 5: -3, 6: 0, 7: 45, 8: 0}


def _c03_euler(cache, n_max):
    ns = [n for n in range(4, 9) if n <= n_max]
    if not ns:
        return True, "no n in range", True
    for n in ns:
        values = (cache.full(n, PROJECTIVE).euler_characteristic(),
                  moduli.euler_proof_sum(n),
                  moduli.euler_closed_form(n))
        if len(set(values)) != 1 or values[0] != _EULER[n]:
            return False, f"n={n}: enumerated/proof/closed = {values}, expected {_EULER[n]}", False
    return True, f"three-way Euler agreement for n in {ns}: " + \
        ", ".join(str(_EULER[n]) for n in ns), False


def _c04_surface_five(cache, n_max):
    if n_max < 5:
        return True, "n=5 not in range", True
    complex_ = cache.full(5, PROJECTIVE)
    f = complex_.f_vector()
    if f != (12, 30, 15):
        return False, f"f-vector {f}, expected (12, 30, 15)", False
    report = moduli.classify_surface(complex_)
    want = "N_5 (connected sum of 5 projective planes)"
    if report.euler != -3 or report.orientable or report.identified_surface != want:
        return False, f"classified as {report.identified_surface}, chi={report.euler}", False
    return True, "12 pentagons, f=(12,30,15), chi=-3, nonorientable N_5", False


def _c05_cover_five(cache, n_max):
    if n_max < 5:
        return True, "n=5 not in range", True
    cover = cache.full(5, DOUBLE_COVER)
    if len(cover.tiles()) != 24:
        return False, f"{len(cover.tiles())} tiles, expected 24", False
    report = moduli.classify_surface(cover)
    if report.euler != -6 or report.orientable:
        return False, f"classified as {report.identified_surface}, chi={report.euler}", False
    return True, "24 pentagons, chi=-6, nonorientable", False


def _coboundary_law(complex_):
    """Check the 2^t C(k,t) law on every cell of a complex, grade by grade.

    A cell's frontier starts as the cell itself; t steps up it is the
    distinct parents of the frontier one step up, gathered for a whole
    grade at once from the parent tables.  While the law holds each row
    has 2^t C(k,t) entries, so the frontiers stay one rectangular array.
    (In a divisor subcomplex, where codim_offset is 1, k counts only the
    diagonals besides the divisor's own.)  Returns the detail line of the
    first cell, by index, that breaks the law at some offset, naming its
    least such offset; None when every cell keeps it.
    """
    off = complex_.codim_offset
    for k, (start, end) in complex_.grade_range.items():
        cells, broken = np.arange(start, end), []
        frontier = cells[:, None]
        for t in range(1, k - off + 1):
            if not len(cells):
                break
            level = complex_.levels[k - t + 1]
            up = np.sort(level.parents[frontier - level.start].reshape(len(cells), -1), axis=1)
            new = np.ones(up.shape, dtype=bool)
            new[:, 1:] = up[:, 1:] != up[:, :-1]
            got, want = new.sum(axis=1), (1 << t) * comb(k - off, t)
            bad = got != want
            broken += [(cell, t, count, want) for cell, count in zip(cells[bad].tolist(),
                                                                      got[bad].tolist())]
            cells, frontier = cells[~bad], up[~bad][new[~bad]].reshape(-1, want)
        if broken:
            cell, t, got, want = min(broken)
            return (f"{complex_.mode} n={complex_.n} cell {cell} (k={k}): "
                    f"{got} cells at offset {t}, expected {want}")
    return None


def _c06_coboundary(cache, n_max):
    # the law per grade from the parent tables (_coboundary_law); no Cell
    # is decoded
    ns = [n for n in range(4, 8) if n <= n_max]
    if not ns:
        return True, "no n in range", True
    cells = 0
    for n in ns:
        for mode in (PROJECTIVE, DOUBLE_COVER):
            complex_ = cache.full(n, mode)
            failure = _coboundary_law(complex_)
            if failure is not None:
                return False, failure, False
            cells += sum(complex_.f_vector())
    return True, f"2^t C(k,t) law on {cells} cells, n in {ns}, both regimes", False


def _c07_divisors(cache, n_max):
    ns = [n for n in (5, 6) if n <= n_max]
    if not ns:
        return True, "no n in range", True
    expected_classes = {5: 10, 6: 25}
    total = 0
    for n in ns:
        complex_ = cache.full(n, PROJECTIVE)
        classes = moduli.divisor_label_classes(n)
        if len(classes) != expected_classes[n]:
            return False, f"n={n}: {len(classes)} divisor classes, expected {expected_classes[n]}", False
        for subset in classes:
            factors = (cache.full(len(subset) + 1, PROJECTIVE),
                       cache.full(n - len(subset) + 1, PROJECTIVE))
            report = moduli.verify_divisor_factorization(complex_, subset, factors)
            if not report.passed:
                return False, f"n={n} S={sorted(subset)}: {report.failures[0]}", False
            total += 1
    return True, f"{total} divisor classes match their product complexes", False


def _c08_arrangement(cache, n_max):
    for n in range(4, 11):
        for k in range(1, n - 2):
            got = len(arrangement.irreducible_cells(n, k))
            if got != comb(n - 1, k + 1):
                return False, f"n={n}, k={k}: {got} irreducible flats", False
        cones, projective = arrangement.chamber_counts(n)
        if (cones, projective) != (factorial(n - 1), factorial(n - 1) // 2):
            return False, f"n={n}: chambers ({cones}, {projective})", False
    if len(arrangement.irreducible_cells(5, 2)) != 4:
        return False, "n=5, k=2 should give 4 triple points", False
    return True, "irreducible counts C(n-1,k+1) and chambers ((n-1)!, /2) for n <= 10", False


def _c09_associahedron(cache, n_max):
    faces = 0
    for n in range(4, 11):
        lattice = associahedron.face_lattice(n)
        for k in range(n - 2):
            if len(lattice.faces_at(k)) != cayley_count(n, k):
                return False, f"n={n}: grade {k} count off", False
            # every part a polygon, with n + 2k sides in all
            sizes = associahedron.face_factorizations(n, k)
            bad = (sizes < 3).any(axis=1) | (sizes.sum(axis=1) != n + 2 * k)
            if bad.any():
                row = tuple(sizes[bad.argmax()].tolist())
                return False, f"n={n}: factorization {row} of codim {k} face", False
            faces += len(sizes)
    for n, want in ((6, {(4, 4): 3, (3, 5): 6}), (7, {(4, 5): 7, (3, 6): 7})):
        kinds = Counter(map(tuple, associahedron.face_factorizations(n, 1).tolist()))
        if dict(kinds) != want:
            return False, f"n={n} facet kinds {dict(kinds)}, expected {want}", False
    return True, f"grades and factorization identities on {faces} faces, n <= 10", False


def _c10_quasibraid(cache, n_max):
    for n in range(4, 10):
        gens = quasibraid.generators(n)
        if len(gens) != n * (n - 3) // 2:
            return False, f"n={n}: {len(gens)} generators", False
        sizes = Counter(len(g.free_part) for g in gens)
        if dict(sizes) != associahedron.g_hat_strata(n):
            return False, f"n={n}: strata {dict(sizes)}", False
        report = quasibraid.check_phi(n)
        if not report.passed:
            return False, f"n={n}: {report.failures[0]}", False
    for m, k in ((3, 3), (3, 4), (4, 4), (3, 5)):
        _, _, report = quasibraid.pair_of_pants(m, k)
        if not report.passed:
            return False, f"juxtaposition ({m}, {k}): {report.failures[0]}", False
    return True, "strata, phi relations, surjectivity (n <= 9), 4 juxtapositions", False


def _c11_operad(cache, n_max):
    report = operad.check_operad_axioms(7)
    if not report.passed:
        return False, report.failures[0], False
    full_runs = operad.sweep_full_compositions(7)
    return True, (f"{report.sequential_checked} sequential, "
                  f"{report.parallel_checked} parallel, "
                  f"{report.equivariance_checked} equivariance, "
                  f"{full_runs} full compositions"), False


CRITERIA = (
    (1, "diagonal-set counts", _c01_cayley),
    (2, "tile counts", _c02_tiles),
    (3, "Euler characteristic three ways", _c03_euler),
    (4, "n=5 projective surface", _c04_surface_five),
    (5, "n=5 double cover", _c05_cover_five),
    (6, "coboundary law", _c06_coboundary),
    (7, "divisor factorization", _c07_divisors),
    (8, "arrangement counts", _c08_arrangement),
    (9, "associahedron structure", _c09_associahedron),
    (10, "quasibraid presentation", _c10_quasibraid),
    (11, "operad axioms", _c11_operad),
)


def run_criterion(number, cache, n_max=8):
    for num, title, func in CRITERIA:
        if num == number:
            start = time.monotonic()
            passed, detail, vacuous = func(cache, n_max)
            return CriterionResult(number=num, title=title, passed=passed,
                                   detail=detail, vacuous=vacuous,
                                   seconds=time.monotonic() - start)
    raise ValueError(f"no criterion {number}")


def run_all(n_max=8, cache=None, emit=None):
    cache = cache if cache is not None else ComplexCache()
    results = []
    for number, _, _ in CRITERIA:
        result = run_criterion(number, cache, n_max)
        results.append(result)
        if emit is not None:
            emit(result.line())
    return results
