"""The acceptance gate: every headline claim as one executable check.

CRITERIA is the one table of what the gate runs: each row declares the
n its check builds complexes for, or None for the pure-formula and
small-structure criteria, which run their full stated ranges.
run_criterion clamps the declared n to n_max, reports a vacuous pass
when none is left, and otherwise hands the kept n to the check, which
returns (passed, detail).  Builds are shared through a ComplexCache so
the expensive n = 8 complex is enumerated once per process.  The
coboundary law (criterion 6) is checked per grade from the build's
parent tables, with no Cell decoded.
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


def _c01_cayley(cache, ns):
    checked = 0
    for n in range(3, 11):
        for k in range(n - 2):
            got = len(enumerate_diagonal_sets(n, k))
            want = cayley_count(n, k)
            if got != want:
                return False, f"count mismatch at n={n}, k={k}: {got} != {want}"
            checked += 1
    return True, f"{checked} (n, k) enumerations match the formula"


def _c02_tiles(cache, ns):
    for n in ns:
        half = factorial(n - 1) // 2
        got = len(cache.full(n, PROJECTIVE).tiles())
        if got != half:
            return False, f"projective n={n}: {got} tiles, expected {half}"
        cover = (moduli.build_complex(8, DOUBLE_COVER, max_codim=0) if n == 8
                 else cache.full(n, DOUBLE_COVER))
        got = len(cover.tiles())
        if got != 2 * half:
            return False, f"double cover n={n}: {got} tiles, expected {2 * half}"
    return True, f"tile counts (n-1)!/2 and (n-1)! for n in {ns}"


_EULER = {4: 0, 5: -3, 6: 0, 7: 45, 8: 0}


def _c03_euler(cache, ns):
    for n in ns:
        values = (cache.full(n, PROJECTIVE).euler_characteristic(),
                  moduli.euler_proof_sum(n),
                  moduli.euler_closed_form(n))
        if len(set(values)) != 1 or values[0] != _EULER[n]:
            return False, f"n={n}: enumerated/proof/closed = {values}, expected {_EULER[n]}"
    return True, f"three-way Euler agreement for n in {ns}: " + \
        ", ".join(str(_EULER[n]) for n in ns)


def _c04_surface_five(cache, ns):
    complex_ = cache.full(5, PROJECTIVE)
    f = complex_.f_vector()
    if f != (12, 30, 15):
        return False, f"f-vector {f}, expected (12, 30, 15)"
    report = moduli.classify_surface(complex_)
    want = "N_5 (connected sum of 5 projective planes)"
    if report.euler != -3 or report.orientable or report.identified_surface != want:
        return False, f"classified as {report.identified_surface}, chi={report.euler}"
    return True, "12 pentagons, f=(12,30,15), chi=-3, nonorientable N_5"


def _c05_cover_five(cache, ns):
    cover = cache.full(5, DOUBLE_COVER)
    if len(cover.tiles()) != 24:
        return False, f"{len(cover.tiles())} tiles, expected 24"
    report = moduli.classify_surface(cover)
    if report.euler != -6 or report.orientable:
        return False, f"classified as {report.identified_surface}, chi={report.euler}"
    return True, "24 pentagons, chi=-6, nonorientable"


_LAW_ENTRIES = 2 ** 15     # the most parent-table entries one slice of the law gathers


def _coboundary_law(complex_):
    """Check the 2^t C(k,t) law on every cell of a complex, grade by grade.

    A cell's frontier starts as the cell itself; t steps up it is the
    distinct parents of the frontier one step up, gathered from the
    parent tables for a slice of the grade's cells at a time.  While the
    law holds each row has 2^t C(k,t) entries, so the frontiers stay one
    rectangular array, and a slice holds as many cells as keep its widest
    gather, 2^(t-1) C(k,t-1) entries times the width of their parent
    rows, within _LAW_ENTRIES.  (In a divisor subcomplex, where
    codim_offset is 1, k counts only the diagonals besides the divisor's
    own.)  Returns the detail line of the first cell, by index, that
    breaks the law at some offset, naming its least such offset; the
    slices go in cell order, so the first slice with a broken cell holds
    it.  None when every cell keeps the law.
    """
    off = complex_.codim_offset
    for k, (start, end) in complex_.grade_range.items():
        levels = [complex_.levels[k - t] for t in range(k - off)]
        widest = max([(1 << t) * comb(k - off, t) * level.parents.shape[1]
                      for t, level in enumerate(levels)], default=1)
        step = max(1, _LAW_ENTRIES // widest)
        for lo in range(start, end, step):
            cells, broken = np.arange(lo, min(lo + step, end)), []
            frontier = cells[:, None]
            for t, level in enumerate(levels, 1):
                if not len(cells):
                    break
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


def _c06_coboundary(cache, ns):
    # the law per grade from the parent tables (_coboundary_law); no Cell
    # is decoded
    cells = 0
    for n in ns:
        for mode in (PROJECTIVE, DOUBLE_COVER):
            complex_ = cache.full(n, mode)
            failure = _coboundary_law(complex_)
            if failure is not None:
                return False, failure
            cells += sum(complex_.f_vector())
    return True, f"2^t C(k,t) law on {cells} cells, n in {ns}, both regimes"


def _c07_divisors(cache, ns):
    expected_classes = {5: 10, 6: 25}
    total = 0
    for n in ns:
        complex_ = cache.full(n, PROJECTIVE)
        classes = moduli.divisor_label_classes(n)
        if len(classes) != expected_classes[n]:
            return False, f"n={n}: {len(classes)} divisor classes, expected {expected_classes[n]}"
        for subset in classes:
            factors = (cache.full(len(subset) + 1, PROJECTIVE),
                       cache.full(n - len(subset) + 1, PROJECTIVE))
            report = moduli.verify_divisor_factorization(complex_, subset, factors)
            if not report.passed:
                return False, f"n={n} S={sorted(subset)}: {report.failures[0]}"
            total += 1
    return True, f"{total} divisor classes match their product complexes"


def _c08_arrangement(cache, ns):
    for n in range(4, 11):
        for k in range(1, n - 2):
            got = len(arrangement.irreducible_cells(n, k))
            if got != comb(n - 1, k + 1):
                return False, f"n={n}, k={k}: {got} irreducible flats"
        cones, projective = arrangement.chamber_counts(n)
        if (cones, projective) != (factorial(n - 1), factorial(n - 1) // 2):
            return False, f"n={n}: chambers ({cones}, {projective})"
    return True, "irreducible counts C(n-1,k+1) and chambers ((n-1)!, /2) for n <= 10"


def _c09_associahedron(cache, ns):
    faces = 0
    for n in range(4, 11):
        lattice = associahedron.face_lattice(n)
        for k in range(n - 2):
            if len(lattice.faces_at(k)) != cayley_count(n, k):
                return False, f"n={n}: grade {k} count off"
            # every part a polygon, with n + 2k sides in all
            sizes = associahedron.face_factorizations(n, k)
            bad = (sizes < 3).any(axis=1) | (sizes.sum(axis=1) != n + 2 * k)
            if bad.any():
                row = tuple(sizes[bad.argmax()].tolist())
                return False, f"n={n}: factorization {row} of codim {k} face"
            faces += len(sizes)
    for n, want in ((6, {(4, 4): 3, (3, 5): 6}), (7, {(4, 5): 7, (3, 6): 7})):
        kinds = Counter(map(tuple, associahedron.face_factorizations(n, 1).tolist()))
        if dict(kinds) != want:
            return False, f"n={n} facet kinds {dict(kinds)}, expected {want}"
    return True, f"grades and factorization identities on {faces} faces, n <= 10"


def _c10_quasibraid(cache, ns):
    for n in range(4, 10):
        gens = quasibraid.generators(n)
        if len(gens) != n * (n - 3) // 2:
            return False, f"n={n}: {len(gens)} generators"
        sizes = Counter(len(g.free_part) for g in gens)
        if dict(sizes) != associahedron.g_hat_strata(n):
            return False, f"n={n}: strata {dict(sizes)}"
        report = quasibraid.check_phi(n)
        if not report.passed:
            return False, f"n={n}: {report.failures[0]}"
    for m, k in ((3, 3), (3, 4), (4, 4), (3, 5)):
        _, _, report = quasibraid.pair_of_pants(m, k)
        if not report.passed:
            return False, f"juxtaposition ({m}, {k}): {report.failures[0]}"
    return True, "strata, phi relations, surjectivity (n <= 9), 4 juxtapositions"


def _c11_operad(cache, ns):
    report = operad.check_operad_axioms(7)
    if not report.passed:
        return False, report.failures[0]
    full_runs = operad.sweep_full_compositions(7)
    return True, (f"{report.sequential_checked} sequential, "
                  f"{report.parallel_checked} parallel, "
                  f"{report.equivariance_checked} equivariance, "
                  f"{full_runs} full compositions")


CRITERIA = (
    (1, "diagonal-set counts", _c01_cayley, None),
    (2, "tile counts", _c02_tiles, range(4, 9)),
    (3, "Euler characteristic three ways", _c03_euler, range(4, 9)),
    (4, "n=5 projective surface", _c04_surface_five, (5,)),
    (5, "n=5 double cover", _c05_cover_five, (5,)),
    (6, "coboundary law", _c06_coboundary, range(4, 8)),
    (7, "divisor factorization", _c07_divisors, (5, 6)),
    (8, "arrangement counts", _c08_arrangement, None),
    (9, "associahedron structure", _c09_associahedron, None),
    (10, "quasibraid presentation", _c10_quasibraid, None),
    (11, "operad axioms", _c11_operad, None),
)

# the largest n any criterion builds, so the largest n_max that adds work
N_MAX = max(max(ns) for *_, ns in CRITERIA if ns is not None)


def run_criterion(number, cache, n_max=N_MAX):
    for num, title, check, ns in CRITERIA:
        if num == number:
            break
    else:
        raise ValueError(f"no criterion {number}")
    start = time.monotonic()
    kept = ns if ns is None else [n for n in ns if n <= n_max]
    if kept == []:
        passed, detail = True, f"n={ns[0]} not in range" if len(ns) == 1 else "no n in range"
    else:
        passed, detail = check(cache, kept)
    return CriterionResult(number=num, title=title, passed=passed, detail=detail,
                           vacuous=kept == [], seconds=time.monotonic() - start)


def run_all(n_max=N_MAX, cache=None, emit=None):
    cache = cache if cache is not None else ComplexCache()
    results = []
    for number, *_ in CRITERIA:
        result = run_criterion(number, cache, n_max)
        results.append(result)
        if emit is not None:
            emit(result.line())
    return results
