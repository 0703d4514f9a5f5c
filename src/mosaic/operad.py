"""Gluing labeled polygons side to side.

Composition takes a side labeled a of one polygon and a side labeled b of
another, removes both sides, and joins the boundaries so that the seam
becomes a new diagonal.  Gluing an n1-gon to an n2-gon yields an
(n1+n2-2)-gon and adds one diagonal.  Only the diagonal count can break,
when two diagonals of an operand collide, so each gluing checks it.

The symmetric group acts by relabeling sides; `check_operad_axioms` runs
the associativity and equivariance identities over every small instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product

from .errors import (
    ArityMismatch,
    CheckReport,
    InvariantViolation,
    LabelCollision,
    NonBijective,
    RangeError,
    UnknownLabel,
)
from .polygon import Dissection, dihedral_canonical, enumerate_diagonal_sets


@dataclass(frozen=True)
class CompositionPlan:
    """A base polygon plus one attachment per base side.

    attachments: sequence of (base side label, attached polygon, attached
    side label).  `compose_full` checks that the base labels are covered
    exactly once.
    """

    base: Dissection
    attachments: tuple

    def __post_init__(self):
        object.__setattr__(self, "attachments", tuple(self.attachments))


def compose_single(g, a, h, b):
    """Glue side a of g to side b of h.

    The result keeps g's surviving sides first (cyclically after a), then
    h's (cyclically after b); the seam becomes the diagonal separating
    them.  Raises UnknownLabel when a or b is missing and LabelCollision
    when the surviving labels clash.
    """
    try:
        p = g.labels.index(a)
    except ValueError:
        raise UnknownLabel(f"{a!r} is not a side label of {g!r}") from None
    try:
        q = h.labels.index(b)
    except ValueError:
        raise UnknownLabel(f"{b!r} is not a side label of {h!r}") from None
    n1, n2 = len(g.labels), len(h.labels)
    total = n1 + n2 - 2
    g_side, h_side = g.labels[p + 1:] + g.labels[:p], h.labels[q + 1:] + h.labels[:q]
    if not set(g_side).isdisjoint(h_side):
        clash = set(g_side) & set(h_side)
        raise LabelCollision(f"labels on both polygons: {sorted(map(repr, clash))}")

    # h's vertex q, where side b starts, goes to total: it wraps to vertex 0
    diagonals = [(0, n1 - 1)]
    for u, v in g.diagonals:
        u, v = (u - p - 1) % n1, (v - p - 1) % n1
        diagonals.append((u, v) if u < v else (v, u))
    for u, v in h.diagonals:
        u, v = (n1 - 1 + (u - q - 1) % n2) % total, (n1 - 1 + (v - q - 1) % n2) % total
        diagonals.append((u, v) if u < v else (v, u))
    result = Dissection._made(g_side + h_side, frozenset(diagonals))
    if len(result.diagonals) != len(diagonals):
        raise InvariantViolation(
            f"composition bookkeeping broke: {result.n} sides, "
            f"{len(result.diagonals)} diagonals from {n1}+{n2} gluing")
    return result


def compose_full(plan):
    """Attach a polygon to every side of the base at once.

    A fold of `compose_single` once each base side is covered exactly
    once.  Each step adds h.n - 2 sides and one diagonal more than h has
    (or `compose_single` raises), so with base side count m and base
    diagonal count l, attaching polygons of sizes n_i with k_i diagonals
    yields sum(n_i) - m sides and m + l + sum(k_i) diagonals.
    """
    base = plan.base
    used = [a for a, _, _ in plan.attachments]
    if sorted(used, key=repr) != sorted(base.labels, key=repr):
        raise ArityMismatch(
            f"attachments cover {used!r}, base sides are {list(base.labels)!r}")
    result = base
    for a, h, b in plan.attachments:
        result = compose_single(result, a, h, b)
    return result


def sweep_full_compositions(max_sides=7):
    """Run compose_full over every full plan with a small composite.

    Covers every base size, every tuple of attachment sizes whose
    composite stays within max_sides, every diagonal set of every
    operand, and every choice of glued sides.  Every plan must compose
    under `compose_single`'s per-step diagonal guard; the return value
    is the number of compositions run.
    """
    if max_sides > 7:
        raise RangeError(f"sweep is limited to composites of <= 7 sides, got {max_sides}")
    runs = 0
    for m in range(3, max_sides // 2 + 1):
        base_pool = _all_dissections(m, 100)
        for size_combo in product(range(3, max_sides), repeat=m):
            if sum(size_combo) - m > max_sides:
                continue
            pools = [_all_dissections(size, 200 + 100 * slot)
                     for slot, size in enumerate(size_combo)]
            for attached in product(*pools):
                for glued in product(*[h.labels for h in attached]):
                    for base in base_pool:
                        plan = CompositionPlan(base, tuple(zip(base.labels, attached, glued)))
                        compose_full(plan)
                        runs += 1
    return runs


def relabel(g, sigma):
    """Apply a label bijection sigma (a mapping) to every side of g."""
    try:
        new_labels = tuple(map(sigma.__getitem__, g.labels))
    except KeyError as missing:
        raise NonBijective(f"relabeling undefined on {missing.args[0]!r}") from None
    if len(set(new_labels)) != len(new_labels):
        raise NonBijective(f"relabeling is not injective on {g.labels!r}")
    return Dissection._made(new_labels, g.diagonals)


@dataclass
class AxiomReport(CheckReport):
    """Outcome of the operad axiom sweep."""

    sequential_checked: int = 0
    parallel_checked: int = 0
    equivariance_checked: int = 0

    def __str__(self):
        return (f"operad axioms: {self.sequential_checked} sequential, "
                f"{self.parallel_checked} parallel, "
                f"{self.equivariance_checked} equivariance checks: {self.verdict}")


@lru_cache(maxsize=None)
def _all_dissections(n, pool_start):
    # every dissection of an n-gon over a private integer label pool
    labels = tuple(range(pool_start, pool_start + n))
    return tuple(Dissection._made(labels, frozenset(diagset))
                 for k in range(n - 2) for diagset in enumerate_diagonal_sets(n, k))


def check_operad_axioms(max_sides=7):
    """Exhaustively verify associativity and equivariance at small sizes.

    Runs over every ordered triple of polygon sizes whose composite has
    at most `max_sides` sides, every diagonal set of each operand, and
    every choice of glued sides.  Sequential associativity
    (g o_a h) o_c k = g o_a (h o_c k) and parallel associativity
    (g o_a h) o_c k = (g o_c k) o_a h are compared as `dihedral_canonical`
    dissections (the two sides differ by a rotation).  A failure names
    g, h, k and the glued sides: a of g to b of h, and c to e of k.
    Equivariance relabel(g) o relabel(h) = relabel(g o h) is exact; the
    label bijections are exhaustive for the 3+3 case and a fixed
    four-map family above that.
    """
    if max_sides > 7:
        raise RangeError(f"axiom sweep is limited to composites of <= 7 sides, got {max_sides}")
    report = AxiomReport()

    sizes = range(3, max_sides)
    for n1, n2, n3 in product(sizes, repeat=3):
        if n1 + n2 + n3 - 4 <= max_sides:
            for g, h, k in product(_all_dissections(n1, 100), _all_dissections(n2, 200),
                                   _all_dissections(n3, 300)):
                _sweep_associativity(report, g, h, k)
    for n1, n2 in product(sizes, repeat=2):
        if n1 + n2 - 2 <= max_sides:
            for g, h in product(_all_dissections(n1, 100), _all_dissections(n2, 200)):
                _sweep_equivariance(report, g, h)
    return report


def _glued(g, h):
    # g o_a h for every side a of g and b of h, keyed by (a, b)
    return {(a, b): compose_single(g, a, h, b) for a in g.labels for b in h.labels}


def _sweep_associativity(report, g, h, k):
    # (g o_a h) o_c k for every side c that survives g o_a h, against
    # g o_a (h o_c k) when c is h's (sequential), (g o_c k) o_a h when g's
    g_k, h_k = _glued(g, k), _glued(h, k)
    for (a, b), g_h in _glued(g, h).items():
        for c in g.labels + h.labels:
            if c in (a, b):
                continue
            sequential = c in h.labels
            for e in k.labels:
                left = compose_single(g_h, c, k, e)
                if sequential:
                    right = compose_single(g, a, h_k[c, e], b)
                    report.sequential_checked += 1
                else:
                    right = compose_single(g_k[c, e], a, h, b)
                    report.parallel_checked += 1
                if dihedral_canonical(left) != dihedral_canonical(right):
                    report.failures.append(
                        f"{'sequential' if sequential else 'parallel'} associativity broke "
                        f"at g = {g!r}, h = {h!r}, k = {k!r}, "
                        f"a = {a!r}, b = {b!r}, c = {c!r}, e = {e!r}")


def _label_bijections(universe):
    if len(universe) <= 6:
        for image in permutations(universe):
            yield dict(zip(universe, image))
        return
    yield dict(zip(universe, universe))
    yield dict(zip(universe, reversed(universe)))
    yield dict(zip(universe, universe[1:] + universe[:1]))
    shuffled = universe[::2] + universe[1::2]
    yield dict(zip(universe, shuffled))


def _sweep_equivariance(report, g, h):
    relabeled = [(sigma, relabel(g, sigma), relabel(h, sigma))
                 for sigma in _label_bijections(g.labels + h.labels)]
    for a in g.labels:
        for b in h.labels:
            composed = compose_single(g, a, h, b)
            for sigma, g_sigma, h_sigma in relabeled:
                left = compose_single(g_sigma, sigma[a], h_sigma, sigma[b])
                right = relabel(composed, sigma)
                report.equivariance_checked += 1
                if left != right:
                    report.failures.append(
                        f"equivariance broke at {g!r} o_{a} {h!r} under {sigma!r}")
