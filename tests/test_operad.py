"""Gluing labeled polygons and the operad axiom sweeps."""

import ast
import random
import re

import pytest

from compose_reference import differences, gluings, reference_compose, wraps
from mosaic import operad
from mosaic.errors import (
    ArityMismatch,
    InvariantViolation,
    LabelCollision,
    NonBijective,
    RangeError,
    UnknownLabel,
)
from mosaic.operad import (
    CompositionPlan,
    check_operad_axioms,
    compose_full,
    compose_single,
    relabel,
    sweep_full_compositions,
)
from mosaic.polygon import Dissection, diagonals_cross, dihedral_canonical, polygon_diagonals


def test_glue_two_triangles():
    g = Dissection((1, 2, 3))
    h = Dissection((4, 5, 6))
    out = compose_single(g, 2, h, 5)
    # g's sides after the glued one come first, then h's, seam in between
    assert out == Dissection((3, 1, 6, 4), frozenset({(0, 2)}))


def test_glue_keeps_existing_diagonals():
    g = Dissection((1, 2, 3, 4, 5), frozenset({(0, 2)}))
    h = Dissection((6, 7, 8))
    out = compose_single(g, 1, h, 7)
    assert out == Dissection((2, 3, 4, 5, 8, 6), frozenset({(0, 4), (1, 4)}))


def test_seam_separates_the_two_polygons():
    g = Dissection((1, 2, 3, 4))
    h = Dissection((5, 6, 7, 8, 9), frozenset({(1, 3)}))
    out = compose_single(g, 3, h, 6)
    seam = (0, g.n - 1)
    part, rest = out.split_labels(seam)
    assert set(part) == {1, 2, 4}
    assert set(rest) == {5, 7, 8, 9}
    assert out.n == g.n + h.n - 2
    assert len(out.diagonals) == 2


def test_glue_rejects_unknown_side():
    g = Dissection((1, 2, 3))
    h = Dissection((4, 5, 6))
    with pytest.raises(UnknownLabel):
        compose_single(g, 9, h, 4)
    with pytest.raises(UnknownLabel):
        compose_single(g, 1, h, 9)


def test_glue_rejects_label_collision():
    g = Dissection((1, 2, 3))
    h = Dissection((3, 4, 5))
    with pytest.raises(LabelCollision):
        compose_single(g, 1, h, 4)
    # the glued labels themselves may coincide, only survivors clash
    out = compose_single(g, 3, Dissection((3, 6, 7)), 3)
    assert set(out.labels) == {1, 2, 6, 7}


def test_glue_names_two_diagonals_that_collide():
    # an unchecked g holding one diagonal in both orders: the vertex maps
    # send both to one pair, so the composite is a diagonal short
    g = Dissection._made((1, 2, 3, 4, 5), frozenset({(0, 2), (2, 0)}))
    with pytest.raises(InvariantViolation) as raised:
        compose_single(g, 1, Dissection((6, 7, 8)), 6)
    assert str(raised.value) == ("composition bookkeeping broke: 6 sides, "
                                 "2 diagonals from 5+3 gluing")


def test_full_composition_of_triangles():
    plan = CompositionPlan(Dissection((1, 2, 3)), (
        (1, Dissection((4, 5, 6)), 4),
        (2, Dissection((7, 8, 9)), 8),
        (3, Dissection((10, 11, 12)), 12),
    ))
    out = compose_full(plan)
    assert out == Dissection((5, 6, 9, 7, 10, 11),
                             frozenset({(0, 2), (0, 4), (2, 4)}))


def test_full_composition_counts_sides_and_diagonals():
    base = Dissection((1, 2, 3, 4), frozenset({(0, 2)}))
    attach = [
        (1, Dissection((5, 6, 7)), 6),
        (2, Dissection((8, 9, 10, 11), frozenset({(1, 3)})), 9),
        (3, Dissection((12, 13, 14)), 12),
        (4, Dissection((15, 16, 17, 18)), 17),
    ]
    out = compose_full(CompositionPlan(base, tuple(attach)))
    assert out.n == (3 + 4 + 3 + 4) - 4
    assert len(out.diagonals) == 4 + 1 + 1


def test_full_composition_requires_every_side_once():
    base = Dissection((1, 2, 3))
    tri = Dissection((4, 5, 6))
    with pytest.raises(ArityMismatch):
        compose_full(CompositionPlan(base, ((1, tri, 4), (2, Dissection((7, 8, 9)), 7))))
    with pytest.raises(ArityMismatch):
        compose_full(CompositionPlan(base, (
            (1, tri, 4),
            (1, Dissection((7, 8, 9)), 7),
            (2, Dissection((10, 11, 12)), 10),
        )))


def test_relabel():
    g = Dissection((1, 2, 3, 4), frozenset({(1, 3)}))
    out = relabel(g, {1: "a", 2: "b", 3: "c", 4: "d"})
    assert out == Dissection(("a", "b", "c", "d"), frozenset({(1, 3)}))
    with pytest.raises(NonBijective):
        relabel(g, {1: "a", 2: "b", 3: "c"})
    with pytest.raises(NonBijective):
        relabel(g, {1: "a", 2: "a", 3: "c", 4: "d"})


def test_relabel_commutes_with_gluing():
    g = Dissection((1, 2, 3, 4), frozenset({(0, 2)}))
    h = Dissection((5, 6, 7))
    sigma = {1: 10, 2: 20, 3: 30, 4: 40, 5: 50, 6: 60, 7: 70}
    left = relabel(compose_single(g, 2, h, 6), sigma)
    right = compose_single(relabel(g, sigma), 20, relabel(h, sigma), 60)
    assert left == right


def test_gluing_ignores_rotation_of_the_inputs():
    # the same gluing from rotated presentations lands in one dihedral class
    g = Dissection((1, 2, 3, 4), frozenset({(0, 2)}))
    g_rot = Dissection((3, 4, 1, 2), frozenset({(0, 2)}))
    h = Dissection((5, 6, 7))
    out1 = compose_single(g, 4, h, 5)
    out2 = compose_single(g_rot, 4, h, 5)
    assert dihedral_canonical(out1) == dihedral_canonical(out2)


def test_sequential_composition_is_associative_by_hand():
    g = Dissection((1, 2, 3, 4))
    h = Dissection((5, 6, 7))
    k = Dissection((8, 9, 10))
    # attach k inside h first or after h is glued onto g, same class
    one = compose_single(g, 2, compose_single(h, 6, k, 9), 5)
    two = compose_single(compose_single(g, 2, h, 5), 6, k, 9)
    assert dihedral_canonical(one) == dihedral_canonical(two)
    assert one in _rotations(two)


def _random_dissection(rng, labels):
    # a random non-crossing diagonal set, grown in a random order
    n, chosen, diagonals = len(labels), [], polygon_diagonals(len(labels))
    wanted = rng.randint(0, n - 3)
    for d in rng.sample(diagonals, len(diagonals)):
        if len(chosen) < wanted and not any(diagonals_cross(d, e, n) for e in chosen):
            chosen.append(d)
    return Dissection(labels, frozenset(chosen))


def _rotations(diss):
    n = diss.n
    return [Dissection(diss.labels[t:] + diss.labels[:t],
                       frozenset(((u - t) % n, (v - t) % n) for u, v in diss.diagonals))
            for t in range(n)]


@pytest.mark.parametrize("seed", range(10))
def test_splitting_a_composite_along_its_seam_gives_back_both_operands(seed):
    # the seam (0, n1-1) cuts compose_single(g, a, h, b) into g's half,
    # vertices 0..n1-1, and h's, vertices n1-1..n-1 and 0; with the seam
    # labeled a and b, each half is its operand up to rotation
    rng = random.Random(seed)
    for _ in range(100):
        n1, n2 = rng.randint(3, 9), rng.randint(3, 9)
        g = _random_dissection(rng, tuple(rng.sample(range(100), n1)))
        h = _random_dissection(rng, tuple(rng.sample(range(100, 200), n2)))
        a, b = rng.choice(g.labels), rng.choice(h.labels)
        glued = compose_single(g, a, h, b)
        n, seam = glued.n, (0, n1 - 1)
        part, rest = glued.split_labels(seam)
        inner = glued.diagonals - {seam}
        g_half = Dissection(part + (a,), frozenset(d for d in inner if d[1] < n1))
        vertex = {v: v - n1 + 1 for v in range(n1 - 1, n)} | {0: n2 - 1}
        h_half = Dissection(rest + (b,), frozenset(
            (vertex[u], vertex[v]) for u, v in inner if u in vertex and v in vertex))
        assert g_half in _rotations(g), (g, a, h, b)
        assert h_half in _rotations(h), (g, a, h, b)


def test_axiom_sweep_passes():
    report = check_operad_axioms(7)
    assert report.passed, report.failures[:3]
    assert report.sequential_checked == 8226
    assert report.parallel_checked == 8226
    assert report.equivariance_checked == 20424
    assert str(report) == ("operad axioms: 8226 sequential, 8226 parallel, "
                           "20424 equivariance checks: pass")


def test_axiom_sweep_reports_a_composition_that_breaks_associativity(monkeypatch):
    right = operad.compose_single

    def forgetful(g, a, h, b):
        # drops every diagonal when a triangle is glued in: with h and k
        # both triangles, (g o_a h) o_c k has none, while g o_a (h o_c k)
        # glues in a square and keeps that seam
        out = right(g, a, h, b)
        return Dissection(out.labels, frozenset()) if h.n == 3 else out

    monkeypatch.setattr(operad, "compose_single", forgetful)
    report = check_operad_axioms(6)
    assert report.sequential_checked == report.parallel_checked > 0
    assert report.failures
    assert all("associativity broke" in failure for failure in report.failures)
    assert any(failure.startswith("sequential") for failure in report.failures)
    assert any(failure.startswith("parallel") for failure in report.failures)

    # each kind of failure replays from its message alone: the two sides
    # differ under the forgetful composition and agree under the right one
    for kind in ("sequential", "parallel"):
        failure = next(f for f in report.failures if f.startswith(kind))
        assert _replay(failure, forgetful) is False, failure
        assert _replay(failure, right) is True, failure


def _replay(failure, compose):
    # whether the two sides of the reported identity have one canonical form
    named = dict(re.findall(r"\b([ghkabce]) = (Dissection\(.*?\]\)|\d+)", failure))
    g, h, k = (Dissection(*ast.literal_eval(named[x][len("Dissection"):])) for x in "ghk")
    a, b, c, e = (int(named[x]) for x in "abce")
    left = compose(compose(g, a, h, b), c, k, e)
    if failure.startswith("sequential"):
        right = compose(g, a, compose(h, c, k, e), b)
    else:
        right = compose(compose(g, c, k, e), a, h, b)
    return dihedral_canonical(left) == dihedral_canonical(right)


def test_axiom_sweep_reports_a_relabeling_that_breaks_equivariance(monkeypatch):
    right = operad.relabel

    def forgetful(g, sigma):
        # drops the diagonals of a composite, the only dissection that
        # carries labels from both pools (g's from 100, h's from 200); as
        # every composite has its seam, every equivariance check fails
        out = right(g, sigma)
        return Dissection(out.labels) if len({x // 100 for x in g.labels}) > 1 else out

    monkeypatch.setattr(operad, "relabel", forgetful)
    report = check_operad_axioms(5)
    assert report.equivariance_checked == 6768
    assert len(report.failures) == report.equivariance_checked
    assert all(failure.startswith("equivariance broke") for failure in report.failures)


def test_compositions_and_canonical_forms_match_the_old_vertex_maps():
    # the gluings include every one where a diagonal of h ends at vertex
    # q, which goes to total and wraps to vertex 0 of the composite
    assert sum(wraps(*gluing) for gluing in gluings(7)) > 0
    assert list(differences(7)) == []


def test_a_diagonal_of_h_at_the_start_of_side_b_wraps_to_vertex_0():
    g, h = Dissection((1, 2, 3)), Dissection((4, 5, 6, 7), {(1, 3)})
    assert wraps(g, 1, h, 7)
    out = compose_single(g, 1, h, 7)
    assert out == reference_compose(g, 1, h, 7) == Dissection((2, 3, 4, 5, 6), {(0, 2), (0, 3)})


def test_axiom_sweep_range_guard():
    with pytest.raises(RangeError):
        check_operad_axioms(8)


def test_each_operand_pool_is_made_once():
    operad._all_dissections.cache_clear()
    check_operad_axioms(5)
    # (3, 3, 3) for associativity; (3, 3), (3, 4) and (4, 3) for equivariance
    assert operad._all_dissections.cache_info().misses == 5
    assert operad._all_dissections(3, 100) is operad._all_dissections(3, 100)


def test_full_composition_sweep():
    assert sweep_full_compositions(7) == 351
    with pytest.raises(RangeError):
        sweep_full_compositions(9)
