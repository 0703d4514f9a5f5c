"""Generators, relations, the permutation image, juxtaposition."""

from collections import Counter
from functools import partial
from itertools import combinations
from math import comb, factorial

import pytest

from mosaic import acceptance, quasibraid
from mosaic.errors import InvariantViolation, NonBijective, NotSI, RangeError
from mosaic.polygon import Dissection, cayley_count
from mosaic.quasibraid import (
    Generator,
    Permutation,
    Relation,
    check_phi,
    conjugate_in,
    export_presentation,
    generators,
    pair_of_pants,
    phi,
    phi_word,
    relations,
)

PENTAGON_FREE_PARTS = {
    (0, 2): (1, 2),
    (0, 3): (1, 2, 3),
    (1, 3): (2, 3),
    (1, 4): (2, 3, 4),
    (2, 4): (3, 4),
}


def test_generators_and_free_parts():
    gens = generators(5)
    assert len(gens) == 5
    assert {g.diagonal: g.free_part for g in gens} == PENTAGON_FREE_PARTS
    with pytest.raises(RangeError):
        generators(3)


@pytest.mark.parametrize("n", range(4, 9))
def test_generator_count_is_the_diagonal_count(n):
    assert len(generators(n)) == n * (n - 3) // 2 == cayley_count(n, 1)


# ---------------------------------------------------------------------------
# permutations

def test_permutation_composes_left_to_right():
    p = Permutation((2, 1, 3))
    q = Permutation((1, 3, 2))
    assert (p * q).images == (3, 1, 2)
    assert (q * p).images == (2, 3, 1)
    assert p * p == Permutation.identity(3)
    assert (p * q).inverse() * (p * q) == Permutation.identity(3)
    assert p.apply(1) == 2


def test_permutation_must_be_bijective():
    with pytest.raises(NonBijective):
        Permutation((1, 1, 3))
    with pytest.raises(NonBijective):
        Permutation((1, 2, 4))


def test_phi_reverses_the_free_part():
    assert phi(Generator(5, (0, 2))).images == (2, 1, 3, 4)
    assert phi(Generator(5, (0, 3))).images == (3, 2, 1, 4)
    assert phi(Generator(5, (1, 4))).images == (1, 4, 3, 2)
    assert phi(Generator(6, (1, 4))).images == (1, 4, 3, 2, 5)
    for g in generators(6):
        image = phi(g)
        assert image * image == Permutation.identity(5)


def test_phi_word_multiplies_images():
    g1 = Generator(5, (0, 2))
    g2 = Generator(5, (0, 3))
    assert phi_word((g1, g2), 5) == phi(g1) * phi(g2)
    assert phi_word((), 5) == Permutation.identity(4)


# ---------------------------------------------------------------------------
# conjugation inside a diagonal

def test_conjugating_a_nested_generator():
    d = Generator(5, (0, 3))
    a = Generator(5, (0, 2))
    assert conjugate_in(d, a) == Generator(5, (1, 3))


def test_conjugating_a_non_nested_generator_is_identity():
    d = Generator(5, (0, 2))
    a = Generator(5, (0, 3))
    assert conjugate_in(d, a) == a
    disjoint = conjugate_in(Generator(6, (0, 2)), Generator(6, (2, 4)))
    assert disjoint == Generator(6, (2, 4))


@pytest.mark.parametrize("n", (5, 6))
def test_conjugation_is_an_involution(n):
    gens = generators(n)
    for i, d in enumerate(gens):
        for a in gens:
            if a == d:
                continue
            try:
                b = conjugate_in(d, a)
            except NotSI:
                continue
            assert conjugate_in(d, b) == a


def test_conjugation_names_a_twist_that_loses_the_diagonal(monkeypatch):
    # a marked twist that keeps only the twisted diagonal leaves none
    monkeypatch.setattr(quasibraid, "marked_twist",
                        lambda pair, d: Dissection._made(pair.labels, frozenset({d})))
    with pytest.raises(InvariantViolation) as raised:
        conjugate_in(Generator(5, (0, 3)), Generator(5, (0, 2)))
    assert str(raised.value) == "twisting (0, 2) in (0, 3) left []"


def test_conjugation_rejects_crossing_or_equal_pairs():
    with pytest.raises(NotSI):
        conjugate_in(Generator(5, (0, 2)), Generator(5, (1, 3)))
    with pytest.raises(NotSI):
        conjugate_in(Generator(5, (0, 2)), Generator(5, (0, 2)))
    with pytest.raises(NotSI):
        conjugate_in(Generator(5, (0, 2)), Generator(6, (0, 3)))


@pytest.mark.parametrize("n", (5, 6))
def test_conjugation_by_the_outer_diagonal_respects_phi(n):
    # free_part(a) inside free_part(d): phi sends the conjugate of a to
    # the conjugate permutation, with d as the conjugator
    gens = generators(n)
    for d in gens:
        span_d = set(d.free_part)
        for a in gens:
            if a == d or not set(a.free_part) < span_d:
                continue
            b = conjugate_in(d, a)
            assert phi(b) == phi(d) * phi(a) * phi(d).inverse()


# ---------------------------------------------------------------------------
# relations

def test_square_relations_are_two_involutions():
    rels = relations(4)
    assert [r.kind for r in rels] == ["involution", "involution"]
    for r in rels:
        assert len(r.left) == 2 and r.left[0] == r.left[1]
        assert r.right == ()


def test_pentagon_relation_census():
    rels = relations(5)
    assert Counter(r.kind for r in rels) == \
        {"involution": 5, "conjugation": 4, "commuting": 1}
    (comm,) = [r for r in rels if r.kind == "commuting"]
    assert {g.diagonal for g in comm.left} == {(0, 2), (2, 4)}
    assert comm.right == tuple(reversed(comm.left))
    for r in rels:
        if r.kind == "conjugation":
            d, a = r.left
            b, d2 = r.right
            assert d2 == d
            assert conjugate_in(d, a) == b
            assert set(a.free_part) < set(d.free_part)


@pytest.mark.parametrize("n,census", [
    (5, {"involution": 5, "conjugation": 4, "commuting": 1}),
    (6, {"involution": 9, "conjugation": 14, "commuting": 7}),
    (7, {"involution": 14, "conjugation": 36, "commuting": 20}),
])
def test_relation_counts(n, census):
    rels = relations(n)
    assert Counter(r.kind for r in rels) == census
    # one involution per generator, one relation per superimposable pair
    assert len(rels) == cayley_count(n, 1) + cayley_count(n, 2)


def _cactus_relations(n):
    # Henriques-Kamnitzer's cactus relations without the longest interval
    # [1, n-1]; the diagonal (i, j) is the interval [i+1, j]
    def diagonal(p, q):
        return (p - 1, q)

    intervals = sorted((i + 1, j) for i, j in
                       (g.diagonal for g in generators(n)))
    rels = {("involution", (diagonal(*a), diagonal(*a)), ()) for a in intervals}
    for a, b in combinations(sorted(intervals, key=lambda iv: diagonal(*iv)), 2):
        da, db = diagonal(*a), diagonal(*b)
        if a[1] < b[0] or b[1] < a[0]:
            rels.add(("commuting", (da, db), (db, da)))
            continue
        if b[0] <= a[0] and a[1] <= b[1]:
            (k, l), (p, q) = a, b
        elif a[0] <= b[0] and b[1] <= a[1]:
            (k, l), (p, q) = b, a
        else:
            continue                     # overlapping intervals: crossing diagonals
        if p + q == k + l:
            rels.add(("commuting", (da, db), (db, da)))
        else:
            outer = diagonal(p, q)
            rels.add(("conjugation", (outer, diagonal(k, l)),
                      (diagonal(p + q - l, p + q - k), outer)))
    return rels


@pytest.mark.parametrize("n", range(4, 17))
def test_relations_are_the_cactus_relations(n):
    rels = relations(n)
    as_tuples = {(r.kind, tuple(g.diagonal for g in r.left),
                  tuple(g.diagonal for g in r.right)) for r in rels}
    assert len(as_tuples) == len(rels) == 2 * comb(n, 4)
    assert as_tuples == _cactus_relations(n)


def test_criterion_10_makes_each_table_once():
    relations.cache_clear()
    assert acceptance.run_criterion(10, acceptance.ComplexCache()).passed
    # check_phi for n = 4..9 and the four juxtapositions share six tables
    assert relations.cache_info().misses == 6
    table = relations(8)
    assert isinstance(table, tuple) and relations(8) is table


def test_relations_name_a_noncommuting_pair_that_is_not_nested(monkeypatch):
    # the disjoint pair (0, 2), (2, 4) made to move under one marked twist
    real = quasibraid.marked_twist

    def broken(pair, d):
        out = real(pair, d)
        if pair.diagonals == {(0, 2), (2, 4)} and d == (0, 2):
            return Dissection._made(out.labels, frozenset({(0, 2), (1, 3)}))
        return out

    relations.cache_clear()
    monkeypatch.setattr(quasibraid, "marked_twist", broken)
    try:
        with pytest.raises(InvariantViolation) as raised:
            relations(5)
    finally:
        relations.cache_clear()
    assert str(raised.value) == "noncommuting pair (0, 2)/(2, 4) is not nested"


@pytest.mark.parametrize("n", (5, 6, 7))
def test_every_relation_collapses_under_phi(n):
    for rel in relations(n):
        assert phi_word(rel.left, n) == phi_word(rel.right, n)


@pytest.mark.parametrize("n", range(4, 8))
def test_phi_image_is_the_full_symmetric_group(n):
    report = check_phi(n)
    assert report.passed, report.failures[:3]
    assert report.image_order == report.expected_order == factorial(n - 1)
    assert report.relations_checked == len(relations(n))


def _orbit_order(images, m):
    # plain orbit closure over image tuples: the enumeration that the
    # transposition certificate in check_phi replaces, kept as its oracle
    identity = tuple(range(1, m + 1))
    gens = [p.images for p in images]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(q[y - 1] for y in p)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize("n", range(4, 9))
def test_orbit_closure_agrees_with_the_certificate(n):
    report = check_phi(n)
    assert report.passed, report.failures[:3]
    assert _orbit_order([phi(g) for g in generators(n)], n - 1) == report.image_order


def test_the_certificate_names_a_missing_transposition(monkeypatch):
    real_phi = quasibraid.phi

    def broken(g):
        if g.diagonal == (0, 2):
            return Permutation.identity(g.n - 1)
        return real_phi(g)

    monkeypatch.setattr(quasibraid, "phi", broken)
    report = check_phi(5)
    assert not report.passed
    assert report.image_order == 0
    assert report.failures[-1] == ("images miss the adjacent transposition (1 2), "
                                   "so they are not certified to generate S_4")
    assert str(report).endswith(f"image order 0/24: {len(report.failures)} FAILURES")


def test_check_phi_range_guard():
    with pytest.raises(RangeError):
        check_phi(3)
    with pytest.raises(RangeError):
        check_phi(10)


# ---------------------------------------------------------------------------
# juxtaposition

def test_pair_of_pants_three_three():
    map_1, map_2, report = pair_of_pants(3, 3)
    assert report.passed, report.failures[:3]
    assert report.target == 7
    assert report.relations_mapped == 4
    assert report.cross_pairs == 4
    # the first factor keeps its diagonals, the second is shifted
    assert {g.diagonal for g in map_1.values()} == {(0, 2), (1, 3)}
    assert {g.diagonal for g in map_2.values()} == {(3, 5), (4, 6)}
    for g, image in map_2.items():
        assert image.free_part == tuple(x + 3 for x in g.free_part)


@pytest.mark.parametrize("m,n,mapped,cross", [
    (3, 4, 12, 10),
    (4, 4, 20, 25),
])
def test_pair_of_pants_counts(m, n, mapped, cross):
    _, _, report = pair_of_pants(m, n)
    assert report.passed, report.failures[:3]
    assert report.relations_mapped == mapped
    assert report.cross_pairs == cross


def test_pair_of_pants_names_each_relation_missing_from_the_target(monkeypatch):
    real = quasibraid.relations
    g = partial(Generator, 8)
    conjugation = Relation("conjugation", (g((3, 6)), g((3, 5))), (g((4, 6)), g((3, 6))))
    commuting = Relation("commuting", (g((3, 5)), g((5, 7))), (g((5, 7)), g((3, 5))))
    cross = Relation("commuting", (g((0, 2)), g((3, 5))), (g((3, 5)), g((0, 2))))
    dropped = {conjugation, commuting, cross}
    assert dropped < set(real(8))
    # the target J_7 loses the three relations; the factors keep theirs
    monkeypatch.setattr(quasibraid, "relations", lambda n: real(n) if n != 8 else
                        tuple(rel for rel in real(n) if rel not in dropped))
    _, _, report = pair_of_pants(3, 4)
    assert not report.passed
    assert (report.relations_mapped, report.cross_pairs) == (12, 10)
    assert report.failures == [
        f"conjugation relation {conjugation.left} = {conjugation.right} lost in J_7",
        f"commuting relation {commuting.left} = {commuting.right} lost in J_7",
        "cross pair ((0, 2), (3, 5)) has no commuting relation",
    ]
    assert str(report) == ("juxtaposition J_3 x J_4 -> J_7: 12 relations carried, "
                           "10 cross pairs commute: 3 FAILURES")
    assert real(8) is real(8)


def test_pair_of_pants_names_a_cross_pair_that_fails_under_phi(monkeypatch):
    # (0, 2) sent to the image of (0, 4), which moves label 4 as (3, 5) does
    real = quasibraid.phi
    monkeypatch.setattr(quasibraid, "phi", lambda g: real(
        Generator(g.n, (0, 4)) if g.diagonal == (0, 2) else g))
    _, _, report = pair_of_pants(3, 3)
    assert report.failures == ["cross pair ((0, 2), (3, 5)) fails to commute under phi"]


def test_pair_of_pants_range_guard():
    with pytest.raises(RangeError):
        pair_of_pants(2, 3)


# ---------------------------------------------------------------------------
# export

def test_export_square_presentation():
    assert export_presentation(4) == (
        "generators: g1 g2\n"
        "rel: g1 g1 =\n"
        "rel: g2 g2 =\n"
    )


def test_export_pentagon_presentation():
    text = export_presentation(5)
    assert text == (
        "generators: g1 g2 g3 g4 g5\n"
        "rel: g1 g1 =\n"
        "rel: g2 g2 =\n"
        "rel: g3 g3 =\n"
        "rel: g4 g4 =\n"
        "rel: g5 g5 =\n"
        "rel: g2 g1 = g3 g2\n"
        "rel: g1 g5 = g5 g1\n"
        "rel: g2 g3 = g1 g2\n"
        "rel: g4 g3 = g5 g4\n"
        "rel: g4 g5 = g3 g4\n"
    )
    assert export_presentation(5) == text
