"""Face lattices, facet compatibility graphs, diagonal strata."""

from collections import Counter

import pytest

from mosaic.associahedron import (
    Face,
    face_factorization,
    face_factorizations,
    face_lattice,
    facet_si_graph,
    g_hat_strata,
    reference_polygon,
)
from mosaic.errors import (
    AdjacentDiagonal,
    CrossingDiagonals,
    RangeError,
    TooManyDiagonals,
)
from mosaic.polygon import cayley_count, dual_tree

TRIANGULATIONS = {4: 2, 5: 5, 6: 14, 7: 42, 8: 132, 9: 429}


def test_reference_polygon():
    p = reference_polygon(5, ((0, 2),))
    assert p.labels == (1, 2, 3, 4, 5)
    assert p.diagonals == frozenset({(0, 2)})
    with pytest.raises(RangeError):
        reference_polygon(3)


@pytest.mark.parametrize("n", range(4, 10))
def test_lattice_grades_match_the_counting_formula(n):
    lattice = face_lattice(n)
    assert lattice.f_vector() == tuple(cayley_count(n, k) for k in range(n - 2))
    assert lattice.top.diagonals == ()
    assert len(lattice.minima()) == TRIANGULATIONS[n]
    assert all(f.codim == n - 3 for f in lattice.minima())
    assert all(f.dimension == n - 3 - k for k in range(n - 2) for f in lattice.faces_at(k))
    assert len(lattice.facets()) == n * (n - 3) // 2


def test_face_lattice_range_guard():
    with pytest.raises(RangeError):
        face_lattice(3)
    with pytest.raises(RangeError):
        face_lattice(11)


def test_covering_faces_drop_one_diagonal():
    for n in range(4, 8):
        lattice = face_lattice(n)
        for face in lattice.all_faces():
            parents = lattice.covering_faces(face)
            assert len(parents) == face.codim
            for parent in parents:
                assert parent in lattice.faces_at(face.codim - 1)
                assert set(parent.diagonals) < set(face.diagonals)
                assert lattice.leq(face, parent)
        assert lattice.covering_faces(lattice.top) == ()


def test_order_relation_is_reverse_containment():
    lattice = face_lattice(5)
    vertex = lattice.minima()[0]
    assert lattice.leq(vertex, lattice.top)
    assert not lattice.leq(lattice.top, vertex)
    facet_in, facet_out = None, None
    for facet in lattice.facets():
        if set(facet.diagonals) <= set(vertex.diagonals):
            facet_in = facet
        else:
            facet_out = facet
    assert lattice.leq(vertex, facet_in)
    assert not lattice.leq(vertex, facet_out)


@pytest.mark.parametrize("n", (5, 6, 7))
def test_factorization_side_counts(n):
    # k diagonals cut the n-gon into k+1 parts with sum(n_i) = n + 2k
    lattice = face_lattice(n)
    for face in lattice.all_faces():
        sizes = face_factorization(face)
        k = face.codim
        assert len(sizes) == k + 1
        assert sum(sizes) == n + 2 * k
        assert sum(s - 3 for s in sizes) == (n - 3) - k
        assert all(s >= 3 for s in sizes)


@pytest.mark.parametrize("n", range(4, 10))
def test_factorization_reads_the_dual_tree_degrees(n):
    for face in face_lattice(n).all_faces():
        assert face_factorization(face) == tuple(sorted(dual_tree(face.dissection).degrees()))


@pytest.mark.parametrize("n", range(4, 10))
def test_grade_factorizations_read_the_dual_tree_degrees(n):
    lattice = face_lattice(n)
    for k in range(n - 2):
        rows = face_factorizations(n, k)
        assert rows.shape == (cayley_count(n, k), k + 1)
        want = [sorted(dual_tree(face.dissection).degrees()) for face in lattice.faces_at(k)]
        assert rows.tolist() == want


@pytest.mark.parametrize("diagonals, error", [
    (((0, 2), (1, 3)), CrossingDiagonals),
    (((1, 2),), AdjacentDiagonal),
    (((0, 5),), AdjacentDiagonal),
    (((0, 6),), RangeError),
    (((0, 2), (0, 3), (0, 4), (2, 4)), TooManyDiagonals),
])
def test_factorization_rejects_what_a_dissection_rejects(diagonals, error):
    with pytest.raises(error):
        face_factorization(Face(6, diagonals))


def test_factorization_counts_a_repeated_diagonal_once():
    assert face_factorization(Face(6, ((0, 2), (0, 2)))) == (3, 5)
    assert face_factorization(Face(6, ((0, 3), (3, 0), (0, 2)))) == (3, 3, 4)


def test_facet_kinds_of_the_small_lattices():
    kinds6 = Counter(face_factorization(f) for f in face_lattice(6).facets())
    assert kinds6 == {(4, 4): 3, (3, 5): 6}
    kinds7 = Counter(face_factorization(f) for f in face_lattice(7).facets())
    assert kinds7 == {(4, 5): 7, (3, 6): 7}


def test_minima_factor_into_triangles():
    for face in face_lattice(6).minima():
        assert face_factorization(face) == (3, 3, 3, 3)


def test_facet_graph_of_the_square_has_no_edges():
    graph = facet_si_graph(4)
    assert graph.vertices == ((0, 2), (1, 3))
    assert graph.edges == ()


def test_facet_graph_of_the_pentagon_is_a_cycle():
    graph = facet_si_graph(5)
    assert len(graph.vertices) == 5
    assert len(graph.edges) == 5
    assert all(graph.degree(d) == 2 for d in graph.vertices)


@pytest.mark.parametrize("n", (5, 6, 7, 8))
def test_facet_graph_edges_count_compatible_pairs(n):
    graph = facet_si_graph(n)
    assert len(graph.vertices) == cayley_count(n, 1)
    assert len(graph.edges) == cayley_count(n, 2)
    for d1, d2, meet in graph.edges:
        assert set(meet) == {d1, d2}


def test_strata_by_diagonal_span():
    assert g_hat_strata(4) == {2: 2}
    assert g_hat_strata(5) == {2: 3, 3: 2}
    assert g_hat_strata(6) == {2: 4, 3: 3, 4: 2}
    assert g_hat_strata(7) == {2: 5, 3: 4, 4: 3, 5: 2}
    for n in range(4, 9):
        strata = g_hat_strata(n)
        assert strata == {i: n - i for i in range(2, n - 1)}
        assert sum(strata.values()) == n * (n - 3) // 2
