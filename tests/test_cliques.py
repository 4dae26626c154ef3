from itertools import combinations

import pytest

from pmfg import (
    CeilingError,
    InputError,
    PlanarEmbedding,
    StructuralError,
    brute_force_cliques,
    count_cliques,
    k4,
    standard_form,
    standard_form_expected,
)


class TestCountCliques:
    def test_standard_six_vertex_form(self):
        census = count_cliques(standard_form(6))
        assert census.counts == (10, 3)

    def test_alternative_six_vertex_form(self, octahedron):
        census = count_cliques(octahedron)
        assert census.counts == (8, 0)
        assert census.c3_separating == 0

    def test_k4(self):
        census = count_cliques(k4())
        assert census.counts == (4, 1)
        assert census.c3_surface == 4

    def test_eight_vertex_class_with_dominant_vertex(self, high_degree_eight):
        assert count_cliques(high_degree_eight).counts == (16, 5)

    def test_totals_decompose_into_surface_plus_separating(self, classes):
        for n, records in classes.items():
            for rec in records.values():
                census = count_cliques(rec.embedding)
                assert census.c3_total == census.c3_surface + census.c3_separating
                assert census.c3_surface == 2 * n - 4

    def test_five_vertex_separating_triangle(self, p5):
        census = count_cliques(p5)
        assert census.counts == (7, 2)
        assert census.c3_separating == 1

    def test_every_four_clique_contains_four_counted_triangles(self, classes):
        for n, records in classes.items():
            for rec in records.values():
                census = count_cliques(rec.embedding)
                triangles = {
                    frozenset(t)
                    for t in census.surface_triangles + census.separating_triangles
                }
                separating = {frozenset(t) for t in census.separating_triangles}
                for quad in census.four_cliques:
                    sub = [frozenset(t) for t in combinations(quad, 3)]
                    assert all(t in triangles for t in sub)
                    if n >= 5:
                        assert any(t in separating for t in sub)

    def test_rejects_non_triangulation(self):
        cycle = PlanarEmbedding(((1, 3), (0, 2), (1, 3), (2, 0)))
        with pytest.raises(StructuralError):
            count_cliques(cycle)

    def test_rejects_small_n(self):
        triangle = PlanarEmbedding(((1, 2), (2, 0), (0, 1)))
        with pytest.raises(InputError):
            count_cliques(triangle)


class TestStandardFormExpected:
    @pytest.mark.parametrize(
        "n,c3,c4", [(4, 4, 1), (6, 10, 3), (8, 16, 5), (12, 28, 9)]
    )
    def test_values(self, n, c3, c4):
        expected = standard_form_expected(n)
        assert (expected.c3, expected.c4) == (c3, c4)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_decomposition_identity(self, n):
        e = standard_form_expected(n)
        assert e.surface + e.enclosing - e.overlap == e.c3
        assert (e.surface, e.enclosing, e.overlap) == (2 * n - 4, n - 3, 1)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_standard_form_attains_expected(self, n):
        census = count_cliques(standard_form(n))
        expected = standard_form_expected(n)
        assert census.counts == (expected.c3, expected.c4)
        assert census.c3_separating == expected.enclosing - expected.overlap

    def test_small_n_rejected(self):
        with pytest.raises(InputError):
            standard_form_expected(3)


class TestBruteForce:
    def test_k4_and_k5(self):
        k4_edges = list(combinations(range(4), 2))
        k5_edges = list(combinations(range(5), 2))
        assert brute_force_cliques(4, k4_edges) == (4, 1)
        assert brute_force_cliques(5, k5_edges) == (10, 5)

    def test_matches_census_on_all_small_classes(self, classes):
        for n, records in classes.items():
            for rec in records.values():
                census = count_cliques(rec.embedding)
                brute = brute_force_cliques(n, list(rec.embedding.edges()))
                assert brute == census.counts

    def test_ceiling(self):
        with pytest.raises(CeilingError):
            brute_force_cliques(17, [])

    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match="self-loop at vertex 0"):
            brute_force_cliques(4, [(0, 0)])

    @pytest.mark.parametrize("n", [4.0, 17.0, "17", False])
    def test_vertex_count_must_be_an_integer(self, n):
        # Checked before the ceiling compares it: 17.0 is no CeilingError.
        with pytest.raises(InputError, match=f"vertex count {n!r} is not an integer"):
            brute_force_cliques(n, [])

    @pytest.mark.parametrize(
        "n, edges, message",
        [(4, [(0, 1), (1, 0)], "duplicate edge"), (-1, [], "non-negative")],
    )
    def test_duplicate_edge_and_negative_vertex_count_rejected(self, n, edges, message):
        with pytest.raises(InputError, match=message):
            brute_force_cliques(n, edges)


class TestReport:
    def test_json_report_structure(self):
        doc = count_cliques(standard_form(6)).to_json_dict(6)
        assert doc["c3_total"] == 10
        assert doc["bounds"]["c3_max"] == 10
        assert doc["bounds"]["c3_max_attained"] is True
        assert doc["bounds"]["c4_max_attained"] is True
        assert len(doc["surface_triangles"]) == 8
