import random
from itertools import combinations

import numpy as np
import pytest

from pmfg import (
    CeilingError,
    InputError,
    PlanarEmbedding,
    StructuralError,
    brute_force_cliques,
    count_cliques,
    generate_levels,
    k4,
    random_triangulation,
    standard_form,
    standard_form_expected,
)
from pmfg.cliques import BRUTE_FORCE_CEILING, clique_counts
from pmfg.planarity import _check_graph


def reference_brute_force_cliques(n: int, edges) -> tuple[int, int]:
    """``brute_force_cliques`` as it was when each 4-subset ran ``all()`` over
    its own ``combinations``: the reference for the ``and``-chain oracle."""
    n, edge_list = _check_graph(n, edges)
    if n > BRUTE_FORCE_CEILING:
        raise CeilingError(f"refusing brute-force census for n={n} > {BRUTE_FORCE_CEILING}")
    adj = [[False] * n for _ in range(n)]
    for u, v in edge_list:
        adj[u][v] = adj[v][u] = True
    c3 = sum(
        1
        for a, b, c in combinations(range(n), 3)
        if adj[a][b] and adj[a][c] and adj[b][c]
    )
    c4 = sum(
        1
        for quad in combinations(range(n), 4)
        if all(adj[x][y] for x, y in combinations(quad, 2))
    )
    return (c3, c4)


@pytest.fixture(scope="module")
def classes_to_ten():
    """All isomorphism classes keyed by vertex count, for n = 4..10."""
    return dict(zip(range(4, 11), generate_levels(10)))


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


class TestCliqueCounts:
    def test_agrees_with_census_and_oracle_on_every_class_to_ten(self, classes_to_ten):
        for n, records in classes_to_ten.items():
            for rec in records.values():
                emb = rec.embedding
                brute = brute_force_cliques(n, list(emb.edges()))
                assert clique_counts(emb) == count_cliques(emb).counts == brute

    @pytest.mark.parametrize("n", range(4, 61))
    def test_agrees_with_census_on_standard_forms(self, n):
        emb = standard_form(n)
        assert clique_counts(emb) == count_cliques(emb).counts == (3 * n - 8, n - 3)

    def test_agrees_with_census_on_random_and_relabelled_triangulations(self):
        rng = random.Random(20)
        for n in [*range(4, 40), 60, 90, 120]:
            emb = random_triangulation(n, seed=n)
            perm = list(range(n))
            rng.shuffle(perm)
            want = count_cliques(emb).counts
            assert clique_counts(emb) == want
            assert clique_counts(emb.relabel(perm)) == count_cliques(emb.relabel(perm)).counts == want

    @pytest.mark.parametrize(
        "emb",
        [
            PlanarEmbedding(((1, 2), (2, 0), (0, 1))),
            PlanarEmbedding(((1, 3), (0, 2), (1, 3), (2, 0))),
        ],
        ids=["triangle", "four-cycle"],
    )
    def test_refuses_what_the_census_refuses(self, emb):
        with pytest.raises((InputError, StructuralError)) as want:
            count_cliques(emb)
        with pytest.raises(type(want.value)) as got:
            clique_counts(emb)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


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

    def test_matches_the_reference_on_seeded_random_graphs(self):
        # Densities from empty to complete, edges in random order and
        # orientation, about a third of them given as numpy integers.
        rng = random.Random(1009)
        cliques_seen = 0
        for i in range(1200):
            n = rng.randint(0, 16)
            density = (i % 11) / 10
            edges = [
                (v, u) if rng.random() < 0.5 else (u, v)
                for u, v in combinations(range(n), 2)
                if rng.random() < density
            ]
            rng.shuffle(edges)
            edges = [
                (np.int64(u), np.int32(v)) if rng.random() < 0.3 else (u, v) for u, v in edges
            ]
            want = reference_brute_force_cliques(n, edges)
            assert brute_force_cliques(n, edges) == want, (n, edges)
            cliques_seen += want[1] > 0
        assert cliques_seen > 300

    @pytest.mark.parametrize(
        "n, edges",
        [
            (17, []),
            (17, [(0, 16)]),
            (4, [(0, 0)]),
            (4, [(0, 1), (1, 0)]),
            (4, [(0, 4)]),
            (4, [(0, 1.0)]),
            (4, [(True, 1)]),
            (4.0, []),
            (-1, []),
        ],
    )
    def test_refuses_with_the_reference_messages(self, n, edges):
        with pytest.raises((InputError, CeilingError)) as want:
            reference_brute_force_cliques(n, edges)
        with pytest.raises(type(want.value)) as got:
            brute_force_cliques(n, edges)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


class TestReport:
    def test_json_report_structure(self):
        doc = count_cliques(standard_form(6)).to_json_dict(6)
        assert doc["c3_total"] == 10
        assert doc["bounds"]["c3_max"] == 10
        assert doc["bounds"]["c3_max_attained"] is True
        assert doc["bounds"]["c4_max_attained"] is True
        assert len(doc["surface_triangles"]) == 8
