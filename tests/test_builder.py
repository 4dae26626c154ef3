import math

import numpy as np
import pytest

from pmfg import (
    InputError,
    SimilarityMatrix,
    build_pmfg,
    canonical_code,
    correlation_from_returns,
    count_cliques,
    euler_check,
    is_planar,
    kuratowski_oracle,
    standard_form,
    weighted_edge_list,
)
from pmfg.builder import acceptance_log_csv, read_matrix_csv, read_returns_csv


def pearson_by_hand(x, y):
    """Textbook formula, kept deliberately independent of numpy internals."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def random_similarity(n, seed, observations=50):
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(observations, n)) + 0.25 * rng.normal(
        size=(observations, 1)
    )
    return correlation_from_returns(table, [f"S{i:02d}" for i in range(n)])


def oracle_gated_greedy(sim):
    """The independent twin of build_pmfg: same scan, exhaustive gate."""
    n = sim.n
    target = 3 * (n - 2)
    kept = []
    accepted = []
    for u, v, w in weighted_edge_list(sim).entries:
        candidate = kept + [(u, v)]
        if kuratowski_oracle(n, candidate):
            kept = candidate
            accepted.append((u, v, w))
            if len(accepted) == target:
                break
    return tuple(accepted)


class TestCorrelation:
    def test_identical_columns_give_unit_correlation(self):
        table = np.array([[1.0, 1.0], [2.0, 2.0], [4.0, 4.0]])
        sim = correlation_from_returns(table, ["a", "b"])
        assert sim.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated_column_gives_minus_one(self):
        col = np.array([0.3, -1.2, 0.8, 0.1])
        table = np.column_stack([col, -col])
        sim = correlation_from_returns(table, ["a", "b"])
        assert sim.values[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_hand_computed_pearson(self):
        table = np.array(
            [
                [0.1, 1.2, -0.4],
                [0.5, 0.3, 0.9],
                [-0.2, 0.8, 0.4],
                [0.9, -0.1, -0.6],
                [0.4, 0.5, 0.2],
            ]
        )
        sim = correlation_from_returns(table, ["x", "y", "z"])
        for i in range(3):
            for j in range(i + 1, 3):
                expected = pearson_by_hand(table[:, i], table[:, j])
                assert sim.values[i, j] == pytest.approx(expected, abs=1e-12)

    def test_constant_column_names_the_offender(self):
        table = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.raises(InputError, match="flat"):
            correlation_from_returns(table, ["ok", "flat"])

    def test_too_few_observations(self):
        with pytest.raises(InputError):
            correlation_from_returns(np.array([[1.0, 2.0]]), ["a", "b"])

    @pytest.mark.parametrize("bad, name", [(np.nan, "NaN"), (np.inf, "infinite"), (-np.inf, "infinite")])
    def test_non_finite_returns_named(self, bad, name):
        table = np.array([[1.0, 2.0], [bad, 3.0], [2.0, 1.0]])
        with pytest.raises(InputError, match=name):
            correlation_from_returns(table, ["a", "b"])


class TestSimilarityMatrix:
    def test_nan_rejected_with_labels(self):
        values = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(InputError, match="a.*b|NaN"):
            SimilarityMatrix(("a", "b"), values)

    def test_infinite_similarity_rejected_with_labels(self):
        values = np.array([[1.0, np.inf], [np.inf, 1.0]])
        with pytest.raises(InputError, match="between a and b is infinite"):
            SimilarityMatrix(("a", "b"), values)

    def test_infinite_diagonal_ignored(self):
        SimilarityMatrix(("a", "b"), np.array([[np.inf, 0.5], [0.5, 1.0]]))

    def test_asymmetry_rejected(self):
        values = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(InputError, match="asymmetric"):
            SimilarityMatrix(("a", "b"), values)

    def test_correlation_range_enforced_when_declared(self):
        values = np.array([[1.0, 1.5], [1.5, 1.0]])
        SimilarityMatrix(("a", "b"), values)  # plain similarity is fine
        with pytest.raises(InputError, match="correlation"):
            SimilarityMatrix(("a", "b"), values, correlation=True)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError, match="unique"):
            SimilarityMatrix(("a", "a"), np.eye(2))


class TestWeightedEdgeList:
    def test_descending_order(self):
        sim = random_similarity(6, seed=0)
        entries = weighted_edge_list(sim).entries
        weights = [w for _, _, w in entries]
        assert weights == sorted(weights, reverse=True)
        assert len(entries) == 15

    def test_tie_break_is_lexicographic_by_label(self):
        values = np.full((4, 4), 0.5)
        np.fill_diagonal(values, 1.0)
        sim = SimilarityMatrix(("d", "c", "b", "a"), values)
        entries = weighted_edge_list(sim).entries
        first_pair = sorted((sim.labels[entries[0][0]], sim.labels[entries[0][1]]))
        assert first_pair == ["a", "b"]

    def test_strict_policy_reports_tied_pairs(self):
        values = np.full((3, 3), 0.5)
        np.fill_diagonal(values, 1.0)
        sim = SimilarityMatrix(("a", "b", "c"), values)
        with pytest.raises(InputError, match="tied weights"):
            weighted_edge_list(sim, tie_policy="strict")

    def test_unknown_policy_rejected(self):
        with pytest.raises(InputError):
            weighted_edge_list(random_similarity(4, seed=1), tie_policy="fastest")


class TestBuildPmfg:
    def test_four_entities_give_k4(self):
        sim = random_similarity(4, seed=3)
        result = build_pmfg(sim)
        assert len(result.accepted) == 6
        assert result.rejected == ()
        assert count_cliques(result.embedding).counts == (4, 1)

    def test_five_entities_give_the_unique_planar_class(self):
        sim = random_similarity(5, seed=4)
        result = build_pmfg(sim)
        assert len(result.accepted) == 9
        assert canonical_code(result.embedding) == canonical_code(standard_form(5))

    def test_result_is_a_triangulation_with_labels(self):
        sim = random_similarity(9, seed=5)
        result = build_pmfg(sim)
        report = euler_check(result.embedding)
        assert report.is_triangulation
        assert result.embedding.labels == sim.labels
        assert result.total_weight == pytest.approx(
            sum(w for _, _, w in result.accepted)
        )

    def test_matches_oracle_gated_greedy_on_seeded_matrix(self):
        sim = random_similarity(8, seed=6)
        result = build_pmfg(sim)
        assert result.accepted == oracle_gated_greedy(sim)

    def test_every_accepted_prefix_is_planar_by_the_oracle(self):
        sim = random_similarity(7, seed=7)
        result = build_pmfg(sim)
        prefix = []
        for u, v, _ in result.accepted:
            prefix.append((u, v))
            assert kuratowski_oracle(7, prefix)

    def test_rejected_edges_cannot_be_added(self):
        sim = random_similarity(9, seed=8)
        result = build_pmfg(sim)
        final_edges = list(result.embedding.edges())
        assert result.rejected  # the scan must actually refuse something
        for u, v, _ in result.rejected:
            assert not is_planar(9, final_edges + [(u, v)]).planar

    def test_accepted_weights_non_increasing(self):
        result = build_pmfg(random_similarity(10, seed=9))
        weights = [w for _, _, w in result.accepted]
        assert weights == sorted(weights, reverse=True)

    def test_determinism(self):
        a = build_pmfg(random_similarity(8, seed=10))
        b = build_pmfg(random_similarity(8, seed=10))
        assert a.accepted == b.accepted
        assert a.embedding == b.embedding

    def test_three_entities_give_a_triangle(self):
        result = build_pmfg(random_similarity(3, seed=13))
        assert len(result.accepted) == 3
        assert result.embedding.e == 3
        report = euler_check(result.embedding)
        assert report.n - report.e + report.f == 2

    def test_too_few_entities_rejected(self):
        with pytest.raises(InputError):
            build_pmfg(random_similarity(2, seed=11))


class TestCsvInterfaces:
    def test_returns_round_trip(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("a,b,c\n0.1,0.2,0.3\n0.2,0.1,0.4\n0.0,0.3,0.1\n")
        labels, table = read_returns_csv(path)
        assert labels == ["a", "b", "c"]
        assert table.shape == (3, 3)

    def test_returns_bad_cell_reports_line(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("a,b\n0.1,0.2\n0.2,oops\n")
        with pytest.raises(InputError, match=":3"):
            read_returns_csv(path)

    def test_matrix_round_trip(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text(",a,b\na,1.0,0.5\nb,0.5,1.0\n")
        sim = read_matrix_csv(path)
        assert sim.labels == ("a", "b")
        assert sim.values[0, 1] == 0.5

    def test_matrix_row_label_mismatch(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text(",a,b\nb,1.0,0.5\na,0.5,1.0\n")
        with pytest.raises(InputError, match="row label"):
            read_matrix_csv(path)

    def test_missing_file(self):
        with pytest.raises(InputError, match="cannot read"):
            read_matrix_csv("/no/such/file.csv")

    def test_acceptance_log_layout(self):
        sim = random_similarity(6, seed=12)
        result = build_pmfg(sim)
        lines = acceptance_log_csv(result).strip().splitlines()
        assert lines[0] == "rank,u,v,weight,status"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
        weights = [float(r[3]) for r in rows]
        assert weights == sorted(weights, reverse=True)
        statuses = {r[4] for r in rows}
        assert statuses <= {"accepted", "rejected"}
        assert sum(r[4] == "accepted" for r in rows) == 12
