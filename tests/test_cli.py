import json

import numpy as np
import pytest

from pmfg import PlanarEmbedding, count_cliques, generate_all, standard_form
from pmfg.cli import main

STANDARD6_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 3), (3, 4), (4, 5),
]


@pytest.fixture()
def alt6_path(tmp_path):
    for rec in generate_all(6, check_deltas=False).values():
        if count_cliques(rec.embedding).counts == (8, 0):
            path = tmp_path / "alt6.json"
            path.write_text(rec.embedding.to_json())
            return path
    raise AssertionError


@pytest.fixture()
def matrix4_path(tmp_path):
    path = tmp_path / "four.csv"
    path.write_text(
        ",A,B,C,D\n"
        "A,1,0.9,0.8,0.7\n"
        "B,0.9,1,0.6,0.5\n"
        "C,0.8,0.6,1,0.4\n"
        "D,0.7,0.5,0.4,1\n"
    )
    return path


@pytest.fixture()
def matrix6_path(tmp_path):
    """Weights engineered so the greedy scan accepts exactly the edges of the
    standard 6-vertex form (high weights on its 12 edges, low elsewhere)."""
    labels = ["N0", "N1", "N2", "N3", "N4", "N5"]
    values = np.full((6, 6), 0.0)
    np.fill_diagonal(values, 1.0)
    for rank, (u, v) in enumerate(STANDARD6_EDGES):
        values[u, v] = values[v, u] = 0.95 - 0.01 * rank
    lows = [(u, v) for u in range(6) for v in range(u + 1, 6) if values[u, v] == 0.0]
    for rank, (u, v) in enumerate(lows):
        values[u, v] = values[v, u] = 0.10 - 0.01 * rank
    path = tmp_path / "six.csv"
    rows = ["," + ",".join(labels)]
    for i, name in enumerate(labels):
        rows.append(name + "," + ",".join(repr(float(x)) for x in values[i]))
    path.write_text("\n".join(rows) + "\n")
    return path


class TestBuildCommand:
    def test_four_entity_matrix_builds_k4(self, matrix4_path, tmp_path, capsys):
        rc = main(
            ["build", str(matrix4_path), "--format", "matrix",
             "--output-dir", str(tmp_path / "out")]
        )
        assert rc == 0
        census = json.loads((tmp_path / "out" / "four.census.json").read_text())
        assert census["accepted_edges"] == 6
        assert census["census"]["c3_total"] == 4
        assert census["census"]["c4_total"] == 1
        graph = PlanarEmbedding.from_json(
            (tmp_path / "out" / "four.pmfg.json").read_text()
        )
        assert graph.labels == ("A", "B", "C", "D")
        log = (tmp_path / "out" / "four.acceptance.csv").read_text().splitlines()
        assert log[0] == "rank,u,v,weight,status"
        assert len(log) == 7

    def test_engineered_six_entity_matrix_hits_standard_form(
        self, matrix6_path, tmp_path
    ):
        out = tmp_path / "out"
        assert main(["build", str(matrix6_path), "--output-dir", str(out)]) == 0
        census = json.loads((out / "six.census.json").read_text())
        assert (census["census"]["c3_total"], census["census"]["c4_total"]) == (10, 3)
        graph = PlanarEmbedding.from_json((out / "six.pmfg.json").read_text())
        edges = {tuple(sorted(e)) for e in graph.edges()}
        assert edges == set(STANDARD6_EDGES)

    def test_infinite_similarity_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        path.write_text(",A,B,C\nA,1,inf,0.2\nB,inf,1,0.3\nC,0.2,0.3,1\n")
        assert main(["build", str(path), "--output-dir", str(tmp_path)]) == 2
        assert "between A and B is infinite" in capsys.readouterr().err

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(",A,B\nA,1.0\n")
        assert main(["build", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert main(["build", "/no/such/file.csv"]) == 2

    def test_strict_tie_policy_exits_2_on_ties(self, tmp_path, capsys):
        path = tmp_path / "tied.csv"
        path.write_text(",a,b,c\na,1,0.5,0.5\nb,0.5,1,0.5\nc,0.5,0.5,1\n")
        assert main(["build", str(path), "--tie-policy", "strict"]) == 2
        assert "tied weights" in capsys.readouterr().err

    def test_returns_format(self, tmp_path):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(30, 5))
        path = tmp_path / "returns.csv"
        rows = [",".join(f"E{i}" for i in range(5))]
        rows += [",".join(repr(float(x)) for x in row) for row in table]
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        rc = main(["build", str(path), "--format", "returns", "--output-dir", str(out)])
        assert rc == 0
        census = json.loads((out / "returns.census.json").read_text())
        assert census["accepted_edges"] == 9


class TestCliquesCommand:
    def test_json_output(self, alt6_path, capsys):
        assert main(["cliques", str(alt6_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["c3_total"] == 8
        assert doc["c4_total"] == 0
        assert doc["bounds"]["c3_max"] == 10

    def test_csv_output(self, alt6_path, capsys):
        assert main(["cliques", str(alt6_path), "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n,c3_total")
        assert lines[1] == "6,8,8,0,0,10,3"

    def test_non_triangulation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "path.json"
        path.write_text(PlanarEmbedding(((1,), (0, 2), (1,))).to_json())
        assert main(["cliques", str(path)]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 4, "rotation": [["1", 3, 2], [2, 3, 0], [0, 3, 1], [0, 1, 2]]},
            {"n": 4, "rotation": [[1.0, 3, 2], [2, 3, 0], [0, 3, 1], [0, 1, 2]]},
            {"n": 4, "rotation": [[True, 3, 2], [2, 3, 0], [0, 3, 1], [0, 1, 2]]},
            {"n": 4, "rotation": 5},
            {"n": 4, "rotation": [1, 2, 3, 4]},
            {"n": 4, "rotation": [[1, 3, 2], [2, 3, 0], [0, 3, 1], [0, 1, 2]], "labels": 7},
            {"n": 4, "rotation": [[1, 3, 2], [2, 3, 0], [0, 3, 1], [0, 1, 2]], "labels": ["a", "b", "c", 4]},
            {"n": 4, "rotation": [[1, 3, 2], [2, 3, 0], [0, 3, 1], [0, 1, 2]], "outer_face": [[0, 1, 2]]},
        ],
        ids=[
            "string-neighbour",
            "float-neighbour",
            "bool-neighbour",
            "rotation-not-a-list",
            "rotation-entry-not-a-list",
            "labels-not-a-list",
            "non-string-label",
            "nested-outer-face",
        ],
    )
    def test_malformed_graph_json_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["cliques", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: graph document:")
        assert len(err.strip().splitlines()) == 1


class TestGenerateCommand:
    def test_jsonl_report(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert main(["generate", "--n", "7", "--output-dir", str(out)]) == 0
        lines = (out / "triangulations_n7.jsonl").read_text().strip().splitlines()
        assert len(lines) == 5
        docs = [json.loads(line) for line in lines]
        assert all(doc["trace_length"] == 3 for doc in docs)
        assert {doc["c3"] for doc in docs} <= set(range(10, 14))
        assert all(sum(doc["degree_sequence"]) == 30 for doc in docs)

    def test_dot_dump(self, tmp_path):
        out = tmp_path / "gen"
        dots = tmp_path / "dots"
        assert main(
            ["generate", "--n", "5", "--output-dir", str(out), "--dot-dir", str(dots)]
        ) == 0
        files = list(dots.glob("*.dot"))
        assert len(files) == 1
        assert "--" in files[0].read_text()

    def test_ceiling_exits_2(self, capsys):
        assert main(["generate", "--n", "11"]) == 2
        assert "ceiling" in capsys.readouterr().err


class TestNormalizeCommand:
    def test_alternative_form_normalizes_to_expected_census(
        self, alt6_path, tmp_path, capsys
    ):
        out = tmp_path / "norm"
        assert main(["normalize", str(alt6_path), "--output-dir", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "before: C3=8 C4=0" in printed
        assert "after:  C3=10 C4=3" in printed
        flips = json.loads((out / "alt6.flips.json").read_text())
        assert len(flips) >= 1
        normalized = PlanarEmbedding.from_json(
            (out / "alt6.normalized.json").read_text()
        )
        assert count_cliques(normalized).counts == (10, 3)

    def test_standard_input_needs_no_flips(self, tmp_path, capsys):
        path = tmp_path / "std.json"
        path.write_text(PlanarEmbedding(standard_form(7).rotation).to_json())
        assert main(["normalize", str(path), "--output-dir", str(tmp_path)]) == 0
        assert "in 0 flips" in capsys.readouterr().out

    def test_non_triangulation_exits_2(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(PlanarEmbedding(((1,), (0, 2), (1,))).to_json())
        assert main(["normalize", str(path), "--output-dir", str(tmp_path)]) == 2

    def test_eight_vertex_class_reaches_the_maxima(self, tmp_path, capsys):
        from pmfg import random_triangulation

        path = tmp_path / "eight.json"
        path.write_text(random_triangulation(8, seed=21).to_json())
        assert main(["normalize", str(path), "--output-dir", str(tmp_path)]) == 0
        assert "after:  C3=16 C4=5" in capsys.readouterr().out


class TestFlipCommand:
    def test_flip_writes_result(self, alt6_path, tmp_path, capsys):
        emb = PlanarEmbedding.from_json(alt6_path.read_text())
        u, v = next(iter(emb.edges()))
        out = tmp_path / "flipped.json"
        assert main(["flip", str(alt6_path), str(u), str(v), "--output", str(out)]) == 0
        flipped = PlanarEmbedding.from_json(out.read_text())
        assert not flipped.has_edge(u, v)

    def test_forbidden_flip_exits_2(self, tmp_path, capsys):
        path = tmp_path / "k4.json"
        from pmfg import k4

        path.write_text(k4().to_json())
        assert main(["flip", str(path), "0", "1"]) == 2


class TestVerifyCommand:
    def test_table_output_and_exit_zero(self, capsys):
        assert main(["verify", "--n-max", "6", "--table"]) == 0
        out = capsys.readouterr().out
        assert "n= 6 classes=    2" in out
        assert "FAILED" not in out

    def test_json_reports_written(self, tmp_path):
        out = tmp_path / "reports"
        assert main(["verify", "--n-max", "5", "--output-dir", str(out)]) == 0
        doc = json.loads((out / "bounds_n5.json").read_text())
        assert doc["ok"] is True
        assert doc["classes"] == 1

    def test_workers_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv("PMFG_WORKERS", "2")
        assert main(["verify", "--n-max", "5", "--table"]) == 0

    @pytest.mark.parametrize(
        "argv, env, bad",
        [(["--workers", "0"], None, 0), (["--workers", "-3"], None, -3), ([], "0", 0)],
    )
    def test_workers_below_one_exit_2_before_any_work(
        self, monkeypatch, capsys, argv, env, bad
    ):
        import pmfg.verify

        def no_work(*args, **kwargs):
            raise AssertionError("nothing may run with an invalid worker count")

        monkeypatch.setattr(pmfg.verify, "verify_level", no_work)
        monkeypatch.setattr(pmfg.verify, "ProcessPoolExecutor", no_work)
        if env is None:
            monkeypatch.delenv("PMFG_WORKERS", raising=False)
        else:
            monkeypatch.setenv("PMFG_WORKERS", env)
        assert main(["verify", "--n-max", "5", *argv]) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"error: workers must be at least 1, not {bad}"


class TestDegreeCensusCommand:
    def test_output(self, capsys):
        assert main(["degree-census", "--n", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["realizable"] == 13
        assert doc["ambiguous"] == 1
        assert "realizable_sequences" not in doc

    def test_sequences_flag(self, capsys):
        assert main(["degree-census", "--n", "5", "--sequences"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["realizable_sequences"] == [[4, 4, 4, 3, 3]]
