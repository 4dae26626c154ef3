import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pmfg.cli
import pmfg.generator
from pmfg import (
    CanonicalCode,
    FlipMove,
    PlanarEmbedding,
    count_cliques,
    diagonal_flip,
    generate_all,
    k4,
    random_triangulation,
    standard_form,
)
from pmfg.cli import main

STANDARD6_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 3), (3, 4), (4, 5),
]


@pytest.fixture()
def alt6_path(tmp_path):
    for rec in generate_all(6).values():
        if count_cliques(rec.embedding).counts == (8, 0):
            path = tmp_path / "alt6.json"
            path.write_text(rec.embedding.to_json())
            return path
    raise AssertionError


MATRIX4_CSV = (
    ",A,B,C,D\n"
    "A,1,0.9,0.8,0.7\n"
    "B,0.9,1,0.6,0.5\n"
    "C,0.8,0.6,1,0.4\n"
    "D,0.7,0.5,0.4,1\n"
)


@pytest.fixture()
def matrix4_path(tmp_path):
    path = tmp_path / "four.csv"
    path.write_text(MATRIX4_CSV)
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
        err = capsys.readouterr().err
        assert "tied weights" in err
        assert "(a, b) ~ (a, c); (a, c) ~ (b, c)" in err

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

    def test_byte_order_mark_is_not_part_of_the_first_label(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_bytes(b"\xef\xbb\xbf" + RETURNS4_CSV.encode())
        argv = ["build", str(path), "--format", "returns", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        graph = PlanarEmbedding.from_json((tmp_path / "returns.pmfg.json").read_text())
        assert graph.labels == ("A", "B", "C", "D")
        log = (tmp_path / "returns.acceptance.csv").read_text()
        assert "\ufeff" not in log and ",A," in log

    def test_one_column_returns_refused_for_too_few_entities(self, tmp_path, capsys):
        path = tmp_path / "returns.csv"
        path.write_text("A\n0.1\n0.2\n0.3\n")
        argv = ["build", str(path), "--format", "returns", "--output-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: PMFG needs at least 3 entities\n"

    def test_returns_trailing_comma_header_names_the_empty_label(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("A,B,C,\n1,2,3\n2,1,3\n3,1,2\n")
        argv = ["build", str(path), "--format", "returns", "--output-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: label 4 is empty\n"

    def test_overflowing_returns_exit_2_without_warnings(self, tmp_path):
        # Finite entries whose squares overflow make every correlation undefined.
        path = tmp_path / "returns.csv"
        path.write_text("A,B,C\n1e308,2,3\n-1e308,1,3\n3,1,2\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        argv = ["build", str(path), "--format", "returns", "--output-dir", str(tmp_path)]
        proc = subprocess.run(
            [sys.executable, "-m", "pmfg.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: "), proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "returns.pmfg.json").exists()

    def test_build_and_verify_run_without_networkx(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "returns.csv"
        rows = [",".join(f"E{i}" for i in range(8))]
        rows += [",".join(repr(float(x)) for x in row) for row in rng.normal(size=(30, 8))]
        path.write_text("\n".join(rows) + "\n")
        script = (
            "import sys\n"
            "from pmfg.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "if 'networkx' in sys.modules:\n"
            "    sys.exit('networkx was imported')\n"
            "sys.exit(rc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        for argv in (
            ["build", str(path), "--format", "returns", "--output-dir", str(tmp_path)],
            ["verify", "--n-max", "6"],
        ):
            proc = subprocess.run(
                [sys.executable, "-c", script, *argv],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, (argv, proc.returncode, proc.stderr)


    def test_only_build_loads_numpy(self, tmp_path):
        # The builder alone needs numpy: the other subcommands never import
        # it, and the package still serves the builder's names on first use.
        script = (
            "import sys\n"
            "import pmfg\n"
            "from pmfg.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "if 'numpy' in sys.modules:\n"
            "    sys.exit('numpy was imported')\n"
            "assert pmfg.build_pmfg is pmfg.builder.build_pmfg\n"
            "sys.exit(rc if 'numpy' in sys.modules else 'numpy was not imported')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        for argv in (
            ["verify", "--n-max", "6", "--workers", "1", "--output-dir", str(tmp_path)],
            ["generate", "--n", "6", "--output-dir", str(tmp_path)],
            ["degree-census", "--n", "6"],
        ):
            proc = subprocess.run(
                [sys.executable, "-c", script, *argv],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, (argv, proc.returncode, proc.stderr)

    def test_build_calls_the_builder_through_the_cli_module(
        self, matrix6_path, tmp_path, monkeypatch
    ):
        # The benchmark's traced run wraps these names on pmfg.cli, so a
        # build must look each of them up there.
        calls = []
        for name in (
            "read_matrix_csv",
            "read_returns_csv",
            "correlation_from_returns",
            "build_pmfg",
            "acceptance_log_csv",
        ):
            real = getattr(pmfg.cli, name)
            monkeypatch.setattr(
                pmfg.cli, name, lambda *a, _f=real, _n=name, **k: calls.append(_n) or _f(*a, **k)
            )
        returns = tmp_path / "returns.csv"
        rows = np.random.default_rng(0).normal(size=(30, 5))
        returns.write_text(
            "\n".join(["A,B,C,D,E"] + [",".join(map(repr, map(float, r))) for r in rows]) + "\n"
        )
        assert main(["build", str(matrix6_path), "--output-dir", str(tmp_path)]) == 0
        assert main(["build", str(returns), "--format", "returns", "--output-dir", str(tmp_path)]) == 0
        assert calls == [
            "read_matrix_csv",
            "build_pmfg",
            "acceptance_log_csv",
            "read_returns_csv",
            "correlation_from_returns",
            "build_pmfg",
            "acceptance_log_csv",
        ]
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            pmfg.cli.no_such_name


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

    @pytest.mark.parametrize("extra", [[], ["--csv"]], ids=["json", "csv"])
    def test_one_census_per_run(self, alt6_path, monkeypatch, capsys, extra):
        calls = []
        real = pmfg.cli.count_cliques
        monkeypatch.setattr(
            pmfg.cli, "count_cliques", lambda emb: calls.append(emb) or real(emb)
        )
        assert main(["cliques", str(alt6_path), *extra]) == 0
        assert len(calls) == 1

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
            [1, 2],
            None,
            "abc",
            7,
        ],
        ids=[
            "string-neighbour",
            "float-neighbour",
            "bool-neighbour",
            "rotation-not-a-list",
            "rotation-entry-not-a-list",
            "labels-not-a-list",
            "non-string-label",
            "top-level-list",
            "top-level-null",
            "top-level-string",
            "top-level-number",
        ],
    )
    def test_malformed_graph_json_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["cliques", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: graph document:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"n": 4, "rotation": [[1, 3, 2], [2, 3, 0], [0, 3, 1], [0, 1, 2]], "labels": []},
                "labels must cover every vertex",
            ),
            ({"n": 1, "rotation": [[]]}, "an embedding needs at least two vertices"),
        ],
        ids=["empty-labels", "one-vertex"],
    )
    def test_invalid_graph_document_exits_2(self, tmp_path, capsys, doc, message):
        # Well-formed JSON whose embedding breaks an invariant: an empty
        # field is checked like any other, not dropped.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["cliques", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_keys_outside_the_format_are_ignored(self, tmp_path, capsys):
        # An outer-face marker is no part of the format: the document loads,
        # and a flip writes the result back without it.
        doc = {**standard_form(5).to_json_dict(), "outer_face": [0, 2, 1]}
        path = tmp_path / "marked.json"
        path.write_text(json.dumps(doc))
        assert main(["cliques", str(path)]) == 0
        capsys.readouterr()
        assert main(["flip", str(path), "0", "3"]) == 0
        flipped = json.loads(capsys.readouterr().out)
        assert set(flipped) == {"n", "rotation"}
        assert PlanarEmbedding.from_json_dict(flipped) == diagonal_flip(
            standard_form(5), FlipMove((0, 3))
        )


RETURNS4_CSV = (
    "A,B,C,D\n"
    "0.1,0.2,-0.1,0.05\n"
    "-0.2,0.1,0.3,0.0\n"
    "0.05,-0.1,0.2,0.1\n"
    "0.3,0.0,-0.2,-0.1\n"
)
GRAPH_JSONS = [
    standard_form(6).to_json(),
    PlanarEmbedding(k4().rotation, labels=["a", "b", "c", "d"]).to_json(),
]
# Byte strings that steer a mutation towards the readers' edge cases.
TOKENS = [
    b",", b"\n", b"\r", b'"', b"[", b"]", b"{", b"}", b":", b"-", b"0", b"1e999",
    b"nan", b"inf", b"null", b"true", b"1.5", b"-1", b"99", b"\xff", b"\x00",
]


@st.composite
def mutated(draw, valid: str) -> bytes:
    """``valid`` with one to four short slices replaced."""
    data = bytearray(valid.encode())
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 4)))
        data[i:j] = draw(st.one_of(st.binary(max_size=4), st.sampled_from(TOKENS)))
    return bytes(data)


def inputs(*valid: str):
    """Random bytes, random text, or a mutation of one of the valid files."""
    return st.one_of(
        st.binary(max_size=200),
        st.text(max_size=200).map(str.encode),
        *(mutated(v) for v in valid),
    )


def assert_clean_exit(rc: int, err: str) -> None:
    """Exit 0, or exit 2 with a single ``error:`` line: never 1, no traceback."""
    assert rc in (0, 2), (rc, err)
    if rc == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestMalformedInput:
    """Malformed input files exit 2 with one line (exit 1 is reserved for a
    failed mathematical claim)."""

    @pytest.mark.parametrize(
        ("argv", "data"),
        [
            (["build"], b",A,B\nA,1,0.5\nB,0.5\xff,1\n"),
            (["build", "--format", "returns"], b"A,B,C\n1,2,3\n2,\xff1,3\n3,1,2\n"),
            (["build"], b",A\nA," + b"1" * 200_000 + b"\n"),
            (["cliques"], GRAPH_JSONS[1].encode().replace(b'"a"', b'"\xff"')),
            (["cliques"], b"[" * 100_000),
            (["build", "--format", "returns"], b"A,,C\n1,2,3\n2,1,3\n3,1,2\n4,5,1\n"),
            (["build"], b",A,B,C,\nA,1,0.5,0.2\nB,0.5,1,0.3\nC,0.2,0.3,1\n"),
            (["cliques"], GRAPH_JSONS[1].encode().replace(b'"c"', b'""')),
            (["cliques"], GRAPH_JSONS[1].encode().replace(b'"c"', b'"a"')),
        ],
        ids=[
            "matrix-undecodable",
            "returns-undecodable",
            "field-over-csv-limit",
            "graph-undecodable",
            "graph-nested-too-deep",
            "returns-empty-label",
            "matrix-trailing-comma-header",
            "graph-empty-label",
            "graph-repeated-label",
        ],
    )
    def test_exits_2_with_one_line(self, tmp_path, capsys, argv, data):
        path = tmp_path / "bad.in"
        path.write_bytes(data)
        rc = main([argv[0], str(path), *argv[1:]])
        assert rc == 2
        assert_clean_exit(rc, capsys.readouterr().err)

    FUZZ = settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )

    @FUZZ
    @given(data=inputs(MATRIX4_CSV))
    def test_fuzz_matrix_csv(self, tmp_path, capsys, data):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        rc = main(["build", str(path), "--format", "matrix", "--output-dir", str(tmp_path)])
        assert_clean_exit(rc, capsys.readouterr().err)

    @FUZZ
    @given(data=inputs(RETURNS4_CSV))
    def test_fuzz_returns_csv(self, tmp_path, capsys, data):
        path = tmp_path / "r.csv"
        path.write_bytes(data)
        rc = main(["build", str(path), "--format", "returns", "--output-dir", str(tmp_path)])
        assert_clean_exit(rc, capsys.readouterr().err)

    @FUZZ
    @given(data=inputs(*GRAPH_JSONS))
    def test_fuzz_graph_json(self, tmp_path, capsys, data):
        path = tmp_path / "g.json"
        path.write_bytes(data)
        rc = main(["cliques", str(path)])
        assert_clean_exit(rc, capsys.readouterr().err)


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
        # One file per class, named by the class's line in the JSONL.
        out = tmp_path / "gen"
        dots = tmp_path / "dots"
        assert main(
            ["generate", "--n", "8", "--output-dir", str(out), "--dot-dir", str(dots)]
        ) == 0
        records = {code.hex(): rec for code, rec in generate_all(8).items()}
        lines = (out / "triangulations_n8.jsonl").read_text().splitlines()
        assert len(lines) == 14
        assert sorted(p.name for p in dots.glob("*.dot")) == sorted(
            f"n8_{i}.dot" for i in range(1, 15)
        )
        for i, line in enumerate(lines, 1):
            emb = records[json.loads(line)["code"]].embedding
            assert (dots / f"n8_{i}.dot").read_text() == emb.to_dot()

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

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_flips_replay_to_the_normalized_output(self, tmp_path, capsys, seed):
        # diagonal_flip rejects a replacement that does not join the apexes
        # of the two faces at the shared edge.
        graph = tmp_path / "rt60.json"
        graph.write_text(random_triangulation(60, seed=seed).to_json())
        out = tmp_path / "out"
        assert main(["normalize", str(graph), "--output-dir", str(out)]) == 0
        replay = PlanarEmbedding.from_json(graph.read_text())
        for flip in json.loads((out / "rt60.flips.json").read_text()):
            move = FlipMove(tuple(flip["shared_edge"]), tuple(flip["replacement"]))
            replay = diagonal_flip(replay, move)
        assert replay == PlanarEmbedding.from_json((out / "rt60.normalized.json").read_text())

    def test_standard_input_needs_no_flips(self, tmp_path, capsys):
        path = tmp_path / "std.json"
        path.write_text(PlanarEmbedding(standard_form(7).rotation).to_json())
        assert main(["normalize", str(path), "--output-dir", str(tmp_path)]) == 0
        assert "in 0 flips" in capsys.readouterr().out

    def test_non_triangulation_exits_2(self, tmp_path, capsys):
        # The message names normalization's precondition, not the census's.
        path = tmp_path / "tree.json"
        path.write_text(PlanarEmbedding(((1,), (0, 2), (1,))).to_json())
        assert main(["normalize", str(path), "--output-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: normalization requires a triangulation\n"

    def test_eight_vertex_class_reaches_the_maxima(self, tmp_path, capsys):
        from pmfg import random_triangulation

        path = tmp_path / "eight.json"
        path.write_text(random_triangulation(8, seed=21).to_json())
        assert main(["normalize", str(path), "--output-dir", str(tmp_path)]) == 0
        assert "after:  C3=16 C4=5" in capsys.readouterr().out

    def test_standard_form_mismatch_exits_1_with_one_line(
        self, monkeypatch, tmp_path, capsys
    ):
        path = tmp_path / "eight.json"
        path.write_text(random_triangulation(8, seed=21).to_json())
        monkeypatch.setattr(pmfg.generator, "standard_form_code", lambda n: CanonicalCode(b""))
        assert main(["normalize", str(path), "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification failure: ") and err.count("\n") == 1, err


class TestFlipCommand:
    def test_flip_writes_result(self, alt6_path, tmp_path, capsys):
        emb = PlanarEmbedding.from_json(alt6_path.read_text())
        u, v = next(iter(emb.edges()))
        out = tmp_path / "flipped.json"
        assert main(["flip", str(alt6_path), str(u), str(v), "--output", str(out)]) == 0
        flipped = PlanarEmbedding.from_json(out.read_text())
        assert not flipped.has_edge(u, v)

    def test_flip_without_output_prints_the_result(self, alt6_path, capsys):
        emb = PlanarEmbedding.from_json(alt6_path.read_text())
        u, v = next(iter(emb.edges()))
        assert main(["flip", str(alt6_path), str(u), str(v)]) == 0
        expected = diagonal_flip(emb, FlipMove((u, v))).to_json(indent=2) + "\n"
        assert capsys.readouterr().out == expected

    def test_flip_beside_a_non_triangle_exits_2(self, chorded_square, tmp_path, capsys):
        path = tmp_path / "square.json"
        path.write_text(chorded_square.to_json())
        assert main(["flip", str(path), "0", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "not both triangles" in captured.err

    def test_forbidden_flip_exits_2(self, tmp_path, capsys):
        path = tmp_path / "k4.json"
        from pmfg import k4

        path.write_text(k4().to_json())
        assert main(["flip", str(path), "0", "1"]) == 2

    def test_flip_on_a_triangle_names_the_apex_both_faces_share(self, tmp_path, capsys):
        path = tmp_path / "k3.json"
        path.write_text(PlanarEmbedding([[1, 2], [0, 2], [0, 1]]).to_json())
        assert main(["flip", str(path), "0", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: both faces at (0, 1) have apex 2\n"


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

    def test_default_run_writes_nothing_to_stderr(self):
        # The campaign logs each level to the pmfg logger, which is silent
        # unless the application configures logging.
        proc = subprocess.run(
            [sys.executable, "-m", "pmfg.cli", "verify", "--n-max", "6"],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0 and proc.stdout.count("\n") == 3
        assert proc.stderr == ""

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

        monkeypatch.setattr(pmfg.verify, "generate_levels", no_work)
        monkeypatch.setattr(pmfg.verify, "flip_closure", no_work)
        monkeypatch.setattr(pmfg.verify, "ProcessPoolExecutor", no_work)
        if env is None:
            monkeypatch.delenv("PMFG_WORKERS", raising=False)
        else:
            monkeypatch.setenv("PMFG_WORKERS", env)
        assert main(["verify", "--n-max", "5", *argv]) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"error: workers must be at least 1, not {bad}"


@pytest.mark.parametrize("env", [None, "20"])
@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "5"],
        ["verify", "--n-max", "5"],
        ["degree-census", "--n", "5"],
    ],
)
def test_unsafe_ceiling_zero_is_a_ceiling_not_unset(monkeypatch, capsys, tmp_path, argv, env):
    if env is None:
        monkeypatch.delenv("PMFG_CEILING", raising=False)
    else:
        monkeypatch.setenv("PMFG_CEILING", env)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--unsafe-ceiling", "0"]) == 2
    assert "exceeds the closure ceiling 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, value, argv",
    [("PMFG_WORKERS", "two", ["verify"]), ("PMFG_CEILING", "x", ["generate", "--n", "5"])],
)
def test_non_integer_environment_variable_exits_2(
    monkeypatch, capsys, tmp_path, name, value, argv
):
    monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: environment variable {name}={value!r} is not an integer\n"
    )
    assert list(tmp_path.iterdir()) == []


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

    def test_ceiling_exits_2_quickly(self):
        # The degree multisets of n = 40 are far too many to enumerate; the
        # ceiling must refuse first.
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pmfg.cli", "degree-census", "--n", "40"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert time.perf_counter() - start < 5
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

    def test_unenumerated_realized_sequence_exits_1_with_one_line(
        self, monkeypatch, capsys
    ):
        import pmfg.verify

        monkeypatch.setattr(pmfg.verify, "degree_multisets", lambda n: [])
        assert main(["degree-census", "--n", "6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("verification failure: realized sequences missing"), err
        assert err.count("\n") == 1, err


class TestPinnedOutputBytes:
    """sha256 of CLI outputs, recorded at commit c395e97 (the ``cliques``
    JSON at commit 9e8a2b5; the ``build`` files, the ``degree-census``
    stdout and the DOT file at commit 0aa9130; the n = 150 ``normalize``
    files at commit 4af0c11).

    Internal rewrites of generation, flips and canonical codes must keep
    every byte; these digests turn that into a test.
    """

    @staticmethod
    def sha256(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def test_generate_n8_jsonl(self, tmp_path, capsys):
        assert main(["generate", "--n", "8", "--output-dir", str(tmp_path)]) == 0
        assert self.sha256((tmp_path / "triangulations_n8.jsonl").read_bytes()) == (
            "f3373b552ebb2451686d188e381b3fefa8b9a0c447b17a7306d836742e91eb65"
        )

    VERIFY_N_MAX_9 = "36332ad85c315ed4d998a12874290acd89f69cc81912c9e28777a165c809f828"

    def test_verify_n_max_9_stdout(self, capsys):
        assert main(["verify", "--n-max", "9", "--workers", "1"]) == 0
        assert self.sha256(capsys.readouterr().out.encode()) == self.VERIFY_N_MAX_9

    def test_verify_n_max_9_stdout_with_two_workers(self, capsys):
        assert main(["verify", "--n-max", "9", "--workers", "2"]) == 0
        assert self.sha256(capsys.readouterr().out.encode()) == self.VERIFY_N_MAX_9

    def test_normalize_outputs(self, tmp_path, capsys):
        graph = tmp_path / "rt60.json"
        graph.write_text(random_triangulation(60, seed=11).to_json())
        out = tmp_path / "out"
        assert main(["normalize", str(graph), "--output-dir", str(out)]) == 0
        assert self.sha256((out / "rt60.normalized.json").read_bytes()) == (
            "7a5635158eff6067fc53a3c0e62f7c225f8246f85edb01b0bf2a3040c8475696"
        )
        # Re-pinned when each flip began to record its replacement edge.
        assert self.sha256((out / "rt60.flips.json").read_bytes()) == (
            "850848e5d519692a604781d3fabb6b47bfd4051470a99f269719c1b8987d39f3"
        )

    def test_normalize_outputs_n150(self, tmp_path, capsys):
        # Above n = 64 normalization skips its canonical-code check.
        graph = tmp_path / "rt150.json"
        graph.write_text(random_triangulation(150, seed=11).to_json())
        out = tmp_path / "out"
        assert main(["normalize", str(graph), "--output-dir", str(out)]) == 0
        assert self.sha256((out / "rt150.normalized.json").read_bytes()) == (
            "55a5e8f07011965928dfabea9ceb0c65085b46de8bd2fab949c746dd5b1b9c27"
        )
        assert self.sha256((out / "rt150.flips.json").read_bytes()) == (
            "545d6c3e370b420d96b321184762418870936d24eec5e147c2de69c9bb188056"
        )

    def test_cliques_json(self, tmp_path, capsys):
        graph = tmp_path / "rt60.json"
        graph.write_text(random_triangulation(60, seed=11).to_json())
        assert main(["cliques", str(graph)]) == 0
        assert self.sha256(capsys.readouterr().out.encode()) == (
            "3550f99413ec76b94c19801a514630bc344018d12ac15813861ba1d9f8f7aad6"
        )

    def test_build_outputs(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        path = tmp_path / "returns.csv"
        rows = [",".join(f"E{i:02d}" for i in range(12))]
        rows += [",".join(f"{x:.6f}" for x in row) for row in rng.normal(size=(60, 12))]
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        argv = ["build", str(path), "--format", "returns", "--output-dir", str(out)]
        assert main(argv) == 0
        digests = {
            suffix: self.sha256((out / f"returns.{suffix}").read_bytes())
            for suffix in ("pmfg.json", "acceptance.csv", "census.json")
        }
        assert digests == {
            "pmfg.json": "ea033131c98eb8d516d403221f2d8e4d864e31e724db8785984d18a05d25d68d",
            "acceptance.csv": "483695e26ab814d1aef7b5dc40fb7422c194b5e5d56d782d5fa5d5dce1679eaf",
            "census.json": "fd5241fe2ec095003df1cfb97943913267c898716ec85e7ccbd100e88f362ec2",
        }

    def test_degree_census_n8_sequences_stdout(self, capsys):
        assert main(["degree-census", "--n", "8", "--sequences"]) == 0
        assert self.sha256(capsys.readouterr().out.encode()) == (
            "9ac672f4b0797f3af1af7008c17f36e514c9e4823b8a038a595fc9b5d1efb8da"
        )

    def test_generate_n6_dot(self, tmp_path, capsys):
        dots = tmp_path / "dots"
        argv = ["generate", "--n", "6", "--output-dir", str(tmp_path), "--dot-dir", str(dots)]
        assert main(argv) == 0
        assert self.sha256((dots / "n6_1.dot").read_bytes()) == (
            "75427bb30999d1d1c26ed701b358b3a228c3a2ca93f511efa2115abb0fb28a3f"
        )
