import dataclasses
import json
import logging
import os
import re
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import pmfg.generator
import pmfg.verify
from pmfg import (
    CanonicalCode,
    CeilingError,
    EberhardOp,
    InputError,
    PlanarEmbedding,
    VerificationFailure,
    apply_trace,
    canonical_code,
    degree_census,
    degree_multisets,
    k4,
    run_campaign,
    verify_level,
)
from pmfg.cli import main

TESTS = Path(__file__).resolve().parent


def drop_a_face(generate_levels):
    """``generate_levels`` whose first class of each level reports one face
    too few."""

    def corrupted(*args, **kwargs):
        for records in generate_levels(*args, **kwargs):
            code, rec = next(iter(records.items()))
            emb = PlanarEmbedding._trusted(rec.embedding.rotation)
            emb.faces = rec.embedding.faces[1:]  # shadows the cached property
            records[code] = dataclasses.replace(rec, embedding=emb)
            yield records

    return corrupted


class TestDegreeMultisets:
    def test_four_vertices_single_combination(self):
        assert degree_multisets(4) == [(3, 3, 3, 3)]

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_exhaustive_enumeration(self, n):
        # Independent oracle: filter all non-decreasing tuples directly.
        target = 2 * (3 * n - 6)
        expected = {
            tuple(sorted(c, reverse=True))
            for c in combinations_with_replacement(range(3, n), n)
            if sum(c) == target
        }
        got = degree_multisets(n)
        assert set(got) == expected
        assert len(got) == len(expected)

    def test_entries_bounded_and_summing(self):
        for seq in degree_multisets(7):
            assert all(3 <= d <= 6 for d in seq)
            assert sum(seq) == 30
            assert list(seq) == sorted(seq, reverse=True)

    def test_small_n_rejected(self):
        with pytest.raises(InputError):
            degree_multisets(3)


class TestDegreeCensus:
    def test_eight_vertices(self):
        census = degree_census(8)
        assert census.realizable == 13
        assert census.ambiguous == 1
        assert census.ambiguous_sequences == [(6, 6, 5, 5, 4, 4, 3, 3)]
        assert census.realizable <= census.total_combinations
        # The full combination count, cross-checked in
        # TestDegreeMultisets.test_matches_exhaustive_enumeration.
        assert census.total_combinations == 27

    def test_four_vertices(self):
        census = degree_census(4)
        assert census.total_combinations == 1
        assert census.realizable == 1
        assert census.ambiguous == 0

    def test_json_document(self):
        doc = degree_census(5).to_json_dict()
        assert doc["n"] == 5
        assert doc["realizable"] == 1
        assert doc["realizable_sequences"] == [[4, 4, 4, 3, 3]]

    def test_ceiling_refuses_before_enumerating_multisets(self, monkeypatch):
        def enumerated(n):
            raise AssertionError("degree multisets enumerated past the ceiling")

        monkeypatch.setattr(pmfg.verify, "degree_multisets", enumerated)
        with pytest.raises(CeilingError):
            degree_census(11)


class TestVerifyLevel:
    def test_six_vertex_report(self):
        report = verify_level(6)
        assert report.classes == 2
        assert (report.c3_min, report.c3_max) == (8, 10)
        assert (report.c4_min, report.c4_max) == (0, 3)
        assert report.closure_agreement
        assert report.census_oracle_agreement
        assert report.bound_violations == []
        assert report.standard_code in report.c3_max_attaining
        assert report.standard_code in report.c4_max_attaining
        assert report.ok

    def test_delta_ranges_recorded(self):
        report = verify_level(6)
        assert report.eberhard_delta_range["phi1"] == [3, 3, 1, 1]
        assert set(report.eberhard_delta_range) <= {"phi1", "phi2", "phi3"}

    def test_report_document(self):
        doc = verify_level(5).to_json_dict()
        assert doc["classes"] == 1
        assert doc["c3_bounds"] == [6, 7]
        assert doc["c4_bounds"] == [0, 2]
        assert doc["ok"] is True

    def test_normalization_mismatch_fails_the_report(self, monkeypatch, capsys):
        # normalize_to_standard checks its result against this code; the
        # report's own standard_code is looked up separately and stays true.
        monkeypatch.setattr(pmfg.generator, "standard_form_code", lambda n: CanonicalCode(b""))
        report = verify_level(6)
        assert not report.normalization_ok and not report.ok
        assert report.closure_agreement
        assert [sorted(entry) for entry in report.bound_violations] == [
            ["code", "normalization", "trace"]
        ] * report.classes
        assert main(["verify", "--n-max", "5", "--workers", "1"]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_euler_breach_fails_the_report(self, monkeypatch, capsys):
        monkeypatch.setattr(
            pmfg.verify, "generate_levels", drop_a_face(pmfg.verify.generate_levels)
        )
        report = verify_level(6)
        assert not report.ok
        assert [sorted(entry) for entry in report.bound_violations] == [
            ["code", "euler", "trace"]
        ]
        assert report.normalization_ok and report.closure_agreement
        assert report.census_oracle_agreement
        assert main(["verify", "--n-max", "5", "--workers", "1"]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_euler_breach_is_caught_under_python_O(self):
        # With asserts stripped, the Euler identities must still be checked.
        script = (
            "import sys\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit(3)\n"
            "import pmfg.verify, test_verify\n"
            "pmfg.verify.generate_levels = test_verify.drop_a_face(pmfg.verify.generate_levels)\n"
            "from pmfg.cli import main\n"
            "sys.exit(main(['verify', '--n-max', '5', '--workers', '1']))\n"
        )
        path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 1, proc.stderr
        assert "2 vertex counts FAILED" in proc.stderr


def replay(entry: dict) -> PlanarEmbedding:
    """Rebuild a violating class from the JSON trace of its report entry."""
    trace = [
        EberhardOp(tuple(op["cycle"]), tuple(map(tuple, op["chords"])))
        for op in entry["trace"]
    ]
    return apply_trace(k4(), trace)


def inflate_first_census(count_cliques):
    """``count_cliques`` whose first census claims n extra 4-cliques."""
    calls = []

    def inflated(emb):
        census = count_cliques(emb)
        calls.append(emb)
        if len(calls) == 1:
            census = dataclasses.replace(census, c4_total=census.c4_total + emb.n)
        return census

    return inflated


class TestReplayableViolations:
    @pytest.mark.parametrize("n", [6, 8])
    def test_euler_breach_replays_from_k4_to_its_class(self, monkeypatch, n):
        monkeypatch.setattr(
            pmfg.verify, "generate_levels", drop_a_face(pmfg.verify.generate_levels)
        )
        doc = json.loads(json.dumps(verify_level(n).to_json_dict()))
        (entry,) = doc["bound_violations"]
        assert "euler" in entry and len(entry["trace"]) == n - 4
        assert canonical_code(replay(entry)).hex() == entry["code"]

    def test_clique_bound_breach_replays_from_k4_to_its_class(self, monkeypatch):
        monkeypatch.setattr(
            pmfg.verify, "count_cliques", inflate_first_census(pmfg.verify.count_cliques)
        )
        doc = json.loads(json.dumps(verify_level(7).to_json_dict()))
        (entry,) = doc["bound_violations"]
        assert entry["c4"] > 7 - 3 and len(entry["trace"]) == 3
        assert canonical_code(replay(entry)).hex() == entry["code"]


def inflate_first_child_counts(clique_counts, n):
    """``clique_counts`` whose first count of an n-vertex embedding claims n
    extra 4-cliques; that embedding is recorded."""
    inflated_for = []

    def inflated(emb):
        c3, c4 = clique_counts(emb)
        if emb.n == n and not inflated_for:
            inflated_for.append(emb)
            c4 += n
        return (c3, c4)

    return inflated, inflated_for


class TestReplayableFailures:
    def test_delta_audit_failure_replays_from_k4_to_its_class(self, monkeypatch):
        inflated, inflated_for = inflate_first_child_counts(pmfg.generator.clique_counts, 7)
        monkeypatch.setattr(pmfg.generator, "clique_counts", inflated)
        with pytest.raises(VerificationFailure, match=r"changed \(C3, C4\) by") as info:
            verify_level(7)
        (child,) = inflated_for
        trace = info.value.trace
        assert len(trace) == 3 and all(isinstance(op, EberhardOp) for op in trace)
        assert canonical_code(apply_trace(k4(), trace)) == canonical_code(child)

    def test_normalization_failure_replays_from_k4_to_its_class(self, monkeypatch):
        normalize = pmfg.verify.normalize_to_standard
        failed = []

        def fail_once(emb):
            if not failed:
                failed.append(canonical_code(emb).hex())
                raise VerificationFailure("injected normalization failure")
            return normalize(emb)

        monkeypatch.setattr(pmfg.verify, "normalize_to_standard", fail_once)
        doc = json.loads(json.dumps(verify_level(8).to_json_dict()))
        assert doc["normalization_ok"] is False and doc["ok"] is False
        (entry,) = doc["bound_violations"]
        assert entry["normalization"] == "injected normalization failure"
        assert entry["code"] == failed[0] and len(entry["trace"]) == 4
        assert canonical_code(replay(entry)).hex() == entry["code"]


class TestCampaign:
    def test_range_validation(self):
        with pytest.raises(InputError):
            run_campaign(3)

    def test_serial_and_parallel_agree(self):
        serial = [r.to_json_dict() for r in run_campaign(6)]
        parallel = [r.to_json_dict() for r in run_campaign(6, workers=2)]
        assert serial == parallel

    @pytest.mark.slow
    def test_serial_and_parallel_agree_at_ten(self):
        serial = [r.to_json_dict() for r in run_campaign(10, ceiling=10)]
        parallel = [r.to_json_dict() for r in run_campaign(10, ceiling=10, workers=2)]
        assert serial == parallel

    def test_reports_equal_those_of_verify_level(self):
        # Each report's delta ranges cover every insertion from K4 up to its
        # n, as when verify_level builds the levels below n for itself.
        campaign = [r.to_json_dict() for r in run_campaign(9)]
        assert campaign == [verify_level(n).to_json_dict() for n in range(4, 10)]

    def test_reports_from_n_min_are_the_tail_of_the_full_campaign(self):
        tail = [r.to_json_dict() for r in run_campaign(8, n_min=6)]
        assert tail == [r.to_json_dict() for r in run_campaign(8)][2:]

    @pytest.mark.parametrize("n_min", [4, 7])
    def test_each_insertion_is_applied_once(self, monkeypatch, n_min):
        # One pass reaches every class up to n = 9 in 463 insertions, one per
        # orbit of each parent's ops; rebuilding the levels below each n from
        # K4 took 585.  standard_form's insertions build no class, so they
        # are not counted.
        apply_eberhard = pmfg.generator.apply_eberhard
        applied = []

        def counted(emb, op):
            if sys._getframe(1).f_code.co_name != "standard_form":
                applied.append(op)
            return apply_eberhard(emb, op)

        monkeypatch.setattr(pmfg.generator, "apply_eberhard", counted)
        run_campaign(9, n_min=n_min)
        assert len(applied) == 463

    def test_logs_one_line_per_verified_level(self, caplog):
        caplog.set_level(logging.INFO, logger="pmfg")
        run_campaign(7, n_min=5)
        line = re.compile(r"n=(\d+): (\d+) classes verified in \d+\.\d\d s")
        pmfg_records = [r for r in caplog.records if r.name.startswith("pmfg")]
        found = [line.fullmatch(r.getMessage()) for r in pmfg_records]
        assert [m and m.groups() for m in found] == [("5", "1"), ("6", "2"), ("7", "5")]

    @pytest.mark.parametrize(
        "workers, n_max, cpus, expected",
        [(64, 6, 8, [3]), (64, 13, 8, [7]), (5, 13, 8, [4]), (64, 13, None, []), (2, 4, 8, [1])],
    )
    def test_workers_clamped_to_levels_and_cpus(
        self, monkeypatch, workers, n_max, cpus, expected
    ):
        # k workers keep at most k processes busy: the campaign's own and a
        # pool of k - 1, no larger than the spare CPUs or the number of
        # levels.  The pool runs only the flip closures.
        pools, submitted = [], []

        class Done:
            def __init__(self, value):
                self.value = value

            def result(self):
                return self.value

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def submit(self, fn, *args, **kwargs):
                submitted.append(args)
                return Done(fn(*args, **kwargs))

            def shutdown(self, cancel_futures):
                pass

        def levels(n_max, **kwargs):
            return ({} for _ in range(4, n_max + 1))

        monkeypatch.setattr(pmfg.verify, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(pmfg.verify, "generate_levels", levels)
        monkeypatch.setattr(pmfg.verify, "flip_closure", lambda n, ceiling: n)
        monkeypatch.setattr(pmfg.verify, "_check_level", lambda n, records, flips, deltas: flips)
        monkeypatch.setattr(pmfg.verify.os, "cpu_count", lambda: cpus)
        assert run_campaign(n_max, workers=workers) == list(range(4, n_max + 1))
        assert pools == expected
        assert submitted == ([(n,) for n in range(4, n_max + 1)] if expected else [])
