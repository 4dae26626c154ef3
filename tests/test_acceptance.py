"""Acceptance criteria, one test per criterion.

Each test prints one line naming the criterion and its outcome; the numbered
claims are exercised at full stated volume and tolerance (all exact).
"""

import random
import time

import numpy as np
import pytest

from pmfg import (
    brute_force_cliques,
    build_pmfg,
    correlation_from_returns,
    count_cliques,
    degree_census,
    degree_sequence,
    diagonal_flip,
    euler_check,
    eberhard_ops,
    apply_eberhard,
    canonical_code,
    flip_closure,
    generate_all,
    k4,
    kuratowski_oracle,
    legal_flips,
    normalize_to_standard,
    standard_form,
    standard_form_expected,
    weighted_edge_list,
)
from pmfg.generator import CLASS_COUNTS


@pytest.fixture(scope="module")
def audited_generation():
    """Closures for n = 4..9 with every application's clique delta audited."""
    applications = {"count": 0}

    def record(kind, dc3, dc4):
        applications["count"] += 1

    started = time.monotonic()
    records = {
        n: generate_all(n, check_deltas=True, on_application=record)
        for n in range(4, 10)
    }
    elapsed = time.monotonic() - started
    return records, applications["count"], elapsed


def test_criterion_1_euler_identities_over_many_graphs():
    started = time.monotonic()
    rng = random.Random(20260808)
    checked = 0
    sizes = [5, 8, 12, 16, 20, 24]
    while checked < 10_000:
        # A random walk of 500 flips from each restart, cycling the sizes.
        if checked % 500 == 0:
            emb = standard_form(sizes[checked // 500 % len(sizes)])
        moves = legal_flips(emb)
        emb = diagonal_flip(emb, rng.choice(moves))
        report = euler_check(emb)
        assert report.is_triangulation
        assert report.e == 3 * report.n - 6
        assert report.f == 2 * report.n - 4
        checked += 1
    for n in range(4, 9):
        for rec in generate_all(n, check_deltas=False).values():
            report = euler_check(rec.embedding)
            assert report.e == 3 * n - 6 and report.f == 2 * n - 4
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"euler suite took {elapsed:.1f}s"
    print(f"criterion 1 (euler identities, {checked} graphs, {elapsed:.1f}s): PASS")


def test_criterion_2_degree_combination_census():
    started = time.monotonic()
    census = degree_census(8)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"degree census took {elapsed:.1f}s"
    assert census.realizable == 13
    if census.total_combinations != 53:
        print(
            "criterion 2 (degree combination census): FAIL - enumeration of "
            f"degree multisets in [3,7] summing to 36 yields "
            f"{census.total_combinations}, not the pinned 53 "
            "(realizable=13 matches; see decisions ledger)"
        )
    else:
        print("criterion 2 (degree combination census): PASS")
    assert census.total_combinations == 53, (
        "pinned total 53 is not reproducible: exhaustive enumeration "
        f"(two independent methods) gives {census.total_combinations}"
    )


def test_criterion_3_six_vertex_fixtures():
    censuses = sorted(
        count_cliques(rec.embedding).counts
        for rec in generate_all(6, check_deltas=False).values()
    )
    assert censuses == [(8, 0), (10, 3)]
    print("criterion 3 (six-vertex censuses (10,3) and (8,0)): PASS")


def test_criterion_4_closure_counts_and_agreement(audited_generation):
    records, _, generation_elapsed = audited_generation
    started = time.monotonic()
    for n in range(4, 10):
        codes = flip_closure(n)
        assert len(records[n]) == CLASS_COUNTS[n], f"n={n}"
        assert set(records[n]) == codes, f"closure disagreement at n={n}"
    elapsed = generation_elapsed + (time.monotonic() - started)
    assert elapsed < 300.0, f"closures took {elapsed:.1f}s"
    print(
        "criterion 4 (closures agree, counts 1,1,2,5,14,50, "
        f"{elapsed:.1f}s): PASS"
    )


def test_criterion_5_clique_bounds_and_attainment(audited_generation):
    records, _, _ = audited_generation
    for n in range(4, 10):
        c3_attained = c4_attained = False
        std_code = canonical_code(standard_form(n))
        std_hits = [False, False]
        for code, rec in records[n].items():
            c3, c4 = count_cliques(rec.embedding).counts
            assert 2 * n - 4 <= c3 <= 3 * n - 8, (n, code.hex(), c3)
            assert 0 <= c4 <= n - 3, (n, code.hex(), c4)
            if c3 == 3 * n - 8:
                c3_attained = True
                std_hits[0] = std_hits[0] or code == std_code
            if c4 == n - 3:
                c4_attained = True
                std_hits[1] = std_hits[1] or code == std_code
            # The larger of the two candidate 4-clique ceilings is the one
            # attained, settling n-3 over n-4.
            if code == std_code:
                assert c4 == n - 3 > n - 4
        assert c3_attained and c4_attained, f"maxima not attained at n={n}"
        assert all(std_hits), f"standard form misses a maximum at n={n}"
        expected = standard_form_expected(n)
        assert (expected.c3, expected.c4) == (3 * n - 8, n - 3)
    print("criterion 5 (bounds hold, maxima attained by standard form): PASS")


def test_criterion_6_census_oracle_agreement(audited_generation):
    records, _, _ = audited_generation
    mismatches = 0
    total = 0
    for n in range(4, 10):
        for rec in records[n].values():
            fast = count_cliques(rec.embedding).counts
            slow = brute_force_cliques(n, list(rec.embedding.edges()))
            mismatches += fast != slow
            total += 1
    assert mismatches == 0
    print(f"criterion 6 (census vs brute force, {total} classes): PASS")


def test_criterion_7_normalization(audited_generation):
    records, _, _ = audited_generation
    for n in range(4, 9):
        expected = sorted([n - 1, n - 1] + [4] * (n - 4) + [3, 3], reverse=True)
        for rec in records[n].values():
            normalized, trace = normalize_to_standard(rec.embedding)
            replay = rec.embedding
            for move in trace:
                replay = diagonal_flip(replay, move)  # raises if illegal
                assert replay.is_triangulation()
            assert replay == normalized
            assert degree_sequence(normalized) == expected
            assert canonical_code(normalized) == canonical_code(standard_form(n))
    print("criterion 7 (every class n=4..8 normalizes by legal flips): PASS")


def test_criterion_8_pmfg_builder_soundness():
    started = time.monotonic()
    rng = np.random.default_rng(8_2026)
    runs = 0
    for rep in range(200):
        n = 6 + rep % 7
        table = rng.normal(size=(45, n)) + 0.25 * rng.normal(size=(45, 1))
        sim = correlation_from_returns(table, [f"S{i:02d}" for i in range(n)])
        result = build_pmfg(sim)
        assert len(result.accepted) == 3 * (n - 2)
        report = euler_check(result.embedding)  # connected sphere triangulation
        assert report.is_triangulation
        kept = []
        twin = []
        for u, v, w in weighted_edge_list(sim).entries:
            candidate = kept + [(u, v)]
            if kuratowski_oracle(n, candidate):
                kept = candidate
                twin.append((u, v, w))
                if len(twin) == 3 * (n - 2):
                    break
        assert result.accepted == tuple(twin), f"divergence on matrix {rep}"
        runs += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"builder soundness took {elapsed:.1f}s"
    print(f"criterion 8 (builder vs exhaustive gate, {runs} matrices, {elapsed:.0f}s): PASS")


def test_criterion_9_per_operation_clique_deltas(audited_generation):
    _, audited_count, _ = audited_generation
    rng = random.Random(99)
    applications = audited_count  # every one already delta-checked
    while applications < 10_000:
        emb = k4()
        parent = count_cliques(emb).counts
        while emb.n < 14:
            ops = eberhard_ops(emb)
            op = ops[rng.randrange(len(ops))]
            child = apply_eberhard(emb, op)
            counts = count_cliques(child).counts
            dc3 = counts[0] - parent[0]
            dc4 = counts[1] - parent[1]
            if op.kind == "phi1":
                assert (dc3, dc4) == (3, 1), (op.kind, dc3, dc4)
            else:
                assert dc3 <= 3 and dc4 <= 1, (op.kind, dc3, dc4)
            applications += 1
            emb, parent = child, counts
    print(f"criterion 9 (clique deltas on {applications} applications): PASS")
