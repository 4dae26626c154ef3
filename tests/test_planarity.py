import importlib.util
import random
import sys
from itertools import combinations
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.planarity import get_counterexample

from pmfg import (
    CeilingError,
    InputError,
    build_pmfg,
    correlation_from_returns,
    euler_check,
    is_planar,
    kuratowski_oracle,
    random_triangulation,
)
from pmfg.builder import _PlanarityGate
from pmfg.embedding import _canonical_rotation
from pmfg.planarity import _lr_rotation

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def complete_graph(n):
    return list(combinations(range(n), 2))


def complete_bipartite(a, b):
    return [(i, a + j) for i in range(a) for j in range(b)]


class TestIsPlanar:
    def test_k4_planar_with_sound_embedding(self):
        verdict = is_planar(4, complete_graph(4))
        assert verdict.planar
        report = euler_check(verdict.embedding)
        assert report.n - report.e + report.f == 2

    def test_k5_nonplanar_with_k5_witness(self):
        verdict = is_planar(5, complete_graph(5), want_witness=True)
        assert not verdict.planar
        degrees = {}
        for u, v in verdict.witness:
            degrees[u] = degrees.get(u, 0) + 1
            degrees[v] = degrees.get(v, 0) + 1
        branch = sorted(d for d in degrees.values() if d >= 3)
        assert branch in ([4, 4, 4, 4, 4], [3, 3, 3, 3, 3, 3])
        assert all(d in (2, 3, 4) for d in degrees.values())

    def test_witness_only_when_requested(self):
        assert is_planar(5, complete_graph(5)).witness is None

    def test_input_errors(self):
        with pytest.raises(InputError, match="self-loop"):
            is_planar(3, [(0, 0)])
        with pytest.raises(InputError, match="duplicate"):
            is_planar(3, [(0, 1), (1, 0)])
        with pytest.raises(InputError, match="outside"):
            is_planar(3, [(0, 5)])
        with pytest.raises(InputError, match="not an integer"):
            is_planar(3, [(0, 1), (1, 2.0)])
        # A bool would pass as vertex 0 or 1; n follows the rule of the ids.
        with pytest.raises(InputError, match=r"edge \(True, 2\) has a vertex id that is not"):
            is_planar(3, [(True, 2), (0, 2)])
        for n in (True, 3.0, "3"):
            with pytest.raises(InputError, match=f"vertex count {n!r} is not an integer"):
                is_planar(n, [])
        with pytest.raises(InputError, match="vertex count 3.0 is not an integer"):
            kuratowski_oracle(3.0, [(0, 1)])

    def test_numpy_integer_edges_give_an_embedding_of_ints(self):
        verdict = is_planar(4, np.array(complete_graph(4)))
        assert verdict.embedding == is_planar(4, complete_graph(4)).embedding
        assert all(type(w) is int for nbrs in verdict.embedding.rotation for w in nbrs)

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(InputError, match="non-negative"):
            is_planar(-1, [])

    def test_disconnected_planar_has_no_single_sphere_embedding(self):
        verdict = is_planar(4, [(0, 1), (2, 3)])
        assert verdict.planar
        assert verdict.embedding is None

    def test_tree_and_cycle_embeddings(self):
        tree = is_planar(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
        assert tree.planar and tree.embedding is not None
        cyc = is_planar(5, [(i, (i + 1) % 5) for i in range(5)])
        assert cyc.planar and len(cyc.embedding.faces) == 2


class TestKuratowskiOracle:
    def test_k5_and_k33_rejected(self):
        assert not kuratowski_oracle(5, complete_graph(5))
        assert not kuratowski_oracle(6, complete_bipartite(3, 3))

    def test_k4_and_trees_accepted(self):
        assert kuratowski_oracle(4, complete_graph(4))
        assert kuratowski_oracle(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])

    def test_subdivided_k5_rejected(self):
        # K5 with one edge subdivided through vertex 5 is still non-planar.
        edges = [e for e in complete_graph(5) if e != (0, 1)] + [(0, 5), (1, 5)]
        assert not kuratowski_oracle(6, edges)

    def test_k33_subdivision_hidden_in_larger_graph(self):
        edges = complete_bipartite(3, 3)
        edges.remove((0, 3))
        edges += [(0, 6), (6, 7), (7, 3)]  # re-route 0-3 through a path
        edges += [(6, 8)]  # pendant noise
        assert not kuratowski_oracle(9, edges)

    def test_ceiling_refusal(self):
        with pytest.raises(CeilingError):
            kuratowski_oracle(13, [])

    def test_agreement_on_1000_random_graphs(self):
        rng = random.Random(2024)
        planar_seen = nonplanar_seen = 0
        for _ in range(1000):
            n = rng.randrange(3, 11)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = rng.sample(pairs, rng.randrange(0, len(pairs) + 1))
            fast = is_planar(n, edges).planar
            assert kuratowski_oracle(n, edges) == fast
            planar_seen += fast
            nonplanar_seen += not fast
        assert planar_seen > 100 and nonplanar_seen > 100

    def test_nonplanarity_is_monotone_under_edge_addition(self):
        rng = random.Random(7)
        checked = 0
        while checked < 25:
            n = rng.randrange(6, 10)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = rng.sample(pairs, rng.randrange(3 * n - 6, len(pairs)))
            if kuratowski_oracle(n, edges):
                continue
            missing = [p for p in pairs if p not in set(edges)]
            if not missing:
                continue
            extra = rng.choice(missing)
            assert not kuratowski_oracle(n, edges + [extra])
            checked += 1


# ----------------------------------------------------------------------
# The left-right test against networkx's implementation
# ----------------------------------------------------------------------


def adjacency_of(n, edges):
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


def nx_graph(n, edges):
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return graph


def nx_rotation(n, edges):
    """networkx's counter-clockwise rotation, start included, or None if non-planar."""
    planar, cert = nx.check_planarity(nx_graph(n, edges))
    if not planar:
        return None
    return [list(cert.neighbors_cw_order(v))[::-1] for v in range(n)]


def shuffled(rng, edges):
    """The edges in random order, each with its endpoints in random order."""
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    return edges


def assert_same_as_networkx(n, edges, adjacency=None):
    """_lr_rotation and is_planar decide and embed as networkx does."""
    want = nx_rotation(n, edges)
    found = _lr_rotation(n, adjacency or adjacency_of(n, edges))
    assert (found is None) == (want is None), (n, edges)
    verdict = is_planar(n, edges)
    assert verdict.planar == (want is not None)
    if want is None:
        return False
    rotation, roots = found
    assert rotation == want
    assert roots == nx.number_connected_components(nx_graph(n, edges))
    if verdict.embedding is not None:
        assert list(verdict.embedding.rotation) == [_canonical_rotation(nbrs) for nbrs in want]
    else:
        assert n < 2 or roots > 1
    return True


def pruned_or_augmented(rng, tri):
    """A random triangulation with edges removed, or with non-edges added."""
    n = tri.n
    edges = list(tri.edges())
    if rng.random() < 0.5:
        return rng.sample(edges, rng.randrange(len(edges) // 2, len(edges) + 1))
    present = set(edges)
    while len(edges) < tri.e + 3:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in present:
            present.add((u, v))
            edges.append((u, v))
    return edges


def standard_form_edges(n):
    """The standard triangulation: poles 0 and 1 on everything, a path 2..n-1."""
    edges = [(0, 1)] + [(p, i) for i in range(2, n) for p in (0, 1)]
    return edges + [(i, i + 1) for i in range(2, n - 1)]


def gate_lr_graphs(monkeypatch):
    """Every (n, adjacency) of kept + uv for a pair uv that reaches the gate's
    rule 3, whether a triconnected piece, a block join, a mirror or the LR
    test decides it, in the benchmark's n = 40 sector-model builds at seed 7,
    tasks 0-3."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    seen = []
    add_if_planar = _PlanarityGate.add_if_planar
    late_rules = ("whitney_rejects", "block_joins", "flip_accepts", "lr_calls")

    def recording(gate, u, v):
        adjacency = [list(nbrs) for nbrs in gate.rotation]
        adjacency[u].append(v)
        adjacency[v].append(u)
        decided_before = sum(gate.counts[rule] for rule in late_rules)
        found = add_if_planar(gate, u, v)
        if sum(gate.counts[rule] for rule in late_rules) > decided_before:
            seen.append((gate.n, adjacency))
        return found

    monkeypatch.setattr(_PlanarityGate, "add_if_planar", recording)
    rule_3 = 0
    for j in range(4):
        table = workloads.sector_returns(np.random.default_rng([7, j]), 40, 500)
        sim = correlation_from_returns(table, [f"E{i:03d}" for i in range(40)])
        counts = build_pmfg(sim).gate_counts
        rule_3 += sum(getattr(counts, rule) for rule in late_rules)
    assert len(seen) == rule_3
    return seen


class TestLeftRightAgainstNetworkx:
    def test_random_small_graphs(self):
        rng = random.Random(31)
        decided = {True: 0, False: 0}
        for _ in range(5000):
            n = rng.randrange(0, 17)
            pairs = list(combinations(range(n), 2))
            edges = rng.sample(pairs, rng.randrange(0, min(len(pairs), 3 * n) + 1))
            decided[assert_same_as_networkx(n, shuffled(rng, edges))] += 1
        assert min(decided.values()) > 1000, decided

    def test_pruned_and_augmented_triangulations(self):
        rng = random.Random(32)
        decided = {True: 0, False: 0}
        for trial, n in enumerate([4, 5, 6, 150] + [rng.randrange(7, 151) for _ in range(20)]):
            edges = pruned_or_augmented(rng, random_triangulation(n, seed=trial))
            decided[assert_same_as_networkx(n, shuffled(rng, edges))] += 1
        assert min(decided.values()) > 5, decided

    def test_every_graph_the_gate_sends_to_lr(self, monkeypatch):
        decided = {True: 0, False: 0}
        for n, adjacency in gate_lr_graphs(monkeypatch):
            edges = [(v, w) for v, nbrs in enumerate(adjacency) for w in nbrs if v < w]
            decided[assert_same_as_networkx(n, edges, adjacency)] += 1
        assert min(decided.values()) > 50, decided

    def test_witness_is_networkx_counterexample(self):
        rng = random.Random(33)
        checked = 0
        while checked < 40:
            n = rng.randrange(5, 11)
            pairs = list(combinations(range(n), 2))
            edges = shuffled(rng, rng.sample(pairs, rng.randrange(2 * n, len(pairs) + 1)))
            verdict = is_planar(n, edges, want_witness=True)
            if verdict.planar:
                continue
            want = {tuple(sorted(e)) for e in get_counterexample(nx_graph(n, edges)).edges()}
            assert set(verdict.witness) == want
            assert len(verdict.witness) == len(want)
            checked += 1

    def test_long_path_needs_no_recursion(self):
        n = 3000
        edges = [(i, i + 1) for i in range(n - 1)]
        verdict = is_planar(n, edges)
        assert verdict.planar and len(verdict.embedding.faces) == 1
        assert _lr_rotation(n, adjacency_of(n, edges[::-1]))[1] == 1

    def test_large_triangulation_needs_no_recursion(self):
        n = 2000
        edges = standard_form_edges(n)
        assert len(edges) == 3 * n - 6
        assert assert_same_as_networkx(n, edges)
        assert is_planar(n, edges).embedding.is_triangulation()
        # Swap one edge for a non-edge: 3n - 6 edges, no longer planar.
        swapped = [e for e in edges if e != (0, 1000)] + [(2, 1000)]
        assert not assert_same_as_networkx(n, swapped)
