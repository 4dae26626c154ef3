import importlib.util
import random
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.planarity import get_counterexample
from test_builder import is_kuratowski_subdivision

import pmfg.embedding
import pmfg.planarity
from pmfg import (
    CeilingError,
    InputError,
    PlanarEmbedding,
    StructuralError,
    VerificationFailure,
    build_pmfg,
    correlation_from_returns,
    euler_check,
    is_planar,
    kuratowski_oracle,
    random_triangulation,
)
from pmfg.builder import _PlanarityGate
from pmfg.embedding import _canonical_rotation
from pmfg.planarity import _is_kuratowski_subdivision, _lr_rotation

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def complete_graph(n):
    return list(combinations(range(n), 2))


def complete_bipartite(a, b):
    return [(i, a + j) for i in range(a) for j in range(b)]


def masks_of(n, edges):
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


PRISM = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]


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
        assert _is_kuratowski_subdivision(masks_of(5, complete_graph(5)), verdict.witness)

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
        planar_seen = nonplanar_seen = 0
        for n, edges in random_corpus():
            fast = is_planar(n, edges).planar
            assert kuratowski_oracle(n, edges) == fast
            assert fast == nx_planar(n, edges)
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

    def test_ceiling_refusal_does_not_call_lr(self, monkeypatch):
        monkeypatch.setattr(pmfg.planarity, "_lr_rotation", refuse)
        with pytest.raises(CeilingError, match="n=13 > ceiling=12"):
            kuratowski_oracle(13, [(0, 1)])

    @pytest.mark.slow
    def test_agreement_on_every_labelled_graph_to_six(self):
        for n in range(7):
            pairs = complete_graph(n)
            for bits in range(1 << len(pairs)):
                edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
                assert kuratowski_oracle(n, edges) == nx_planar(n, edges), (n, edges)

    def test_uses_no_embedding_face_or_gate_code(self, monkeypatch):
        monkeypatch.setattr(pmfg.planarity, "PlanarEmbedding", refuse)
        for name in ("apex", "face_walk", "face_walks", "trace_faces"):
            monkeypatch.setattr(pmfg.embedding, name, refuse)
        monkeypatch.setattr(_PlanarityGate, "add_if_planar", refuse)
        for n, edges in random_corpus():
            assert kuratowski_oracle(n, edges) == nx_planar(n, edges)


def refuse(*args, **kwargs):
    raise AssertionError("the oracle called code it must not depend on")


def random_corpus():
    """The 1,000 random graphs, 3 <= n <= 10, that the oracle is checked on."""
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randrange(3, 11)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        yield n, rng.sample(pairs, rng.randrange(0, len(pairs) + 1))


def nx_planar(n, edges):
    return nx.check_planarity(nx_graph(n, edges))[0]


def lying_lr(monkeypatch):
    """Patch the oracle's ``_lr_rotation``; ``lies.append(f)`` makes its next
    answer ``f(found, n, adjacency)`` in place of the true ``found``."""
    lies = []

    def lying(n, adjacency):
        found = _lr_rotation(n, adjacency)
        return lies.pop()(found, n, adjacency) if lies else found

    monkeypatch.setattr(pmfg.planarity, "_lr_rotation", lying)
    return lies


def edited(found, v, edit):
    """The rotation of ``found`` with ``edit`` applied to the list of vertex v."""
    rotation = [list(nbrs) for nbrs in found[0]]
    edit(rotation[v])
    return rotation, found[1]


def lie_about(rng, n, adjacency, found):
    """A random corruption of the LR answer ``found``, and whether it is
    surely wrong.  A swapped or reversed order may still embed the graph."""
    if found is None:  # non-planar: some rotation
        if rng.random() < 0.5:
            rotation = [rng.sample(nbrs, len(nbrs)) for nbrs in adjacency]
            return (rotation, 1), True
        # The true rotation of a planar subgraph.
        adj = [list(nbrs) for nbrs in adjacency]
        while (sub := _lr_rotation(n, adj)) is None:
            u = rng.choice([x for x in range(n) if adj[x]])
            w = rng.choice(adj[u])
            adj[u].remove(w)
            adj[w].remove(u)
        return sub, True
    kind = rng.choice(["none", "swap", "reverse", "drop", "foreign", "repeat"])
    busy = [v for v in range(n) if len(adjacency[v]) >= 3]
    lonely = [v for v in range(n) if 0 < len(adjacency[v]) < n - 1]
    if kind in ("swap", "reverse") and busy:
        v = rng.choice(busy)
        if kind == "reverse":
            return edited(found, v, list.reverse), False
        i, j = rng.sample(range(len(adjacency[v])), 2)

        def swap(nbrs):
            nbrs[i], nbrs[j] = nbrs[j], nbrs[i]

        return edited(found, v, swap), False
    if kind == "drop" and any(adjacency):
        v = rng.choice([x for x in range(n) if adjacency[x]])
        w = rng.choice(adjacency[v])
        rotation, roots = edited(found, v, lambda nbrs: nbrs.remove(w))
        rotation[w].remove(v)
        return (rotation, roots), True
    if kind == "foreign" and lonely:
        v = rng.choice(lonely)
        x = rng.choice([x for x in range(n) if x != v and x not in adjacency[v]])
        i = rng.randrange(len(adjacency[v]))
        return edited(found, v, lambda nbrs: nbrs.__setitem__(i, x)), True
    if kind == "repeat" and busy:
        v = rng.choice(busy)
        i, j = rng.sample(range(len(adjacency[v])), 2)
        return edited(found, v, lambda nbrs: nbrs.__setitem__(i, nbrs[j])), True
    return None, True


class TestOracleCertificates:
    """The oracle returns only an answer its own checkers certify."""

    def test_corrupted_answers_raise(self, monkeypatch):
        lies = lying_lr(monkeypatch)
        k4 = complete_graph(4)
        # K4 with one vertex's order reversed is a permutation of genus 1.
        genus_1 = edited(_lr_rotation(4, adjacency_of(4, k4)), 0, list.reverse)
        with pytest.raises(StructuralError, match="genus"):
            PlanarEmbedding(genus_1[0])
        lies.append(lambda *_: genus_1)
        with pytest.raises(VerificationFailure):
            kuratowski_oracle(4, k4)

        def drop_edge_01(found, n, adjacency):
            rotation, roots = edited(found, 0, lambda nbrs: nbrs.remove(1))
            rotation[1].remove(0)
            return rotation, roots

        prism_lies = [
            drop_edge_01,
            lambda found, *_: edited(found, 0, lambda nbrs: nbrs.__setitem__(0, 4)),
            lambda found, *_: edited(found, 0, lambda nbrs: nbrs.__setitem__(0, nbrs[1])),
            lambda found, *_: edited(found, 0, lambda nbrs: nbrs.append(4)),
            lambda *_: None,
        ]
        for lie in prism_lies:
            lies.append(lie)
            with pytest.raises(VerificationFailure):
                kuratowski_oracle(6, PRISM)
        lies.append(lambda *_: None)
        with pytest.raises(VerificationFailure):
            kuratowski_oracle(4, k4)
        rng = random.Random(36)
        for n, edges in ((5, complete_graph(5)), (6, complete_bipartite(3, 3))):
            adjacency = adjacency_of(n, edges)
            rotations = [[sorted(nbrs) for nbrs in adjacency]]
            rotations += [[rng.sample(nbrs, len(nbrs)) for nbrs in adjacency] for _ in range(20)]
            # The true rotation of the graph less one edge: a planar subgraph.
            rotations.append(_lr_rotation(n, adjacency_of(n, edges[1:]))[0])
            for rotation in rotations:
                lies.append(lambda *_, rotation=rotation: (rotation, 1))
                with pytest.raises(VerificationFailure):
                    kuratowski_oracle(n, edges)
        assert not lies

    def test_corrupted_answers_never_give_a_wrong_bool(self, monkeypatch):
        lies = lying_lr(monkeypatch)
        rng = random.Random(36)
        outcomes = Counter()
        for n, edges in random_corpus():
            truth = nx_planar(n, edges)
            surely_wrong = []

            def lie(found, n, adjacency):
                answer, wrong = lie_about(rng, n, adjacency, found)
                surely_wrong.append(wrong)
                return answer

            lies.append(lie)
            try:
                decided = kuratowski_oracle(n, edges)
            except VerificationFailure:
                outcomes["raised"] += 1
                continue
            assert decided == truth and not surely_wrong[0], (n, edges)
            outcomes["true"] += 1
        assert outcomes["raised"] > 700 and outcomes["true"] > 20, outcomes


def mutated(rng, witness):
    """The witness with one edge dropped, one added or one subdivided."""
    edges = list(witness)
    size = 1 + max(map(max, edges))
    kind = rng.choice(["drop", "add", "subdivide"])
    if kind == "drop":
        edges.remove(rng.choice(edges))
    elif kind == "add":
        present = set(edges)
        while (pair := tuple(sorted(rng.sample(range(size + 1), 2)))) in present:
            pass
        edges.append(pair)
    else:
        u, v = rng.choice(edges)
        edges.remove((u, v))
        edges += [(u, size), (v, size)]
    return edges


class TestSubdivisionChecker:
    """``_is_kuratowski_subdivision`` against the networkx-based reference."""

    def test_agrees_with_reference_on_corpus_witnesses_and_mutants(self):
        rng = random.Random(36)
        witnesses = 0
        mutants = Counter()
        for n, edges in random_corpus():
            if nx_planar(n, edges):
                continue
            witness = is_planar(n, edges, want_witness=True).witness
            assert _is_kuratowski_subdivision(masks_of(n, edges), witness)
            assert is_kuratowski_subdivision(witness)
            witnesses += 1
            for _ in range(5):
                mutant = witness
                for _ in range(rng.choice([1, 1, 2])):
                    mutant = mutated(rng, mutant)
                size = 1 + max(map(max, mutant))
                accepted = _is_kuratowski_subdivision(masks_of(size, complete_graph(size)), mutant)
                assert accepted == is_kuratowski_subdivision(mutant), mutant
                mutants[accepted] += 1
        assert witnesses > 100 and sum(mutants.values()) >= 1000
        assert min(mutants.values()) > 100, mutants

    def test_accepts_subdivisions(self):
        subdivided_k5 = [e for e in complete_graph(5) if e != (0, 1)] + [(0, 5), (5, 6), (1, 6)]
        subdivided_k33 = [e for e in complete_bipartite(3, 3) if e != (0, 3)] + [(0, 6), (3, 6)]
        for n, witness in ((5, complete_graph(5)), (6, complete_bipartite(3, 3)),
                           (7, subdivided_k5), (7, subdivided_k33)):
            assert _is_kuratowski_subdivision(masks_of(n, witness), witness)
            assert is_kuratowski_subdivision(witness)

    def test_rejects_near_misses(self):
        k5 = complete_graph(5)
        cases = {
            "triangular prism": PRISM,
            "K5 minus an edge": k5[1:],
            "K3,3 plus a chord": complete_bipartite(3, 3) + [(0, 1)],
            "pendant edge": k5 + [(0, 5)],
            "separate cycle": k5 + [(5, 6), (6, 7), (5, 7)],
            # Six vertices of degree 3; the path 0-6-7-0 returns to 0.
            "path back to its own branch vertex": [
                (0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
                (0, 6), (6, 7), (0, 7),
            ],
            # Five vertices of degree 4; 0-1 and 3-4 are each joined twice.
            "two paths joining one pair": [
                (0, 1), (0, 5), (1, 5), (0, 2), (0, 3), (1, 2), (1, 4),
                (2, 3), (2, 4), (3, 4), (3, 6), (4, 6),
            ],
        }
        every_pair = masks_of(8, complete_graph(8))
        for name, witness in cases.items():
            assert not _is_kuratowski_subdivision(every_pair, witness), name
            assert not is_kuratowski_subdivision(witness), name

    def test_rejects_a_witness_outside_the_graph(self):
        k5 = complete_graph(5)
        assert not _is_kuratowski_subdivision(masks_of(5, k5[1:]), k5)
        assert not _is_kuratowski_subdivision(masks_of(5, k5), k5 + [k5[0]])


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
