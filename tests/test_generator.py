import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmfg import (
    CeilingError,
    CycleRef,
    EberhardOp,
    FlipForbiddenError,
    FlipMove,
    InputError,
    OperationError,
    PlanarEmbedding,
    apply_eberhard,
    apply_trace,
    canonical_code,
    count_cliques,
    degree_sequence,
    diagonal_flip,
    eberhard_ops,
    find_pure_chord_cycles,
    flip_closure,
    generate_all,
    k4,
    legal_flips,
    normalize_to_standard,
    pure_chord_cycle_sets,
    random_triangulation,
    standard_form,
)
from pmfg.generator import CLASS_COUNTS, standard_form_code
from conftest import brute_isomorphic


def reference_code(emb: PlanarEmbedding) -> bytes:
    """Exhaustive canonical code: full BFS from all 4e darts, minimum bytes.

    The search that ``canonical_code`` prunes, kept as the oracle for its
    exact bytes.
    """
    best = None
    mirror = tuple(tuple(reversed(nbrs)) for nbrs in emb.rotation)
    for rotation in (emb.rotation, mirror):
        for u, nbrs in enumerate(rotation):
            for v in nbrs:
                number = {u: 1, v: 2}
                entry = {u: v, v: u}
                order = [u, v]
                out = []
                for x in order:
                    row = rotation[x]
                    i0 = row.index(entry[x])
                    for j in range(len(row)):
                        w = row[(i0 + j) % len(row)]
                        if w not in number:
                            number[w] = len(order) + 1
                            entry[w] = x
                            order.append(w)
                        out.append(number[w])
                    out.append(0)
                code = b"".join(x.to_bytes(2, "big") for x in out)
                if best is None or code < best:
                    best = code
    return best


class TestPureChordCycles:
    def test_region_counts_on_five_vertices(self, p5):
        # One region per interior choice: 6 faces, 9 edge-pairs, 12 chains.
        assert len(find_pure_chord_cycles(p5, 3)) == 6
        assert len(find_pure_chord_cycles(p5, 4)) == 9
        assert len(find_pure_chord_cycles(p5, 5)) == 12

    def test_plane_relative_counts_on_five_vertices(self, p5):
        # Counted as vertex sets of bounded regions: 5, 4 and 1.
        assert len(pure_chord_cycle_sets(p5, 3)) == 5
        assert len(pure_chord_cycle_sets(p5, 4)) == 4
        assert len(pure_chord_cycle_sets(p5, 5)) == 1

    def test_chord_counts(self, p5):
        for ref in pure_chord_cycle_sets(p5, 4):
            assert len(ref.chords) == 1
        (pent,) = pure_chord_cycle_sets(p5, 5)
        assert len(pent.chords) == 2

    def test_region_chord_counts_by_length(self, p5):
        for k in (3, 4, 5):
            for ref in find_pure_chord_cycles(p5, k):
                assert len(ref.chords) == k - 3
                assert len(ref.interior_faces) == k - 2

    def test_k4_region_counts(self):
        emb = k4()
        assert len(find_pure_chord_cycles(emb, 3)) == 4
        assert len(find_pure_chord_cycles(emb, 4)) == 6
        assert len(find_pure_chord_cycles(emb, 5)) == 0

    def test_set_level_needs_outer_face(self, octahedron):
        with pytest.raises(InputError):
            pure_chord_cycle_sets(octahedron, 3)

    def test_bad_length_rejected(self, p5):
        with pytest.raises(InputError):
            find_pure_chord_cycles(p5, 6)


class TestApplyEberhard:
    def test_k4_phi1_any_face_gives_the_unique_p5(self, p5):
        target = canonical_code(p5)
        emb = k4()
        for ref in find_pure_chord_cycles(emb, 3):
            child = apply_eberhard(emb, EberhardOp("phi1", ref))
            assert child.n == 5 and child.e == 9
            assert canonical_code(child) == target

    def test_p5_phi3_gives_standard_form(self, p5):
        target = canonical_code(standard_form(6))
        for ref in find_pure_chord_cycles(p5, 5):
            child = apply_eberhard(p5, EberhardOp("phi3", ref))
            assert canonical_code(child) == target

    def test_p5_phi2_reaches_both_six_vertex_forms(self, p5, octahedron):
        codes = {
            canonical_code(apply_eberhard(p5, EberhardOp("phi2", ref)))
            for ref in find_pure_chord_cycles(p5, 4)
        }
        assert codes == {canonical_code(standard_form(6)), canonical_code(octahedron)}

    def test_bookkeeping_adds_one_vertex_three_edges(self):
        emb = random_triangulation(9, seed=11)
        for op in eberhard_ops(emb):
            child = apply_eberhard(emb, op)
            assert (child.n, child.e) == (emb.n + 1, emb.e + 3)
            assert child.is_triangulation()
            assert sum(degree_sequence(child)) == 2 * child.e

    def test_new_vertex_forms_a_wheel(self, p5):
        ref = find_pure_chord_cycles(p5, 5)[0]
        child = apply_eberhard(p5, EberhardOp("phi3", ref))
        hub = p5.n
        assert set(child.neighbors(hub)) == ref.vertex_set

    def test_impure_cycle_rejected(self, octahedron):
        # A 3-cycle of the octahedron that is no face (there is none), and a
        # fabricated quad with the wrong chord.
        emb = standard_form(6)
        quad = next(iter(find_pure_chord_cycles(emb, 4)))
        wrong = CycleRef(quad.vertices, chords=())
        with pytest.raises(OperationError):
            apply_eberhard(emb, EberhardOp("phi2", wrong))

    def test_wrong_chord_count_rejected(self, p5):
        tri = find_pure_chord_cycles(p5, 3)[0]
        with pytest.raises(OperationError):
            apply_eberhard(p5, EberhardOp("phi2", tri))

    def test_nonadjacent_cycle_rejected(self):
        with pytest.raises(OperationError):
            apply_eberhard(k4(), EberhardOp("phi1", CycleRef((0, 1, 9))))

    def test_unknown_kind_rejected(self, p5):
        tri = find_pure_chord_cycles(p5, 3)[0]
        with pytest.raises(InputError):
            apply_eberhard(p5, EberhardOp("phi9", tri))


class TestDiagonalFlip:
    def test_flip_replaces_shared_edge_with_opposite_diagonal(self, p5):
        move = legal_flips(p5)[0]
        a, c = move.shared_edge
        b, d = move.replacement
        flipped = diagonal_flip(p5, move)
        assert not flipped.has_edge(a, c)
        assert flipped.has_edge(b, d)
        assert flipped.is_triangulation()

    def test_flip_then_reverse_restores_embedding_exactly(self, p5):
        for move in legal_flips(p5):
            once = diagonal_flip(p5, move)
            back = diagonal_flip(once, FlipMove(move.replacement))
            assert back == p5

    def test_k4_has_no_legal_flip(self):
        assert legal_flips(k4()) == []
        with pytest.raises(FlipForbiddenError):
            diagonal_flip(k4(), FlipMove((0, 1)))

    def test_flip_of_non_edge_rejected(self, octahedron):
        non_edges = [
            (u, v)
            for u in range(6)
            for v in range(u + 1, 6)
            if not octahedron.has_edge(u, v)
        ]
        with pytest.raises(OperationError):
            diagonal_flip(octahedron, FlipMove(non_edges[0]))

    def test_replacement_mismatch_rejected(self, p5):
        move = legal_flips(p5)[0]
        with pytest.raises(OperationError):
            diagonal_flip(p5, FlipMove(move.shared_edge, (0, 1) if move.replacement != (0, 1) else (0, 2)))

    def test_standard_six_form_flips_stay_within_the_two_classes(self, octahedron):
        emb = standard_form(6)
        allowed = {canonical_code(emb), canonical_code(octahedron)}
        results = {
            canonical_code(diagonal_flip(emb, move)) for move in legal_flips(emb)
        }
        assert results <= allowed
        assert canonical_code(octahedron) in results

    @given(st.integers(min_value=5, max_value=12), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_flip_involution_property(self, n, seed):
        emb = random_triangulation(n, seed=seed)
        moves = legal_flips(emb)
        if not moves:
            return
        move = moves[seed % len(moves)]
        assert diagonal_flip(diagonal_flip(emb, move), FlipMove(move.replacement)) == emb


class TestCanonicalCode:
    def test_relabeling_preserves_code(self):
        rng = random.Random(31)
        emb = random_triangulation(8, seed=8)
        base = canonical_code(emb)
        for _ in range(5):
            perm = list(range(8))
            rng.shuffle(perm)
            assert canonical_code(emb.relabel(perm)) == base

    def test_mirror_preserves_code(self):
        emb = random_triangulation(9, seed=17)
        assert canonical_code(emb.mirrored()) == canonical_code(emb)

    def test_same_degree_sequence_different_graphs_get_different_codes(self, classes):
        pair = [
            rec.embedding
            for rec in classes[8].values()
            if degree_sequence(rec.embedding) == [6, 6, 5, 5, 4, 4, 3, 3]
        ]
        assert len(pair) == 2
        assert canonical_code(pair[0]) != canonical_code(pair[1])
        assert not brute_isomorphic(pair[0], pair[1])
        assert {count_cliques(e).counts for e in pair} == {(14, 2), (16, 5)}

    def test_code_equality_matches_brute_force_isomorphism(self, classes):
        rng = random.Random(5)
        embeddings = [rec.embedding for rec in classes[7].values()]
        embeddings += [rec.embedding for rec in classes[6].values()]
        for e1 in embeddings:
            perm = list(range(e1.n))
            rng.shuffle(perm)
            shuffled = e1.relabel(perm)
            for e2 in embeddings:
                same_code = canonical_code(shuffled) == canonical_code(e2)
                assert same_code == brute_isomorphic(shuffled, e2)


    def test_bytes_match_exhaustive_reference_on_every_class(self, classes):
        embeddings = [rec.embedding for recs in classes.values() for rec in recs.values()]
        embeddings += [rec.embedding for rec in generate_all(9, check_deltas=False).values()]
        assert len(embeddings) == sum(CLASS_COUNTS[n] for n in range(4, 10))
        for emb in embeddings:
            assert canonical_code(emb).code == reference_code(emb)

    def test_bytes_match_exhaustive_reference_on_random_copies(self):
        rng = random.Random(2007)
        for n in range(10, 41, 3):
            emb = random_triangulation(n, seed=n)
            perm = list(range(n))
            rng.shuffle(perm)
            for copy in (emb, emb.relabel(perm), emb.relabel(perm).mirrored()):
                assert canonical_code(copy).code == reference_code(copy), n

    def test_standard_form_code_is_pinned(self):
        # The hex printed by ``pmfg verify`` as n=5's standard_form_code.
        pinned = (
            "0002000300040000000100040005000300000001000200050004"
            "0000000100030005000200000002000400030000"
        )
        assert canonical_code(standard_form(5)).hex() == pinned
        assert standard_form_code(5).hex() == pinned


class TestClosures:
    def test_class_counts_up_to_eight(self, classes):
        assert [len(classes[n]) for n in (4, 5, 6, 7, 8)] == [1, 1, 2, 5, 14]

    def test_flip_closure_matches_generation(self, classes):
        for n in (4, 5, 6, 7):
            assert flip_closure(n) == set(classes[n])

    def test_six_vertex_censuses(self, classes):
        censuses = {
            count_cliques(rec.embedding).counts for rec in classes[6].values()
        }
        assert censuses == {(10, 3), (8, 0)}

    def test_generation_records_replay(self, classes):
        for rec in classes[7].values():
            assert apply_trace(k4(), rec.trace) == rec.embedding
            assert len(rec.trace) == 3

    def test_ceiling_refusals(self):
        with pytest.raises(CeilingError, match="isomorphism classes"):
            generate_all(11)
        with pytest.raises(CeilingError):
            flip_closure(12)
        with pytest.raises(InputError):
            generate_all(3)

    def test_ceiling_override(self):
        # n=10 exceeds the default ceiling but must work when raised.
        assert len(generate_all(10, ceiling=10, check_deltas=False)) == 233

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [10, 11])
    def test_closures_agree_beyond_the_fast_tier(self, n):
        codes = set(generate_all(n, ceiling=n, check_deltas=False))
        assert len(codes) == CLASS_COUNTS[n]
        assert flip_closure(n, ceiling=n) == codes


class TestNormalization:
    def test_standard_form_is_a_fixed_point(self):
        emb = standard_form(7)
        normalized, trace = normalize_to_standard(PlanarEmbedding(emb.rotation))
        assert trace == []
        assert normalized.rotation == emb.rotation

    def test_alternative_six_vertex_form_normalizes(self, octahedron):
        normalized, trace = normalize_to_standard(octahedron)
        assert len(trace) >= 1
        assert count_cliques(normalized).counts == (10, 3)
        assert canonical_code(normalized) == canonical_code(standard_form(6))

    def test_every_class_up_to_eight_normalizes_with_replayable_trace(self, classes):
        for n, records in classes.items():
            expected = sorted([n - 1, n - 1] + [4] * (n - 4) + [3, 3], reverse=True)
            for rec in records.values():
                normalized, trace = normalize_to_standard(rec.embedding)
                assert degree_sequence(normalized) == expected
                replay = rec.embedding
                for move in trace:
                    replay = diagonal_flip(replay, move)
                    assert replay.is_triangulation()
                assert replay == normalized

    def test_labels_survive_normalization(self):
        emb = PlanarEmbedding(
            random_triangulation(7, seed=2).rotation,
            labels=tuple("ABCDEFG"),
        )
        normalized, _ = normalize_to_standard(emb)
        assert normalized.labels == emb.labels

    def test_non_triangulation_rejected(self):
        path = PlanarEmbedding(((1,), (0, 2), (1,)))
        with pytest.raises(Exception):
            normalize_to_standard(path)


class TestRandomTriangulation:
    def test_seeded_determinism(self):
        assert random_triangulation(10, seed=4) == random_triangulation(10, seed=4)

    def test_requires_four_vertices(self):
        with pytest.raises(InputError):
            random_triangulation(3)
