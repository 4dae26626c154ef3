import enum
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmfg import (
    InputError,
    PlanarEmbedding,
    PmfgError,
    StructuralError,
    VerificationFailure,
    apply_eberhard,
    degree_sequence,
    eberhard_ops,
    euler_check,
    generate_levels,
    k4,
    random_triangulation,
    standard_form,
)
from pmfg.embedding import apex, face_walk, trace_faces


class TestFaceTracing:
    def test_k4_has_four_triangular_faces(self):
        faces = k4().faces
        assert len(faces) == 4
        assert all(len(f) == 3 for f in faces)
        assert {frozenset(f) for f in faces} == {
            frozenset(s) for s in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
        }

    def test_standard_six_vertex_form_has_eight_faces(self):
        assert len(standard_form(6).faces) == 8

    def test_path_on_three_vertices_one_face_of_degree_four(self):
        path = PlanarEmbedding(((1,), (0, 2), (1,)))
        faces = path.faces
        assert len(faces) == 1
        assert len(faces[0]) == 4

    def test_every_dart_in_exactly_one_face(self):
        emb = standard_form(9)
        walked = []
        for b in emb.faces:
            walked.extend((b[i], b[(i + 1) % len(b)]) for i in range(len(b)))
        darts = [(u, v) for u, nbrs in enumerate(emb.rotation) for v in nbrs]
        assert sorted(walked) == sorted(darts)

    def test_face_degree_sum_is_twice_edge_count(self):
        for n in (4, 6, 9, 12):
            emb = standard_form(n)
            assert sum(len(f) for f in emb.faces) == 2 * emb.e

    def test_a_walk_through_its_least_vertex_twice_starts_at_its_first_dart(self):
        # Vertex 0 is a cut vertex: the outer walk passes it twice and starts
        # with the dart 0 -> 3, which comes first in 0's rotation.
        emb = PlanarEmbedding(((1, 3, 2), (0, 3), (0,), (0, 1)))
        assert emb.faces == ((0, 1, 3), (0, 3, 1, 0, 2))

    def test_faces_of_triangulations_start_at_their_least_point(self):
        # A face cycle meets its least vertex once, so ``trace_faces``'s
        # start is the lexicographically least rotation of the walk.
        def lexicographic_faces(emb):
            starts = (
                min(tuple(w[i:] + w[:i]) for i, x in enumerate(w) if x == min(w))
                for w in trace_faces(emb.rotation)
            )
            return tuple(sorted(starts))

        embeddings = [
            rec.embedding for level in generate_levels(9) for rec in level.values()
        ]
        for seed in range(20):
            rng, emb = random.Random(seed), k4()
            while emb.n < 40:
                emb = apply_eberhard(emb, rng.choice(eberhard_ops(emb)))
                embeddings.append(emb)
        for emb in embeddings:
            assert emb.faces == lexicographic_faces(emb), emb.rotation

    def test_two_faces_meet_along_at_most_one_edge(self):
        for seed in range(5):
            emb = random_triangulation(9, seed=seed)
            edge_sets = []
            for b in emb.faces:
                edge_sets.append(
                    {frozenset((b[i], b[(i + 1) % 3])) for i in range(3)}
                )
            for i in range(len(edge_sets)):
                for j in range(i + 1, len(edge_sets)):
                    assert len(edge_sets[i] & edge_sets[j]) <= 1


def pruned(emb: PlanarEmbedding, rng: random.Random, share: float) -> PlanarEmbedding:
    """``emb`` without a random ``share`` of its edges, deleted one at a time
    while the graph stays connected; share 1 leaves a spanning tree."""
    rot = [list(nbrs) for nbrs in emb.rotation]
    edges = list(emb.edges())
    rng.shuffle(edges)
    for u, v in edges[: round(share * len(edges))]:
        reached, stack = {u}, [u]
        while stack:
            x = stack.pop()
            for w in rot[x]:
                if w not in reached and {x, w} != {u, v}:
                    reached.add(w)
                    stack.append(w)
        if v in reached:
            rot[u].remove(v)
            rot[v].remove(u)
    return PlanarEmbedding(rot)


class TestApex:
    def test_apex_is_the_step_of_trace_faces(self):
        # For every dart u -> v, apex gives the vertex after v on the walk
        # through u -> v, and face_walk gives that walk started at u, on
        # triangulations and on connected embeddings pruned from them, whose
        # walks repeat vertices.
        rng = random.Random(12)
        for n in range(4, 61):
            tri = random_triangulation(n, seed=n)
            tree = pruned(tri, rng, 1.0)
            assert tree.e == n - 1
            for emb in (tri, pruned(tri, rng, 0.4), tree):
                after, through = {}, {}
                for walk in trace_faces(emb.rotation):
                    k = len(walk)
                    for i in range(k):
                        after[walk[i], walk[(i + 1) % k]] = walk[(i + 2) % k]
                        through[walk[i], walk[(i + 1) % k]] = walk[i:] + walk[:i]
                want = {
                    (u, v): apex(emb.rotation, u, v)
                    for u, nbrs in enumerate(emb.rotation)
                    for v in nbrs
                }
                assert after == want, (n, emb.rotation)
                for (u, v), walk in through.items():
                    assert face_walk(emb.rotation, u, v) == walk, (n, u, v)


class TestEulerCheck:
    def test_eight_vertex_triangulation_has_18_edges(self):
        report = euler_check(random_triangulation(8, seed=5))
        assert report.e == 18
        assert report.is_triangulation

    def test_six_vertex_triangulation_counts(self):
        report = euler_check(standard_form(6))
        assert (report.e, report.f) == (12, 8)

    def test_k4_report(self):
        assert euler_check(k4()) == (4, 6, 4, True)

    def test_non_triangulation_reported(self):
        path = PlanarEmbedding(((1,), (0, 2), (1,)))
        report = euler_check(path)
        assert not report.is_triangulation
        assert report.n - report.e + report.f == 2

    def test_broken_identity_raises(self):
        emb = PlanarEmbedding._trusted(k4().rotation)
        emb.faces = k4().faces[1:]  # three triangles: f != 2n - 4
        with pytest.raises(VerificationFailure, match="Euler"):
            euler_check(emb)


class TestDegreeSequence:
    @pytest.mark.parametrize("n", [4, 5, 6, 9, 13])
    def test_standard_form_degrees(self, n):
        expected = sorted([n - 1, n - 1] + [4] * (n - 4) + [3, 3], reverse=True)
        assert degree_sequence(standard_form(n)) == expected

    def test_k4_degrees(self):
        assert degree_sequence(k4()) == [3, 3, 3, 3]

    def test_high_degree_eight_class(self, high_degree_eight):
        seq = degree_sequence(high_degree_eight)
        assert seq == [7, 5, 5, 5, 4, 4, 3, 3]
        assert sum(seq) == 36

    def test_sum_is_twice_edges(self):
        emb = random_triangulation(11, seed=3)
        assert sum(degree_sequence(emb)) == 2 * emb.e


class TestValidation:
    def test_asymmetric_rotation_rejected(self):
        with pytest.raises(StructuralError, match="asymmetric"):
            PlanarEmbedding(((1,), (0, 2), ()))

    def test_self_loop_rejected(self):
        with pytest.raises(StructuralError, match="self-loop"):
            PlanarEmbedding(((0, 1), (0,)))

    def test_repeated_neighbor_rejected(self):
        with pytest.raises(StructuralError, match="multiple edge"):
            PlanarEmbedding(((1, 1), (0, 0)))

    def test_disconnected_rejected(self):
        with pytest.raises(StructuralError, match="disconnected"):
            PlanarEmbedding(((1,), (0,), (3,), (2,)))

    def test_higher_genus_rotation_rejected(self):
        # K4 with one rotation reversed traces too few faces for the sphere.
        with pytest.raises(StructuralError, match="genus"):
            PlanarEmbedding(((1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 2, 1)))

    def test_unknown_neighbor_rejected(self):
        # Out of range; K4 with vertex 1 written as True; K4 with a float id.
        for rotation in [
            ((1, 7), (0,)),
            ([True, 3, 2], [2, 3, 0], [0, 3, True], [0, True, 2]),
            ([1, 3, 2.0], [2, 3, 0], [0, 3, 1], [0, 1, 2]),
        ]:
            with pytest.raises(StructuralError, match="unknown neighbor"):
                PlanarEmbedding(rotation)

    def test_neighbor_that_is_not_an_int_is_a_structural_error(self):
        # Read before the rotation is canonicalized, whose min() would raise
        # a bare TypeError on a string beside ints.
        with pytest.raises(StructuralError, match="vertex 0 lists unknown neighbor 'x'"):
            PlanarEmbedding([[1, "x"], [0]])
        with pytest.raises(StructuralError, match=r"vertex 0 lists unknown neighbor \[0\]"):
            PlanarEmbedding([[1, [0]], [0]])
        # An int subclass other than bool is refused too.
        one = enum.IntEnum("One", {"ONE": 1}).ONE
        with pytest.raises(StructuralError, match="unknown neighbor <One.ONE: 1>"):
            PlanarEmbedding([[one], [0]])

    def test_label_count_must_match(self):
        with pytest.raises(StructuralError, match="labels"):
            PlanarEmbedding(k4().rotation, labels=("a", "b"))

    @pytest.mark.parametrize(
        "labels, message",
        [
            (("a", "b", "", "d"), "label 3 is empty"),
            (("a", "b", "a", "d"), "'a' repeats"),
            ((1, 2, 3, 4), "label 1 is not a string: 1"),
        ],
    )
    def test_labels_must_be_non_empty_and_distinct(self, labels, message):
        # The rule the matrix readers apply to entity labels.
        with pytest.raises(InputError, match=message):
            PlanarEmbedding(k4().rotation, labels=labels)


# Rotation entries: in-range and out-of-range ints, and what is no vertex id.
_entries = st.one_of(
    st.integers(min_value=-1, max_value=6),
    st.booleans(),
    st.floats(allow_nan=False, min_value=0, max_value=5),
    st.text(max_size=2),
    st.none(),
    st.lists(st.integers(min_value=0, max_value=5), max_size=2),
)


@st.composite
def _rotations(draw) -> list[list]:
    """Rotations of 2 to 6 rows: drawn entry by entry, or a valid embedding
    with up to two entries replaced or appended, so some stay valid."""
    if draw(st.booleans()):
        return draw(st.lists(st.lists(_entries, max_size=4), min_size=2, max_size=6))
    valid = [((1,), (0,)), ((1,), (0, 2), (1,)), k4().rotation, standard_form(6).rotation]
    rows = [list(nbrs) for nbrs in draw(st.sampled_from(valid))]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        row = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
        i = draw(st.integers(min_value=0, max_value=len(row)))
        row[i : i + 1] = [draw(_entries)]
    return rows


class TestConstructorBoundary:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_refuses_or_round_trips(self, data):
        # Either a package error, or an embedding that graph JSON and DOT carry.
        rotation = data.draw(_rotations())
        n = len(rotation)
        label = st.text(max_size=2) | st.integers()
        labels = data.draw(st.none() | st.lists(label, min_size=n, max_size=n, unique=True))
        try:
            emb = PlanarEmbedding(rotation, labels=labels)
        except PmfgError:
            return
        again = PlanarEmbedding.from_json(emb.to_json())
        assert again == emb and again.labels == emb.labels
        emb.to_dot()


class TestSerialization:
    def test_json_round_trip_identical_rotation(self):
        emb = PlanarEmbedding(
            standard_form(7).rotation, labels=tuple(f"T{i}" for i in range(7))
        )
        again = PlanarEmbedding.from_json(emb.to_json())
        assert again.rotation == emb.rotation
        assert again.labels == emb.labels

    def test_json_keys(self):
        doc = json.loads(standard_form(5).to_json())
        assert set(doc) == {"n", "rotation"}
        assert doc["n"] == 5

    def test_bad_json_is_input_error(self):
        with pytest.raises(InputError):
            PlanarEmbedding.from_json("{not json")
        with pytest.raises(InputError):
            PlanarEmbedding.from_json(json.dumps({"n": 3}))
        with pytest.raises(InputError):
            PlanarEmbedding.from_json(json.dumps({"n": 3, "rotation": [[1], [0]]}))

    def test_dot_output_lists_every_edge(self):
        emb = PlanarEmbedding(k4().rotation, labels=("a", "b", "c", "d"))
        dot = emb.to_dot()
        assert dot.startswith("graph G {")
        assert dot.count("--") == 6
        assert '0 [label="a"];' in dot

    def test_dot_escapes_quotes_and_backslashes_in_labels(self):
        emb = PlanarEmbedding(k4().rotation, labels=('A"B', "C\\", "d", "e"))
        dot = emb.to_dot()
        assert '  0 [label="A\\"B"];' in dot
        assert '  1 [label="C\\\\"];' in dot
        assert '  2 [label="d"];' in dot

    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, n, seed):
        emb = random_triangulation(n, seed=seed)
        assert PlanarEmbedding.from_json(emb.to_json()).rotation == emb.rotation


class TestTransforms:
    def test_relabel_moves_labels_and_preserves_structure(self):
        emb = PlanarEmbedding(k4().rotation, labels=("a", "b", "c", "d"))
        out = emb.relabel((3, 2, 1, 0))
        assert degree_sequence(out) == degree_sequence(emb)
        assert out.labels == ("d", "c", "b", "a")
        assert out.has_edge(3, 2)

    def test_relabel_requires_permutation(self):
        for perm in [(0, 0, 1, 2), (1.0, 0.0, 2.0, 3.0), (True, 0, 2, 3)]:
            with pytest.raises(InputError, match="permutation"):
                k4().relabel(perm)

    def test_mirror_is_involution(self):
        emb = standard_form(8)
        assert emb.mirrored().mirrored().rotation == emb.rotation

    def test_embedding_equality_is_rotation_equality(self):
        assert PlanarEmbedding(k4().rotation) == k4()
        assert standard_form(5) != k4()

    def test_equality_with_another_type_is_false(self):
        assert (k4() == 5) is False
        assert k4() != "k4"

    def test_equal_rotations_hash_alike(self):
        assert len({k4(), PlanarEmbedding(k4().rotation)}) == 1


class TestRepr:
    def test_k4(self):
        assert repr(k4()) == "PlanarEmbedding(n=4, e=6, f=4)"

    def test_face_count_comes_from_euler_without_tracing(self):
        emb = PlanarEmbedding._trusted(standard_form(9).rotation)
        assert repr(emb) == "PlanarEmbedding(n=9, e=21, f=14)"
        assert "faces" not in emb.__dict__
        assert len(emb.faces) == 14

    def test_non_triangulation(self):
        path = PlanarEmbedding(((1,), (0, 2), (1,)))
        assert repr(path) == "PlanarEmbedding(n=3, e=2, f=1)"
