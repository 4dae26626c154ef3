import itertools
import random
import sys
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmfg.generator
from pmfg import (
    CeilingError,
    EberhardOp,
    FlipForbiddenError,
    FlipMove,
    InputError,
    OperationError,
    PlanarEmbedding,
    StructuralError,
    apply_eberhard,
    apply_trace,
    build_pmfg,
    canonical_code,
    correlation_from_returns,
    count_cliques,
    degree_sequence,
    diagonal_flip,
    eberhard_ops,
    euler_check,
    flip_closure,
    generate_all,
    k4,
    legal_flips,
    normalize_to_standard,
    pure_chord_cycle_sets,
    random_triangulation,
    standard_form,
)
from pmfg.generator import (
    CLASS_COUNTS,
    GenerationRecord,
    _canonical_search,
    _degree_raising_flip,
    _face_apexes,
    generate_levels,
    standard_form_code,
)
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


def unpruned_generate_all(n: int, on_application) -> dict:
    """``generate_all`` as it was before automorphism pruning: every op of
    every parent is applied, audited and coded.  The reference for the
    records, their order and the reported deltas."""
    seed = k4()
    code = canonical_code(seed)
    level = {code: GenerationRecord(seed, (), code)}
    counts = {code: count_cliques(seed).counts}
    for _ in range(n - 4):
        next_level, next_counts = {}, {}
        for code, rec in level.items():
            c3, c4 = counts[code]
            for op in eberhard_ops(rec.embedding):
                child = apply_eberhard(rec.embedding, op)
                child_counts = count_cliques(child).counts
                on_application(op.kind, child_counts[0] - c3, child_counts[1] - c4)
                ccode = canonical_code(child)
                if ccode not in next_level:
                    next_level[ccode] = GenerationRecord(child, rec.trace + (op,), ccode)
                    next_counts[ccode] = child_counts
        level, counts = next_level, next_counts
    return level


def orientation(emb: PlanarEmbedding, aut) -> int | None:
    """+1 if the vertex map carries each rotation onto its image's rotation,
    cyclically; -1 if it carries each onto the reverse; None otherwise."""

    def same_cycle(a, b):
        return len(a) == len(b) and any(list(b) == a[i:] + a[:i] for i in range(len(a)))

    images = [[aut[w] for w in nbrs] for nbrs in emb.rotation]
    for sense in (1, -1):
        if all(same_cycle(img[::sense], emb.rotation[aut[v]]) for v, img in enumerate(images)):
            return sense
    return None


def brute_automorphism_count(emb: PlanarEmbedding) -> int:
    """Permutations of the vertices that keep the edge set, by backtracking."""
    adj = [set(nbrs) for nbrs in emb.rotation]
    image: list[int] = []

    def extend() -> int:
        v = len(image)
        if v == emb.n:
            return 1
        found = 0
        for w in range(emb.n):
            if w in image or len(adj[w]) != len(adj[v]):
                continue
            if all((u in adj[v]) == (image[u] in adj[w]) for u in range(v)):
                image.append(w)
                found += extend()
                image.pop()
        return found

    return extend()


def validating_apply_eberhard(emb: PlanarEmbedding, op: EberhardOp) -> PlanarEmbedding:
    """``apply_eberhard`` as it was when every step re-validated its result.

    It builds and validates the chord-removed embedding, finds the cycle among
    its faces, and validates the wheel it inserts; the reference for the
    trusted version, which traces the faces of the bare rotation instead.
    """
    verts, chords = op.cycle, op.chords
    k = len(verts)
    if not 3 <= k <= 5 or len(set(verts)) != k:
        raise OperationError("the cycle is not 3 to 5 distinct vertices")
    if len(chords) != k - 3:
        raise OperationError(f"{op.kind} needs exactly {k - 3} chords")
    for i, u in enumerate(verts):
        if not emb.has_edge(u, verts[(i + 1) % k]):
            raise OperationError("cycle vertices are not adjacent")
    cycle_set = frozenset(verts)
    rot = [list(nbrs) for nbrs in emb.rotation]
    for u, v in chords:
        if not {u, v} <= cycle_set or not emb.has_edge(u, v):
            raise OperationError(f"chord ({u}, {v}) is not an interior edge")
        rot[u].remove(v)
        rot[v].remove(u)
    interior = PlanarEmbedding(rot)
    matches = [f for f in interior.faces if len(f) == k and set(f) == cycle_set]
    if len(matches) != 1:
        raise OperationError("not a pure chord-cycle")
    walk = matches[0]
    rot = [list(nbrs) for nbrs in interior.rotation]
    rot.append(list(walk))
    for i, v in enumerate(walk):
        rot[v].insert(rot[v].index(walk[i - 1]), emb.n)
    return PlanarEmbedding(rot)


def merge_walk_cycles(emb: PlanarEmbedding, k: int) -> list[tuple]:
    """The pure chord-cycle enumerator as it was when it glued face walks.

    Every candidate region is built as the merged boundary walk of its faces;
    chains of three faces are deduplicated by face set, and walks that repeat
    a vertex are dropped.  Each region is a triple (cycle, chords, interior
    faces).  The reference for the apex-table enumerator.
    """

    def rotate_to_wrap(walk, s, t):
        m = len(walk)
        for i in range(m):
            if walk[i] == s and walk[(i + 1) % m] == t:
                return list(walk[i + 1:]) + list(walk[: i + 1])
        raise AssertionError(f"walk {walk} has no dart {s} -> {t}")

    def merge(w1, w2, s, t):
        return rotate_to_wrap(w1, s, t) + rotate_to_wrap(w2, t, s)[1:-1]

    assert all(len(f) == 3 for f in emb.faces)
    faces = list(emb.faces)
    if k == 3:
        return [(f, (), (f,)) for f in faces]
    dart_face = {}
    for idx, b in enumerate(faces):
        for i, u in enumerate(b):
            dart_face[(u, b[(i + 1) % 3])] = idx
    out = []
    if k == 4:
        for s, t in emb.edges():
            i1, i2 = dart_face[(s, t)], dart_face[(t, s)]
            merged = merge(faces[i1], faces[i2], s, t)
            if len(set(merged)) == 4:
                out.append((tuple(merged), ((s, t),), (faces[i1], faces[i2])))
        return out
    seen = set()
    for mid, b in enumerate(faces):
        sides = [(b[i], b[(i + 1) % 3]) for i in range(3)]
        for j1 in range(3):
            for j2 in range(j1 + 1, 3):
                (s1, t1), (s2, t2) = sides[j1], sides[j2]
                left, right = dart_face[(t1, s1)], dart_face[(t2, s2)]
                key = frozenset((mid, left, right))
                if left == right or key in seen:
                    continue
                seen.add(key)
                pent = merge(merge(b, faces[left], s1, t1), faces[right], s2, t2)
                if len(set(pent)) != 5:
                    continue
                chords = tuple(sorted((tuple(sorted(sides[j1])), tuple(sorted(sides[j2])))))
                out.append((tuple(pent), chords, (faces[left], b, faces[right])))
    return out


def scanning_degree_raising_flip(emb: PlanarEmbedding, p: int) -> FlipMove:
    """``_degree_raising_flip`` as it was when its chord phase scanned every
    edge of the embedding in sorted order; the reference for its move."""
    link = emb.rotation[p]
    d = len(link)
    for i in range(d):
        x, y = link[i], link[(i + 1) % d]
        w1, w2 = _face_apexes(emb, x, y)
        w = w2 if w1 == p else w1
        if w != p and w not in link:
            return FlipMove((x, y) if x < y else (y, x))
    for x, y in sorted(emb.edges()):
        if p in (x, y) or x not in link or y not in link:
            continue
        w1, w2 = _face_apexes(emb, x, y)
        if p in (w1, w2) or w1 == w2 or emb.has_edge(w1, w2):
            continue
        if (w1 != p and w1 not in link) or (w2 != p and w2 not in link):
            return FlipMove((x, y))
    raise StructuralError(f"no degree-raising flip available for vertex {p}")


def scanning_fan_flip(emb: PlanarEmbedding, p: int, q: int) -> FlipMove:
    """The fan phase's move, from a scan of every edge in sorted order: the
    smallest chord facing q whose ends and far face avoid p."""
    for x, y in sorted(emb.edges()):
        if p in (x, y) or q in (x, y):
            continue
        w1, w2 = _face_apexes(emb, x, y)
        if p not in (w1, w2) and q in (w1, w2):
            return FlipMove((x, y))
    raise StructuralError(f"no fan flip available toward vertex {q}")


def scanning_normalization(
    emb: PlanarEmbedding,
) -> tuple[PlanarEmbedding, list[FlipMove], Counter]:
    """``normalize_to_standard`` with every move picked by the full scans
    above, and its replacement read off the two faces at the move's edge:
    its result, its trace, and how many moves each phase picked ("link" and
    "chord" raise the pole, "fan" fans from the second pole)."""
    n = emb.n
    trace: list[FlipMove] = []
    phases: Counter = Counter()
    p = max(range(n), key=lambda v: (emb.degree(v), -v))
    while emb.degree(p) < n - 1:
        edge = scanning_degree_raising_flip(emb, p).shared_edge
        move = FlipMove(edge, tuple(sorted(_face_apexes(emb, *edge))))
        phases["link" if p in move.replacement else "chord"] += 1
        emb = diagonal_flip(emb, move)
        trace.append(move)
    q = max(emb.rotation[p], key=lambda v: (emb.degree(v), -v))
    while emb.degree(q) < n - 1:
        edge = scanning_fan_flip(emb, p, q).shared_edge
        move = FlipMove(edge, tuple(sorted(_face_apexes(emb, *edge))))
        phases["fan"] += 1
        emb = diagonal_flip(emb, move)
        trace.append(move)
    return emb, trace, phases


def cycles_of_length(emb: PlanarEmbedding, k: int) -> list[EberhardOp]:
    """The wheel insertions of ``eberhard_ops`` on cycles of length k."""
    return [op for op in eberhard_ops(emb) if len(op.cycle) == k]


def regions(ops) -> list[tuple]:
    return [(op.cycle, op.chords) for op in ops]


def assert_enumerators_agree(emb: PlanarEmbedding) -> None:
    """Same cycles and chords, in the same order."""
    want = [[(cyc, chords) for cyc, chords, _ in merge_walk_cycles(emb, k)] for k in (3, 4, 5)]
    for k, cycles in zip((3, 4, 5), want):
        assert regions(cycles_of_length(emb, k)) == cycles, (emb.rotation, k)
    assert regions(eberhard_ops(emb)) == [c for cycles in want for c in cycles]


def malformed_ops(emb: PlanarEmbedding, ops: list[EberhardOp], rng: random.Random):
    """Seeded corruptions of valid operations: each breaks one part of an op."""
    n = emb.n
    edges = list(emb.edges())
    for op in ops:
        cycle, chords = op.cycle, op.chords
        yield EberhardOp(cycle[::-1], chords)
        yield EberhardOp(cycle + (rng.randrange(n),), chords)
        bent = list(cycle)
        bent[rng.randrange(len(bent))] = rng.randrange(n + 1)
        yield EberhardOp(tuple(bent), chords)
        if chords:
            swapped = list(chords)
            swapped[rng.randrange(len(swapped))] = rng.choice(edges)
            yield EberhardOp(cycle, tuple(swapped))
            c = rng.choice(chords)
            twin = c if rng.random() < 0.5 else c[::-1]
            yield EberhardOp(cycle, (c, twin))
            yield EberhardOp(cycle)
        other = rng.choice(ops)
        yield EberhardOp(cycle, other.chords)
        yield EberhardOp(other.cycle, chords)


class TestPureChordCycles:
    def test_region_counts_on_five_vertices(self, p5):
        # One region per interior choice: 6 faces, 9 edge-pairs, 12 chains.
        assert len(cycles_of_length(p5, 3)) == 6
        assert len(cycles_of_length(p5, 4)) == 9
        assert len(cycles_of_length(p5, 5)) == 12

    def test_plane_relative_counts_on_five_vertices(self, p5):
        # Counted as vertex sets of bounded regions: 5, 4 and 1.
        assert len(pure_chord_cycle_sets(p5, 3, (0, 2, 1))) == 5
        assert len(pure_chord_cycle_sets(p5, 4, (0, 2, 1))) == 4
        assert len(pure_chord_cycle_sets(p5, 5, (0, 2, 1))) == 1

    def test_any_order_of_the_outer_face_gives_the_same_sets(self, p5):
        # Every rotation and reversal of each face's walk names that face.
        for face in p5.faces:
            orders = [face[i:] + face[:i] for i in range(3)]
            orders += [order[::-1] for order in orders]
            for k in (3, 4, 5):
                results = [pure_chord_cycle_sets(p5, k, order) for order in orders]
                assert all(result == results[0] for result in results), (face, k)

    def test_chord_counts(self, p5):
        for op in pure_chord_cycle_sets(p5, 4, (0, 2, 1)):
            assert len(op.chords) == 1
        (pent,) = pure_chord_cycle_sets(p5, 5, (0, 2, 1))
        assert len(pent.chords) == 2

    def test_region_chord_counts_by_length(self, p5):
        for k in (3, 4, 5):
            for op in cycles_of_length(p5, k):
                assert len(op.chords) == k - 3
                assert op.kind == f"phi{k - 2}"

    def test_k4_region_counts(self):
        emb = k4()
        assert len(cycles_of_length(emb, 3)) == 4
        assert len(cycles_of_length(emb, 4)) == 6
        assert len(cycles_of_length(emb, 5)) == 0

    def test_set_level_needs_outer_face(self, p5):
        # A 4-cycle of the drawing, or three vertices that bound no face, is
        # not a face.
        for outer in [(0, 1, 4, 2), (0, 2, 4), (0, 1, 2, 2)]:
            with pytest.raises(InputError, match="is not a face"):
                pure_chord_cycle_sets(p5, 3, outer)

    def test_bad_length_rejected(self, octahedron):
        # The length is checked first, even before the outer face.
        with pytest.raises(InputError, match="must be 3, 4 or 5, not 6"):
            pure_chord_cycle_sets(octahedron, 6, (0, 1, 2, 3))

    def test_lone_triangle_has_only_its_two_faces(self):
        # Both sides of a lone triangle are faces, so its cycle fixes no
        # region, and wheel insertions are refused below n = 4.
        triangle = PlanarEmbedding(((1, 2), (2, 0), (0, 1)))
        with pytest.raises(InputError, match="n >= 4"):
            eberhard_ops(triangle)
        for k in (3, 4, 5):
            with pytest.raises(InputError, match="n >= 4"):
                pure_chord_cycle_sets(triangle, k, (0, 1, 2))

    def test_set_counts_match_the_merge_walk_interiors_on_every_class(self, classes):
        # Each face in turn is the outer one; a region is dropped when one of
        # its interior faces is that face, and kept once per vertex set.
        for records in classes.values():
            for rec in records.values():
                emb = rec.embedding
                for face in emb.faces:
                    outer = frozenset(face)
                    for k in (3, 4, 5):
                        want: dict = {}
                        for cyc, chords, interior in merge_walk_cycles(emb, k):
                            if outer not in map(frozenset, interior):
                                want.setdefault(frozenset(cyc), (cyc, chords))
                        got = regions(pure_chord_cycle_sets(emb, k, face))
                        assert got == list(want.values()), (emb.rotation, face, k)

    def test_matches_the_merge_walk_enumerator_on_every_class(self, classes):
        for records in classes.values():
            for rec in records.values():
                assert_enumerators_agree(rec.embedding)

    def test_matches_the_merge_walk_enumerator_on_random_copies(self):
        # Growing with rng.choice passes through random_triangulation(m, seed)
        # for every m on the way, so this covers n = 9..80.
        rng, grow = random.Random(19), random.Random(1)
        emb = k4()
        while emb.n <= 80:
            if emb.n >= 9:
                assert_enumerators_agree(emb)
            if emb.n >= 9 and emb.n % 3 == 0:
                perm = list(range(emb.n))
                rng.shuffle(perm)
                relabeled = emb.relabel(perm)
                for copy in (emb.mirrored(), relabeled, relabeled.mirrored()):
                    assert_enumerators_agree(copy)
            emb = apply_eberhard(emb, grow.choice(eberhard_ops(emb)))


def from_scratch(emb: PlanarEmbedding) -> list[EberhardOp]:
    """The ops of a validated copy, whose table is built from scratch."""
    return eberhard_ops(PlanarEmbedding(emb.rotation))


def table_fields(table) -> tuple:
    """Every count a wheel table keeps, with the faces they belong to."""
    return table.faces, table.chains, table.edges, table.phi3, len(table)


def assert_indexes_agree(emb: PlanarEmbedding) -> None:
    """Op i of ``eberhard_ops`` is entry i of the list it iterates into."""
    ops = eberhard_ops(emb)
    listed = list(ops)
    assert len(ops) == len(listed)
    assert [ops[i] for i in range(len(ops))] == listed, emb.rotation
    assert ops[-1] == listed[-1] and ops[-len(ops)] == listed[0]
    assert ops[::17] == listed[::17] and ops[3:9] == listed[3:9]
    for i in (len(ops), -len(ops) - 1):
        with pytest.raises(IndexError):
            ops[i]


class TestWheelTable:
    @pytest.mark.parametrize("seed", [3, 17, 1009])
    def test_derived_tables_match_scratch_along_growth_chains(self, seed):
        rng = random.Random(seed)
        emb = k4()
        while emb.n < 300:
            # Every step after K4 derives its table from its parent's.
            assert emb.n == 4 or "_wheel_source" in emb.__dict__
            ops = eberhard_ops(emb)
            scratch = from_scratch(emb)
            assert table_fields(ops) == table_fields(scratch), (seed, emb.n)
            assert ops == scratch, (seed, emb.n)
            emb = apply_eberhard(emb, rng.choice(ops))

    def test_derived_tables_match_scratch_on_every_generated_class(self):
        for n in range(5, 10):
            for rec in generate_all(n).values():
                assert "_wheel_source" in rec.embedding.__dict__
                assert eberhard_ops(rec.embedding) == from_scratch(rec.embedding)

    def test_child_of_a_parent_without_a_table_builds_from_scratch(self):
        parent = random_triangulation(40, seed=5)
        for op in from_scratch(parent)[::17]:
            child = apply_eberhard(PlanarEmbedding(parent.rotation), op)
            assert "_wheel_source" not in child.__dict__
            assert eberhard_ops(child) == from_scratch(child)

    def test_mirrored_and_relabeled_copies_build_their_own_tables(self):
        rng = random.Random(8)
        emb = k4()
        while emb.n < 40:
            emb = apply_eberhard(emb, rng.choice(eberhard_ops(emb)))
        eberhard_ops(emb)
        perm = list(range(emb.n))
        rng.shuffle(perm)
        for copy in (emb.mirrored(), emb.relabel(perm), emb.relabel(perm).mirrored()):
            assert eberhard_ops(copy) == from_scratch(copy)

    def test_returned_views_are_read_only(self):
        emb = random_triangulation(30, seed=2)
        ops = eberhard_ops(emb)
        want = list(ops)
        with pytest.raises(TypeError):
            ops[1] = EberhardOp((0, 1, 2))
        with pytest.raises(TypeError):
            del ops[0]
        for mutator in ("append", "reverse", "sort", "clear"):
            assert not hasattr(ops, mutator)
        # ``list`` of the view is a fresh list each time.
        listed = list(ops)
        assert listed is not list(ops)
        listed.reverse()
        listed.append(listed[0])
        assert list(ops) == want and eberhard_ops(emb) == want
        # Deriving a child's table leaves the parent's view as it was.
        fields = [list(field) for field in table_fields(ops)[:3]]
        child = apply_eberhard(emb, want[len(want) // 2])
        assert eberhard_ops(child) == from_scratch(child)
        assert [list(field) for field in table_fields(ops)[:3]] == fields
        assert list(ops) == want and len(ops) == len(want)

    def test_indexes_match_iteration_on_every_generated_class(self):
        for records in generate_levels(9):
            for rec in records.values():
                assert_indexes_agree(rec.embedding)

    def test_indexes_match_iteration_on_mirrored_and_relabeled_copies(self):
        rng = random.Random(8)
        emb = k4()
        while emb.n < 40:
            emb = apply_eberhard(emb, rng.choice(eberhard_ops(emb)))
        perm = list(range(emb.n))
        rng.shuffle(perm)
        for copy in (emb, emb.mirrored(), emb.relabel(perm), emb.relabel(perm).mirrored()):
            assert_indexes_agree(copy)

    @pytest.mark.parametrize("seed", [5, 23, 1009])
    def test_random_choice_picks_the_listed_op_along_growth_chains(self, seed):
        # rng.choice reads one index of the view; a twin generator reading
        # the same index of the list must pick the same op at every step.
        rng, twin = random.Random(seed), random.Random(seed)
        emb = k4()
        while emb.n < 150:
            if emb.n % 10 == 0:
                assert_indexes_agree(emb)
            ops = eberhard_ops(emb)
            op = rng.choice(ops)
            assert op == twin.choice(list(ops)), (seed, emb.n)
            emb = apply_eberhard(emb, op)

    def test_no_ancestor_is_retained(self):
        rng = random.Random(4)
        emb = k4()
        refs = []
        for _ in range(40):
            refs.append(weakref.ref(emb))
            emb = apply_eberhard(emb, rng.choice(eberhard_ops(emb)))
        # Only the parent is held, until the child's table exists.
        assert [ref() is None for ref in refs] == [True] * 39 + [False]
        eberhard_ops(emb)
        assert all(ref() is None for ref in refs)

    def test_insertions_without_tables_hold_no_parent(self):
        emb = standard_form(30)
        ref = weakref.ref(emb)
        child = apply_eberhard(emb, EberhardOp((0, 1, 29)))
        del emb
        assert ref() is None and child.n == 31

    def test_standard_form_marks_the_face_of_its_first_three_vertices(self):
        # Every hub fills a face (0, 1, n - 1), so K4's face (0, 2, 1) stays:
        # the face the paper's plane-relative counts take as the outer one.
        for n in range(4, 61):
            emb = standard_form(n)
            assert [f for f in emb.faces if set(f) == {0, 1, 2}] == [(0, 2, 1)]

    def test_large_standard_form_needs_no_recursion(self):
        n = 2000
        kinds = Counter(op.kind for op in eberhard_ops(standard_form(n)))
        # Every face is the middle of three chains, except that each of the
        # three faces at either degree-3 vertex loses the chain around it.
        assert kinds == {"phi1": 2 * n - 4, "phi2": 3 * n - 6, "phi3": 3 * (2 * n - 4) - 6}


class TestIsTriangulation:
    @staticmethod
    def by_faces(emb: PlanarEmbedding) -> bool:
        return all(len(f) == 3 for f in emb.faces)

    def test_edge_count_matches_faces_on_every_class(self, classes):
        for records in classes.values():
            for rec in records.values():
                assert rec.embedding.is_triangulation() is self.by_faces(rec.embedding) is True

    def test_edge_count_matches_faces_on_small_graphs(self):
        for rotation in [((1,), (0,)), ((1,), (0, 2), (1,)), ((1, 2), (2, 0), (0, 1))]:
            emb = PlanarEmbedding(rotation)
            assert emb.is_triangulation() is self.by_faces(emb) is (emb.e == 3)

    def test_edge_count_matches_faces_on_pruned_triangulations(self):
        rng = random.Random(23)
        checked = Counter()
        for seed in range(8):
            emb = random_triangulation(rng.randint(5, 30), seed=seed)
            rot = [list(nbrs) for nbrs in emb.rotation]
            edges = list(emb.edges())
            rng.shuffle(edges)
            for u, v in edges:
                iu, iv = rot[u].index(v), rot[v].index(u)
                del rot[u][iu], rot[v][iv]
                try:
                    pruned = PlanarEmbedding(rot)
                except StructuralError:  # disconnected: put the edge back
                    rot[u].insert(iu, v)
                    rot[v].insert(iv, u)
                    continue
                assert pruned.is_triangulation() is self.by_faces(pruned)
                checked[pruned.is_triangulation()] += 1
        assert checked[False] > 100 and not checked[True], checked


class TestApplyEberhard:
    def test_k4_phi1_any_face_gives_the_unique_p5(self, p5):
        target = canonical_code(p5)
        emb = k4()
        for op in cycles_of_length(emb, 3):
            child = apply_eberhard(emb, op)
            assert child.n == 5 and child.e == 9
            assert canonical_code(child) == target

    def test_p5_phi3_gives_standard_form(self, p5):
        target = canonical_code(standard_form(6))
        for op in cycles_of_length(p5, 5):
            child = apply_eberhard(p5, op)
            assert canonical_code(child) == target

    def test_p5_phi2_reaches_both_six_vertex_forms(self, p5, octahedron):
        codes = {
            canonical_code(apply_eberhard(p5, op))
            for op in cycles_of_length(p5, 4)
        }
        assert codes == {canonical_code(standard_form(6)), canonical_code(octahedron)}

    def test_bookkeeping_adds_one_vertex_three_edges(self):
        emb = random_triangulation(9, seed=11)
        for op in eberhard_ops(emb):
            child = apply_eberhard(emb, op)
            assert (child.n, child.e) == (emb.n + 1, emb.e + 3)
            assert euler_check(child).is_triangulation
            assert sum(degree_sequence(child)) == 2 * child.e

    def test_new_vertex_forms_a_wheel(self, p5):
        op = cycles_of_length(p5, 5)[0]
        child = apply_eberhard(p5, op)
        hub = p5.n
        assert set(child.rotation[hub]) == set(op.cycle)

    def test_impure_cycle_rejected(self, octahedron):
        # A 3-cycle of the octahedron that is no face (there is none), and a
        # fabricated quad with the wrong chord.
        emb = standard_form(6)
        quad = next(iter(cycles_of_length(emb, 4)))
        with pytest.raises(OperationError):
            apply_eberhard(emb, EberhardOp(quad.cycle))

    def test_wrong_chord_count_rejected(self, p5):
        tri = cycles_of_length(p5, 3)[0]
        quad = cycles_of_length(p5, 4)[0]
        # On p5 every 5-cycle has two chords on each side.  Deleting one more
        # from the far side still leaves the cycle bounding exactly one face,
        # so only the chord count stops this op.
        pent = cycles_of_length(p5, 5)[0]
        cycle_sides = {frozenset(s) for s in zip(pent.cycle, pent.cycle[1:] + pent.cycle[:1])}
        far = next(
            e for e in p5.edges()
            if frozenset(e) not in cycle_sides and e not in pent.chords
        )
        for op in (
            EberhardOp(tri.cycle, quad.chords),
            EberhardOp(quad.cycle),
            EberhardOp(pent.cycle, pent.chords + (far,)),
        ):
            with pytest.raises(OperationError, match="exactly"):
                apply_eberhard(p5, op)

    @pytest.mark.parametrize("cycle", [(0, 1), (0, 1, 2, 3, 4, 0), (0, 1, 0)])
    def test_cycle_of_three_to_five_distinct_vertices_required(self, p5, cycle):
        with pytest.raises(OperationError, match="3 to 5 distinct"):
            apply_eberhard(p5, EberhardOp(cycle))

    def test_nonadjacent_cycle_rejected(self):
        with pytest.raises(OperationError, match="not adjacent"):
            apply_eberhard(standard_form(6), EberhardOp((0, 2, 4)))

    def test_cycle_vertex_outside_the_embedding_rejected(self):
        # Named before any adjacency lookup, also when replayed from a trace.
        with pytest.raises(OperationError, match="cycle vertex 7 is outside 0..5"):
            apply_eberhard(standard_form(6), EberhardOp((7, 0, 1)))
        with pytest.raises(OperationError, match="cycle vertex 4 is outside 0..3"):
            apply_trace(k4(), [EberhardOp((4, 0, 1))])
        with pytest.raises(OperationError, match="cycle vertex -1 is outside"):
            apply_eberhard(k4(), EberhardOp((-1, 0, 1)))

    @pytest.mark.parametrize("cycle", [("a", 1, 2), (0, 1, 2.0), (0, True, 2), ([0], 1, 2)])
    def test_cycle_vertex_that_is_not_an_int_rejected(self, cycle):
        # Named before the cycle's vertices are hashed or looked up.
        with pytest.raises(OperationError, match="cycle vertex .* is outside 0..3"):
            apply_eberhard(k4(), EberhardOp(cycle))
        with pytest.raises(OperationError, match="is outside"):
            apply_trace(k4(), [EberhardOp(cycle)])

    @pytest.mark.parametrize(
        "op",
        [EberhardOp(5), EberhardOp((0, 1, 2), 5), EberhardOp({0, 1, 2}), EberhardOp(range(3)),
         EberhardOp((0, 1, 2, 3), ((0, 2, 1),)), EberhardOp((0, 1, 2, 3), (0,))],
    )
    def test_op_fields_of_the_wrong_shape_rejected(self, p5, op):
        with pytest.raises(OperationError, match="needs a cycle sequence and vertex pairs"):
            apply_eberhard(p5, op)
        with pytest.raises(OperationError, match="needs a cycle sequence and vertex pairs"):
            apply_trace(p5, [op])

    @pytest.mark.parametrize("kind", [float, bool, str])
    def test_chord_vertex_that_is_not_an_int_rejected(self, p5, kind):
        # 1.0 and True equal the cycle vertex 1, so only their type refuses them.
        quad = next(op for op in cycles_of_length(p5, 4) if 1 in op.chords[0])
        chord = tuple(kind(x) if x == 1 else x for x in quad.chords[0])
        with pytest.raises(OperationError, match="is not an interior edge"):
            apply_eberhard(p5, EberhardOp(quad.cycle, (chord,)))

    def test_cycle_bounding_two_faces_rejected(self):
        # Both sides of a lone triangle are faces, so the cycle fixes no region.
        triangle = PlanarEmbedding(((1, 2), (0, 2), (0, 1)))
        with pytest.raises(OperationError, match="pure chord-cycle"):
            apply_eberhard(triangle, EberhardOp((0, 1, 2)))

    @pytest.mark.parametrize(
        "rotation, op",
        [
            # A square 0123 with the chord 02 and an ear 4 on the side 01.
            # Once the chord is gone, the outer walk 0, 3, 2, 1, 4 opens with
            # the cycle's vertices, but only the square is a 4-face on them.
            (
                ((1, 2, 3, 4), (0, 4, 2), (0, 1, 3), (0, 2), (0, 1)),
                EberhardOp((0, 1, 2, 3), ((0, 2),)),
            ),
            # Two triangles joined at 0: the outer walk 0, 1, 2, 0, 3, 4 is
            # back at 0 after three steps, but leaves it on another dart.
            (
                ((1, 4, 3, 2), (0, 2), (0, 1), (0, 4), (0, 3)),
                EberhardOp((0, 1, 2)),
            ),
        ],
    )
    def test_walk_prefix_on_the_cycle_vertices_is_no_match(self, rotation, op):
        emb = PlanarEmbedding(rotation)
        got = apply_eberhard(emb, op)
        assert got == validating_apply_eberhard(emb, op)
        assert set(got.rotation[emb.n]) == set(op.cycle)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_repeated_chord_rejected(self, reverse):
        emb = random_triangulation(8, seed=1)
        op = next(op for op in eberhard_ops(emb) if op.kind == "phi3")
        c = op.chords[0]
        with pytest.raises(OperationError, match="repeated"):
            apply_eberhard(emb, EberhardOp(op.cycle, (c, c[::-1] if reverse else c)))

    def test_matches_the_validating_version_on_every_op(self):
        rng = random.Random(5)
        outcomes = Counter()
        for n in range(4, 13):
            for seed in range(4):
                emb = random_triangulation(n, seed=seed)
                ops = eberhard_ops(emb)
                for op in [*ops, *malformed_ops(emb, ops, rng)]:
                    try:
                        want = validating_apply_eberhard(emb, op)
                    except Exception as exc:
                        want = exc
                    try:
                        got = apply_eberhard(emb, op)
                    except Exception as exc:
                        got = exc
                    if isinstance(want, PlanarEmbedding):
                        assert got == want, op
                        outcomes["same rotation"] += 1
                    elif type(want) is ValueError:
                        # The old version crashed in list.remove on a repeated chord.
                        assert isinstance(got, OperationError), op
                        assert "repeated" in str(got), op
                        outcomes["repeated chord"] += 1
                    elif type(want) is IndexError:
                        # ... and in has_edge on a cycle vertex past n - 1.
                        assert isinstance(got, OperationError), op
                        assert "outside" in str(got), op
                        outcomes["vertex outside"] += 1
                    else:
                        assert type(got) is type(want), (op, want, got)
                        outcomes[type(want).__name__] += 1
        kinds = {"same rotation", "repeated chord", "OperationError", "vertex outside"}
        assert set(outcomes) == kinds and min(outcomes.values()) > 50, outcomes

    def test_matches_the_validating_version_on_pruned_embeddings(self):
        # Off triangulations, faces are longer than the cycle and may pass a
        # vertex twice, which is where a walk cut off after k steps could err.
        # Every cycle of length 3-5 with every admissible chord choice.
        rng = random.Random(31)
        outcomes = Counter()
        for seed in range(40):
            emb = random_triangulation(rng.randint(5, 8), seed=seed)
            rot = [list(nbrs) for nbrs in emb.rotation]
            edges = list(emb.edges())
            rng.shuffle(edges)
            for u, v in edges[: rng.randint(1, len(edges) // 2)]:
                iu, iv = rot[u].index(v), rot[v].index(u)
                del rot[u][iu], rot[v][iv]
                try:
                    PlanarEmbedding(rot)
                except StructuralError:  # disconnected: put the edge back
                    rot[u].insert(iu, v)
                    rot[v].insert(iv, u)
            pruned = PlanarEmbedding(rot)
            for k in (3, 4, 5):
                for cyc in itertools.permutations(range(pruned.n), k):
                    sides = {frozenset((cyc[i - 1], cyc[i])) for i in range(k)}
                    if cyc[0] != min(cyc) or not all(pruned.has_edge(*e) for e in sides):
                        continue
                    inner = [
                        c for c in itertools.combinations(sorted(cyc), 2)
                        if pruned.has_edge(*c) and frozenset(c) not in sides
                    ]
                    for chords in itertools.combinations(inner, k - 3):
                        op = EberhardOp(cyc, chords)
                        try:
                            want = validating_apply_eberhard(pruned, op)
                        except OperationError:
                            want = None
                        try:
                            got = apply_eberhard(pruned, op)
                        except OperationError:
                            got = None
                        assert got == want, (pruned.rotation, op)
                        outcomes[want is None] += 1
        assert min(outcomes.values()) > 500, outcomes


class TestFlipScans:
    @staticmethod
    def outcome(pick, *args):
        try:
            return pick(*args)
        except StructuralError as exc:
            return type(exc)

    def test_degree_raising_flip_matches_the_full_scan(self, classes):
        # Every vertex below degree n - 1 of every class up to n = 8, then the
        # whole flip path that raises one of several poles of a random
        # triangulation to degree n - 1, which reaches the chord phase.
        def check(emb: PlanarEmbedding, p: int):
            # The scan's edge, or its failure; the move also names the edge
            # joining the apexes of the two faces at that edge.
            want = self.outcome(scanning_degree_raising_flip, emb, p)
            if isinstance(want, FlipMove):
                edge = want.shared_edge
                want = FlipMove(edge, tuple(sorted(_face_apexes(emb, *edge))))
            assert self.outcome(_degree_raising_flip, emb, p) == want, (emb.rotation, p)
            return want

        for recs in classes.values():
            for rec in recs.values():
                emb = rec.embedding
                for p in range(emb.n):
                    if emb.degree(p) < emb.n - 1:
                        check(emb, p)
        chord_moves = 0
        for n in range(9, 61, 2):
            for p in range(0, n, 6):
                emb = random_triangulation(n, seed=n)
                while emb.degree(p) < n - 1:
                    move = check(emb, p)
                    chord_moves += p not in _face_apexes(emb, *move.shared_edge)
                    emb = diagonal_flip(emb, move)
        assert chord_moves > 100, chord_moves

    def test_fan_flip_matches_the_full_scan(self):
        # The fan phase of normalization, after the raising phase, on the way
        # to the standard form.
        fan_moves = 0
        for n in range(6, 61, 3):
            emb = random_triangulation(n, seed=n)
            want, trace, phases = scanning_normalization(emb)
            assert normalize_to_standard(emb) == (want, trace), n
            fan_moves += phases["fan"]
        assert fan_moves > 300, fan_moves

    def test_normalization_matches_the_full_scans(self):
        # The whole flip path: every class up to n = 9, then random
        # triangulations whose raising phases reach the chord phase.
        for records in generate_levels(9):
            for rec in records.values():
                want, trace, _ = scanning_normalization(rec.embedding)
                assert normalize_to_standard(rec.embedding) == (want, trace), rec.trace
        phases: Counter = Counter()
        for n in range(10, 151, 10):
            for seed in range(3):
                emb = random_triangulation(n, seed=seed)
                want, trace, used = scanning_normalization(emb)
                assert normalize_to_standard(emb) == (want, trace), (n, seed)
                phases += used
        assert min(phases["link"], phases["fan"]) > 1000 and phases["chord"] > 30, phases


class TestDiagonalFlip:
    def test_flip_replaces_shared_edge_with_opposite_diagonal(self, p5):
        move = legal_flips(p5)[0]
        a, c = move.shared_edge
        b, d = move.replacement
        flipped = diagonal_flip(p5, move)
        assert not flipped.has_edge(a, c)
        assert flipped.has_edge(b, d)
        assert euler_check(flipped).is_triangulation

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

    @pytest.mark.parametrize("edge", [("a", 1), (0, 1.0), (True, 2), (0, -3)])
    def test_flip_of_a_non_integer_pair_rejected(self, edge):
        with pytest.raises(OperationError, match="is not an edge"):
            diagonal_flip(k4(), FlipMove(edge))
        with pytest.raises(OperationError, match="is not an edge"):
            apply_trace(k4(), [FlipMove(edge)])

    @pytest.mark.parametrize("shared, replacement", [((0, 1, 2), None), (5, None), (None, None)])
    def test_flip_fields_of_the_wrong_shape_rejected(self, shared, replacement):
        with pytest.raises(OperationError, match="needs vertex pairs"):
            diagonal_flip(k4(), FlipMove(shared, replacement))

    def test_replacement_of_the_wrong_shape_or_type_rejected(self, p5):
        move = legal_flips(p5)[0]
        p, q = move.replacement
        for replacement in (5, (p, q, p), (float(p), q), (p, float(q))):
            with pytest.raises(OperationError, match="needs vertex pairs|does not match"):
                diagonal_flip(p5, FlipMove(move.shared_edge, replacement))
        assert diagonal_flip(p5, FlipMove(move.shared_edge, (q, p))) == diagonal_flip(p5, move)

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


class TestStructureSharing:
    """A child keeps every rotation entry it does not touch as its parent's
    own tuple."""

    @staticmethod
    def rebuilt(parent: PlanarEmbedding, child: PlanarEmbedding) -> list[int]:
        return [
            v for v, nbrs in enumerate(child.rotation)
            if v >= parent.n or nbrs is not parent.rotation[v]
        ]

    def test_insertion_rebuilds_only_the_wheel(self):
        for n in (4, 5, 12, 40):
            emb = random_triangulation(n, seed=n)
            for op in eberhard_ops(emb):
                child = apply_eberhard(emb, op)
                assert self.rebuilt(emb, child) == sorted(op.cycle) + [emb.n], op
                assert child.e == emb.e + 3

    def test_flip_rebuilds_only_its_four_vertices(self):
        for n in (5, 12, 40):
            emb = random_triangulation(n, seed=n)
            for move in legal_flips(emb):
                child = diagonal_flip(emb, move)
                assert self.rebuilt(emb, child) == sorted(move.shared_edge + move.replacement)
                assert child.e == emb.e


@pytest.fixture
def audited(monkeypatch):
    """Rebuild every trusted construction through the validating constructor.

    Yields a counter of the trusted constructions made, keyed by the name of
    the function that made them.
    """
    made: Counter = Counter()
    trusted = PlanarEmbedding._trusted.__func__

    def checked(cls, rotation, labels=None):
        # _trusted stores its arguments as given: they must be the stored shape.
        assert type(rotation) is tuple
        assert all(type(nbrs) is tuple and nbrs[0] == min(nbrs) for nbrs in rotation)
        assert labels is None or type(labels) is tuple
        emb = trusted(cls, rotation, labels)
        rebuilt = PlanarEmbedding(emb.rotation, labels=emb.labels)
        assert rebuilt.rotation == emb.rotation
        assert rebuilt.labels == emb.labels
        made[sys._getframe(1).f_code.co_name] += 1
        return emb

    monkeypatch.setattr(PlanarEmbedding, "_trusted", classmethod(checked))
    return made


class TestApplyTrace:
    @pytest.mark.parametrize("n", [8, 40, 150])
    def test_replays_a_normalization_trace(self, n):
        emb = random_triangulation(n, seed=n)
        normalized, trace = normalize_to_standard(emb)
        assert apply_trace(emb, trace) == normalized

    def test_replays_a_mixed_trace(self):
        seed = standard_form(6)
        op = eberhard_ops(seed)[0]
        cur = apply_eberhard(seed, op)
        trace = [op]
        for _ in range(3):
            move = legal_flips(cur)[-1]
            cur = diagonal_flip(cur, move)
            trace.append(move)
        assert apply_trace(seed, trace) == cur

    def test_foreign_step_rejected(self):
        with pytest.raises(InputError, match="foreign"):
            apply_trace(k4(), [(0, 1)])


class TestNonTriangulationRefusals:
    def test_wheel_insertions_and_flips_need_a_triangulation(self, chorded_square):
        with pytest.raises(StructuralError):
            eberhard_ops(chorded_square)
        with pytest.raises(StructuralError):
            legal_flips(chorded_square)

    @pytest.mark.parametrize("edge", [(0, 1), (1, 2), (2, 3), (0, 3)])
    def test_flip_beside_the_quad_rejected(self, chorded_square, edge):
        with pytest.raises(StructuralError, match="not both triangles"):
            diagonal_flip(chorded_square, FlipMove(edge))

    def test_standard_form_and_normalization_need_four_vertices(self):
        with pytest.raises(InputError):
            standard_form(3)
        with pytest.raises(InputError):
            normalize_to_standard(PlanarEmbedding(((1, 2), (0, 2), (0, 1))))


class TestTrustedConstruction:
    def test_closures_build_only_valid_embeddings(self, audited):
        rng = random.Random(3)
        for n in range(4, 9):
            for rec in generate_all(n).values():
                emb = rec.embedding
                perm = list(range(n))
                rng.shuffle(perm)
                labels = [f"v{v}" for v in range(n)]
                labeled = PlanarEmbedding(emb.rotation, labels)
                labeled.relabel(perm).mirrored()
            flip_closure(n)
        # standard_form returns its last wheel insertion as it is.
        assert set(audited) == {
            "apply_eberhard", "diagonal_flip", "relabel", "mirrored"
        }, audited

    def test_normalization_builds_only_valid_embeddings(self, audited):
        emb = random_triangulation(40, seed=9)
        audited.clear()
        normalize_to_standard(emb)
        assert audited["diagonal_flip"] > 40, audited

    def test_large_embeddings_build_only_valid_embeddings(self, audited):
        # Large rotations reuse most of their parent's tuples, so a reused or
        # mirrored entry that is not canonical shows up here.
        emb = random_triangulation(60, seed=29)
        assert audited["apply_eberhard"] >= 56, audited
        normalize_to_standard(emb)
        assert audited["diagonal_flip"] > 60, audited
        emb.mirrored()
        assert audited["mirrored"] == 1, audited

    def test_pmfg_build_is_a_valid_embedding(self, audited):
        rng = np.random.default_rng(40)
        table = rng.normal(size=(120, 40)) + 0.5 * rng.normal(size=(120, 1))
        sim = correlation_from_returns(table, [f"S{i:02d}" for i in range(40)])
        result = build_pmfg(sim)
        assert audited == {"build_pmfg": 1}, audited
        assert result.embedding.labels == tuple(sim.labels)


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
        embeddings += [rec.embedding for rec in generate_all(9).values()]
        assert len(embeddings) == sum(CLASS_COUNTS[n] for n in range(4, 10))
        for emb in embeddings:
            assert canonical_code(emb) == reference_code(emb)

    def test_bytes_match_exhaustive_reference_on_random_copies(self):
        rng = random.Random(2007)
        for n in range(10, 41, 3):
            emb = random_triangulation(n, seed=n)
            perm = list(range(n))
            rng.shuffle(perm)
            for copy in (emb, emb.relabel(perm), emb.relabel(perm).mirrored()):
                assert canonical_code(copy) == reference_code(copy), n

    def test_automorphisms_carry_each_rotation_onto_its_image(self, classes):
        for records in classes.values():
            for rec in records.values():
                emb = rec.embedding
                code, auts = _canonical_search(emb.rotation)
                assert code == rec.code
                assert auts[0] == tuple(range(emb.n))
                for aut in auts:
                    assert sorted(aut) == list(range(emb.n)), aut
                    assert orientation(emb, aut) is not None, (emb.rotation, aut)

    def test_group_orders_match_a_brute_force_count(self, classes):
        _, auts = _canonical_search(k4().rotation)
        assert len(auts) == 24
        _, auts = _canonical_search(standard_form(5).rotation)
        assert len(auts) == 12
        orders = Counter()
        for records in classes.values():
            for rec in records.values():
                _, auts = _canonical_search(rec.embedding.rotation)
                assert len(set(auts)) == len(auts)
                assert len(auts) == brute_automorphism_count(rec.embedding), rec.code
                orders[len(auts)] += 1
        assert orders[1] and len(orders) > 4, orders

    def test_half_the_symmetries_reverse_the_orientation_or_none(self, classes):
        senses = Counter()
        for records in classes.values():
            for rec in records.values():
                emb = rec.embedding
                _, auts = _canonical_search(emb.rotation)
                reversing = sum(orientation(emb, aut) == -1 for aut in auts)
                assert 2 * reversing in (0, len(auts)), rec.code
                senses[reversing > 0] += 1
        assert senses[True] and senses[False], senses
        # The octahedron's 48 symmetries: 24 rotations and 24 reflections.
        octahedron = next(
            rec.embedding for rec in classes[6].values()
            if degree_sequence(rec.embedding) == [4] * 6
        )
        _, auts = _canonical_search(octahedron.rotation)
        assert Counter(orientation(octahedron, aut) for aut in auts) == {1: 24, -1: 24}

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
        assert len(generate_all(10, ceiling=10)) == 233

    @pytest.mark.parametrize("n", [*range(4, 10), pytest.param(10, marks=pytest.mark.slow)])
    def test_orbit_pruning_matches_the_unpruned_loop(self, n):
        # Same classes in the same order, the same first-found traces and
        # rotations, and every op reported with the same deltas.
        want_calls, got_calls = Counter(), Counter()
        want = unpruned_generate_all(n, lambda *call: want_calls.update([call]))
        got = generate_all(n, ceiling=n, on_application=lambda *call: got_calls.update([call]))
        assert list(got) == list(want)
        for code, rec in want.items():
            assert got[code].trace == rec.trace
            assert got[code].embedding.rotation == rec.embedding.rotation
        assert got_calls == want_calls

    def test_one_application_per_orbit(self, monkeypatch):
        # 1,216 ops reach n = 9; 463 are distinct up to their parent's symmetries.
        applied, reported = [], []
        apply = pmfg.generator.apply_eberhard
        monkeypatch.setattr(
            pmfg.generator, "apply_eberhard", lambda emb, op: applied.append(op) or apply(emb, op)
        )
        generate_all(9, on_application=lambda *call: reported.append(call))
        assert (len(applied), len(reported)) == (463, 1216)

    def test_no_clique_audit_without_a_callback(self, monkeypatch):
        censuses = []
        count = pmfg.generator.count_cliques
        monkeypatch.setattr(
            pmfg.generator, "count_cliques", lambda emb: censuses.append(emb) or count(emb)
        )
        assert len(generate_all(9)) == 50
        assert censuses == []

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [10, 11])
    def test_closures_agree_beyond_the_fast_tier(self, n):
        codes = set(generate_all(n, ceiling=n))
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
                    assert euler_check(replay).is_triangulation
                assert replay == normalized

    def test_every_flip_goes_through_diagonal_flip(self, monkeypatch):
        # The grow-normalize benchmark counts normalization's flips as calls
        # of the module-level diagonal_flip.
        calls = []
        flip = pmfg.generator.diagonal_flip

        def counted(emb, move):
            calls.append(move)
            return flip(emb, move)

        monkeypatch.setattr(pmfg.generator, "diagonal_flip", counted)
        _, trace = normalize_to_standard(random_triangulation(80, seed=5))
        assert calls == trace and len(trace) > 0

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
