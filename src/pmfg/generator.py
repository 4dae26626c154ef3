"""Generation and transformation of sphere triangulations.

Three families of machinery live here:

* wheel-insertion operations that grow a triangulation by one vertex:
  delete the chords of a pure chord-cycle of length 3, 4 or 5 and join a
  new hub vertex to every cycle vertex (Eberhard's operations);
* diagonal flips, which exchange the shared edge of two adjacent triangles
  for the opposite diagonal, and a normalization procedure that flips any
  triangulation into the standard spherical form;
* an orientation-aware canonical code used to deduplicate triangulations
  up to graph isomorphism, and the two exhaustive closures built on it.

All rotation surgery follows the face convention of ``PlanarEmbedding``:
rotations are counter-clockwise and the face walk turns onto the neighbor
immediately preceding the arrival vertex.  Consequently a new hub is spliced
into each boundary rotation directly before the walk's arrival neighbor,
and its own rotation is the boundary walk itself.
"""

from __future__ import annotations

import functools
import random
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .cliques import count_cliques
from .embedding import CycleRef, Edge, PlanarEmbedding
from .errors import (
    CeilingError,
    FlipForbiddenError,
    InputError,
    OperationError,
    StructuralError,
    VerificationFailure,
)

GENERATION_CEILING = 10

# Known isomorphism-class counts of n-vertex sphere triangulations, used for
# refusal messages when a closure ceiling is exceeded.
CLASS_COUNTS = {
    4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50,
    10: 233, 11: 1249, 12: 7595, 13: 49566, 14: 339722,
}

_KIND_TO_LENGTH = {"phi1": 3, "phi2": 4, "phi3": 5}
_LENGTH_TO_KIND = {3: "phi1", 4: "phi2", 5: "phi3"}


@dataclass(frozen=True)
class EberhardOp:
    """One wheel-insertion step: kind phi1/phi2/phi3 acting on a cycle."""

    kind: str
    cycle: CycleRef
    new_vertex: int | None = None


@dataclass(frozen=True)
class FlipMove:
    """A diagonal flip: ``shared_edge`` is removed, ``replacement`` inserted.

    ``replacement`` may be left None; it is then derived from the embedding
    at application time and exists mostly for logging and validation.
    """

    shared_edge: Edge
    replacement: Edge | None = None


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Isomorphism-class key of a triangulation (reflection included)."""

    code: bytes

    def hex(self) -> str:
        return self.code.hex()

    def __repr__(self) -> str:
        return f"CanonicalCode({self.code.hex()})"


@dataclass(frozen=True)
class GenerationRecord:
    """A triangulation plus the operation trace that produced it from K4."""

    embedding: PlanarEmbedding
    trace: tuple[EberhardOp, ...]
    code: CanonicalCode


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------


def k4() -> PlanarEmbedding:
    """The tetrahedron, seed of all generation."""
    return PlanarEmbedding(((1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 1, 2)))


def standard_form(n: int) -> PlanarEmbedding:
    """The standard spherical triangulation on n vertices.

    Two poles (vertices 0 and 1) are adjacent to everything; the remaining
    vertices form a path, giving degrees [n-1, n-1, 4, ..., 4, 3, 3].  Built
    by repeatedly inserting a hub into a face containing both poles.  The
    face {0, 1, 2} is marked as the unbounded one for plane-relative counts.
    """
    if n < 4:
        raise InputError("standard form is defined for n >= 4")
    emb = k4()
    while emb.n < n:
        last = emb.n - 1
        target = frozenset((0, 1, last))
        face = next(f for f in emb.faces if f.vertex_set == target)
        op = EberhardOp("phi1", CycleRef(face.boundary), emb.n)
        emb = apply_eberhard(emb, op)
    outer = next(f for f in emb.faces if f.vertex_set == frozenset((0, 1, 2)))
    return PlanarEmbedding(emb.rotation, outer_face=outer.boundary)


# ----------------------------------------------------------------------
# Pure chord-cycles
# ----------------------------------------------------------------------


def _rotate_to_wrap(walk: Sequence[int], s: int, t: int) -> list[int]:
    """Rotate a closed walk so it ends at s and wraps on the dart s -> t."""
    m = len(walk)
    for i in range(m):
        if walk[i] == s and walk[(i + 1) % m] == t:
            return list(walk[i + 1:]) + list(walk[: i + 1])
    raise OperationError(f"walk {walk} has no dart {s} -> {t}")


def _merge_walks(w1: Sequence[int], w2: Sequence[int], s: int, t: int) -> list[int]:
    """Glue two face walks along the edge st; w1 holds s -> t, w2 holds t -> s."""
    a = _rotate_to_wrap(w1, s, t)
    b = _rotate_to_wrap(w2, t, s)
    return a + b[1:-1]


def find_pure_chord_cycles(emb: PlanarEmbedding, k: int) -> list[CycleRef]:
    """All pure chord-cycles of length k, one per interior-region choice.

    A region with no interior vertices and all faces triangular is composed
    of k - 2 faces, so regions are enumerated directly from face adjacency:
    single faces (k=3), pairs of faces sharing an edge (k=4), and chains of
    three faces glued along two distinct edges of the middle one (k=5).
    A boundary cycle that can be filled from both sides appears once per
    side, with the chords of that side.
    """
    if k not in (3, 4, 5):
        raise InputError(f"pure chord-cycle length must be 3, 4 or 5, not {k}")
    if not emb.is_triangulation():
        raise StructuralError("pure chord-cycle search requires a triangulation")
    faces = emb.faces
    if k == 3:
        return [
            CycleRef(f.boundary, (), (f.boundary,)) for f in faces
        ]
    dart_face: dict[Edge, int] = {}
    for idx, f in enumerate(faces):
        b = f.boundary
        for i, u in enumerate(b):
            dart_face[(u, b[(i + 1) % len(b)])] = idx
    out: list[CycleRef] = []
    if k == 4:
        for s, t in emb.edges():
            i1, i2 = dart_face[(s, t)], dart_face[(t, s)]
            merged = _merge_walks(faces[i1].boundary, faces[i2].boundary, s, t)
            if len(set(merged)) != 4:
                continue
            out.append(
                CycleRef(
                    tuple(merged),
                    chords=((s, t),),
                    interior_faces=(faces[i1].boundary, faces[i2].boundary),
                )
            )
        return out
    seen_regions: set[frozenset[int]] = set()
    for mid, f in enumerate(faces):
        b = f.boundary
        sides = [(b[i], b[(i + 1) % 3]) for i in range(3)]
        for j1 in range(3):
            for j2 in range(j1 + 1, 3):
                s1, t1 = sides[j1]
                s2, t2 = sides[j2]
                left = dart_face[(t1, s1)]
                right = dart_face[(t2, s2)]
                if left == right:
                    continue
                key = frozenset((mid, left, right))
                if key in seen_regions:
                    continue
                seen_regions.add(key)
                quad = _merge_walks(b, faces[left].boundary, s1, t1)
                pent = _merge_walks(quad, faces[right].boundary, s2, t2)
                if len(set(pent)) != 5:
                    continue
                c1 = (s1, t1) if s1 < t1 else (t1, s1)
                c2 = (s2, t2) if s2 < t2 else (t2, s2)
                out.append(
                    CycleRef(
                        tuple(pent),
                        chords=tuple(sorted((c1, c2))),
                        interior_faces=(
                            faces[left].boundary,
                            b,
                            faces[right].boundary,
                        ),
                    )
                )
    return out


def pure_chord_cycle_sets(
    emb: PlanarEmbedding, k: int, *, outer_face: Sequence[int] | None = None
) -> list[CycleRef]:
    """Pure chord-cycles counted the way a plane drawing counts them.

    Relative to a distinguished unbounded face, only regions on the bounded
    side qualify as interiors, and cycles are identified by vertex set.  This
    is the counting that yields 5, 4 and 1 cycles of lengths 3, 4, 5 for the
    unique 5-vertex triangulation.
    """
    outer = outer_face if outer_face is not None else emb.outer_face
    if outer is None:
        raise InputError("set-level counting needs a distinguished outer face")
    outer_set = frozenset(outer)
    by_set: dict[frozenset[int], CycleRef] = {}
    for ref in find_pure_chord_cycles(emb, k):
        assert ref.interior_faces is not None
        if any(frozenset(f) == outer_set for f in ref.interior_faces):
            continue
        by_set.setdefault(ref.vertex_set, ref)
    return list(by_set.values())


def eberhard_ops(emb: PlanarEmbedding) -> list[EberhardOp]:
    """Every wheel-insertion applicable to the triangulation."""
    ops: list[EberhardOp] = []
    for k in (3, 4, 5):
        kind = _LENGTH_TO_KIND[k]
        for ref in find_pure_chord_cycles(emb, k):
            ops.append(EberhardOp(kind, ref, emb.n))
    return ops


# ----------------------------------------------------------------------
# Applying operations
# ----------------------------------------------------------------------


def apply_eberhard(emb: PlanarEmbedding, op: EberhardOp) -> PlanarEmbedding:
    """Delete the cycle's chords and join a new hub to every cycle vertex.

    The result is a triangulation on n + 1 vertices containing a wheel on
    the cycle; the edge count rises by exactly 3 for each of phi1/phi2/phi3.
    """
    if op.kind not in _KIND_TO_LENGTH:
        raise InputError(f"unknown operation kind {op.kind!r}")
    k = _KIND_TO_LENGTH[op.kind]
    cyc = op.cycle
    verts = cyc.vertices
    if len(verts) != k or len(set(verts)) != k:
        raise OperationError(f"{op.kind} needs a cycle of {k} distinct vertices")
    if len(cyc.chords) != k - 3:
        raise OperationError(f"{op.kind} needs exactly {k - 3} chords")
    if op.new_vertex not in (None, emb.n):
        raise OperationError(f"new vertex id must be {emb.n}")
    for i, u in enumerate(verts):
        v = verts[(i + 1) % k]
        if not emb.has_edge(u, v):
            raise OperationError(f"cycle vertices {u}, {v} are not adjacent")
    cycle_set = frozenset(verts)
    rot = [list(nbrs) for nbrs in emb.rotation]
    for u, v in cyc.chords:
        if not {u, v} <= cycle_set or not emb.has_edge(u, v):
            raise OperationError(f"chord ({u}, {v}) is not an interior edge")
        rot[u].remove(v)
        rot[v].remove(u)
    interior = PlanarEmbedding(rot)
    matches = [
        f for f in interior.faces if f.degree == k and f.vertex_set == cycle_set
    ]
    if len(matches) != 1:
        raise OperationError(
            f"cycle {verts} with chords {cyc.chords} is not a pure chord-cycle"
        )
    walk = matches[0].boundary
    hub = emb.n
    rot = [list(nbrs) for nbrs in interior.rotation]
    rot.append(list(walk))
    for i, v in enumerate(walk):
        arrival = walk[i - 1]
        rot[v].insert(rot[v].index(arrival), hub)
    return PlanarEmbedding(rot)


def _face_apexes(emb: PlanarEmbedding, x: int, y: int) -> tuple[int, int]:
    """Apexes of the two faces incident to edge xy (dart x->y side first)."""
    rx, ry = emb.rotation[x], emb.rotation[y]
    return (ry[ry.index(x) - 1], rx[rx.index(y) - 1])


def diagonal_flip(emb: PlanarEmbedding, move: FlipMove) -> PlanarEmbedding:
    """Replace the shared edge of two adjacent triangles by the other diagonal.

    Forbidden when the replacement edge already exists, since the result
    would carry a multiple edge.  Flipping the replacement edge of the result
    restores the original embedding exactly.
    """
    a, c = move.shared_edge
    if not (0 <= a < emb.n and 0 <= c < emb.n) or not emb.has_edge(a, c):
        raise OperationError(f"({a}, {c}) is not an edge")
    p, q = _face_apexes(emb, a, c)
    rot_p, rot_q = emb.rotation[p], emb.rotation[q]
    if (
        rot_p[rot_p.index(c) - 1] != a
        or rot_q[rot_q.index(a) - 1] != c
    ):
        raise StructuralError(f"faces at edge ({a}, {c}) are not both triangles")
    if p == q or emb.has_edge(p, q):
        raise FlipForbiddenError(
            f"flip of ({a}, {c}) would duplicate edge ({p}, {q})"
        )
    if move.replacement is not None and set(move.replacement) != {p, q}:
        raise OperationError(
            f"replacement {move.replacement} does not match faces at ({a}, {c})"
        )
    rot = [list(nbrs) for nbrs in emb.rotation]
    rot[a].remove(c)
    rot[c].remove(a)
    rot[p].insert(rot[p].index(c), q)
    rot[q].insert(rot[q].index(a), p)
    outer = emb.outer_face
    if outer is not None and frozenset(outer) in (
        frozenset((a, c, p)),
        frozenset((a, c, q)),
    ):
        outer = None
    return PlanarEmbedding(rot, labels=emb.labels, outer_face=outer)


def legal_flips(emb: PlanarEmbedding) -> list[FlipMove]:
    """Every diagonal flip applicable to the triangulation."""
    if not emb.is_triangulation():
        raise StructuralError("flips are defined on triangulations")
    moves: list[FlipMove] = []
    for a, c in emb.edges():
        p, q = _face_apexes(emb, a, c)
        if p != q and not emb.has_edge(p, q):
            rep = (p, q) if p < q else (q, p)
            moves.append(FlipMove((a, c), rep))
    return moves


def apply_trace(
    seed: PlanarEmbedding, trace: Iterable[EberhardOp | FlipMove]
) -> PlanarEmbedding:
    """Replay a recorded operation sequence from a seed embedding."""
    emb = seed
    for step in trace:
        if isinstance(step, EberhardOp):
            emb = apply_eberhard(emb, step)
        elif isinstance(step, FlipMove):
            emb = diagonal_flip(emb, step)
        else:
            raise InputError(f"trace contains foreign object {step!r}")
    return emb


# ----------------------------------------------------------------------
# Canonical code
# ----------------------------------------------------------------------


def _bfs_code(
    rotation: Sequence[Sequence[int]], u: int, v: int, best: list[int] | None
) -> list[int] | None:
    """Breadth-first canonical labeling started on the dart u -> v.

    Vertices are numbered in discovery order; each vertex emits its neighbor
    numbers in rotation order starting from its discovery dart, followed by a
    0 separator.  The code is compared with ``best`` entry by entry as it
    grows: the start is abandoned (None) at the first entry larger than
    ``best``'s, and once an entry is smaller the BFS just runs to the end.
    A code equal to ``best`` is None as well, since it improves nothing.
    """
    number = [0] * len(rotation)
    entry = [0] * len(rotation)
    number[u], number[v] = 1, 2
    entry[u], entry[v] = v, u
    order = [u, v]
    code: list[int] = []
    smaller = best is None
    for x in order:
        nbrs = rotation[x]
        i = nbrs.index(entry[x])
        for w in nbrs[i:] + nbrs[:i]:
            got = number[w]
            if not got:
                order.append(w)
                got = number[w] = len(order)
                entry[w] = x
            if not smaller:
                b = best[len(code)]
                if got > b:
                    return None
                smaller = got < b
            code.append(got)
        if not smaller:
            smaller = best[len(code)] != 0
        code.append(0)
    return code if smaller else None


def canonical_code(emb: PlanarEmbedding) -> CanonicalCode:
    """Minimum BFS code over every starting dart and both orientations.

    Mirror images receive equal codes, so the code keys triangulations by
    abstract graph isomorphism (sphere triangulations on four or more
    vertices are 3-connected, hence embed uniquely up to reflection).

    Only darts leaving a minimum-degree vertex are tried.  The code started
    on u -> v opens with the block [2, 3, ..., deg(u) + 1, 0], and every code
    of a connected embedding has the same length 2e + n, so a start at a
    vertex of smaller degree always gives the lexicographically smaller code.
    The minimum over these darts therefore equals the minimum over all 4e
    darts, and the bytes (two-byte big-endian labels, comparable for n up to
    65535) are those of the exhaustive search.
    """
    rotation = emb.rotation
    mirror = tuple(nbrs[::-1] for nbrs in rotation)
    low = min(map(len, rotation))
    best: list[int] | None = None
    for rot in (rotation, mirror):
        for u, nbrs in enumerate(rot):
            if len(nbrs) == low:
                for v in nbrs:
                    best = _bfs_code(rot, u, v, best) or best
    assert best is not None
    return CanonicalCode(struct.pack(f">{len(best)}H", *best))


@functools.lru_cache(maxsize=None)
def standard_form_code(n: int) -> CanonicalCode:
    """Canonical code of ``standard_form(n)``, computed once per n."""
    return canonical_code(standard_form(n))


# ----------------------------------------------------------------------
# Exhaustive closures
# ----------------------------------------------------------------------


def _refuse_above_ceiling(n: int, ceiling: int) -> None:
    if n < 4:
        raise InputError("triangulations need n >= 4")
    if n > ceiling:
        known = CLASS_COUNTS.get(n)
        size = f"{known} isomorphism classes" if known else "a rapidly growing class count"
        raise CeilingError(
            f"n={n} exceeds the closure ceiling {ceiling} ({size} at n={n}); "
            f"raise the ceiling explicitly to proceed"
        )


def _check_clique_delta(
    kind: str, parent: tuple[int, int], child: tuple[int, int]
) -> tuple[int, int]:
    """Guard the per-operation clique accounting used by the maxima proofs.

    phi1 deletes nothing, so it creates exactly three 3-cliques and one
    4-clique.  phi2 and phi3 also destroy cliques through the chords they
    delete; what holds universally is the bound of at most +3 and +1 per
    step, which is precisely what the maxima 3n - 8 and n - 3 require.
    """
    dc3 = child[0] - parent[0]
    dc4 = child[1] - parent[1]
    ok = (dc3 == 3 and dc4 == 1) if kind == "phi1" else (dc3 <= 3 and dc4 <= 1)
    if not ok:
        raise VerificationFailure(
            f"{kind} changed (C3, C4) by ({dc3}, {dc4}), breaking the "
            f"per-operation clique bound"
        )
    return (dc3, dc4)


def generate_all(
    n: int,
    *,
    ceiling: int = GENERATION_CEILING,
    check_deltas: bool = True,
    on_application: Callable[[str, int, int], None] | None = None,
) -> dict[CanonicalCode, GenerationRecord]:
    """Closure of {K4} under phi1/phi2/phi3, deduplicated at every level.

    Returns one record per isomorphism class of n-vertex sphere
    triangulations.  With ``check_deltas`` every application is audited
    against the per-operation clique bounds; ``on_application`` additionally
    receives (kind, dC3, dC4) for empirical recording.
    """
    _refuse_above_ceiling(n, ceiling)
    seed = k4()
    level = {canonical_code(seed): GenerationRecord(seed, (), canonical_code(seed))}
    counts: dict[CanonicalCode, tuple[int, int]] = {
        code: count_cliques(rec.embedding).counts for code, rec in level.items()
    }
    for _ in range(n - 4):
        next_level: dict[CanonicalCode, GenerationRecord] = {}
        next_counts: dict[CanonicalCode, tuple[int, int]] = {}
        for code, rec in level.items():
            parent_counts = counts[code]
            for op in eberhard_ops(rec.embedding):
                child = apply_eberhard(rec.embedding, op)
                child_counts: tuple[int, int] | None = None
                if check_deltas or on_application is not None:
                    child_counts = count_cliques(child).counts
                    dc3, dc4 = _check_clique_delta(op.kind, parent_counts, child_counts)
                    if on_application is not None:
                        on_application(op.kind, dc3, dc4)
                ccode = canonical_code(child)
                if ccode not in next_level:
                    next_level[ccode] = GenerationRecord(
                        child, rec.trace + (op,), ccode
                    )
                    next_counts[ccode] = (
                        child_counts
                        if child_counts is not None
                        else count_cliques(child).counts
                    )
        level = next_level
        counts = next_counts
    return level


def flip_closure(n: int, *, ceiling: int = GENERATION_CEILING) -> set[CanonicalCode]:
    """Breadth-first closure of diagonal flips from the standard form.

    Sphere triangulations on equally many vertices are flip-connected, so
    this reaches every isomorphism class; it serves as the independent twin
    of ``generate_all``.
    """
    _refuse_above_ceiling(n, ceiling)
    start = PlanarEmbedding(standard_form(n).rotation)
    seen: dict[CanonicalCode, PlanarEmbedding] = {canonical_code(start): start}
    frontier = [start]
    while frontier:
        nxt: list[PlanarEmbedding] = []
        for emb in frontier:
            for move in legal_flips(emb):
                child = diagonal_flip(emb, move)
                code = canonical_code(child)
                if code not in seen:
                    seen[code] = child
                    nxt.append(child)
        frontier = nxt
    return set(seen)


# ----------------------------------------------------------------------
# Normalization to the standard form
# ----------------------------------------------------------------------


def _degree_raising_flip(emb: PlanarEmbedding, p: int) -> FlipMove:
    """A flip that raises deg(p), or failing that strictly reduces the
    number of edges among p's neighbors (after which a raising flip must
    eventually appear).  Every returned move is legal."""
    nbr_mask = emb.neighbor_masks[p]
    link = emb.rotation[p]
    d = len(link)
    # Link edges whose far apex is not yet a neighbor: flipping joins p to it.
    for i in range(d):
        x, y = link[i], link[(i + 1) % d]
        w1, w2 = _face_apexes(emb, x, y)
        w = w2 if w1 == p else w1
        if w != p and not nbr_mask >> w & 1:
            return FlipMove((x, y) if x < y else (y, x))
    # Chords of the link: flip one whose replacement leaves the neighborhood.
    for x, y in sorted(emb.edges()):
        if p in (x, y):
            continue
        if not (nbr_mask >> x & 1 and nbr_mask >> y & 1):
            continue
        w1, w2 = _face_apexes(emb, x, y)
        if p in (w1, w2):
            continue  # link edge, already handled
        if w1 == w2 or emb.has_edge(w1, w2):
            continue
        escapes = (w1 != p and not nbr_mask >> w1 & 1) or (
            w2 != p and not nbr_mask >> w2 & 1
        )
        if escapes:
            return FlipMove((x, y))
    raise StructuralError(f"no degree-raising flip available for vertex {p}")


def _fan_flip(emb: PlanarEmbedding, p: int, q: int) -> FlipMove:
    """With p dominant, flip a polygon chord whose face is opposite q.

    The replacement joins q across the chord; it can never pre-exist, since
    it would have to cross the chord inside the polygon.
    """
    for x, y in sorted(emb.edges()):
        if p in (x, y) or q in (x, y):
            continue
        w1, w2 = _face_apexes(emb, x, y)
        if p in (w1, w2):
            continue
        if q in (w1, w2):
            return FlipMove((x, y))
    raise StructuralError(f"no fan flip available toward vertex {q}")


def normalize_to_standard(
    emb: PlanarEmbedding,
) -> tuple[PlanarEmbedding, list[FlipMove]]:
    """Flip a triangulation into the standard spherical form.

    First a chosen pole is flipped up to degree n - 1; every such flip either
    raises the pole degree or strictly shrinks the chord structure inside its
    neighborhood, so the phase terminates.  The rest of the graph is then a
    triangulated polygon, which is fanned from a second pole; those flips are
    always legal.  Each intermediate graph is a simple triangulation.
    """
    if not emb.is_triangulation():
        raise StructuralError("normalization requires a triangulation")
    n = emb.n
    if n < 4:
        raise InputError("normalization needs n >= 4")
    cur = emb
    trace: list[FlipMove] = []
    p = max(range(n), key=lambda v: (cur.degree(v), -v))
    guard = 10 * n * n + 64
    while cur.degree(p) < n - 1:
        move = _degree_raising_flip(cur, p)
        cur = diagonal_flip(cur, move)
        trace.append(move)
        guard -= 1
        if guard <= 0:
            raise StructuralError("normalization did not converge")
    q = max(cur.rotation[p], key=lambda v: (cur.degree(v), -v))
    while cur.degree(q) < n - 1:
        move = _fan_flip(cur, p, q)
        cur = diagonal_flip(cur, move)
        trace.append(move)
        guard -= 1
        if guard <= 0:
            raise StructuralError("normalization did not converge")
    expected = sorted([n - 1, n - 1] + [4] * (n - 4) + [3, 3], reverse=True)
    got = sorted((cur.degree(v) for v in range(n)), reverse=True)
    assert got == expected, (got, expected)
    if n <= 64:
        assert canonical_code(cur) == standard_form_code(n)
    return cur, trace


# ----------------------------------------------------------------------
# Randomized construction (testing and demo aid)
# ----------------------------------------------------------------------


def random_triangulation(n: int, seed: int | None = None) -> PlanarEmbedding:
    """A triangulation grown from K4 by uniformly random wheel insertions."""
    if n < 4:
        raise InputError("triangulations need n >= 4")
    rng = random.Random(seed)
    emb = k4()
    while emb.n < n:
        ops = eberhard_ops(emb)
        emb = apply_eberhard(emb, rng.choice(ops))
    return emb
