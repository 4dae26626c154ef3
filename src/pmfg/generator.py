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

All rotation surgery follows the face walk of ``pmfg.embedding.apex`` on
counter-clockwise rotations.  Consequently a new hub is spliced into each
boundary rotation directly before the walk's arrival neighbor, and its own
rotation is the boundary walk itself.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import random
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .cliques import clique_counts, count_cliques  # count_cliques: traced by perfbench/spans.py
from .embedding import Edge, PlanarEmbedding, _canonical_rotation, apex, degree_sequence, face_walk
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


@dataclass(frozen=True)
class EberhardOp:
    """One wheel-insertion step: delete ``chords`` and join hub n to ``cycle``.

    ``cycle`` is the boundary walk of a region of len(cycle) - 2 faces, and
    ``chords`` are the len(cycle) - 3 edges inside it, each sorted.  The
    cycle's length alone decides the operation: phi1, phi2 or phi3.
    """

    cycle: tuple[int, ...]
    chords: tuple[Edge, ...] = ()

    @property
    def kind(self) -> str:
        return f"phi{len(self.cycle) - 2}"


@dataclass(frozen=True)
class FlipMove:
    """A diagonal flip: ``shared_edge`` is removed, ``replacement`` inserted.

    ``replacement`` may be left None; it is then derived from the embedding
    at application time and exists mostly for logging and validation.
    """

    shared_edge: Edge
    replacement: Edge | None = None


# Isomorphism-class key of a triangulation (reflection included); see
# ``canonical_code``.
CanonicalCode = bytes


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
    by repeatedly inserting a hub into a face containing both poles.  K4's
    face (0, 2, 1) stays a face, the outer one of the paper's plane-relative
    counts: every hub fills a face (0, 1, n - 1) instead.
    """
    if n < 4:
        raise InputError("standard form is defined for n >= 4")
    emb = k4()
    while emb.n < n:
        emb = apply_eberhard(emb, EberhardOp((0, 1, emb.n - 1)))
    return emb


# ----------------------------------------------------------------------
# Pure chord-cycles
# ----------------------------------------------------------------------


def eberhard_ops(emb: PlanarEmbedding) -> Sequence[EberhardOp]:
    """Every wheel insertion applicable to the triangulation: one per pure
    chord-cycle of length 3, 4 or 5 and choice of interior region.

    A region with no interior vertex whose faces are all triangles is made
    of k - 2 faces: a single face (k = 3), the two faces at an edge (k = 4),
    or a chain of three faces glued along two sides of the middle one
    (k = 5).  A cycle that can be filled from both sides appears once per
    side, with the chords of that side.  The sequence holds the triangles,
    then the quads, then the pentagons: the phi1 op of each face in sorted
    face order, the phi2 op of each edge in ``emb.edges()`` order, and the
    phi3 ops of each face in sorted face order.

    The faces are the triples (u, v, apex(rotation, u, v)) with u their
    minimum, sorted: exactly ``emb.faces``, which a table built from scratch
    reads.

    On a triangulation with n >= 4 no two faces share their vertex set.  So
    the two faces at an edge bound a 4-cycle, the faces across two sides of
    a face are distinct, their apexes lie off it, and the chain of the three
    faces bounds five distinct vertices unless its outer apexes coincide.
    The face set of a chain fixes its middle face and pair of sides, unless
    the three faces are pairwise edge-adjacent; then they surround a vertex
    of degree 3, and in each of their chains both outer apexes are the link
    vertex off the middle face.  So skipping exactly the chains with equal
    outer apexes keeps the same regions, in the same order, as deduplicating
    face sets and then dropping walks that repeat a vertex.

    The result is a read-only view over counts kept with the embedding:
    the sorted faces, each face's phi3 count and each vertex's phi2 count
    (its larger neighbors).  Op i is built when read, from the one face or
    vertex that bisecting the running sums of a count list names.  Phi3
    counts read only the apexes across a face's sides, and phi2 counts only
    a rotation.  So the child of a wheel insertion on walk W derives its
    counts from its parent's: it drops the k - 2 region faces left of W's
    darts, inserts the k hub faces, and recounts them, the k faces across
    W and the k cycle vertices.  Other embeddings count from scratch, and
    ``list`` of the view is a fresh list.
    """
    if emb.n < 4:  # both sides of a lone triangle are faces: no region
        raise InputError("wheel insertions need n >= 4")
    if not emb.is_triangulation():
        raise StructuralError("pure chord-cycle search requires a triangulation")
    return _wheel_table(emb)


def _face_triple(u: int, v: int, w: int) -> tuple[int, int, int]:
    """The face walk u, v, w started at its minimum."""
    if u < v and u < w:
        return (u, v, w)
    return (v, w, u) if v < w else (w, u, v)


def _chain_count(face: tuple[int, int, int], rot: Sequence[Sequence[int]]) -> int:
    """The number of the face's phi3 ops (see ``_face_chains``)."""
    b0, b1, b2 = face
    a0, a1, a2 = apex(rot, b1, b0), apex(rot, b2, b1), apex(rot, b0, b2)
    return (a0 != a1) + (a0 != a2) + (a1 != a2)


def _face_chains(
    face: tuple[int, int, int], rot: Sequence[Sequence[int]]
) -> list[EberhardOp]:
    """The phi3 ops of the chains a face is the middle of, one per pair of
    its sides whose outer apexes differ."""
    b0, b1, b2 = face
    # b0 is the face's minimum: (b0, b1) and (b0, b2) are sorted chords,
    # and both sort before the chord on b1, b2.
    a0, a1, a2 = apex(rot, b1, b0), apex(rot, b2, b1), apex(rot, b0, b2)
    c01, c02 = (b0, b1), (b0, b2)
    c12 = (b1, b2) if b1 < b2 else (b2, b1)
    chains = []
    if a0 != a1:
        chains.append(EberhardOp((b2, b0, a0, b1, a1), (c01, c12)))
    if a0 != a2:
        chords = (c01, c02) if b1 < b2 else (c02, c01)
        chains.append(EberhardOp((b0, a0, b1, b2, a2), chords))
    if a1 != a2:
        chains.append(EberhardOp((b0, b1, a1, b2, a2), (c02, c12)))
    return chains


def _vertex_ops(u: int, nbrs: Sequence[int]) -> list[EberhardOp]:
    """The phi2 ops of u's edges to larger vertices, in rotation order.

    The neighbors after and before t around u are the apexes of the darts
    u -> t and t -> u: the face left of u -> t is the triangle u, t, w, whose
    walk turns at u from w onto the neighbor preceding w, which is t.
    """
    before = nbrs[-1:] + nbrs[:-1]
    after = nbrs[1:] + nbrs[:1]
    return [
        EberhardOp((t, w, u, x), ((u, t),))
        for x, t, w in zip(before, nbrs, after)
        if u < t
    ]


class _WheelTable(Sequence):
    """The counts behind one triangulation's wheel insertions, read as the
    sequence of those insertions (see ``eberhard_ops``); ``phi3`` sums ``chains``."""

    __slots__ = ("rot", "faces", "chains", "edges", "phi3", "_len")

    def __init__(
        self, emb: PlanarEmbedding, faces: list, chains: list, edges: list, phi3: int
    ):
        self.rot, self.faces, self.chains, self.edges = emb.rotation, faces, chains, edges
        self.phi3, self._len = phi3, len(faces) + 3 * emb.n - 6 + phi3

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        if not -self._len <= i < self._len:
            raise IndexError("wheel insertion index out of range")
        faces, rot = self.faces, self.rot
        i %= self._len
        if i < len(faces):
            return EberhardOp(faces[i])
        i -= len(faces)
        if i < (e := 3 * len(rot) - 6):
            u, j = _group(self.edges, i)
            return _vertex_ops(u, rot[u])[j]
        f, j = _group(self.chains, i - e)
        return _face_chains(faces[f], rot)[j]

    def __iter__(self) -> Iterator[EberhardOp]:
        yield from map(EberhardOp, self.faces)
        for u, nbrs in enumerate(self.rot):
            yield from _vertex_ops(u, nbrs)
        for face in self.faces:
            yield from _face_chains(face, self.rot)

    def __eq__(self, other: object) -> bool:
        comparable = isinstance(other, (list, _WheelTable))
        return list(self) == list(other) if comparable else NotImplemented


def _group(sizes: list[int], i: int) -> tuple[int, int]:
    """The group holding entry i of groups of the given sizes laid end to
    end, and i's offset in it."""
    ends = list(itertools.accumulate(sizes))
    g = bisect.bisect_right(ends, i)
    return g, i - ends[g] + sizes[g]


def _wheel_table(emb: PlanarEmbedding) -> _WheelTable:
    """The embedding's table: kept from an earlier call, derived from the
    parent that ``apply_eberhard`` recorded, or built from scratch.  The
    parent reference is dropped once the table exists, so no chain of
    ancestors is retained."""
    table = emb.__dict__.get("_wheel_table")
    if table is None:
        source = emb.__dict__.pop("_wheel_source", None)
        table = _derived_table(emb, *source) if source else _scratch_table(emb)
        emb._wheel_table = table
    return table


def _scratch_table(emb: PlanarEmbedding) -> _WheelTable:
    """The table read off every face and vertex of ``emb``."""
    faces, rot = list(emb.faces), emb.rotation
    edges = [sum(t > u for t in nbrs) for u, nbrs in enumerate(rot)]
    chains = [_chain_count(f, rot) for f in faces]
    return _WheelTable(emb, faces, chains, edges, sum(chains))


def _derived_table(
    emb: PlanarEmbedding, parent: PlanarEmbedding, walk: Sequence[int]
) -> _WheelTable:
    """The table of ``emb``, the wheel insertion on ``walk`` into ``parent``,
    from the parent's table (see ``eberhard_ops``)."""
    old = parent._wheel_table
    faces, chains, edges = old.faces.copy(), old.chains.copy(), old.edges.copy()
    sides = list(zip(walk, walk[1:] + walk[:1]))
    before, after, phi3 = parent.rotation, emb.rotation, old.phi3
    for region_face in {_face_triple(u, v, apex(before, u, v)) for u, v in sides}:
        i = bisect.bisect_left(faces, region_face)
        phi3 -= chains.pop(i)
        del faces[i]
    for u, v in sides:
        hub_face = _face_triple(u, v, parent.n)
        i = bisect.bisect_left(faces, hub_face)
        faces.insert(i, hub_face)
        chains.insert(i, _chain_count(hub_face, after))
        phi3 += chains[i]
    for face in {_face_triple(v, u, apex(after, v, u)) for u, v in sides}:
        i = bisect.bisect_left(faces, face)
        phi3 += (count := _chain_count(face, after)) - chains[i]
        chains[i] = count
    edges.append(0)
    for u in walk:
        edges[u] = sum(t > u for t in after[u])
    return _WheelTable(emb, faces, chains, edges, phi3)


def pure_chord_cycle_sets(
    emb: PlanarEmbedding, k: int, outer_face: Sequence[int]
) -> list[EberhardOp]:
    """Pure chord-cycles of length k, counted as a plane drawing counts them.

    Relative to ``outer_face``, a face of ``emb`` in any vertex order, only
    regions on the bounded side qualify as interiors, and cycles are
    identified by vertex set.  This is the counting that yields 5, 4 and 1
    cycles of lengths 3, 4, 5 for ``standard_form(5)`` with outer face (0, 2, 1).

    A region contains the outer face iff the face's three vertices lie on
    the cycle and every pair of them is joined by a cycle side or a chord:
    the region is a triangulated polygon, a maximal outerplanar graph, and
    such a graph has no separating triangle, so its triangles are its faces.
    """
    if k not in (3, 4, 5):
        raise InputError(f"pure chord-cycle length must be 3, 4 or 5, not {k}")
    if sorted(outer_face) not in map(sorted, emb.faces):
        raise InputError(f"outer face {tuple(outer_face)} is not a face of the embedding")
    outer_sides = {frozenset(s) for s in itertools.combinations(outer_face, 2)}
    by_set: dict[frozenset[int], EberhardOp] = {}
    for op in eberhard_ops(emb):
        cyc = op.cycle
        if len(cyc) != k:
            continue
        joined = {frozenset(s) for s in zip(cyc, cyc[1:] + cyc[:1])}
        joined.update(map(frozenset, op.chords))
        if not outer_sides <= joined:
            by_set.setdefault(frozenset(cyc), op)
    return list(by_set.values())


# ----------------------------------------------------------------------
# Applying operations
# ----------------------------------------------------------------------


def apply_eberhard(emb: PlanarEmbedding, op: EberhardOp) -> PlanarEmbedding:
    """Delete the cycle's chords and join a new hub to every cycle vertex.

    The result is a triangulation on n + 1 vertices containing a wheel on
    the cycle; the edge count rises by exactly 3 for each of phi1/phi2/phi3.
    """
    verts, chords = op.cycle, op.chords
    try:
        k, ring, pairs = len(verts), verts[1:] + verts[:1], [(u, v) for u, v in chords]
    except (TypeError, ValueError):
        raise OperationError(f"{op} needs a cycle sequence and vertex pairs as chords") from None
    for v in verts:
        if type(v) is not int or not 0 <= v < emb.n:
            raise OperationError(f"cycle vertex {v!r} is outside 0..{emb.n - 1}")
    if not 3 <= k <= 5 or len(set(verts)) != k:
        raise OperationError(f"cycle {verts} is not 3 to 5 distinct vertices")
    if len(pairs) != k - 3:
        raise OperationError(f"{op.kind} needs exactly {k - 3} chords")
    for u, v in zip(verts, ring):
        if not emb.has_edge(u, v):
            raise OperationError(f"cycle vertices {u}, {v} are not adjacent")
    cycle_set = frozenset(verts)
    # Only the cycle vertices change; the rest keep the parent's tuples.
    rot = list(emb.rotation)
    for v in verts:
        rot[v] = list(rot[v])
    for u, v in pairs:
        if not (type(u) is type(v) is int and {u, v} <= cycle_set and emb.has_edge(u, v)):
            raise OperationError(f"chord ({u}, {v}) is not an interior edge")
        if v not in rot[u]:
            raise OperationError(f"chord ({u}, {v}) is repeated")
        rot[u].remove(v)
        rot[v].remove(u)
    # Removing chords between cycle vertices keeps the embedding valid as long
    # as it stays connected, which a face walk through every cycle vertex
    # guarantees; the hub then fills that face.  It is found once, from its
    # dart leaving the cycle vertex of least degree.
    v0 = min(verts, key=lambda v: len(rot[v]))
    walks = (face_walk(rot, v0, b) for b in rot[v0])
    matches = [walk for walk in walks if len(walk) == k and set(walk) == cycle_set]
    if len(matches) != 1:
        raise OperationError(
            f"cycle {verts} with chords {chords} is not a pure chord-cycle"
        )
    walk = matches[0]
    hub = emb.n
    rot.append(walk)
    for i, v in enumerate(walk):
        arrival = walk[i - 1]
        rot[v].insert(rot[v].index(arrival), hub)
    for v in (*walk, hub):
        rot[v] = _canonical_rotation(rot[v])
    child = PlanarEmbedding._trusted(tuple(rot))
    if "_wheel_table" in emb.__dict__:
        # The child's first eberhard_ops call derives its table from this one.
        child._wheel_source = (emb, walk)
    return child


def _face_apexes(emb: PlanarEmbedding, x: int, y: int) -> tuple[int, int]:
    """Apexes of the two faces incident to edge xy (dart x->y side first)."""
    # apex() of both darts, inlined: flips and normalization call this per edge.
    rx, ry = emb.rotation[x], emb.rotation[y]
    return (ry[ry.index(x) - 1], rx[rx.index(y) - 1])


def diagonal_flip(emb: PlanarEmbedding, move: FlipMove) -> PlanarEmbedding:
    """Replace the shared edge of two adjacent triangles by the other diagonal.

    Forbidden when the replacement edge already exists, since the result
    would carry a multiple edge.  Flipping the replacement edge of the result
    restores the original embedding exactly.
    """
    try:
        (a, c), (x, y) = move.shared_edge, move.replacement or (None, None)
    except (TypeError, ValueError):
        raise OperationError(f"{move} needs vertex pairs") from None
    # rotation[a] holds vertex ids only, so c needs no range check of its own.
    if not (type(a) is type(c) is int and 0 <= a < emb.n and emb.has_edge(a, c)):
        raise OperationError(f"({a!r}, {c!r}) is not an edge")
    p, q = _face_apexes(emb, a, c)
    if apex(emb.rotation, c, p) != a or apex(emb.rotation, a, q) != c:
        raise StructuralError(f"faces at edge ({a}, {c}) are not both triangles")
    if p == q:
        raise FlipForbiddenError(f"both faces at ({a}, {c}) have apex {p}")
    if emb.has_edge(p, q):
        raise FlipForbiddenError(f"flip of ({a}, {c}) would duplicate edge ({p}, {q})")
    if move.replacement is not None and not (type(x) is type(y) is int and {x, y} == {p, q}):
        raise OperationError(
            f"replacement {move.replacement} does not match faces at ({a}, {c})"
        )
    rot = list(emb.rotation)
    for v in (a, c, p, q):
        rot[v] = list(rot[v])
    rot[a].remove(c)
    rot[c].remove(a)
    rot[p].insert(rot[p].index(c), q)
    rot[q].insert(rot[q].index(a), p)
    for v in (a, c, p, q):
        rot[v] = _canonical_rotation(rot[v])
    return PlanarEmbedding._trusted(tuple(rot), labels=emb.labels)


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


Automorphism = tuple[int, ...]


def _canonical_search(
    rotation: Sequence[Sequence[int]],
) -> tuple[CanonicalCode, tuple[Automorphism, ...]]:
    """Minimum BFS code over every starting dart and both orientations, and
    the automorphisms of the rotation system.

    A start on the dart u -> v numbers the vertices in breadth-first
    discovery order (u is 1, v is 2); each vertex emits its neighbors'
    numbers in rotation order from its discovery dart, then a 0.  Every
    start runs in lockstep, one vertex block at a time, and only the starts
    whose block is smallest survive each step.  Each block ends in its only
    0, so comparing block by block compares the whole codes
    lexicographically.

    Only darts leaving a minimum-degree vertex are tried.  The code started
    on u -> v opens with the block [2, 3, ..., deg(u) + 1, 0], and every code
    of a connected embedding has the same length 2e + n, so a start at a
    vertex of smaller degree always gives the lexicographically smaller code.
    The minimum over these darts therefore equals the minimum over all 4e
    darts.

    On a triangulation (degrees summing to 6n - 12) of least degree 3, only
    darts u -> v with deg(v) least among degree-3 vertices' neighbors are
    tried.  u's neighbors v, a, b are pairwise joined by faces, so v's block
    is [1, 4, 5, ..., deg(v) + 1, 3, 0] in both orientations: smaller when
    deg(v) is, so exactly the starts the second step drops are dropped, and
    the code and automorphisms, in order, are unchanged.

    The surviving starts are exactly the automorphisms: equal codes number
    the vertices alike, so each survivor s maps order_0[i] to order_s[i],
    and every automorphism carries the first survivor to one that ties it.
    A survivor of the mirrored rotation gives an orientation-reversing map.
    Each map is returned as a tuple with ``aut[v]`` the image of v; the
    first one is the identity.
    """
    n = len(rotation)
    mirror = tuple(nbrs[::-1] for nbrs in rotation)
    degree = [len(nbrs) for nbrs in rotation]
    low, cap = min(degree), n
    if low == 3 and sum(degree) == 6 * n - 12:
        cap = min(degree[v] for u, nbrs in enumerate(rotation) if degree[u] == 3 for v in nbrs)
    # A start is (rotation, number, entry, order); entry[x] is the neighbor
    # from which x was discovered, where its block opens.
    starts = []
    for rot in (rotation, mirror):
        for u, nbrs in enumerate(rot):
            if degree[u] == low:
                for v in nbrs:
                    if degree[v] <= cap:
                        number, entry = [0] * n, [0] * n
                        number[u], number[v] = 1, 2
                        entry[u], entry[v] = v, u
                        starts.append((rot, number, entry, [u, v]))
    code: list[int] = []
    for i in range(n):
        best: list[int] | None = None
        for start in starts:
            rot, number, entry, order = start
            x = order[i]
            nbrs = rot[x]
            j = nbrs.index(entry[x])
            block = []
            for w in nbrs[j:] + nbrs[:j]:
                got = number[w]
                if not got:
                    order.append(w)
                    got = number[w] = len(order)
                    entry[w] = x
                block.append(got)
            block.append(0)
            if best is None or block < best:
                best, kept = block, [start]
            elif block == best:
                kept.append(start)
        starts = kept
        code += best
    order0 = starts[0][3]
    auts = []
    for *_, order in starts:
        aut = [0] * n
        for x, y in zip(order0, order):
            aut[x] = y
        auts.append(tuple(aut))
    return struct.pack(f">{len(code)}H", *code), tuple(auts)


def canonical_code(emb: PlanarEmbedding) -> CanonicalCode:
    """Minimum BFS code over every starting dart and both orientations.

    Mirror images receive equal codes, so the code keys triangulations by
    abstract graph isomorphism (sphere triangulations on four or more
    vertices are 3-connected, hence embed uniquely up to reflection).  The
    labels are two-byte big-endian, comparable for n up to 65535; see
    ``_canonical_search`` for the search.
    """
    return _canonical_search(emb.rotation)[0]


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
    dc3, dc4 = child[0] - parent[0], child[1] - parent[1]
    ok = (dc3 == 3 and dc4 == 1) if kind == "phi1" else (dc3 <= 3 and dc4 <= 1)
    if not ok:
        raise VerificationFailure(
            f"{kind} changed (C3, C4) by ({dc3}, {dc4}), breaking the "
            f"per-operation clique bound"
        )
    return (dc3, dc4)


def _op_image(op: EberhardOp, aut: Automorphism) -> tuple[int, int]:
    """The vertex set of the op's cycle and the set of its chords, under aut,
    as bitmasks: bit a * n + b marks chord {a, b}, a < b, n = len(aut).
    These fix the op's region, so equal images mean automorphic ops."""
    n = len(aut)
    cycle = chords = 0
    for v in op.cycle:
        cycle |= 1 << aut[v]
    for u, v in op.chords:
        u, v = aut[u], aut[v]
        chords |= 1 << (u * n + v if u < v else v * n + u)
    return cycle, chords


def generate_levels(
    n_max: int,
    *,
    ceiling: int = GENERATION_CEILING,
    on_application: Callable[[str, int, int], None] | None = None,
) -> Iterator[dict[CanonicalCode, GenerationRecord]]:
    """Closure of {K4} under phi1/phi2/phi3, one level per vertex count.

    Yields, for n = 4, 5, ..., n_max in turn, one record per isomorphism
    class of n-vertex sphere triangulations, in the order the classes were
    first found; each level is built once, from the one before it.  When
    ``on_application`` is given, every application is audited against the
    per-operation clique bounds, and the callback receives (kind, dC3, dC4)
    for empirical recording; the audit counts with ``clique_counts``.

    Each parent's ops are applied once per orbit of its automorphism group
    (McKay, J. Algorithms 26 (1998)).  An op that some automorphism maps
    onto an earlier op of the same parent yields an isomorphic child, so it
    is skipped: the class it reaches was already coded, and the first-found
    record of every class stays the one the unpruned loop keeps.  A skipped
    op is still reported to ``on_application``, with the deltas of the op it
    mirrors, which are equal; so every op is reported exactly once.
    """
    _refuse_above_ceiling(n_max, ceiling)
    audit = on_application is not None
    seed = k4()
    code, auts = _canonical_search(seed.rotation)
    # code -> (record, automorphisms, clique counts when applications are
    # audited, else None), in the order the classes were first found.
    seed_counts = clique_counts(seed) if audit else None
    level = {code: (GenerationRecord(seed, (), code), auts, seed_counts)}
    for n in itertools.count(4):
        yield {code: rec for code, (rec, _, _) in level.items()}
        if n == n_max:
            return
        next_level: dict[CanonicalCode, tuple] = {}
        for rec, auts, counts in level.values():
            # Images of the ops applied so far under every automorphism
            # (auts[0] is the identity) -> that op's (dC3, dC4).
            applied: dict[tuple[int, int], tuple[int, int] | None] = {}
            for op in eberhard_ops(rec.embedding):
                if (key := _op_image(op, auts[0])) in applied:
                    if audit:
                        on_application(op.kind, *applied[key])
                    continue
                child = apply_eberhard(rec.embedding, op)
                deltas = child_counts = None
                if audit:
                    child_counts = clique_counts(child)
                    try:
                        deltas = _check_clique_delta(op.kind, counts, child_counts)
                    except VerificationFailure as exc:
                        exc.trace = rec.trace + (op,)
                        raise
                    on_application(op.kind, *deltas)
                applied.update(dict.fromkeys((_op_image(op, aut) for aut in auts), deltas))
                ccode, child_auts = _canonical_search(child.rotation)
                if ccode not in next_level:
                    record = GenerationRecord(child, rec.trace + (op,), ccode)
                    next_level[ccode] = (record, child_auts, child_counts)
        level = next_level


def generate_all(
    n: int,
    *,
    ceiling: int = GENERATION_CEILING,
    on_application: Callable[[str, int, int], None] | None = None,
) -> dict[CanonicalCode, GenerationRecord]:
    """One record per isomorphism class of n-vertex sphere triangulations:
    the last level of ``generate_levels(n)``, whose arguments it takes."""
    for records in generate_levels(n, ceiling=ceiling, on_application=on_application):
        pass
    return records


def flip_closure(n: int, *, ceiling: int = GENERATION_CEILING) -> set[CanonicalCode]:
    """Breadth-first closure of diagonal flips from the standard form.

    Sphere triangulations on equally many vertices are flip-connected, so
    this reaches every isomorphism class; it serves as the independent twin
    of ``generate_all``: no flip is pruned by symmetry.  A child whose
    labelled rotation is one already queued, one per class, is not coded
    again, since its code is seen (the flip undoing the last one, say).
    """
    _refuse_above_ceiling(n, ceiling)
    start = standard_form(n)
    seen = {canonical_code(start)}
    queued = {start.rotation}
    frontier = [start]
    while frontier:
        nxt: list[PlanarEmbedding] = []
        for emb in frontier:
            for move in legal_flips(emb):
                child = diagonal_flip(emb, move)
                if child.rotation not in queued and (code := canonical_code(child)) not in seen:
                    seen.add(code)
                    queued.add(child.rotation)
                    nxt.append(child)
        frontier = nxt
    return seen


# ----------------------------------------------------------------------
# Normalization to the standard form
# ----------------------------------------------------------------------


def _degree_raising_flip(emb: PlanarEmbedding, p: int, start: int = 0) -> FlipMove:
    """A flip that raises deg(p), or failing that strictly reduces the
    number of edges among p's neighbors (after which a raising flip must
    eventually appear).  Every returned move is legal and names its
    replacement.  The link scan begins at link edge ``start``; the caller
    vouches for the ones before."""
    link = emb.rotation[p]
    nbrs = set(link)
    d = len(link)
    # Link edges whose far apex is not yet a neighbor: flipping joins p to it.
    for i in range(start, d):
        x, y = link[i], link[(i + 1) % d]
        w1, w2 = _face_apexes(emb, x, y)
        w = w2 if w1 == p else w1
        if w != p and w not in nbrs:
            return FlipMove((x, y) if x < y else (y, x), (p, w) if p < w else (w, p))
    # Chords of the link: flip one whose replacement leaves the neighborhood.
    chords = sorted((x, y) for x in link for y in emb.rotation[x] if x < y and y in nbrs)
    for x, y in chords:
        w1, w2 = _face_apexes(emb, x, y)
        if p in (w1, w2):
            continue  # link edge, already handled
        # Else pxy separates w1 from w2, so they are distinct and not adjacent.
        if w1 not in nbrs or w2 not in nbrs:
            return FlipMove((x, y), (w1, w2) if w1 < w2 else (w2, w1))
    raise StructuralError(f"no degree-raising flip available for vertex {p}")


def normalize_to_standard(
    emb: PlanarEmbedding,
) -> tuple[PlanarEmbedding, list[FlipMove]]:
    """Flip a triangulation into the standard spherical form.

    First a chosen pole p is flipped up to degree n - 1; every such flip
    either raises the pole degree or strictly shrinks the chord structure
    inside its neighborhood, so the phase terminates.  The rest of the graph
    is then a triangulated polygon, which is fanned from a second pole q by
    flipping the smallest chord facing q: an edge between consecutive
    neighbors of q, off p, whose far face avoids p.  Those flips are always
    legal.  Each intermediate graph is a simple triangulation, and each
    move of the returned trace names its replacement edge.

    A flip of the edge x, y whose faces have apexes u and w changes no other
    face, and its edges x, w and w, y take the place of x, y in u's
    rotation.  So the raising phase's link scan resumes at the link edge
    just flipped, as every link edge before it still has a far apex that
    already neighbors p; it starts over after a chord flip, and when the new
    neighbor leads p's rotation.  The fan phase keeps q's flippable chords
    in a heap with their far apexes, which no later flip changes, as a
    flip's two new chords were no chords before it; it adds only those two.
    Both phases thus pick the moves of a scan over every edge.
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
    start = 0
    while cur.degree(p) < n - 1:
        move = _degree_raising_flip(cur, p, start)
        cur = diagonal_flip(cur, move)
        trace.append(move)
        # Resume at the link edge before a new neighbor; a chord flip restarts.
        x, y = move.replacement
        start = max(cur.rotation[p].index(x + y - p) - 1, 0) if p in (x, y) else 0
        guard -= 1
        if guard <= 0:
            raise StructuralError("normalization did not converge")
    q = max(cur.rotation[p], key=lambda v: (cur.degree(v), -v))
    chords: list[tuple[int, int, int]] = []  # (x, y, far apex), x < y

    def push_chord(x: int, y: int) -> None:
        w1, w2 = _face_apexes(cur, x, y)
        if p not in (x, y, w1, w2):
            w = w2 if w1 == q else w1
            heapq.heappush(chords, (x, y, w) if x < y else (y, x, w))

    ring = cur.rotation[q]
    for x, y in zip(ring, ring[1:] + ring[:1]):
        push_chord(x, y)
    while cur.degree(q) < n - 1:  # each flip adds an edge at q, so no guard
        if not chords:
            raise StructuralError(f"no fan flip available toward vertex {q}")
        x, y, w = heapq.heappop(chords)  # w becomes a neighbor of q
        move = FlipMove((x, y), (q, w) if q < w else (w, q))
        cur = diagonal_flip(cur, move)
        trace.append(move)
        push_chord(x, w)
        push_chord(w, y)
    expected = [n - 1, n - 1] + [4] * (n - 4) + [3, 3]
    got = degree_sequence(cur)
    if got != expected:
        raise VerificationFailure(f"normalized degrees {got} are not {expected}")
    if n <= 64 and canonical_code(cur) != standard_form_code(n):
        raise VerificationFailure("normalized triangulation is not the standard form")
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
