"""Construction of Planar Maximally Filtered Graphs from similarity data.

The builder scans all vertex pairs in descending similarity order and keeps
an edge exactly when the kept set stays planar (Tumminello et al., PNAS 102
(2005) 10421).  The scan stops once 3(n - 2) edges are accepted, at which
point the kept graph is a maximal planar graph (a sphere triangulation) and
no later edge could ever be accepted.

Planarity is decided incrementally, after the on-line planarity idea of
Di Battista & Tamassia (SIAM J. Comput. 25 (1996)), by ``_PlanarityGate``,
whose docstring lists its rules.  Every rule is exact, so the accepted list
is the one a fresh planarity test per pair gives.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass, fields
from itertools import combinations
from pathlib import Path

import numpy as np

from .embedding import PlanarEmbedding, _check_labels, face_walk, face_walks, trace_faces
from .errors import InputError, VerificationFailure
from .planarity import _bits, _lr_rotation, is_planar

SYMMETRY_TOLERANCE = 1e-12

TiePolicy = str  # "lexicographic" | "strict"


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric matrix of pairwise similarity coefficients.

    The diagonal is ignored everywhere.  ``correlation=True`` additionally
    enforces off-diagonal values in [-1, 1].
    """

    labels: tuple[str, ...]
    values: np.ndarray
    correlation: bool = False

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InputError("similarity matrix must be square")
        if len(self.labels) != v.shape[0]:
            raise InputError("one label per matrix row is required")
        _check_labels(self.labels)
        off = ~np.eye(v.shape[0], dtype=bool)
        if not np.isfinite(v[off]).all():
            i, j = next(zip(*np.where(~np.isfinite(v) & off)))
            kind = "NaN" if np.isnan(v[i, j]) else "infinite"
            raise InputError(
                f"similarity between {self.labels[i]} and {self.labels[j]} is {kind}"
            )
        if not np.allclose(v, v.T, atol=SYMMETRY_TOLERANCE, rtol=0.0, equal_nan=True):
            raise InputError(f"matrix is asymmetric beyond {SYMMETRY_TOLERANCE}")
        if self.correlation and (np.abs(v[off]) > 1 + SYMMETRY_TOLERANCE).any():
            raise InputError("correlation values must lie in [-1, 1]")

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class GateCounts:
    """How many examined pairs each rule of ``_PlanarityGate`` decided, one
    field per rule; its docstring lists the rules.  Every rule is exact, so
    the accepted list is the one a fresh planarity test per pair gives."""

    component_joins: int = 0
    face_accepts: int = 0
    whitney_rejects: int = 0
    lr_calls: int = 0
    block_joins: int = 0
    flip_accepts: int = 0


@dataclass(frozen=True)
class PmfgResult:
    """A PMFG scan's outcome.  ``decisions`` holds one entry per examined
    pair in scan order, True where it was accepted; ``accepted`` and
    ``rejected`` are the two subsequences of the examined pairs."""

    embedding: PlanarEmbedding
    accepted: tuple[tuple[int, int, float], ...]
    rejected: tuple[tuple[int, int, float], ...]
    total_weight: float
    gate_counts: GateCounts = GateCounts()
    decisions: tuple[bool, ...] = ()

    @property
    def labels(self) -> tuple[str, ...] | None:
        return self.embedding.labels


def correlation_from_returns(
    returns: np.ndarray, labels: list[str] | tuple[str, ...]
) -> SimilarityMatrix:
    """Pearson correlation matrix of a returns table (rows = observations)."""
    table = np.asarray(returns, dtype=float)
    if table.ndim != 2:
        raise InputError("returns table must be two-dimensional")
    if table.shape[1] != len(labels):
        raise InputError("one label per column is required")
    if table.shape[0] < 2:
        raise InputError("need at least two observations per entity")
    if not np.isfinite(table).all():
        kind = "NaN" if np.isnan(table).any() else "infinite values"
        raise InputError(f"returns table contains {kind}")
    # Finite returns can overflow; numpy would only warn and return wrong values.
    with np.errstate(over="raise", invalid="raise"):
        try:
            stds = table.std(axis=0)
            for j, s in enumerate(stds):
                if s == 0.0:
                    raise InputError(
                        f"column {labels[j]} is constant; correlation undefined"
                    )
            # One column gives a 0-d array; the refusal belongs to build_pmfg.
            corr = np.corrcoef(table, rowvar=False).reshape(len(labels), len(labels))
        except FloatingPointError as exc:
            raise InputError(f"returns table overflows double precision: {exc}") from exc
    return SimilarityMatrix(tuple(labels), corr, correlation=True)


def weighted_edge_list(
    sim: SimilarityMatrix, tie_policy: TiePolicy = "lexicographic"
) -> tuple[tuple[int, int, float], ...]:
    """Rank all pairs by descending similarity, as (i, j, weight) triples.

    Equal weights are ordered by the (min label, max label) pair so that runs
    are reproducible across platforms; the "strict" policy refuses them
    instead, listing every tied pair.  Labels are unique, so no two pairs tie
    on the whole key, and one lexsort over the label ranks gives the order.
    """
    if tie_policy not in ("lexicographic", "strict"):
        raise InputError(f"unknown tie policy {tie_policy!r}")
    n, labels = sim.n, sim.labels
    rank = np.empty(n, dtype=np.intp)
    rank[sorted(range(n), key=labels.__getitem__)] = np.arange(n)
    i, j = np.triu_indices(n, 1)
    w = np.asarray(sim.values[i, j], dtype=float)
    lo, hi = np.minimum(rank[i], rank[j]), np.maximum(rank[i], rank[j])
    order = np.lexsort((hi, lo, -w))
    i, j, w = i[order].tolist(), j[order].tolist(), w[order]
    if tie_policy == "strict" and len(ties := np.flatnonzero(w[:-1] == w[1:])):
        def name(k: int) -> str:
            return ", ".join(sorted((labels[i[k]], labels[j[k]])))

        tied = "; ".join(f"({name(k)}) ~ ({name(k + 1)})" for k in ties.tolist())
        raise InputError(f"tied weights under strict policy: {tied}")
    return tuple(zip(i, j, w.tolist()))


def _face_table(n: int, rotation: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """The walks of ``trace_faces`` and each vertex's face bitmask: bit k of
    entry x is set iff x lies on walk k."""
    walks = trace_faces(rotation)
    masks = [0] * n
    for k, walk in enumerate(walks):
        bit = 1 << k
        for x in walk:
            masks[x] |= bit
    return walks, masks


def _separator(walks: list[list[int]], masks: list[int]) -> tuple[int, ...] | None:
    """None iff a plane graph of minimum degree 3 is 3-connected, given its
    face table (``_face_table``; its vertices are the nonzero masks), and
    otherwise a set of at most two vertices whose removal disconnects it.

    It is 3-connected exactly when it is connected (Euler's formula), every
    walk is a cycle, and any two faces meet in nothing, one vertex or one
    edge (Mohar & Thomassen, Graphs on Surfaces, 2001).  A vertex repeated
    on a walk is a cut vertex.  Vertices where two faces meet share both,
    and an edge's ends share just its two, so a pair on a walk separates
    when it shares three faces or two while not consecutive (three
    consecutive shared vertices would make two faces one triangle).
    """
    size = len(masks) - masks.count(0)
    if size - sum(map(len, walks)) // 2 + len(walks) != 2:
        return ()
    for walk in walks:
        if len(set(walk)) != len(walk):
            return (next(x for x in walk if walk.count(x) > 1),)
    for walk in walks:
        k = len(walk)
        for i, x in enumerate(walk):
            for j in range(i + 1, k):
                shared = (masks[x] & masks[walk[j]]).bit_count()
                if shared > 2 or shared == 2 and 1 < j - i < k - 1:
                    return x, walk[j]
    return None


def _series_reduced(rotation: list[list[int]]) -> list[list[int]]:
    """A planar rotation with every vertex of degree 1 or less dropped and
    every vertex of degree 2 suppressed, in place in its neighbours'
    rotations, until the minimum degree is 3; a suppression that would give
    a parallel edge drops the vertex with both its edges instead."""
    rot = [list(nbrs) for nbrs in rotation]
    stack = [x for x, nbrs in enumerate(rot) if len(nbrs) <= 2]
    while stack:
        x = stack.pop()
        nbrs, rot[x] = rot[x], []
        if len(nbrs) == 2 and nbrs[1] not in rot[nbrs[0]]:
            a, b = nbrs
            rot[a][rot[a].index(x)] = b
            rot[b][rot[b].index(x)] = a
        else:
            for w in nbrs:
                rot[w].remove(x)
                if len(rot[w]) <= 2:
                    stack.append(w)
    return rot


def _admissible_faces(rotation: list[list[int]], h: list[int]) -> list[int]:
    """Each vertex's admissible faces of a piece as a bitmask (rule 3 of
    ``_PlanarityGate``), given h, which fixes them on the piece and is 0 on
    the bridges, read off one walk over the rotation: -1, all faces, where a
    bridge has no attachment.  No mask is 0, as the graph is planar, so 0
    marks a vertex not yet reached."""
    reach = h.copy()
    for s in range(len(h)):
        if reach[s]:
            continue
        bound, component, reach[s] = -1, [s], -1
        for x in component:
            for w in rotation[x]:
                if h[w]:
                    bound &= h[w]
                elif not reach[w]:
                    reach[w] = -1
                    component.append(w)
        for x in component:
            reach[x] = bound
    return reach


def _triconnected_pieces(n: int, rotation: list[list[int]]) -> list[list[int]]:
    """The face bitmasks of each 3-connected piece of a planar rotation, the
    R-node skeletons of its triconnected components (Hopcroft & Tarjan, SIAM
    J. Comput. 2 (1973)), over the rotation's vertex ids.

    The series-reduced graph is split at ``_separator``'s vertices into one
    side per component of the rest, and each side is reduced and split
    again.  At a separation pair ab, each side gets a virtual edge ab where
    the other sides were (a component's neighbours of a are consecutive
    around a, so the side stays plane).  It stands for the edge ab, if the
    graph has one, or else for a path through a bridge of the piece attached
    at a and b alone, so a piece is a subdivision of a 3-connected graph
    inside the rotation's graph.  Such a bridge stays in the two faces of ab
    as the graph grows, so its vertices keep them (a vertex of the piece
    has three or more); any other vertex off the piece gets 0.  A side
    that is connected but fails Euler's formula raises VerificationFailure.
    """
    pieces, stack = [], [rotation]
    while stack:
        rot = _series_reduced(stack.pop())
        walks, masks = _face_table(n, rot)
        cut = _separator(walks, masks)
        if cut is None:
            real = {masks[a] & masks[b] for a, nbrs in enumerate(rotation) for b in nbrs}
            reach = _admissible_faces(rotation, masks)
            pieces.append([r if m or r.bit_count() == 2 and r not in real else 0
                           for r, m in zip(reach, masks)])
            continue
        side = [-1] * n
        for c in cut:
            side[c] = -2
        for s, nbrs in enumerate(rot):
            if not nbrs or side[s] != -1:
                continue
            component, side[s] = [s], s  # each side is labelled by its least vertex
            for x in component:
                for w in rot[x]:
                    if side[w] == -1:
                        side[w] = s
                        component.append(w)
            sub = [nbrs if side[x] == s else [] for x, nbrs in enumerate(rot)]
            if sub == rot:  # no cut and one side: connected, not plane
                raise VerificationFailure("a connected rotation fails Euler's formula")
            for c in cut:
                r = rot[c]
                i = next(i for i, w in enumerate(r) if side[w] == s and side[r[i - 1]] != s)
                sub[c] = [w for w in r[i:] + r[:i] if side[w] == s]
                if len(cut) == 2:
                    sub[c].append(cut[0] + cut[1] - c)
            stack.append(sub)
    return pieces


class _PlanarityGate:
    """The kept graph of a PMFG scan, growing one planar edge at a time.

    The gate holds a rotation system of the kept graph, a component label
    per vertex (finding components by ``_join_blocks``' DFS instead costs
    2-6 % at n = 150), the rotation's face table (walks by face id and
    per-vertex face bitmasks; only an LR accept re-traces it whole), and the
    face bitmasks of the kept graph's triconnected pieces
    (``_triconnected_pieces``).  Every face question is an AND of bitmasks.
    ``counts`` holds how many pairs each rule decided, keyed by the fields of
    ``GateCounts``.  ``add_if_planar`` applies the first rule that decides:

    1. endpoints in different components: accept, joining them at any corner;
    2. endpoints on a common face: accept, splicing the edge into that face;
    3. both endpoints' admissible faces of one piece H are disjoint: reject.
       H is a subdivision of a 3-connected graph inside the kept graph, so
       every embedding of kept + uv restricts to H's unique one (Whitney)
       and puts the bridge of H through uv in one face, admissible for both.
       A vertex on H admits its faces of H, any other vertex the faces
       holding all attachments of its bridge (Demoucron, Malgrange &
       Pertuiset, 1964);
    4. endpoints in different blocks, each block between them with its two
       attachments on one of its faces: accept, re-hanging the blocks at
       the cut vertices to merge those faces (``_join_blocks``);
    5. u and v on one face once the side of u or v at a separation pair ab,
       on a face of each, is mirrored (``_flip``), with the faces it changes
       as many as before and holding as many darts, so V - E + F = 2 holds
       (Mohar & Thomassen, Graphs on Surfaces, 2001): accept, mirroring it;
    6. otherwise run the left-right planarity test (``_lr_rotation``, our
       own port of networkx's algorithm) on the rotation with uv appended
       and, on accept, adopt its rotation.  Fed lists in accept order, it
       took 473 calls, not 461, at n = 150 (seeds 7 and 1009, tasks 0-5).

    Every rule is exact, so the accepted list is the one a fresh planarity
    test per pair gives.  The pieces are refreshed after every LR reject;
    older pieces stay valid, since the kept graph only grows.  A piece that
    rejects moves, with its admissible faces, to the front of the list, so
    the next query tries it first; any rejecting piece decides the same,
    and this order is the only state a certified reject changes.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.rotation: list[list[int]] = [[] for _ in range(n)]
        self._faces: list[list[int]] = []  # by face id; [] at a free id
        self._face_mask = [0] * n
        self._pieces: list[list[int]] = []  # as at the last refresh
        self._reach: list[list[int]] = []  # admissible faces of the first pieces
        self._component = list(range(n))
        self.counts = {field.name: 0 for field in fields(GateCounts)}

    def add_if_planar(self, u: int, v: int) -> bool:
        """Add uv (not yet an edge) if the kept graph stays planar."""
        cu, cv = self._component[u], self._component[v]
        shared = self._face_mask[u] & self._face_mask[v]
        if cu == cv and not shared:
            reaches = self._reach
            for k, piece in enumerate(self._pieces):
                if k == len(reaches):
                    reaches.append(_admissible_faces(self.rotation, piece))
                if not reaches[k][u] & reaches[k][v]:
                    self._pieces.insert(0, self._pieces.pop(k))
                    reaches.insert(0, reaches.pop(k))
                    self.counts["whitney_rejects"] += 1
                    return False
        if cu != cv:
            self._component = [cv if c == cu else c for c in self._component]
            self.rotation[u].append(v)
            self.rotation[v].append(u)
            self.counts["component_joins"] += 1
            self._retrace([(u, v), (v, u)])
        elif shared:  # the face with the least id, at u's and v's first corners
            walk = self._faces[(shared & -shared).bit_length() - 1]
            self._splice(u, v, walk[walk.index(u) - 1], walk[walk.index(v) - 1])
            self.counts["face_accepts"] += 1
            self._retrace([(u, v), (v, u)])
        elif not self._one_piece(u, v) and (darts := self._join_blocks(u, v)) is not None:
            self.counts["block_joins"] += 1
            self._retrace(darts)
        elif self._flip(u, v):
            self.counts["flip_accepts"] += 1
        else:
            self.counts["lr_calls"] += 1
            self.rotation[u].append(v)
            self.rotation[v].append(u)
            found = _lr_rotation(self.n, self.rotation)
            if found is None:
                self.rotation[u].pop()
                self.rotation[v].pop()
                self._reach, self._pieces = [], _triconnected_pieces(self.n, self.rotation)
                return False
            self.rotation = found[0]
            self._faces, self._face_mask = _face_table(self.n, self.rotation)
        self._reach = []
        return True

    def _splice(self, u: int, v: int, a: int, b: int) -> None:
        """Insert uv into the face whose walk arrives at u from a and at v
        from b.

        Arriving at x from a, the walk leaves along the neighbour preceding
        a; inserting y just before a makes the walk turn onto xy there.
        """
        self.rotation[u].insert(self.rotation[u].index(a), v)
        self.rotation[v].insert(self.rotation[v].index(b), u)

    def _retrace(self, starts: list[tuple[int, int]]) -> None:
        """Replace the faces through the corners changed since the last trace:
        the ``face_walks`` from ``starts`` (a dart on each such face) take
        the least free ids as traced, and the faces whose darts they took
        over are freed."""
        faces, masks = self._faces, self._face_mask
        walks, darts = face_walks(self.rotation, starts)
        for k, walk in enumerate(faces):
            if walk and (walk[0], walk[1]) in darts:
                for x in walk:
                    masks[x] &= ~(1 << k)
                faces[k] = []
        for walk in walks:
            k = faces.index([]) if [] in faces else len(faces)
            faces[k : k + 1] = [walk]
            for x in walk:
                masks[x] |= 1 << k

    def _one_piece(self, u: int, v: int) -> bool:
        """Whether u and v both lie on one piece (more than two of its face
        bits): a piece is 2-connected, so they are in one block, where rule 4
        would only run its DFS to return None."""
        return any(p[u].bit_count() > 2 and p[v].bit_count() > 2 for p in self._pieces)

    def _join_blocks(self, u: int, v: int) -> list[tuple[int, int]] | None:
        """Splice uv after re-hanging blocks at cut vertices, and return the
        darts to re-walk from, uv, vu and each cw whose successor in c's
        rotation changed; or None, changing nothing, if u and v lie in one
        block or a block on the block-cut path between them (from the
        lowpoints of one DFS from u, Hopcroft & Tarjan, 1973) has its two
        attachments, u or the cut vertex where the path enters it and v or
        the one where it leaves, on no face of the rotation restricted to it.

        The blocks at a cut vertex c hold nested slices of its rotation, and
        each can hang in any corner there, so c's rotation becomes the block
        on u's side from the neighbour its face arrives from, the block on
        v's side likewise, then every other neighbour in order: the former
        face leaves c into the latter and comes back.  The merged face holds
        u and v (Di Battista & Tamassia, 1996; Holm & Rotenberg, STOC 2020).
        """
        rotation, n = self.rotation, self.n
        parent, block, index, low, order = [-1] * n, [-1] * n, [-1] * n, [0] * n, [u]
        index[u], stack = 0, [(u, iter(rotation[u]))]  # index: DFS preorder numbers
        while stack:  # min() would double the time of this loop
            x, nbrs = stack[-1]
            for w in nbrs:
                if (i := index[w]) < 0:
                    parent[w], index[w], low[w] = x, len(order), len(order)
                    order.append(w)
                    stack.append((w, iter(rotation[w])))
                    break
                if i < low[x]:
                    low[x] = i
            else:
                stack.pop()
                if stack and low[x] < low[stack[-1][0]]:
                    low[stack[-1][0]] = low[x]
        path = [v]
        while path[-1] != u:
            path.append(parent[path[-1]])
        # The blocks on the path from u's, each named by its first vertex below its top.
        ids = [w for w, p in zip(path, path[1:]) if low[w] >= index[p]][::-1]
        if len(ids) < 2:
            return None
        members = {b: {parent[b]} for b in ids}
        for x in order[1:]:
            p = parent[x]
            block[x] = x if low[x] >= index[p] else block[p]
            if block[x] in members:
                members[block[x]].add(x)
        tops = [parent[b] for b in ids]
        cuts, ends = tops[1:], zip(tops, tops[1:] + [v])
        faces, darts = [], [(u, v), (v, u)]  # faces: rotation, arrivals at both ends, per block
        for b, (s, t) in zip(ids, ends):
            sub = {x: [w for w in rotation[x] if w in members[b]] for x in members[b]}
            walk = next((w for y in sub[s] if t in (w := face_walk(sub, s, y))), None)
            if walk is None:
                return None
            faces.append((sub, walk[-1], walk[walk.index(t) - 1]))
        for c, (sub, _, p), (next_sub, q, _) in zip(cuts, faces, faces[1:]):
            first, second, old = sub[c], next_sub[c], rotation[c]
            i, k = first.index(p), second.index(q)
            rest = [w for w in old if w not in first and w not in second]
            rotation[c] = new = first[i:] + first[:i] + second[k:] + second[:k] + rest
            after = dict(zip(old, old[1:] + old[:1]))
            darts += [(c, w) for w, x in zip(new, new[1:] + new[:1]) if after[w] != x]
        self._splice(u, v, faces[0][1], faces[-1][2])
        return darts

    def _flip(self, u: int, v: int) -> bool:
        """Rule 5: ``_mirror`` at each pair on faces of u and v that ``_separator`` would test."""
        faces, masks, pairs = self._faces, self._face_mask, {}
        for f in _bits(masks[v]):
            walk, k = faces[f], len(faces[f])
            for i, j in combinations([i for i, x in enumerate(walk) if masks[x] & masks[u]], 2):
                a, b, shared = walk[i], walk[j], masks[walk[i]] & masks[walk[j]]
                if a != b and shared & masks[u] and (shared.bit_count() > 2 or 1 < j - i < k - 1):
                    pairs[min(a, b), max(a, b)] = None
        return any(self._mirror(u, v, a, b, s) for a, b in pairs for s in (u, v))

    def _mirror(self, u: int, v: int, a: int, b: int, s: int) -> bool:
        """Rule 5 at ab for H, the side s reaches past neither a nor b: reverse
        each H vertex's rotation and H's slice of a's and b's.  Only the faces
        at the slices' ends change and are re-walked on a tentative rotation;
        H's other faces keep their ids, walks reversed.  False changes nothing."""
        rotation, faces, masks = self.rotation, self._faces, self._face_mask
        inside, side, kept = [False] * self.n, [s], 0  # kept: H's faces
        inside[a] = inside[b] = inside[s] = True
        for x in side:
            kept |= masks[x]
            for w in rotation[x]:
                if not inside[w]:
                    inside[w] = True
                    side.append(w)
        if inside[u + v - s]:
            return False
        inside[a] = inside[b] = False
        rot, old, new = rotation.copy(), [], []  # old, new: darts at the slices' ends
        for c in (a, b):
            r = rotation[c]
            ends = [i for i in range(len(r)) if inside[r[i - 1]] != inside[r[i]]]
            if len(ends) > 2:  # H's neighbours are not one slice of c's rotation
                return False
            i = next((i for i in ends if inside[r[i]]), 0)
            r = r[i:] + r[:i]  # H's slice first
            rot[c] = [w for w in r if inside[w]][::-1] + [w for w in r if not inside[w]]
            if ends:  # rot[c][0] is the last of H's slice
                old += [(c, r[-1]), (c, rot[c][0])]
                new += [(c, r[-1]), (c, r[0])]
        for x in side:
            rot[x] = rotation[x][::-1]
        walks, _ = face_walks(rot, new)
        joint = next((w for w in walks if u in w and v in w), None)
        replaced, darts = face_walks(rotation, old)
        if joint is None or len(walks) != len(replaced) or len(darts) != sum(map(len, walks)):
            return False
        for k in _bits(kept | masks[a] | masks[b]):
            if (faces[k][0], faces[k][1]) in darts:  # replaced
                for x in faces[k]:
                    masks[x] &= ~(1 << k)
                faces[k] = []
            elif kept >> k & 1:
                faces[k] = faces[k][:1] + faces[k][:0:-1]
        self.rotation = rot
        self._splice(u, v, joint[joint.index(u) - 1], joint[joint.index(v) - 1])
        self._retrace(new + [(u, v), (v, u)])
        return True


def build_pmfg(
    sim: SimilarityMatrix, tie_policy: TiePolicy = "lexicographic"
) -> PmfgResult:
    """Greedy descending-weight construction gated by planarity.

    ``_PlanarityGate`` decides each candidate pair; its docstring lists the
    rules.  Every rule is exact, so the accepted list is the one a fresh
    planarity test per pair gives, and ``gate_counts`` records how many
    pairs each rule decided.  The output embedding is extracted from the
    final kept graph by one more planarity test.  Identical input and tie
    policy give an identical accepted list.
    """
    n = sim.n
    if n < 3:
        raise InputError("PMFG needs at least 3 entities")
    target = 3 * (n - 2)
    ranked = weighted_edge_list(sim, tie_policy)
    accepted: list[tuple[int, int, float]] = []
    rejected: list[tuple[int, int, float]] = []
    decisions: list[bool] = []
    gate = _PlanarityGate(n)
    for pair in ranked:
        decisions.append(kept := gate.add_if_planar(pair[0], pair[1]))
        (accepted if kept else rejected).append(pair)
        if len(accepted) == target:
            break
    verdict = is_planar(n, [(u, v) for u, v, _ in accepted])
    if not verdict.planar or verdict.embedding is None:
        raise VerificationFailure("the accepted edges fail the final planarity test")
    emb = PlanarEmbedding._trusted(verdict.embedding.rotation, labels=tuple(sim.labels))
    return PmfgResult(
        embedding=emb,
        accepted=tuple(accepted),
        rejected=tuple(rejected),
        total_weight=float(sum(w for _, _, w in accepted)),
        gate_counts=GateCounts(**gate.counts),
        decisions=tuple(decisions),
    )


# ----------------------------------------------------------------------
# CSV interfaces
# ----------------------------------------------------------------------


def _read_lines(path: str | Path) -> list[str]:
    """A file's lines, split where csv splits rows (each keeps its \\r, \\n
    or \\r\\n).  A file that cannot be opened or decoded is an InputError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_rows(path: str | Path, lines: list[str] | None = None) -> list[list[str]]:
    """The rows of a CSV file, or of its ``lines`` when given.  A file that
    cannot be read, or that holds a field over the csv module's size limit,
    is an InputError."""
    try:
        return list(csv.reader(_read_lines(path) if lines is None else lines))
    except csv.Error as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def read_returns_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Returns table: header row of entity names, one row per observation.

    numpy reads the data lines in one call where that gives what the row
    loop gives.  It refuses what float reads in other syntax ("1_0",
    non-ASCII digits, quoted cells) and skips blank lines, which the row
    count catches.  Of what it reads, float refuses only \\x1c-\\x1f, which
    numpy strips as whitespace, and csv only a field over its size limit.
    Every other file takes the row loop, which names the first bad line.
    """
    lines = _read_lines(path)
    reader = csv.reader(lines)
    with contextlib.suppress(csv.Error, ValueError):  # the row loop reports both
        labels = [c.strip() for c in next(reader, [])]
        body = lines[reader.line_num :]
        text = "".join(body)
        if (
            len(body) >= 2
            and body[0].strip()  # numpy warns on a table with no row
            and max(map(len, body)) <= csv.field_size_limit()
            and not any(c in text for c in "\x1c\x1d\x1e\x1f")
        ):
            table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
            if table.shape == (len(body), len(labels)):
                _check_labels(labels)
                return labels, table
    rows = _read_rows(path, lines)
    if not rows or len(rows) < 3:
        raise InputError(f"{path}: need a header and at least two observations")
    labels = [c.strip() for c in rows[0]]
    _check_labels(labels)  # before the shape: a trailing comma is an empty label
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(labels):
            raise InputError(f"{path}:{lineno}: expected {len(labels)} columns")
        try:
            data.append([float(c) for c in row])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    return labels, np.array(data)


def read_matrix_csv(path: str | Path) -> SimilarityMatrix:
    """Square similarity matrix with labels in the first row and column."""
    rows = _read_rows(path)
    if not rows:
        raise InputError(f"{path}: empty file")
    labels = [c.strip() for c in rows[0][1:]]
    _check_labels(labels)  # before the shape: a trailing comma is an empty label
    n = len(labels)
    if len(rows) != n + 1:
        raise InputError(f"{path}: expected {n} data rows after the header")
    values = np.empty((n, n))
    for i, row in enumerate(rows[1:]):
        lineno = i + 2
        if len(row) != n + 1:
            raise InputError(f"{path}:{lineno}: expected {n + 1} columns")
        if row[0].strip() != labels[i]:
            raise InputError(
                f"{path}:{lineno}: row label {row[0].strip()!r} does not match "
                f"header order"
            )
        try:
            values[i] = [float(c) for c in row[1:]]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    return SimilarityMatrix(tuple(labels), values)


def acceptance_log_csv(result: PmfgResult) -> str:
    """Scan log as CSV: rank, labels, weight and the accept/reject decision.

    Ranks are positions in the descending-weight scan; pairs past the early
    stop were never examined and do not appear.  The rows follow
    ``result.decisions``; a result whose decisions do not split its examined
    pairs into its accepted and rejected lists is an InputError.
    """
    labels, decisions = result.labels, result.decisions
    accepted, rejected = result.accepted, result.rejected
    if labels is None:
        raise InputError("the result's embedding carries no labels")
    if len(decisions) != len(accepted) + len(rejected) or sum(decisions) != len(accepted):
        raise InputError("the result's decisions do not match its accepted and rejected pairs")
    # Only a label can need quoting, so csv quotes each label once.
    cells = []
    for label in labels:
        buf = io.StringIO()
        csv.writer(buf).writerow([label])
        cells.append(buf.getvalue()[:-2])  # less the row's \r\n
    lines = ["rank,u,v,weight,status\r\n"]
    pairs = (iter(rejected), iter(accepted))
    status = ("rejected", "accepted")
    for rank, kept in enumerate(decisions, start=1):
        u, v, w = next(pairs[kept])
        lines.append(f"{rank},{cells[u]},{cells[v]},{w!r},{status[kept]}\r\n")
    return "".join(lines)
