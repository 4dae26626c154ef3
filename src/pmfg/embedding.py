"""Rotation-system embeddings of graphs on the sphere.

A graph embedded on the sphere is stored as a rotation system: for every
vertex, the cyclic counter-clockwise order of its neighbors.  Faces are
recovered by the standard face-tracing walk, so the structure carries no
coordinates.  All operations in this package treat embeddings as values;
nothing here mutates an existing instance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

from .errors import InputError, StructuralError

Edge = tuple[int, int]
Dart = tuple[int, int]


@dataclass(frozen=True)
class Face:
    """One face of an embedding, as the closed walk that traces its boundary.

    In a triangulation every boundary is a 3-cycle.  For non-triangulated
    embeddings a boundary walk may repeat vertices (walking a tree traverses
    each edge twice), so ``degree`` counts boundary edge traversals, not
    distinct vertices.
    """

    boundary: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.boundary)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.boundary)


@dataclass(frozen=True)
class CycleRef:
    """A cycle of a host embedding together with one choice of interior.

    ``vertices`` is the cyclic boundary walk; ``chords`` are the edges of the
    host graph that lie strictly inside the chosen region and join two cycle
    vertices.  ``interior_faces`` records the face walks composing the region
    when the cycle was enumerated from an embedding.
    """

    vertices: tuple[int, ...]
    chords: tuple[Edge, ...] = ()
    interior_faces: tuple[tuple[int, ...], ...] | None = None

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


class EulerReport(NamedTuple):
    n: int
    e: int
    f: int
    is_triangulation: bool


def _canonical_walk(walk: list[int]) -> tuple[int, ...]:
    """Rotate a closed walk so it starts at its lexicographically best point."""
    best = None
    m = min(walk)
    for i, v in enumerate(walk):
        if v != m:
            continue
        cand = tuple(walk[i:] + walk[:i])
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


def _is_vertex(x: object) -> bool:
    """True for a JSON integer; bool is an int subclass but not a vertex id."""
    return isinstance(x, int) and not isinstance(x, bool)


def _canonical_rotation(nbrs: Sequence[int]) -> tuple[int, ...]:
    """Rotate a cyclic neighbor order to start at the smallest id.

    Cyclic sequences are equivalence classes; fixing the start point makes
    structural equality, hashing and serialization representation-independent.
    """
    if not nbrs:
        return ()
    i = min(range(len(nbrs)), key=lambda j: nbrs[j])
    return tuple(nbrs[i:]) + tuple(nbrs[:i])


class PlanarEmbedding:
    """An embedding of a connected simple graph on the sphere.

    Construction validates the full set of invariants: neighbor lists are
    mutually symmetric, contain no self-loops or duplicates, the graph is
    connected, and the face-tracing walk closes up with n - e + f = 2.

    ``labels`` is an optional side table of external names (one per vertex);
    it is never consulted by any algorithm.  ``outer_face`` optionally marks
    one face as the unbounded one for rendering and for counts that are
    stated relative to a plane drawing; it is ignored everywhere else.
    """

    def __init__(
        self,
        rotation: Sequence[Sequence[int]],
        labels: Sequence[str] | None = None,
        outer_face: Sequence[int] | None = None,
    ) -> None:
        self.rotation: tuple[tuple[int, ...], ...] = tuple(
            _canonical_rotation(tuple(nbrs)) for nbrs in rotation
        )
        self.labels: tuple[str, ...] | None = tuple(labels) if labels else None
        self.outer_face: tuple[int, ...] | None = (
            tuple(outer_face) if outer_face else None
        )
        self._validate()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rotation)

    @cached_property
    def e(self) -> int:
        return sum(len(nbrs) for nbrs in self.rotation) // 2

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.rotation[v]

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Adjacency as bitmasks; bit w of entry v is set iff vw is an edge."""
        masks = []
        for nbrs in self.rotation:
            m = 0
            for w in nbrs:
                m |= 1 << w
            masks.append(m)
        return tuple(masks)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.neighbor_masks[u] >> v & 1)

    def edges(self) -> Iterator[Edge]:
        for u, nbrs in enumerate(self.rotation):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def darts(self) -> Iterator[Dart]:
        for u, nbrs in enumerate(self.rotation):
            for v in nbrs:
                yield (u, v)

    # ------------------------------------------------------------------
    # Faces
    # ------------------------------------------------------------------

    def face_successor(self, dart: Dart) -> Dart:
        """Next dart along the face lying to the left of ``dart``.

        With counter-clockwise rotations the face walk turns at each vertex
        onto the neighbor immediately preceding the arrival vertex.
        """
        u, v = dart
        nbrs = self.rotation[v]
        return (v, nbrs[nbrs.index(u) - 1])

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        rotation = self.rotation
        position = [
            {w: i for i, w in enumerate(nbrs)} for nbrs in rotation
        ]
        seen: set[Dart] = set()
        out: list[Face] = []
        for u, nbrs in enumerate(rotation):
            for v in nbrs:
                if (u, v) in seen:
                    continue
                walk: list[int] = []
                a, b = u, v
                while (a, b) not in seen:
                    seen.add((a, b))
                    walk.append(a)
                    r = rotation[b]
                    a, b = b, r[position[b][a] - 1]
                out.append(Face(_canonical_walk(walk)))
        out.sort(key=lambda f: f.boundary)
        return tuple(out)

    @cached_property
    def face_sets(self) -> frozenset[frozenset[int]]:
        return frozenset(f.vertex_set for f in self.faces)

    def is_triangulation(self) -> bool:
        return all(f.degree == 3 for f in self.faces)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        n = len(self.rotation)
        if n < 2:
            raise StructuralError("an embedding needs at least two vertices")
        for v, nbrs in enumerate(self.rotation):
            seen_here: set[int] = set()
            for w in nbrs:
                if not 0 <= w < n:
                    raise StructuralError(f"vertex {v} lists unknown neighbor {w}")
                if w == v:
                    raise StructuralError(f"self-loop at vertex {v}")
                if w in seen_here:
                    raise StructuralError(
                        f"multiple edge: {w} repeats in the rotation of {v}"
                    )
                seen_here.add(w)
        for v, nbrs in enumerate(self.rotation):
            for w in nbrs:
                if v not in self.rotation[w]:
                    raise StructuralError(
                        f"asymmetric adjacency: {w} in rotation of {v} "
                        f"but not conversely"
                    )
        # Connectivity, then Euler's formula to pin genus 0.
        stack = [0]
        reached = {0}
        while stack:
            v = stack.pop()
            for w in self.rotation[v]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != n:
            raise StructuralError("embedding is disconnected")
        f = len(self.faces)
        if n - self.e + f != 2:
            raise StructuralError(
                f"rotation system has genus > 0: n={n} e={self.e} f={f}"
            )
        if self.labels is not None and len(self.labels) != n:
            raise StructuralError("labels must cover every vertex")
        if self.outer_face is not None:
            if frozenset(self.outer_face) not in self.face_sets:
                raise StructuralError("outer_face marker does not match any face")

    # ------------------------------------------------------------------
    # Equality and transforms
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanarEmbedding):
            return NotImplemented
        return self.rotation == other.rotation

    def __hash__(self) -> int:
        return hash(self.rotation)

    def __repr__(self) -> str:
        return f"PlanarEmbedding(n={self.n}, e={self.e}, f={len(self.faces)})"

    def relabel(self, perm: Sequence[int]) -> "PlanarEmbedding":
        """Rename vertex v to perm[v], preserving the cyclic orders."""
        if sorted(perm) != list(range(self.n)):
            raise InputError("perm must be a permutation of the vertex ids")
        new_rot: list[list[int]] = [[] for _ in range(self.n)]
        for v, nbrs in enumerate(self.rotation):
            new_rot[perm[v]] = [perm[w] for w in nbrs]
        labels = None
        if self.labels is not None:
            relabeled = [""] * self.n
            for v, name in enumerate(self.labels):
                relabeled[perm[v]] = name
            labels = relabeled
        outer = tuple(perm[v] for v in self.outer_face) if self.outer_face else None
        return PlanarEmbedding(new_rot, labels=labels, outer_face=outer)

    def mirrored(self) -> "PlanarEmbedding":
        """The reflected embedding (every rotation reversed)."""
        return PlanarEmbedding(
            [tuple(reversed(nbrs)) for nbrs in self.rotation],
            labels=self.labels,
            outer_face=self.outer_face,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc: dict = {
            "n": self.n,
            "rotation": [list(nbrs) for nbrs in self.rotation],
        }
        if self.labels is not None:
            doc["labels"] = list(self.labels)
        if self.outer_face is not None:
            doc["outer_face"] = list(self.outer_face)
        return doc

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PlanarEmbedding":
        try:
            n = doc["n"]
            rotation = doc["rotation"]
        except (TypeError, KeyError) as exc:
            raise InputError(f"graph document lacks required key: {exc}") from exc
        if not isinstance(rotation, list) or not all(
            isinstance(nbrs, list) and all(map(_is_vertex, nbrs)) for nbrs in rotation
        ):
            raise InputError("graph document: rotation must be a list of integer lists")
        if not _is_vertex(n) or len(rotation) != n:
            raise InputError("graph document: rotation length must equal n")
        labels = doc.get("labels")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(s, str) for s in labels)
        ):
            raise InputError("graph document: labels must be a list of strings")
        outer_face = doc.get("outer_face")
        if outer_face is not None and not (
            isinstance(outer_face, list) and all(map(_is_vertex, outer_face))
        ):
            raise InputError("graph document: outer_face must be a list of integers")
        return cls(rotation, labels=labels, outer_face=outer_face)

    @classmethod
    def from_json(cls, text: str) -> "PlanarEmbedding":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(doc)

    def to_dot(self, name: str = "G") -> str:
        lines = [f"graph {name} {{"]
        for v in range(self.n):
            if self.labels is not None:
                lines.append(f'  {v} [label="{self.labels[v]}"];')
        for u, v in self.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Module-level operations
# ----------------------------------------------------------------------


def trace_faces(emb: PlanarEmbedding) -> list[Face]:
    """All faces of the embedding; each dart appears in exactly one boundary."""
    return list(emb.faces)


def euler_check(emb: PlanarEmbedding) -> EulerReport:
    """Report (n, e, f, is_triangulation) for an embedding.

    For a triangulation the identities e = 3n - 6, f = 2n - 4 and 3f = 2e
    follow from Euler's formula; they are re-asserted here as a guard against
    internal corruption.
    """
    n, e, f = emb.n, emb.e, len(emb.faces)
    tri = emb.is_triangulation()
    if tri:
        assert e == 3 * n - 6, (n, e)
        assert f == 2 * n - 4, (n, f)
        assert 3 * f == 2 * e, (e, f)
    return EulerReport(n, e, f, tri)


def degree_sequence(emb: PlanarEmbedding) -> list[int]:
    """Vertex degrees, sorted non-increasing.  Sums to 2e."""
    return sorted((len(nbrs) for nbrs in emb.rotation), reverse=True)
