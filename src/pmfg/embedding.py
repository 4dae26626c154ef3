"""Rotation-system embeddings of graphs on the sphere.

A graph embedded on the sphere is stored as a rotation system: for every
vertex, the cyclic counter-clockwise order of its neighbors, so the
structure carries no coordinates.  ``face_walk`` is the package's one loop
that walks a face, ``face_walks`` its one loop that collects the distinct
faces from given darts, and ``trace_faces`` is ``face_walks`` from every
dart.  All operations in this package treat embeddings as values; nothing
here mutates an existing instance.

Validation happens only at the trust boundaries: the public
``PlanarEmbedding`` constructor checks every invariant of user rotations,
JSON documents and the left-right planarity test's output.  Operations that
derive a rotation from a valid embedding check their own preconditions
instead, and build the result through ``PlanarEmbedding._trusted`` without
the re-check; they hand it the stored shape, canonical tuples only.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError, StructuralError, VerificationFailure

Edge = tuple[int, int]
# A face as the closed walk that traces its boundary, started where
# ``trace_faces`` starts it.  In a triangulation every boundary is a 3-cycle.
# For other embeddings a walk may repeat vertices (walking a tree traverses each
# edge twice), so its length counts boundary edge traversals, not distinct vertices.
Face = tuple[int, ...]


class EulerReport(NamedTuple):
    n: int
    e: int
    f: int
    is_triangulation: bool


def _check_labels(labels: Sequence[str]) -> None:
    """Entity labels must be non-empty, distinct strings; positions count from 1."""
    seen: set[str] = set()
    for i, label in enumerate(labels, start=1):
        if not isinstance(label, str):
            raise InputError(f"label {i} is not a string: {label!r}")
        if not label:
            raise InputError(f"label {i} is empty")
        if label in seen:
            raise InputError(f"labels must be unique: {label!r} repeats")
        seen.add(label)


def apex(rotation: Sequence[Sequence[int]], u: int, v: int) -> int:
    """The face walk's step: after the dart u -> v it turns at v onto the
    neighbor immediately preceding u.  With counter-clockwise rotations it
    walks the face left of the dart, in a triangulation the face u, v, apex."""
    r = rotation[v]
    return r[r.index(u) - 1]


def face_walk(rotation: Sequence[Sequence[int]], u: int, v: int) -> list[int]:
    """The boundary walk of the face left of the dart u -> v, started at u.
    The ``apex`` step must permute the darts: the neighbour lists are
    mutually symmetric and repeat no neighbour."""
    walk, a, b = [], u, v
    while True:
        walk.append(a)
        # apex(rotation, a, b) inlined: this is the builder's hot loop.
        r = rotation[b]
        a, b = b, r[r.index(a) - 1]
        if a == u and b == v:
            return walk


def face_walks(
    rotation: Sequence[Sequence[int]], starts: Iterable[tuple[int, int]]
) -> tuple[list[list[int]], set[tuple[int, int]]]:
    """The ``face_walk`` from each dart of ``starts`` that no earlier walk
    holds, and the darts of those walks: the one loop that collects faces."""
    walks: list[list[int]] = []
    darts: set[tuple[int, int]] = set()
    for a, b in starts:
        if (a, b) not in darts:
            walks.append(walk := face_walk(rotation, a, b))
            darts.update(zip(walk, walk[1:] + walk[:1]))
    return walks, darts


def trace_faces(rotation: Sequence[Sequence[int]]) -> list[list[int]]:
    """The ``face_walks`` from every dart, in vertex order, on a rotation
    ``face_walk`` accepts.  A walk starts at its least vertex, by that
    vertex's first dart on it in rotation order.  Isolated vertices lie on no
    walk, and a disconnected rotation gives the walks of each component."""
    return face_walks(rotation, ((u, v) for u, nbrs in enumerate(rotation) for v in nbrs))[0]


def _canonical_rotation(nbrs: Sequence[int]) -> tuple[int, ...]:
    """Rotate a cyclic neighbor order to start at the smallest id.

    Cyclic sequences are equivalence classes; fixing the start point makes
    structural equality, hashing and serialization representation-independent.
    """
    nbrs = tuple(nbrs)
    i = nbrs.index(min(nbrs)) if nbrs else 0
    return nbrs[i:] + nbrs[:i]


class PlanarEmbedding:
    """An embedding of a connected simple graph on the sphere.

    The public constructor validates the full set of invariants: neighbor
    lists are mutually symmetric, contain no self-loops or duplicates, the
    graph is connected, and the face-tracing walk closes up with
    n - e + f = 2.  ``_trusted`` skips the checks and stores its arguments
    as given, so it takes exactly the stored shape: a tuple of rotation
    tuples, each started at its least neighbor, and labels a tuple or None.
    Only code that derives the rotation from a valid embedding uses it
    (``relabel``, ``mirrored``, the wheel insertions and flips of
    ``pmfg.generator``, and ``pmfg.builder.build_pmfg`` on the rotation
    ``is_planar`` has just validated).

    ``labels`` is an optional side table of external names, one per vertex,
    non-empty and distinct; it is never consulted by any algorithm.  No face
    is distinguished: a count stated relative to a plane drawing takes its
    outer face as an argument (``pmfg.generator.pure_chord_cycle_sets``).
    """

    def __init__(
        self,
        rotation: Sequence[Sequence[int]],
        labels: Sequence[str] | None = None,
    ) -> None:
        self.labels: tuple[str, ...] | None = None if labels is None else tuple(labels)
        self._validate(rotation)

    @classmethod
    def _trusted(
        cls,
        rotation: tuple[tuple[int, ...], ...],
        labels: tuple[str, ...] | None = None,
    ) -> "PlanarEmbedding":
        """An embedding whose validity and stored shape the caller has
        established.  A wheel insertion or flip hands over its parent's
        entries with only the ones it touched rebuilt, so it does no Python
        work per untouched vertex."""
        emb = cls.__new__(cls)
        emb.rotation, emb.labels = rotation, labels
        return emb

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rotation)

    @cached_property
    def e(self) -> int:
        return sum(map(len, self.rotation)) // 2

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.rotation[u]

    def edges(self) -> Iterator[Edge]:
        for u, nbrs in enumerate(self.rotation):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # Faces
    # ------------------------------------------------------------------

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """The walks of ``trace_faces``, in sorted order."""
        return tuple(sorted(map(tuple, trace_faces(self.rotation))))

    def is_triangulation(self) -> bool:
        """Whether every face is a triangle, decided by the edge count alone.

        Every instance, validated or trusted, is a valid connected simple
        sphere embedding.  With n >= 3 its face walks have length >= 3, so
        2e >= 3f, and Euler's f = 2 - n + e gives e <= 3n - 6, with equality
        exactly when all faces are triangles.  ``euler_check`` keeps a
        face-based test as an independent guard.
        """
        return self.n >= 3 and self.e == 3 * self.n - 6

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate(self, rotation: Sequence[Sequence[int]]) -> None:
        """Check ``rotation`` as given in one pass, then store it canonical."""
        try:
            n = len(rotation)
            if n < 2:
                raise StructuralError("an embedding needs at least two vertices")
            for v, nbrs in enumerate(rotation):
                seen_here: set[int] = set()
                for w in nbrs:
                    # Exact ints: a bool would pass as vertex 1 and serialize as JSON true.
                    if type(w) is not int or not 0 <= w < n:
                        raise StructuralError(f"vertex {v} lists unknown neighbor {w!r}")
                    if w == v:
                        raise StructuralError(f"self-loop at vertex {v}")
                    if w in seen_here:
                        raise StructuralError(
                            f"multiple edge: {w} repeats in the rotation of {v}"
                        )
                    if v not in rotation[w]:
                        raise StructuralError(
                            f"asymmetric adjacency: {w} in rotation of {v} "
                            f"but not conversely"
                        )
                    seen_here.add(w)
        except TypeError as exc:  # the ids are ints by now, so only a shape fails
            raise StructuralError(f"rotation is not a sequence of sequences: {exc}") from None
        self.rotation = tuple(map(_canonical_rotation, rotation))
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
        e, f = self.e, len(self.faces)
        if n - e + f != 2:
            raise StructuralError(f"rotation system has genus > 0: n={n} e={e} f={f}")
        if self.labels is not None:
            if len(self.labels) != n:
                raise StructuralError("labels must cover every vertex")
            _check_labels(self.labels)

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
        # Every instance is a connected sphere embedding: f = 2 - n + e.
        return f"PlanarEmbedding(n={self.n}, e={self.e}, f={2 - self.n + self.e})"

    def relabel(self, perm: Sequence[int]) -> "PlanarEmbedding":
        """Rename vertex v to perm[v], preserving the cyclic orders."""
        if any(type(x) is not int for x in perm) or sorted(perm) != list(range(self.n)):
            raise InputError("perm must be a permutation of the vertex ids")
        old = sorted(range(self.n), key=perm.__getitem__)  # perm[old[x]] == x
        rotation = tuple(
            _canonical_rotation([perm[w] for w in self.rotation[v]]) for v in old
        )
        labels = tuple(self.labels[v] for v in old) if self.labels else None
        return PlanarEmbedding._trusted(rotation, labels=labels)

    def mirrored(self) -> "PlanarEmbedding":
        """The reflected embedding (every rotation reversed)."""
        rotation = tuple(_canonical_rotation(nbrs[::-1]) for nbrs in self.rotation)
        return PlanarEmbedding._trusted(rotation, labels=self.labels)

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
        return doc

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, doc: object) -> "PlanarEmbedding":
        if not isinstance(doc, dict):
            raise InputError("graph document: must be a JSON object")
        try:
            n = doc["n"]
            rotation = doc["rotation"]
        except KeyError as exc:
            raise InputError(f"graph document lacks required key: {exc}") from exc
        if not isinstance(rotation, list) or not all(
            isinstance(nbrs, list) and all(type(w) is int for w in nbrs)
            for nbrs in rotation
        ):
            raise InputError("graph document: rotation must be a list of integer lists")
        if type(n) is not int or len(rotation) != n:
            raise InputError("graph document: rotation length must equal n")
        labels = doc.get("labels")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(s, str) for s in labels)
        ):
            raise InputError("graph document: labels must be a list of strings")
        return cls(rotation, labels=labels)

    @classmethod
    def from_json(cls, text: str) -> "PlanarEmbedding":
        # JSONDecodeError is a ValueError, as is an int over Python's digit limit.
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(doc)

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v, label in enumerate(self.labels or ()):
            # In a DOT quoted string a backslash escapes the next character.
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{label}"];')
        for u, v in self.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Module-level operations
# ----------------------------------------------------------------------


def euler_check(emb: PlanarEmbedding) -> EulerReport:
    """Report (n, e, f, is_triangulation) for an embedding.

    For a triangulation the identities e = 3n - 6, f = 2n - 4 and 3f = 2e
    follow from Euler's formula; they are checked here as a guard against
    internal corruption, and a violation raises ``VerificationFailure``.
    """
    n, e, f = emb.n, emb.e, len(emb.faces)
    tri = all(len(face) == 3 for face in emb.faces)
    if tri and not (e == 3 * n - 6 and f == 2 * n - 4 and 3 * f == 2 * e):
        raise VerificationFailure(
            f"triangulation breaks Euler's identities: n={n} e={e} f={f}"
        )
    return EulerReport(n, e, f, tri)


def degree_sequence(emb: PlanarEmbedding) -> list[int]:
    """Vertex degrees, sorted non-increasing.  Sums to 2e."""
    return sorted((len(nbrs) for nbrs in emb.rotation), reverse=True)
