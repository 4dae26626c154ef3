"""Census of 3-cliques and 4-cliques of a sphere triangulation.

Every 3-clique of a triangulation either bounds a face (a surface triangle)
or has vertices strictly inside and strictly outside it (a separating
3-cycle).  Kuratowski's theorem caps clique size in a planar graph at 4, so
the census of sizes 3 and 4 is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .embedding import PlanarEmbedding
from .errors import CeilingError, InputError, StructuralError
from .planarity import _check_graph

BRUTE_FORCE_CEILING = 16


@dataclass(frozen=True)
class CliqueCensus:
    c3_total: int
    c3_surface: int
    c3_separating: int
    c4_total: int
    surface_triangles: tuple[tuple[int, int, int], ...]
    separating_triangles: tuple[tuple[int, int, int], ...]
    four_cliques: tuple[tuple[int, int, int, int], ...]

    @property
    def counts(self) -> tuple[int, int]:
        return (self.c3_total, self.c4_total)

    def to_json_dict(self, n: int) -> dict:
        bounds = standard_form_expected(n)
        return {
            "c3_total": self.c3_total,
            "c3_surface": self.c3_surface,
            "c3_separating": self.c3_separating,
            "c4_total": self.c4_total,
            "surface_triangles": [list(t) for t in self.surface_triangles],
            "separating_triangles": [list(t) for t in self.separating_triangles],
            "four_cliques": [list(q) for q in self.four_cliques],
            "bounds": {
                "c3_min": bounds.surface,
                "c3_max": bounds.c3,
                "c4_max": bounds.c4,
                "c3_max_attained": self.c3_total == bounds.c3,
                "c4_max_attained": self.c4_total == bounds.c4,
            },
        }


class StandardFormCensus(NamedTuple):
    """Clique counts of the standard spherical triangulation on n vertices.

    ``c3`` decomposes as surface + enclosing - overlap: the 2n - 4 faces,
    plus the n - 3 pole triangles that enclose smaller triangles, minus the
    one pole triangle that is itself a face and would be counted twice.
    """

    c3: int
    c4: int
    surface: int
    enclosing: int
    overlap: int


def _neighbor_masks(emb: PlanarEmbedding) -> list[int]:
    """Refuse what the census does not take, then give bit w of masks[v] set
    iff vw is an edge; neighbors are distinct, so + is |."""
    if emb.n < 4:
        raise InputError("clique census needs n >= 4")
    if not emb.is_triangulation():
        raise StructuralError("clique census requires a triangulation")
    return [sum(1 << w for w in nbrs) for nbrs in emb.rotation]


def count_cliques(emb: PlanarEmbedding) -> CliqueCensus:
    """Enumerate and classify all 3- and 4-cliques of a triangulation."""
    masks = _neighbor_masks(emb)
    triangles: list[tuple[int, int, int]] = []
    for u, v in emb.edges():
        w_mask = masks[u] & masks[v] & ~((1 << (v + 1)) - 1)
        while w_mask:
            low = w_mask & -w_mask
            triangles.append((u, v, low.bit_length() - 1))
            w_mask ^= low
    four: list[tuple[int, int, int, int]] = []
    for a, b, c in triangles:
        x_mask = masks[a] & masks[b] & masks[c] & ~((1 << (c + 1)) - 1)
        while x_mask:
            low = x_mask & -x_mask
            four.append((a, b, c, low.bit_length() - 1))
            x_mask ^= low
    # On a triangulation every corner is a face: uvw bounds one iff v and w
    # are consecutive around u.
    surface: list[tuple[int, int, int]] = []
    separating: list[tuple[int, int, int]] = []
    for t in triangles:
        u, v, w = t
        ring = emb.rotation[u]
        i = ring.index(v)
        on_face = w == ring[i - 1] or w == ring[(i + 1) % len(ring)]
        (surface if on_face else separating).append(t)
    return CliqueCensus(
        c3_total=len(triangles),
        c3_surface=len(surface),
        c3_separating=len(separating),
        c4_total=len(four),
        surface_triangles=tuple(surface),
        separating_triangles=tuple(separating),
        four_cliques=tuple(four),
    )


def clique_counts(emb: PlanarEmbedding) -> tuple[int, int]:
    """``count_cliques(emb).counts``, with the same refusals, from the same
    triangles u < v < w, but listing and classifying no clique: the 4-cliques
    above w are one popcount of the common neighbours of u, v and w."""
    masks = _neighbor_masks(emb)
    c3 = c4 = 0
    for u, v in emb.edges():
        common = masks[u] & masks[v]
        w_mask = common >> (v + 1) << (v + 1)
        while w_mask:
            w = (w_mask & -w_mask).bit_length() - 1
            c3 += 1
            c4 += ((common & masks[w]) >> (w + 1)).bit_count()
            w_mask ^= 1 << w
    return (c3, c4)


def standard_form_expected(n: int) -> StandardFormCensus:
    """Clique counts the standard form attains, which are the clique bounds
    of every triangulation on n vertices: 2n - 4 <= C3 <= 3n - 8, since each
    of the 2n - 4 faces is a 3-clique, and 0 <= C4 <= n - 3."""
    if n < 4:
        raise InputError("standard form is defined for n >= 4")
    return StandardFormCensus(
        c3=3 * n - 8,
        c4=n - 3,
        surface=2 * n - 4,
        enclosing=n - 3,
        overlap=1,
    )


def brute_force_cliques(n: int, edges) -> tuple[int, int]:
    """Count 3- and 4-cliques of an abstract graph by exhaustive subsets.

    Every 3- and 4-subset is tested by one ``and`` chain over all of its
    pairs in an adjacency matrix, which stops only at a missing pair, so the
    count stays exhaustive.  It reads no rotation, face or neighbour mask,
    so the oracle shares no code with the census.
    """
    n, edge_list = _check_graph(n, edges)
    if n > BRUTE_FORCE_CEILING:
        raise CeilingError(f"refusing brute-force census for n={n} > {BRUTE_FORCE_CEILING}")
    adj = [[False] * n for _ in range(n)]
    for u, v in edge_list:
        adj[u][v] = adj[v][u] = True
    c3 = sum(
        1
        for a, b, c in combinations(range(n), 3)
        if adj[a][b] and adj[a][c] and adj[b][c]
    )
    c4 = sum(
        1
        for a, b, c, d in combinations(range(n), 4)
        if adj[a][b] and adj[a][c] and adj[a][d] and adj[b][c] and adj[b][d] and adj[c][d]
    )
    return (c3, c4)
