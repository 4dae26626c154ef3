"""Planarity decisions for abstract graphs.

Two independent routes are provided.  ``is_planar`` is the production gate:
a linear-time test that also extracts a concrete sphere embedding.
``kuratowski_oracle`` re-decides planarity from first principles by
exhaustively searching for a subdivision of K5 or K3,3; it is exponential
and capped at small n, and exists so the two routes can be checked against
each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import networkx as nx

from .embedding import Edge, PlanarEmbedding
from .errors import CeilingError, InputError

ORACLE_CEILING = 12


@dataclass(frozen=True)
class PlanarityVerdict:
    """Outcome of a planarity test.

    ``embedding`` is present when the graph is planar and connected (a single
    rotation system cannot place several components on one sphere).
    ``witness`` is an edge set forming a K5 or K3,3 subdivision, present only
    when the graph is non-planar and a witness was requested.
    """

    planar: bool
    embedding: PlanarEmbedding | None = None
    witness: tuple[Edge, ...] | None = None


def _check_graph(n: int, edges) -> list[Edge]:
    if n < 0:
        raise InputError("vertex count must be non-negative")
    seen: set[Edge] = set()
    out: list[Edge] = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise InputError(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        out.append(key)
    return out


def is_planar(n: int, edges, *, want_witness: bool = False) -> PlanarityVerdict:
    """Decide planarity of the simple graph on vertices 0..n-1.

    Planar connected inputs additionally get a rotation system realizing a
    sphere embedding (counter-clockwise convention of ``PlanarEmbedding``).
    """
    edge_list = _check_graph(n, edges)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edge_list)
    ok, cert = nx.check_planarity(graph, counterexample=want_witness)
    if not ok:
        witness = None
        if want_witness:
            witness = tuple(
                (u, v) if u < v else (v, u) for u, v in cert.edges()
            )
        return PlanarityVerdict(planar=False, witness=witness)
    if n < 2 or not nx.is_connected(graph):
        return PlanarityVerdict(planar=True)
    # networkx stores clockwise orders; reversing them yields the
    # counter-clockwise convention used by PlanarEmbedding.
    rotation = [
        list(cert.neighbors_cw_order(v))[::-1] for v in range(n)
    ]
    return PlanarityVerdict(planar=True, embedding=PlanarEmbedding(rotation))


# ----------------------------------------------------------------------
# Exhaustive Kuratowski-subdivision oracle
# ----------------------------------------------------------------------


def kuratowski_oracle(n: int, edges, *, ceiling: int = ORACLE_CEILING) -> bool:
    """True iff the graph contains no subdivision of K5 or of K3,3.

    By Kuratowski's theorem this is exactly planarity.  The decision is made
    by brute force: try every candidate set of branch vertices and search for
    internally disjoint connecting paths among the remaining vertices.
    """
    edge_list = _check_graph(n, edges)
    if n > ceiling:
        raise CeilingError(
            f"oracle is exponential; refusing n={n} > ceiling={ceiling}"
        )
    masks = [0] * n
    for u, v in edge_list:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    if _has_k5_subdivision(n, masks) or _has_k33_subdivision(n, masks):
        return False
    return True


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _min_interior(masks: list[int], a: int, b: int, free: int) -> int | None:
    """Fewest interior vertices (from ``free``) on any a-b path, or None."""
    if masks[a] >> b & 1:
        return 0
    layer = masks[a] & free
    visited = layer
    depth = 1
    while layer:
        if layer & masks[b]:
            return depth
        grown = 0
        for x in _bits(layer):
            grown |= masks[x]
        layer = grown & free & ~visited
        visited |= layer
        depth += 1
    return None


def _pack_paths(masks: list[int], pairs: list[Edge], free: int) -> bool:
    """Can all ``pairs`` be joined by internally disjoint paths through ``free``?

    Interior vertices are drawn from the ``free`` bitmask only; each is used
    by at most one path.  The search is exhaustive; it is pruned by an
    admissible bound (each pair consumes at least its unconstrained shortest
    interior count) and failure states are memoized on (pair index, free).
    """
    budget = bin(free).count("1")
    base: list[int] = []
    for a, b in pairs:
        cost = _min_interior(masks, a, b, free)
        if cost is None:
            return False
        base.append(cost)
    if sum(base) > budget:
        return False
    # Most constrained pair first; shrinking free only raises true costs, so
    # the precomputed suffix sums stay valid lower bounds.
    order = sorted(range(len(pairs)), key=lambda i: -base[i])
    pairs = [pairs[i] for i in order]
    base = [base[i] for i in order]
    suffix = [0] * (len(pairs) + 1)
    for i in range(len(pairs) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + base[i]
    memo: dict[tuple[int, int], bool] = {}

    def solve(i: int, free: int) -> bool:
        if i == len(pairs):
            return True
        if suffix[i] > bin(free).count("1"):
            return False
        key = (i, free)
        cached = memo.get(key)
        if cached is not None:
            return cached
        a, b = pairs[i]
        ok = False
        if masks[a] >> b & 1:
            ok = solve(i + 1, free)
        if not ok:

            def extend(cur: int, used: int) -> bool:
                for w in _bits(masks[cur] & free & ~used):
                    nu = used | 1 << w
                    if masks[w] >> b & 1 and solve(i + 1, free & ~nu):
                        return True
                    if extend(w, nu):
                        return True
                return False

            ok = extend(a, 0)
        memo[key] = ok
        return ok

    return solve(0, free)


def _has_k5_subdivision(n: int, masks: list[int]) -> bool:
    candidates = [v for v in range(n) if bin(masks[v]).count("1") >= 4]
    all_mask = (1 << n) - 1
    for branch in combinations(candidates, 5):
        branch_mask = 0
        for v in branch:
            branch_mask |= 1 << v
        pairs = list(combinations(branch, 2))
        if _pack_paths(masks, pairs, all_mask & ~branch_mask):
            return True
    return False


def _has_k33_subdivision(n: int, masks: list[int]) -> bool:
    candidates = [v for v in range(n) if bin(masks[v]).count("1") >= 3]
    all_mask = (1 << n) - 1
    for branch in combinations(candidates, 6):
        branch_mask = 0
        for v in branch:
            branch_mask |= 1 << v
        rest = branch[1:]
        for left_rest in combinations(rest, 2):
            left = (branch[0],) + left_rest
            right = tuple(v for v in rest if v not in left_rest)
            pairs = [(a, b) for a in left for b in right]
            if _pack_paths(masks, pairs, all_mask & ~branch_mask):
                return True
    return False
