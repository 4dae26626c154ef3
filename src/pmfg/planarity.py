"""Planarity decisions for abstract graphs.

Two independent routes are provided.  ``is_planar`` is the production gate:
the linear-time left-right planarity test of de Fraysseix and Rosenstiehl,
which also extracts a concrete sphere embedding.  ``kuratowski_oracle``
re-decides planarity from first principles by exhaustively searching for a
subdivision of K5 or K3,3; it is exponential and capped at small n, and
exists so the two routes can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from numbers import Integral

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


def _is_id(x: object) -> bool:
    # An int or numpy integer; a bool would pass as vertex 0 or 1.
    return type(x) is int or isinstance(x, Integral) and not isinstance(x, bool)


def _check_graph(n: int, edges) -> tuple[int, list[Edge]]:
    if not _is_id(n):
        raise InputError(f"vertex count {n!r} is not an integer")
    if n < 0:
        raise InputError("vertex count must be non-negative")
    seen: set[Edge] = set()
    out: list[Edge] = []
    for u, v in edges:
        if not (_is_id(u) and _is_id(v)):
            raise InputError(f"edge ({u}, {v}) has a vertex id that is not an integer")
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise InputError(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        out.append(key)
    return int(n), out


def is_planar(n: int, edges, *, want_witness: bool = False) -> PlanarityVerdict:
    """Decide planarity of the simple graph on vertices 0..n-1.

    Planar connected inputs additionally get a rotation system realizing a
    sphere embedding (counter-clockwise convention of ``PlanarEmbedding``).
    The witness is the edge set left by deleting, for each vertex u in turn
    and each neighbour v in adjacency order, every edge uv whose removal
    keeps the graph non-planar.
    """
    n, edge_list = _check_graph(n, edges)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_list:
        adjacency[u].append(v)
        adjacency[v].append(u)
    found = _lr_rotation(n, adjacency)
    if found is None:
        witness = _kuratowski_witness(n, adjacency) if want_witness else None
        return PlanarityVerdict(planar=False, witness=witness)
    rotation, roots = found
    if n < 2 or roots > 1:
        return PlanarityVerdict(planar=True)
    return PlanarityVerdict(planar=True, embedding=PlanarEmbedding(rotation))


def _kuratowski_witness(n: int, adjacency: list[list[int]]) -> tuple[Edge, ...]:
    """A minimal non-planar subgraph of a non-planar graph, by edge deletion.

    Every edge whose removal leaves the graph non-planar is deleted; the
    rest is a subdivision of K5 or K3,3 (Kuratowski).  A kept edge moves to
    the end of both adjacency lists, as in networkx's ``get_counterexample``,
    so the same edge set comes out.
    """
    adj = [list(nbrs) for nbrs in adjacency]
    kept: dict[Edge, None] = {}
    for u in range(n):
        for v in list(adj[u]):
            adj[u].remove(v)
            adj[v].remove(u)
            if _lr_rotation(n, adj) is not None:
                adj[u].append(v)
                adj[v].append(u)
                kept[(u, v) if u < v else (v, u)] = None
    return tuple(kept)


def _lr_rotation(
    n: int, adjacency: list[list[int]]
) -> tuple[list[list[int]], int] | None:
    """Left-right planarity test; a counter-clockwise rotation system or None.

    Returns ``None`` if the graph on 0..n-1 with the given (symmetric,
    simple) adjacency lists is not planar.  Otherwise returns a rotation
    system realizing a planar embedding of every component, and the number
    of DFS roots, which is the number of components.

    This is the left-right test of de Fraysseix and Rosenstiehl as given by
    U. Brandes, "The Left-Right Planarity Test" (2009), ported step for step
    from networkx 3.x's ``LRPlanarity`` (iterative form) onto int edge ids
    and plain lists.  Its four phases are the orientation DFS (lowpoints and
    nesting depths), the testing DFS over conflict pairs of return-edge
    intervals, ``sign`` (resolving each edge's side relative to its
    reference edge), and the embedding DFS, which builds each vertex's
    clockwise ring of neighbours as a plain list.  The graph is traversed as
    networkx's internal copy of an ``nx.Graph`` traverses it: vertices in
    ascending order, and each vertex's edges to smaller vertices (ascending)
    before its edges to larger ones (in adjacency order).  So the rotation,
    including where each cyclic order starts, is the reverse of networkx's
    ``neighbors_cw_order``.  The first three phases are linear up to the sort
    by nesting depth.  The embedding's ``list.insert`` and ``list.index``
    calls cost O(deg) each, O(sum of deg**2) C-level work in all, which
    shows only once a vertex has tens of thousands of neighbours.
    """
    # Edges e = 0..m-1, listed as networkx's copy lists them.
    ends: list[int] = []  # v, w of edge e at 2e, 2e + 1
    incident: list[list[int]] = [[] for _ in range(n)]
    for v, nbrs in enumerate(adjacency):
        for w in nbrs:
            if w > v:
                e = len(ends) >> 1
                ends += (v, w)
                incident[v].append(e)
                incident[w].append(e)
    m = len(ends) >> 1
    if n > 2 and m > 3 * n - 6:
        return None

    # Orientation: a DFS orients every edge away from the root (tree edges)
    # or towards an ancestor (back edges) and computes its lowpoints.
    height = [-1] * n
    parent = [-1] * n  # tree edge entering each vertex, -1 at a root
    src = [-1] * m  # tail of each oriented edge; -1 until oriented
    dst = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    depth = [0] * m  # nesting depth
    out: list[list[int]] = [[] for _ in range(n)]  # edges leaving v, as oriented
    nxt = [0] * n  # next position in v's edge list
    roots: list[int] = []
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack[-1]
            hv = height[v]
            e = parent[v]
            edges = incident[v]
            i = nxt[v]
            while i < len(edges):
                ei = edges[i]
                if src[ei] < 0:
                    w = ends[2 * ei] + ends[2 * ei + 1] - v
                    src[ei] = v
                    dst[ei] = w
                    out[v].append(ei)
                    lowpt[ei] = lowpt2[ei] = hv
                    if height[w] < 0:  # tree edge; finish it on return
                        parent[w] = ei
                        height[w] = hv + 1
                        break
                    lowpt[ei] = height[w]  # back edge
                elif src[ei] != v:  # oriented from the other end already
                    i += 1
                    continue
                low = lowpt[ei]
                depth[ei] = 2 * low + (lowpt2[ei] < hv)  # +1 if chordal
                if e >= 0:  # fold ei's lowpoints into the parent edge's
                    if low < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lowpt2[ei])
                        lowpt[e] = low
                    elif low > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], low)
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[ei])
                i += 1
            nxt[v] = i
            if i < len(edges):
                stack.append(dst[edges[i]])
            else:
                stack.pop()

    # Testing: a second DFS, children in nesting order, keeps a stack S of
    # conflict pairs [left.low, left.high, right.low, right.high] of return
    # edges (None for an empty end) and fails at a forced conflict.
    key = depth.__getitem__
    ordered = [sorted(edges, key=key) for edges in out]
    ref: list[int | None] = [None] * m
    side = [1] * m
    lowpt_edge = [0] * m
    bottom: list[list | None] = [None] * m  # top of S when each edge was entered
    S: list[list] = []

    def add_constraints(ei: int, e: int) -> bool:
        """Merge the return edges of ei into the constraints of e."""
        P: list = [None, None, None, None]
        while True:  # merge the return edges of ei into P.right
            ll, lh, rl, rh = S.pop()
            if ll is not None or lh is not None:
                ll, lh, rl, rh = rl, rh, ll, lh
                if ll is not None or lh is not None:
                    return False
            if lowpt[rl] > lowpt[e]:  # merge intervals
                if P[2] is None and P[3] is None:  # topmost interval
                    P[3] = rh
                else:
                    ref[P[2]] = rh
                P[2] = rl
            else:  # align
                ref[rl] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom[ei]:
                break
        low = lowpt[ei]
        while True:  # merge conflicting return edges of earlier siblings into P.left
            ll, lh, rl, rh = S[-1]
            right_hit = (rl is not None or rh is not None) and lowpt[rh] > low
            left_hit = (ll is not None or lh is not None) and lowpt[lh] > low
            if not (left_hit or right_hit):
                break
            S.pop()
            if right_hit:
                ll, lh, rl, rh = rl, rh, ll, lh
                if (rl is not None or rh is not None) and lowpt[rh] > low:
                    return False
            if P[2] is not None:  # merge the interval below lowpt(ei) into P.right
                ref[P[2]] = rh
            if rl is not None:
                P[2] = rl
            if P[0] is None and P[1] is None:  # topmost interval
                P[1] = lh
            else:
                ref[P[0]] = lh
            P[0] = ll
        if P[0] is not None or P[1] is not None or P[2] is not None or P[3] is not None:
            S.append(P)
        return True

    def remove_back_edges(e: int) -> None:
        """Trim the back edges ending at the parent u of tree edge e."""
        u = src[e]
        hu = height[u]
        while S:  # drop entire conflict pairs
            ll, lh, rl, rh = S[-1]
            if ll is None and lh is None:
                lowest = lowpt[rl]
            elif rl is None and rh is None:
                lowest = lowpt[ll]
            else:
                lowest = min(lowpt[ll], lowpt[rl])
            if lowest != hu:
                break
            S.pop()
            if ll is not None:
                side[ll] = -1
        if S:  # one more conflict pair to consider
            P = S[-1]
            while P[1] is not None and dst[P[1]] == u:  # trim the left interval
                P[1] = ref[P[1]]
            if P[1] is None and P[0] is not None:  # just emptied
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = None
            while P[3] is not None and dst[P[3]] == u:  # trim the right interval
                P[3] = ref[P[3]]
            if P[3] is None and P[2] is not None:  # just emptied
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = None
        if lowpt[e] < hu:  # e's side is the side of a highest return edge
            hl, hr = S[-1][1], S[-1][3]
            highest_left = hl is not None and (hr is None or lowpt[hl] > lowpt[hr])
            ref[e] = hl if highest_left else hr

    def integrate(ei: int, v: int) -> bool:
        """Account for the return edges of ei, an edge leaving v."""
        if lowpt[ei] < height[v]:
            e = parent[v]
            if ordered[v][0] == ei:  # ei is the first return edge of e
                lowpt_edge[e] = lowpt_edge[ei]
            elif not add_constraints(ei, e):
                return False
        return True

    nxt = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack[-1]
            edges = ordered[v]
            i = nxt[v]
            child = -1
            while i < len(edges):
                ei = edges[i]
                i += 1
                bottom[ei] = S[-1] if S else None
                w = dst[ei]
                if parent[w] == ei:  # tree edge; integrated on return
                    child = w
                    break
                lowpt_edge[ei] = ei  # back edge
                S.append([None, None, ei, ei])
                if not integrate(ei, v):
                    return None
            nxt[v] = i
            if child >= 0:
                stack.append(child)
                continue
            stack.pop()
            e = parent[v]
            if e >= 0:
                remove_back_edges(e)
                if not integrate(e, src[e]):
                    return None

    # sign: each edge's side relative to its reference edge, made absolute.
    for e in range(m):
        chain = []
        x = e
        while ref[x] is not None:
            chain.append(x)
            x = ref[x]
        s = side[x]
        for x in reversed(chain):
            s = side[x] = side[x] * s
            ref[x] = None
    for e in range(m):
        depth[e] *= side[e]

    # Embedding: rings[v] lists v's neighbours clockwise from the one
    # networkx keeps first.  v's out-edges in signed nesting order start it;
    # a last DFS hangs each tree edge and back edge onto the ring of its
    # head.  left_ref[v] and right_ref[v] are the neighbours of v that v's
    # later back edges go next to.
    rings: list[list[int]] = []
    for v in range(n):
        edges = ordered[v] = sorted(out[v], key=key)
        rings.append([dst[e] for e in edges])
    left_ref = [0] * n
    right_ref = [0] * n
    nxt = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            edges = ordered[v]
            i = nxt[v]
            while i < len(edges):
                ei = edges[i]
                i += 1
                w = dst[ei]
                ring = rings[w]
                if parent[w] == ei:  # tree edge: v becomes w's first neighbour
                    ring.insert(0, v)
                    left_ref[v] = right_ref[v] = w
                    nxt[v] = i
                    stack += (v, w)
                    break
                if side[ei] == 1:  # just clockwise after right_ref[w]
                    ring.insert(ring.index(right_ref[w]) + 1, v)
                else:  # just counter-clockwise before left_ref[w]
                    ring.insert(ring.index(left_ref[w]), v)
                    left_ref[w] = v
    # Reversed, a ring runs counter-clockwise from the neighbour before its
    # first one and ends at the first: networkx's order read backwards.
    return [ring[::-1] for ring in rings], len(roots)


# ----------------------------------------------------------------------
# Exhaustive Kuratowski-subdivision oracle
# ----------------------------------------------------------------------


def kuratowski_oracle(n: int, edges) -> bool:
    """True iff the graph contains no subdivision of K5 or of K3,3.

    By Kuratowski's theorem this is exactly planarity.  The decision is made
    by brute force: try every candidate set of branch vertices and search for
    internally disjoint connecting paths among the remaining vertices.
    """
    n, edge_list = _check_graph(n, edges)
    if n > ORACLE_CEILING:
        raise CeilingError(
            f"oracle is exponential; refusing n={n} > ceiling={ORACLE_CEILING}"
        )
    masks = [0] * n
    for u, v in edge_list:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return not any(
        _pack_paths(masks, pairs, free) for free, pairs in _branch_placements(n, masks)
    )


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


def _branch_placements(n: int, masks: list[int]):
    """Every placement of branch vertices as (free, pairs): the vertices off
    the branch, through which paths may run, and the pairs to join.  First
    each 5-set of degree >= 4 with K5's 10 pairs, then each 6-set of degree
    >= 3, split with branch[0] on the left, with K3,3's 9 pairs."""
    degree = [mask.bit_count() for mask in masks]
    all_mask = (1 << n) - 1
    for branch in combinations([v for v in range(n) if degree[v] >= 4], 5):
        yield all_mask & ~sum(1 << v for v in branch), list(combinations(branch, 2))
    for branch in combinations([v for v in range(n) if degree[v] >= 3], 6):
        free = all_mask & ~sum(1 << v for v in branch)
        rest = branch[1:]
        for left_rest in combinations(rest, 2):
            right = [v for v in rest if v not in left_rest]
            yield free, [(a, b) for a in (branch[0], *left_rest) for b in right]
