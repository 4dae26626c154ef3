"""Construction of Planar Maximally Filtered Graphs from similarity data.

The builder scans all vertex pairs in descending similarity order and keeps
an edge exactly when the kept set stays planar.  The scan stops once
3(n - 2) edges are accepted, at which point the kept graph is a maximal
planar graph (a sphere triangulation) and no later edge could ever be
accepted.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import Edge, PlanarEmbedding
from .errors import InputError
from .planarity import is_planar

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
        if len(set(self.labels)) != len(self.labels):
            raise InputError("labels must be unique")
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
class WeightedEdgeList:
    """All vertex pairs ordered by non-increasing weight."""

    entries: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        weights = [w for _, _, w in self.entries]
        if any(a < b for a, b in zip(weights, weights[1:])):
            raise InputError("edge list weights must be non-increasing")


@dataclass(frozen=True)
class PmfgResult:
    embedding: PlanarEmbedding
    accepted: tuple[tuple[int, int, float], ...]
    rejected: tuple[tuple[int, int, float], ...]
    total_weight: float

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
    stds = table.std(axis=0)
    for j, s in enumerate(stds):
        if s == 0.0:
            raise InputError(f"column {labels[j]} is constant; correlation undefined")
    corr = np.corrcoef(table, rowvar=False)
    return SimilarityMatrix(tuple(labels), corr, correlation=True)


def weighted_edge_list(
    sim: SimilarityMatrix, tie_policy: TiePolicy = "lexicographic"
) -> WeightedEdgeList:
    """Rank all pairs by descending similarity.

    Equal weights are ordered by the (min label, max label) pair so that runs
    are reproducible across platforms; the "strict" policy refuses them
    instead, listing every tied pair.
    """
    if tie_policy not in ("lexicographic", "strict"):
        raise InputError(f"unknown tie policy {tie_policy!r}")
    n = sim.n
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            w = float(sim.values[i, j])
            a, b = sorted((sim.labels[i], sim.labels[j]))
            pairs.append((-w, a, b, i, j))
    pairs.sort()
    if tie_policy == "strict":
        tied = [
            ((pairs[k][3], pairs[k][4]), (pairs[k + 1][3], pairs[k + 1][4]))
            for k in range(len(pairs) - 1)
            if pairs[k][0] == pairs[k + 1][0]
        ]
        if tied:
            listing = "; ".join(f"{x} ~ {y}" for x, y in tied)
            raise InputError(f"tied weights under strict policy: {listing}")
    return WeightedEdgeList(tuple((i, j, -negw) for negw, _, _, i, j in pairs))


def build_pmfg(
    sim: SimilarityMatrix, tie_policy: TiePolicy = "lexicographic"
) -> PmfgResult:
    """Greedy descending-weight construction gated by planarity.

    Each candidate edge is tested on the abstract graph accepted so far; a
    single embedding is extracted once at the end.  Identical input and tie
    policy give an identical accepted list.
    """
    n = sim.n
    if n < 3:
        raise InputError("PMFG needs at least 3 entities")
    target = 3 * (n - 2)
    ranked = weighted_edge_list(sim, tie_policy)
    accepted: list[tuple[int, int, float]] = []
    rejected: list[tuple[int, int, float]] = []
    kept_edges: list[Edge] = []
    for u, v, w in ranked.entries:
        candidate = kept_edges + [(u, v)]
        if is_planar(n, candidate).planar:
            kept_edges = candidate
            accepted.append((u, v, w))
            if len(accepted) == target:
                break
        else:
            rejected.append((u, v, w))
    verdict = is_planar(n, kept_edges)
    assert verdict.planar and verdict.embedding is not None
    emb = PlanarEmbedding(verdict.embedding.rotation, labels=sim.labels)
    return PmfgResult(
        embedding=emb,
        accepted=tuple(accepted),
        rejected=tuple(rejected),
        total_weight=float(sum(w for _, _, w in accepted)),
    )


# ----------------------------------------------------------------------
# CSV interfaces
# ----------------------------------------------------------------------


def read_returns_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Returns table: header row of entity names, one row per observation."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not rows or len(rows) < 3:
        raise InputError(f"{path}: need a header and at least two observations")
    labels = [c.strip() for c in rows[0]]
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
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: empty file")
    labels = [c.strip() for c in rows[0][1:]]
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
    stop were never examined and do not appear.
    """
    labels = result.labels or tuple(
        str(v) for v in range(result.embedding.n)
    )

    def rank_key(entry: tuple[int, int, float]) -> tuple:
        u, v, w = entry
        a, b = sorted((labels[u], labels[v]))
        return (-w, a, b)

    merged = [(rank_key(t), "accepted", t) for t in result.accepted]
    merged += [(rank_key(t), "rejected", t) for t in result.rejected]
    merged.sort(key=lambda item: item[0])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["rank", "u", "v", "weight", "status"])
    for rank, (_, status, (u, v, w)) in enumerate(merged, start=1):
        writer.writerow([rank, labels[u], labels[v], repr(w), status])
    return buf.getvalue()
