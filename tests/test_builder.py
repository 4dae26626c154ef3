import csv
import io
import math
from collections import Counter
import dataclasses
from dataclasses import astuple, fields

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmfg.builder
import pmfg.embedding
from pmfg import (
    InputError,
    PlanarEmbedding,
    PlanarityVerdict,
    SimilarityMatrix,
    VerificationFailure,
    build_pmfg,
    canonical_code,
    correlation_from_returns,
    count_cliques,
    euler_check,
    is_planar,
    kuratowski_oracle,
    random_triangulation,
    standard_form,
    weighted_edge_list,
)
from pmfg.builder import (
    GateCounts,
    PmfgResult,
    _admissible_faces,
    _face_table,
    _PlanarityGate,
    _separator,
    _series_reduced,
    _triconnected_pieces,
    acceptance_log_csv,
    read_matrix_csv,
    read_returns_csv,
)
from pmfg.embedding import trace_faces
from pmfg.planarity import _lr_rotation

GATE_RULES = tuple(field.name for field in fields(GateCounts))


def cubes_glued_at_a_diagonal():
    """Two cubes sharing the diagonal (0, 0, 0)-(0, 1, 1) of one face each."""
    cube = nx.hypercube_graph(3)
    glued = ((0, 0, 0), (0, 1, 1))
    return nx.compose(cube, nx.relabel_nodes(cube, lambda t: t if t in glued else ("b", t)))


def pearson_by_hand(x, y):
    """Textbook formula, kept deliberately independent of numpy internals."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def random_similarity(n, seed, observations=50):
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(observations, n)) + 0.25 * rng.normal(
        size=(observations, 1)
    )
    return correlation_from_returns(table, [f"S{i:02d}" for i in range(n)])


def sector_similarity(n, seed, observations=500, sectors=5):
    """Correlations of a market-plus-sector factor model of daily returns."""
    rng = np.random.default_rng(seed)
    market = rng.standard_normal(observations)
    factors = rng.standard_normal((sectors, observations))
    member = np.arange(n) % sectors
    table = (
        market[:, None] * rng.uniform(0.3, 0.7, n)
        + factors[member].T * rng.uniform(0.2, 0.5, n)
        + rng.standard_normal((observations, n))
    )
    return correlation_from_returns(table, [f"E{i:03d}" for i in range(n)])


def uniform_similarity(n, seed):
    """Symmetric matrix with off-diagonal entries uniform in [-1, 1]."""
    upper = np.triu(np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n)), 1)
    return SimilarityMatrix(
        tuple(f"U{i:03d}" for i in range(n)), upper + upper.T + np.eye(n)
    )


def planted_similarity(seed, size=60):
    """A matrix whose top weights, in random order, are the edges of blocks
    glued at a vertex or along an edge until there are at least ``size``
    vertices, with noise below 0.1 on every other pair.  A block is K4, the
    cube, the octahedron or a random triangulation on 5 to 9 vertices, less
    up to two edges; gluing keeps the planted graph planar."""
    rng = np.random.default_rng(seed)
    shapes = [nx.complete_graph(4), nx.hypercube_graph(3), nx.octahedral_graph()]
    shapes = [list(nx.convert_node_labels_to_integers(g).edges()) for g in shapes]
    planted, n = set(), 0
    while n < size:
        k = int(rng.integers(len(shapes) + 5))
        if k < len(shapes):
            block = list(shapes[k])
        else:
            block = list(random_triangulation(k - len(shapes) + 5, seed=seed * 100 + n).edges())
        for i in sorted(rng.choice(len(block), int(rng.integers(3)), replace=False))[::-1]:
            del block[i]
        ids = {}
        if planted and rng.random() < 0.5:
            a, b = sorted(planted)[rng.integers(len(planted))]
            p, q = block[rng.integers(len(block))]
            ids = {p: a, q: b}
        elif planted:
            ids = {block[0][0]: int(rng.integers(n))}
        for x in sorted({x for edge in block for x in edge} - set(ids)):
            ids[x], n = n, n + 1
        planted |= {tuple(sorted((ids[x], ids[y]))) for x, y in block}
    values = np.triu(rng.uniform(0.0, 0.1, (n, n)), 1)
    for (x, y), rank in zip(sorted(planted), rng.permutation(len(planted))):
        values[x, y] = 0.5 + rank / (2 * len(planted))
    return SimilarityMatrix(tuple(f"P{i:03d}" for i in range(n)), values + values.T)


def plain_lr_greedy(sim, tie_policy="lexicographic"):
    """The reference scan: one fresh planarity test of kept + uv per pair."""
    n = sim.n
    target = 3 * (n - 2)
    kept = []
    accepted = []
    for u, v, w in weighted_edge_list(sim, tie_policy):
        candidate = kept + [(u, v)]
        if is_planar(n, candidate).planar:
            kept = candidate
            accepted.append((u, v, w))
            if len(accepted) == target:
                break
    return tuple(accepted)


def reference_read_returns_csv(path):
    """The returns reader before numpy parsed the table: one csv row loop and
    a Python float per cell."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not rows or len(rows) < 3:
        raise InputError(f"{path}: need a header and at least two observations")
    labels = [c.strip() for c in rows[0]]
    pmfg.embedding._check_labels(labels)
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(labels):
            raise InputError(f"{path}:{lineno}: expected {len(labels)} columns")
        try:
            data.append([float(c) for c in row])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    return labels, np.array(data)


def reference_rank_key(labels, entry):
    u, v, w = entry
    return (-w, *sorted((labels[u], labels[v])))


def reference_weighted_edge_list(sim, tie_policy="lexicographic"):
    """The ranking before the lexsort: a Python sort with a key tuple of
    the negated weight and the two sorted labels per pair."""
    n, labels = sim.n, sim.labels
    pairs = [(i, j, float(sim.values[i, j])) for i in range(n) for j in range(i + 1, n)]
    pairs.sort(key=lambda entry: reference_rank_key(labels, entry))
    if tie_policy == "strict":
        names = [", ".join(reference_rank_key(labels, entry)[1:]) for entry in pairs]
        tied = [
            f"({names[k]}) ~ ({names[k + 1]})"
            for k in range(len(pairs) - 1)
            if pairs[k][2] == pairs[k + 1][2]
        ]
        if tied:
            raise InputError(f"tied weights under strict policy: {'; '.join(tied)}")
    return tuple(pairs)


def reference_acceptance_log_csv(result):
    """The scan log before the decision record: the accepted and rejected
    lists merged and sorted again by the scan key, one csv row each."""
    labels = result.labels
    merged = [(t, "accepted") for t in result.accepted]
    merged += [(t, "rejected") for t in result.rejected]
    merged.sort(key=lambda item: reference_rank_key(labels, item[0]))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["rank", "u", "v", "weight", "status"])
    for rank, ((u, v, w), status) in enumerate(merged, start=1):
        writer.writerow([rank, labels[u], labels[v], repr(w), status])
    return buf.getvalue()


@st.composite
def float_like_tables(draw) -> str:
    """A returns table of three columns in Python's float spelling, with up
    to two characters put in where numpy's reading of a number could part
    from float's: separators, whitespace, quotes, NUL, underscores, letters
    of nan and inf, and non-ASCII digits and space."""
    rows = draw(st.lists(st.lists(st.floats().map(repr), min_size=3, max_size=3), max_size=5))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(",".join(row) for row in rows)
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        noise = draw(st.sampled_from(',."#_+-0ein \t\r\n\x00\x0b\x1c\x1f\xa0\u0663'))
        text = text[:i] + noise + text[i:]
    return f"a,b,c{newline}{text}"


def outcome_of(rank, sim, tie_policy):
    """A ranking's repr, which tells -0.0 from 0.0, or its InputError message."""
    try:
        return repr(rank(sim, tie_policy))
    except InputError as exc:
        return str(exc)


def outcome(read, path):
    """What a reader makes of a file: labels and table bytes, or the message."""
    try:
        labels, table = read(path)
    except InputError as exc:
        return str(exc)
    return labels, table.shape, table.dtype, table.tobytes()


def is_kuratowski_subdivision(edges):
    """True iff the edge set is a subdivision of K5 or of K3,3."""
    g = nx.Graph(list(edges))
    if any(d < 2 for _, d in g.degree()):
        return False
    branch = {x for x, d in g.degree() if d > 2}
    paths = Counter()
    interior = set()
    for b in branch:
        for first in g[b]:
            prev, cur = b, first
            while cur not in branch:
                interior.add(cur)
                prev, cur = cur, next(w for w in g[cur] if w != prev)
            paths[min(b, cur), max(b, cur)] += 1
    # Each branch-to-branch path is walked once from either end.
    if interior | branch != set(g) or any(
        a == b or k != 2 for (a, b), k in paths.items()
    ):
        return False
    contracted = nx.Graph(list(paths))
    return nx.is_isomorphic(contracted, nx.complete_graph(5)) or nx.is_isomorphic(
        contracted, nx.complete_bipartite_graph(3, 3)
    )


def assert_components_are_spherical(gate):
    """Every component of the gate's rotation is a genus-0 embedding."""
    graph = nx.Graph()
    graph.add_nodes_from(range(gate.n))
    graph.add_edges_from((x, w) for x, nbrs in enumerate(gate.rotation) for w in nbrs)
    for component in nx.connected_components(graph):
        if len(component) < 2:
            continue
        index = {x: i for i, x in enumerate(sorted(component))}
        emb = PlanarEmbedding(
            [[index[w] for w in gate.rotation[x]] for x in sorted(component)]
        )
        report = euler_check(emb)
        assert report.n - report.e + report.f == 2


def components_of(rotation):
    """The vertex sets of the connected components of a rotation's graph,
    found by breadth-first search."""
    seen, components = set(), set()
    for s in range(len(rotation)):
        if s not in seen:
            seen.add(s)
            queue = [s]
            for x in queue:
                for w in rotation[x]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            components.add(frozenset(queue))
    return components


def trace_start(rotation, walk):
    """``walk`` rotated to start where ``trace_faces`` starts it: at its
    least (vertex, rotation index) dart."""
    keys = [(x, rotation[x].index(y)) for x, y in zip(walk, walk[1:] + walk[:1])]
    i = keys.index(min(keys))
    return walk[i:] + walk[:i]


class RetracingGate(_PlanarityGate):
    """The reference gate: every accept re-traces the whole face table, so
    face ids follow ``trace_faces`` order."""

    def _retrace(self, starts):
        self._faces, self._face_mask = _face_table(self.n, self.rotation)


def oracle_gated_greedy(sim):
    """The independent twin of build_pmfg: same scan, certifying-oracle gate."""
    n = sim.n
    target = 3 * (n - 2)
    kept = []
    accepted = []
    for u, v, w in weighted_edge_list(sim):
        candidate = kept + [(u, v)]
        if kuratowski_oracle(n, candidate):
            kept = candidate
            accepted.append((u, v, w))
            if len(accepted) == target:
                break
    return tuple(accepted)


class TestCorrelation:
    def test_identical_columns_give_unit_correlation(self):
        table = np.array([[1.0, 1.0], [2.0, 2.0], [4.0, 4.0]])
        sim = correlation_from_returns(table, ["a", "b"])
        assert sim.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated_column_gives_minus_one(self):
        col = np.array([0.3, -1.2, 0.8, 0.1])
        table = np.column_stack([col, -col])
        sim = correlation_from_returns(table, ["a", "b"])
        assert sim.values[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_hand_computed_pearson(self):
        table = np.array(
            [
                [0.1, 1.2, -0.4],
                [0.5, 0.3, 0.9],
                [-0.2, 0.8, 0.4],
                [0.9, -0.1, -0.6],
                [0.4, 0.5, 0.2],
            ]
        )
        sim = correlation_from_returns(table, ["x", "y", "z"])
        for i in range(3):
            for j in range(i + 1, 3):
                expected = pearson_by_hand(table[:, i], table[:, j])
                assert sim.values[i, j] == pytest.approx(expected, abs=1e-12)

    def test_constant_column_names_the_offender(self):
        table = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.raises(InputError, match="flat"):
            correlation_from_returns(table, ["ok", "flat"])

    def test_too_few_observations(self):
        with pytest.raises(InputError):
            correlation_from_returns(np.array([[1.0, 2.0]]), ["a", "b"])

    @pytest.mark.parametrize("bad, name", [(np.nan, "NaN"), (np.inf, "infinite"), (-np.inf, "infinite")])
    def test_non_finite_returns_named(self, bad, name):
        table = np.array([[1.0, 2.0], [bad, 3.0], [2.0, 1.0]])
        with pytest.raises(InputError, match=name):
            correlation_from_returns(table, ["a", "b"])


    def test_one_dimensional_table_rejected(self):
        with pytest.raises(InputError, match="two-dimensional"):
            correlation_from_returns(np.array([1.0, 2.0, 3.0]), ["a"])

    def test_label_count_must_match_columns(self):
        table = np.array([[1.0, 2.0, 0.5], [2.0, 1.0, 0.1], [0.3, 0.7, 0.2]])
        with pytest.raises(InputError, match="one label per column"):
            correlation_from_returns(table, ["a", "b"])


class TestSimilarityMatrix:
    def test_non_square_rejected(self):
        with pytest.raises(InputError, match="square"):
            SimilarityMatrix(("a", "b"), np.zeros((2, 3)))

    def test_label_count_must_match_rows(self):
        with pytest.raises(InputError, match="one label per matrix row"):
            SimilarityMatrix(("a", "b", "c"), np.eye(2))

    def test_nan_rejected_with_labels(self):
        values = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(InputError, match="a.*b|NaN"):
            SimilarityMatrix(("a", "b"), values)

    def test_infinite_similarity_rejected_with_labels(self):
        values = np.array([[1.0, np.inf], [np.inf, 1.0]])
        with pytest.raises(InputError, match="between a and b is infinite"):
            SimilarityMatrix(("a", "b"), values)

    def test_infinite_diagonal_ignored(self):
        SimilarityMatrix(("a", "b"), np.array([[np.inf, 0.5], [0.5, 1.0]]))

    def test_asymmetry_rejected(self):
        values = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(InputError, match="asymmetric"):
            SimilarityMatrix(("a", "b"), values)

    def test_correlation_range_enforced_when_declared(self):
        values = np.array([[1.0, 1.5], [1.5, 1.0]])
        SimilarityMatrix(("a", "b"), values)  # plain similarity is fine
        with pytest.raises(InputError, match="correlation"):
            SimilarityMatrix(("a", "b"), values, correlation=True)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError, match="unique: 'b' repeats"):
            SimilarityMatrix(("a", "b", "c", "b", "a"), np.eye(5))

    def test_empty_label_rejected_by_position(self):
        with pytest.raises(InputError, match="^label 2 is empty$"):
            SimilarityMatrix(("a", "", "c"), np.eye(3))

    def test_non_string_label_rejected_by_position(self):
        # The graph-JSON rule: an int label would break to_dot and to_json.
        with pytest.raises(InputError, match="^label 1 is not a string: 1$"):
            SimilarityMatrix((1, 2, 3, 4), np.eye(4))
        with pytest.raises(InputError, match="^label 3 is not a string: None$"):
            SimilarityMatrix(("a", "b", None), np.eye(3))


class TestWeightedEdgeList:
    def test_descending_order(self):
        sim = random_similarity(6, seed=0)
        ranked = weighted_edge_list(sim)
        weights = [w for _, _, w in ranked]
        assert weights == sorted(weights, reverse=True)
        assert len(ranked) == 15

    def test_tie_break_is_lexicographic_by_label(self):
        values = np.full((4, 4), 0.5)
        np.fill_diagonal(values, 1.0)
        sim = SimilarityMatrix(("d", "c", "b", "a"), values)
        ranked = weighted_edge_list(sim)
        first_pair = sorted((sim.labels[ranked[0][0]], sim.labels[ranked[0][1]]))
        assert first_pair == ["a", "b"]

    def test_strict_policy_reports_tied_pairs(self):
        values = np.full((3, 3), 0.5)
        np.fill_diagonal(values, 1.0)
        sim = SimilarityMatrix(("a", "b", "c"), values)
        with pytest.raises(InputError, match="tied weights"):
            weighted_edge_list(sim, tie_policy="strict")

    def test_strict_policy_lists_each_tie_of_neighbouring_ranks(self):
        values = np.full((3, 3), 0.5)
        np.fill_diagonal(values, 1.0)
        sim = SimilarityMatrix(("a", "b", "c"), values)
        with pytest.raises(InputError) as excinfo:
            weighted_edge_list(sim, tie_policy="strict")
        assert str(excinfo.value) == (
            "tied weights under strict policy: (a, b) ~ (a, c); (a, c) ~ (b, c)"
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(InputError):
            weighted_edge_list(random_similarity(4, seed=1), tie_policy="fastest")

    @pytest.mark.parametrize("tie_policy", ["lexicographic", "strict"])
    def test_matches_the_python_sort_on_tie_heavy_matrices(self, tie_policy):
        # Labels out of index order, weights rounded to a few values, and
        # signed zeros, which tie with each other: the order, the signs and
        # the strict policy's message are the Python sort's, byte for byte.
        rng = np.random.default_rng(4)
        sims = [uniform_similarity(5, seed=6)]
        for n, digits in ((7, 0), (12, 1), (30, 1), (45, 2)):
            values = np.round(sector_similarity(n, seed=n).values, digits)
            values[np.abs(values) < 0.05] = 0.0
            flip = np.triu(rng.random((n, n)) < 0.5, 1)
            values[flip | flip.T] *= -1.0  # -0.0 where the rounding gave 0.0
            labels = [f"L{k:02d}" for k in rng.permutation(n)]
            sims.append(SimilarityMatrix(tuple(labels), values))
            sims.append(SimilarityMatrix(tuple(labels[::-1]), values.astype(np.float32)))
        assert any(np.signbit(sim.values[np.triu_indices(sim.n, 1)]).any() for sim in sims)
        for sim in sims:
            assert outcome_of(weighted_edge_list, sim, tie_policy) == outcome_of(
                reference_weighted_edge_list, sim, tie_policy
            )


class TestBuildPmfg:
    def test_four_entities_give_k4(self):
        sim = random_similarity(4, seed=3)
        result = build_pmfg(sim)
        assert len(result.accepted) == 6
        assert result.rejected == ()
        assert count_cliques(result.embedding).counts == (4, 1)

    def test_five_entities_give_the_unique_planar_class(self):
        sim = random_similarity(5, seed=4)
        result = build_pmfg(sim)
        assert len(result.accepted) == 9
        assert canonical_code(result.embedding) == canonical_code(standard_form(5))

    def test_result_is_a_triangulation_with_labels(self):
        sim = random_similarity(9, seed=5)
        result = build_pmfg(sim)
        report = euler_check(result.embedding)
        assert report.is_triangulation
        assert result.embedding.labels == sim.labels
        assert result.total_weight == pytest.approx(
            sum(w for _, _, w in result.accepted)
        )

    def test_matches_oracle_gated_greedy_on_seeded_matrix(self):
        sim = random_similarity(8, seed=6)
        result = build_pmfg(sim)
        assert result.accepted == oracle_gated_greedy(sim)

    def test_every_accepted_prefix_is_planar_by_the_oracle(self):
        sim = random_similarity(7, seed=7)
        result = build_pmfg(sim)
        prefix = []
        for u, v, _ in result.accepted:
            prefix.append((u, v))
            assert kuratowski_oracle(7, prefix)

    def test_rejected_edges_cannot_be_added(self):
        sim = random_similarity(9, seed=8)
        result = build_pmfg(sim)
        final_edges = list(result.embedding.edges())
        assert result.rejected  # the scan must actually refuse something
        for u, v, _ in result.rejected:
            assert not is_planar(9, final_edges + [(u, v)]).planar

    def test_accepted_weights_non_increasing(self):
        result = build_pmfg(random_similarity(10, seed=9))
        weights = [w for _, _, w in result.accepted]
        assert weights == sorted(weights, reverse=True)

    def test_determinism(self):
        a = build_pmfg(random_similarity(8, seed=10))
        b = build_pmfg(random_similarity(8, seed=10))
        assert a.accepted == b.accepted
        assert a.embedding == b.embedding

    def test_three_entities_give_a_triangle(self):
        result = build_pmfg(random_similarity(3, seed=13))
        assert len(result.accepted) == 3
        assert result.embedding.e == 3
        report = euler_check(result.embedding)
        assert report.n - report.e + report.f == 2

    def test_too_few_entities_rejected(self):
        with pytest.raises(InputError):
            build_pmfg(random_similarity(2, seed=11))

    def test_non_planar_final_verdict_is_a_verification_failure(self, monkeypatch):
        # A plain assert here would vanish under python -O.
        monkeypatch.setattr(pmfg.builder, "is_planar", lambda n, edges: PlanarityVerdict(False))
        with pytest.raises(VerificationFailure, match="final planarity test"):
            build_pmfg(random_similarity(6, seed=12))


class TestCsvInterfaces:
    def test_returns_round_trip(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("a,b,c\n0.1,0.2,0.3\n0.2,0.1,0.4\n0.0,0.3,0.1\n")
        labels, table = read_returns_csv(path)
        assert labels == ["a", "b", "c"]
        assert table.shape == (3, 3)

    def test_returns_bad_cell_reports_line(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("a,b\n0.1,0.2\n0.2,oops\n")
        with pytest.raises(InputError, match=":3"):
            read_returns_csv(path)

    @pytest.mark.filterwarnings("error")  # numpy warns on a table with no row
    @pytest.mark.parametrize(
        "content",
        [
            b"a,b\n1,2\n3,4\n",
            b"a,b\n1,2\n3,4",
            b"a,b\n1,2\n\n3,4\n",
            b"a,b\n1,2\n3,4\n\n",
            b"a,b\n\n\n",
            b"a,b\n\n1,2\n3,4\n",
            b"a,b\n1,2\n  \n3,4\n",
            b"a\n1\n2\n",
            b"a\n1\n \n2\n",
            b"a\n1\n\t\n2\n",
            b'a,b\n"1",2\n3,4\n',
            b'a,b\n"1\n",2\n3,4\n',
            b'"a,x",b\n1,2\n3,4\n',
            b'"a\r\nx",b\n1,2\n3,4\n',
            b'"a,b\n1,2\n3,4\n',
            b"a,b\r1,2\r3,4\r",
            b"a,b\r\n1,2\r\n3,4\r\n",
            b"a,b\r\n1,2\r3,4\n",
            b"\xef\xbb\xbfa,b\n1,2\n3,4\n",
            "a,b\n\ufeff1,2\n3,4\n".encode(),
            b"a,b\n1,2\x00\n3,4\n",
            b"a\x00,b\n1,2\n3,4\n",
            b"a,b\n1" + b"0" * 131072 + b",2\n3,4\n",
            b"a,b\n1" + b"0" * 131071 + b",2\n3,4\n",
            b"a" * 131073 + b",b\n1,2\n3,4\n",
            *(b"a,b\n1%c,2\n3,4\n" % c for c in range(0x1C, 0x20)),
            *(b"a,b\n%c1,2\n3,4\n" % c for c in (0x0B, 0x0C, 0x1C, 0x1F)),
            "a,b\n1\u2028,2\n\xa03,\u30004\n".encode(),
            b"a,b\n1_0,2\n3,4\n",
            "a,b\n\u0661,2\n3,\u0664\n".encode(),
            b"a,b\nnan(1),2\n3,4\n",
            b"a,b\n1e400,2\n-nan,-0.0\n",
            b"a,b\n inf , +.5\n5.,-1E-3\n",
            b"a,b\n1,2#x\n3,4\n",
            b"a,b\n1,2,3\n3,4\n",
            b"a,b\n1\n3,4\n",
            b"a,b,\n1,2,\n3,4,\n",
            b"a,b\n1,2,\n3,4,\n",
            b"a,b\n",
            b"a,b\n1,2\n",
            b"",
            b"a,a\n1,2\n3,4\n",
            b"a,b\n\xff,2\n3,4\n",
        ],
    )
    def test_returns_reader_matches_the_row_loop(self, tmp_path, content):
        # Labels and table bytes, or the InputError message, are the row
        # loop's on every file, whichever path reads it.
        path = tmp_path / "returns.csv"
        path.write_bytes(content)
        assert outcome(read_returns_csv, path) == outcome(reference_read_returns_csv, path)

    @given(float_like_tables())
    @settings(max_examples=300, deadline=None)
    def test_returns_reader_matches_the_row_loop_on_float_like_text(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "returns.csv"
        path.write_text(text, newline="")
        assert outcome(read_returns_csv, path) == outcome(reference_read_returns_csv, path)

    def test_matrix_round_trip(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text(",a,b\na,1.0,0.5\nb,0.5,1.0\n")
        sim = read_matrix_csv(path)
        assert sim.labels == ("a", "b")
        assert sim.values[0, 1] == 0.5

    def test_matrix_row_label_mismatch(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text(",a,b\nb,1.0,0.5\na,0.5,1.0\n")
        with pytest.raises(InputError, match="row label"):
            read_matrix_csv(path)

    def test_matrix_trailing_comma_header_names_the_empty_label(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text(",a,b,c,\na,1,0.5,0.2\nb,0.5,1,0.3\nc,0.2,0.3,1\n")
        with pytest.raises(InputError, match="^label 4 is empty$"):
            read_matrix_csv(path)

    def test_missing_file(self):
        with pytest.raises(InputError, match="cannot read"):
            read_matrix_csv("/no/such/file.csv")

    def test_acceptance_log_layout(self):
        sim = random_similarity(6, seed=12)
        result = build_pmfg(sim)
        lines = acceptance_log_csv(result).strip().splitlines()
        assert lines[0] == "rank,u,v,weight,status"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
        weights = [float(r[3]) for r in rows]
        assert weights == sorted(weights, reverse=True)
        statuses = {r[4] for r in rows}
        assert statuses <= {"accepted", "rejected"}
        assert sum(r[4] == "accepted" for r in rows) == 12

    def test_acceptance_log_follows_the_scan_order(self):
        # Ties broken by labels that do not follow the index order: the log
        # must list the examined prefix of the scan, pair for pair.
        base = sector_similarity(16, seed=9)
        labels = [f"L{k:02d}" for k in np.random.default_rng(9).permutation(16)]
        sim = SimilarityMatrix(tuple(labels), np.round(base.values, 1))
        result = build_pmfg(sim)
        accepted = set(result.accepted)
        ranked = weighted_edge_list(sim)[: len(accepted) + len(result.rejected)]
        assert len({w for _, _, w in ranked}) < len(ranked) // 4
        want = [
            [str(rank), labels[u], labels[v], repr(w),
             "accepted" if (u, v, w) in accepted else "rejected"]
            for rank, (u, v, w) in enumerate(ranked, start=1)
        ]
        rows = list(csv.reader(io.StringIO(acceptance_log_csv(result))))
        assert rows[1:] == want


    def test_acceptance_log_matches_the_sorted_merge(self):
        # Labels that csv must quote, out of index order, on a tie-heavy
        # matrix: the log walks the decisions as the sorted merge ordered them.
        base = sector_similarity(24, seed=3)
        names = ["a,b", 'say "x"', "line\nbreak", " pad ", "c\rd", "plain"]
        labels = [f"{names[k % 6]}{k}" for k in np.random.default_rng(3).permutation(24)]
        for values in (base.values, np.round(base.values, 1)):
            result = build_pmfg(SimilarityMatrix(tuple(labels), values))
            assert acceptance_log_csv(result) == reference_acceptance_log_csv(result)

    def test_acceptance_log_of_a_result_built_by_hand(self):
        result = build_pmfg(random_similarity(7, seed=2))
        again = PmfgResult(result.embedding, result.accepted, result.rejected,
                           result.total_weight, decisions=result.decisions)
        assert acceptance_log_csv(again) == reference_acceptance_log_csv(result)
        flipped = (not result.decisions[0],) + result.decisions[1:]
        for decisions in ((), result.decisions[:-1], flipped):
            with pytest.raises(InputError, match="decisions do not match"):
                acceptance_log_csv(dataclasses.replace(result, decisions=decisions))
        unlabeled = PmfgResult(standard_form(4), ((0, 1, 0.5),), (), 0.5, decisions=(True,))
        with pytest.raises(InputError, match="no labels"):
            acceptance_log_csv(unlabeled)


class TestIncrementalGate:
    """The builder's gate against a fresh planarity test for every pair."""

    @pytest.mark.parametrize("n", [15, 30, 45, 60])
    def test_matches_plain_lr_scan_on_sector_returns(self, n):
        sim = sector_similarity(n, seed=100 + n)
        assert build_pmfg(sim).accepted == plain_lr_greedy(sim)

    @pytest.mark.parametrize("n, seed", [(12, 1), (25, 2), (40, 3)])
    def test_matches_plain_lr_scan_on_uniform_matrices(self, n, seed):
        sim = uniform_similarity(n, seed)
        assert build_pmfg(sim).accepted == plain_lr_greedy(sim)

    def test_matches_plain_lr_scan_on_tie_heavy_matrix(self):
        base = sector_similarity(30, seed=5)
        sim = SimilarityMatrix(base.labels, np.round(base.values, 1))
        weights = {w for _, _, w in weighted_edge_list(sim)}
        assert len(weights) < 20  # 435 pairs share a handful of weights
        result = build_pmfg(sim, tie_policy="lexicographic")
        assert result.accepted == plain_lr_greedy(sim, "lexicographic")

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [100, 200])
    def test_matches_plain_lr_scan_at_large_n(self, n):
        sim = sector_similarity(n, seed=1000 + n)
        result = build_pmfg(sim)
        assert result.accepted == plain_lr_greedy(sim)
        counts = {100: (99, 100, 3004, 31, 43, 34), 200: (199, 207, 14340, 50, 105, 50)}[n]
        assert astuple(result.gate_counts) == counts

    def test_kept_faces_match_a_full_retrace_after_every_pair(self):
        base = sector_similarity(30, seed=5)
        sims = [sector_similarity(n, seed=100 + n) for n in (15, 30, 45, 60)]
        sims += [uniform_similarity(n, seed) for n, seed in ((12, 1), (25, 2), (40, 3))]
        sims += [SimilarityMatrix(base.labels, np.round(base.values, 1))]
        sims += [sector_similarity(40, seed=seed) for seed in range(6, 11)]
        # A reject leaves all of this as it was.
        state = ("rotation", "_faces", "_face_mask", "_component")
        ties = repeats = flips = 0
        for sim in sims:
            gate, reference = _PlanarityGate(sim.n), RetracingGate(sim.n)
            for u, v, _ in weighted_edge_list(sim):
                shared = gate._face_mask[u] & gate._face_mask[v]
                walk = gate._faces[(shared & -shared).bit_length() - 1] if shared else []
                splices = gate.counts["face_accepts"]
                before = repr([getattr(gate, name) for name in state])
                decided = gate.add_if_planar(u, v)
                assert decided == reference.add_if_planar(u, v)
                if not decided:
                    assert repr([getattr(gate, name) for name in state]) == before
                else:  # the reference shares every rule, so check uv itself
                    assert v in gate.rotation[u] and u in gate.rotation[v], (u, v)
                labels = {}
                for x, c in enumerate(gate._component):
                    labels.setdefault(c, set()).add(x)
                assert set(map(frozenset, labels.values())) == components_of(gate.rotation)
                if gate.counts["face_accepts"] > splices:
                    ties += shared.bit_count() > 1
                    repeats += walk.count(u) > 1 or walk.count(v) > 1
                rotation = gate.rotation
                walks = sorted(
                    (trace_start(rotation, w) for w in gate._faces if w),
                    key=lambda w: (w[0], rotation[w[0]].index(w[1])),
                )
                assert walks == trace_faces(rotation)
                masks = [0] * sim.n
                for k, w in enumerate(gate._faces):
                    for x in w:
                        masks[x] |= 1 << k
                assert masks == gate._face_mask
                assert_components_are_spherical(gate)
                if sum(map(len, rotation)) == 6 * (sim.n - 2):
                    break
            flips += gate.counts["flip_accepts"]
        # Splices into one of several shared faces, and at a vertex the
        # face's walk passes more than once, are both exercised, and so are
        # mirrors, which reverse walks in place.
        assert ties > 0 and repeats > 0 and flips >= 100, (ties, repeats, flips)

    def test_only_lr_accepts_and_h_refreshes_trace_every_face(self, monkeypatch):
        calls = Counter()
        trace, lr, pieces = trace_faces, pmfg.builder._lr_rotation, _triconnected_pieces

        def counting_trace(rotation):
            calls["traces"] += 1
            return trace(rotation)

        def counting_lr(n, adjacency):
            found = lr(n, adjacency)
            calls["lr_accepts"] += found is not None
            return found

        def counting_pieces(n, rotation):
            calls["refreshes"] += 1
            before = calls["traces"]
            found = pieces(n, rotation)
            calls["refresh_traces"] += calls["traces"] - before
            return found

        monkeypatch.setattr(pmfg.builder, "trace_faces", counting_trace)
        monkeypatch.setattr(pmfg.embedding, "trace_faces", counting_trace)
        monkeypatch.setattr(pmfg.builder, "_lr_rotation", counting_lr)
        monkeypatch.setattr(pmfg.builder, "_triconnected_pieces", counting_pieces)
        counts = build_pmfg(sector_similarity(40, seed=6)).gate_counts
        # Joins, splices and block joins never trace; the one more is the
        # validated output embedding.
        outside = calls["traces"] - calls["refresh_traces"]
        assert calls["refreshes"] > 0 and 0 < outside <= calls["lr_accepts"] + 1, calls
        assert counts.block_joins > 0, counts

    def test_every_decision_is_exact_and_every_rule_fires(self):
        sims = [sector_similarity(20, seed=seed) for seed in (4, 5, 6)]
        piece_rejects = 0
        for sim in sims + [uniform_similarity(25, seed=1)]:
            n = sim.n
            gate = _PlanarityGate(n)
            kept = []
            fired = Counter()
            pieces = split = None
            for u, v, _ in weighted_edge_list(sim):
                if gate._pieces is not pieces:  # refreshed by the last pair
                    pieces = gate._pieces
                    reduced = _face_table(n, _series_reduced(gate.rotation))
                    split = _separator(*reduced) is not None
                off_pieces = not any(piece[u] and piece[v] for piece in pieces)
                before = [gate.counts[rule] for rule in GATE_RULES]
                decided = gate.add_if_planar(u, v)
                after = [gate.counts[rule] for rule in GATE_RULES]
                (rule,) = [r for r, b, a in zip(GATE_RULES, before, after) if a == b + 1]
                fired[rule] += 1
                candidate = kept + [(u, v)]
                assert decided == is_planar(n, candidate).planar, (rule, u, v)
                if rule == "whitney_rejects":
                    witness = is_planar(n, candidate, want_witness=True).witness
                    assert (u, v) in witness and set(witness) <= set(candidate)
                    assert is_kuratowski_subdivision(witness)
                    fired["bridge_rejects"] += off_pieces
                    piece_rejects += split
                if rule in ("component_joins", "face_accepts", "block_joins", "flip_accepts"):
                    assert decided
                if decided:
                    kept = candidate
                    assert_components_are_spherical(gate)
                    if len(kept) == 3 * (n - 2):
                        break
            # Certified rejects with no piece holding both endpoints come from
            # the pieces' bridges.
            assert all(fired[r] > 0 for r in GATE_RULES + ("bridge_rejects",)), fired
        # Some come while the series-reduced kept graph is not 3-connected,
        # from a piece that a split made.
        assert piece_rejects > 0

    def test_pairs_on_one_piece_skip_the_block_join_dfs(self, monkeypatch):
        # Both ends with more than two face bits on one piece lie in one
        # block, where rule 4's DFS could only return None: rule 5 gets them.
        entered, past_rule_4 = Counter(), 0
        join_blocks = _PlanarityGate._join_blocks

        def spy(gate, u, v):
            pieces = gate._pieces
            entered[any(p[u].bit_count() > 2 and p[v].bit_count() > 2 for p in pieces)] += 1
            cuts = join_blocks(gate, u, v)
            entered["returned None"] += cuts is None
            return cuts

        monkeypatch.setattr(_PlanarityGate, "_join_blocks", spy)
        for seed in range(8):
            counts = build_pmfg(planted_similarity(seed)).gate_counts
            past_rule_4 += counts.lr_calls + counts.flip_accepts
        assert entered[True] == 0 and entered[False] > 0, entered
        assert past_rule_4 > entered["returned None"], (past_rule_4, entered)

    def test_a_mirror_that_fails_its_certificate_changes_nothing(self, monkeypatch):
        flip, face_walks = _PlanarityGate._flip, pmfg.builder.face_walks
        state = ("rotation", "_faces", "_face_mask", "_component")
        calls, failed = Counter(), 0

        def counting_walks(rotation, starts):
            calls["walks"] += 1
            return face_walks(rotation, starts)

        def spy(gate, u, v):
            nonlocal failed
            before, walks = repr([getattr(gate, name) for name in state]), calls["walks"]
            accepted = flip(gate, u, v)
            if not accepted and calls["walks"] > walks:  # a candidate was walked
                failed += 1
                assert repr([getattr(gate, name) for name in state]) == before
            return accepted

        monkeypatch.setattr(pmfg.builder, "face_walks", counting_walks)
        monkeypatch.setattr(_PlanarityGate, "_flip", spy)
        for seed in (4, 5, 6):
            build_pmfg(sector_similarity(40, seed=seed))
        assert failed >= 10, failed

    def test_every_decision_on_planted_blocks_matches_lr(self):
        fired = Counter()
        for seed in range(12):
            sim = planted_similarity(seed)
            n = sim.n
            gate = _PlanarityGate(n)
            adjacency = [[] for _ in range(n)]
            accepted = 0
            pieces = split = None
            for u, v, _ in weighted_edge_list(sim):
                if gate._pieces is not pieces:  # refreshed by the last pair
                    pieces = gate._pieces
                    split = _separator(*_face_table(n, _series_reduced(gate.rotation))) is not None
                before = [gate.counts[rule] for rule in GATE_RULES]
                adjacency[u].append(v)
                adjacency[v].append(u)
                planar = _lr_rotation(n, adjacency) is not None
                if not planar:
                    adjacency[u].pop()
                    adjacency[v].pop()
                assert gate.add_if_planar(u, v) == planar, (seed, u, v)
                after = [gate.counts[rule] for rule in GATE_RULES]
                (rule,) = [r for r, b, a in zip(GATE_RULES, before, after) if a == b + 1]
                fired[rule] += 1
                fired["split_rejects"] += split and rule == "whitney_rejects"
                accepted += planar
                if accepted == 3 * (n - 2):
                    break
        # 729 joins, 1,087 splices, 15,910 certified rejects (8,222 of them
        # while the series-reduced kept graph was split), 148 block joins,
        # 109 mirrors and 161 LR calls.  Seeds 0-7 alone take 106 LR calls,
        # 179 before mirrors and 280 before block joins.
        assert all(fired[r] > 0 for r in GATE_RULES) and fired["split_rejects"] >= 1000, fired
        assert fired["block_joins"] >= 50 and fired["flip_accepts"] >= 100, fired

    def test_rule_3_decides_as_before_rejecting_pieces_moved_to_front(self):
        # Beside the gate runs its rule-3 loop as it was before a rejecting
        # piece moved to the front: the pieces in refresh order, each one's
        # admissible faces built when first needed and dropped on accept.
        moved = 0
        sims = [planted_similarity(seed) for seed in range(4)]
        sims += [sector_similarity(40, seed=seed) for seed in (4, 5, 6)]
        for sim in sims:
            gate = _PlanarityGate(sim.n)
            pieces = None
            for u, v, _ in weighted_edge_list(sim):
                if gate._pieces is not pieces:  # refreshed by the last pair
                    pieces, in_order, reaches = gate._pieces, list(gate._pieces), []
                rejects = False
                if gate._component[u] == gate._component[v] and not (
                    gate._face_mask[u] & gate._face_mask[v]
                ):
                    for k, piece in enumerate(in_order):
                        if k == len(reaches):
                            reaches.append(_admissible_faces(gate.rotation, piece))
                        if not reaches[k][u] & reaches[k][v]:
                            rejects = True
                            break
                before = gate.counts["whitney_rejects"]
                if gate.add_if_planar(u, v):
                    reaches = []
                assert (gate.counts["whitney_rejects"] > before) == rejects, (u, v)
                # Each piece keeps its own admissible faces when it moves.
                assert gate._reach == [
                    _admissible_faces(gate.rotation, piece)
                    for piece in gate._pieces[: len(gate._reach)]
                ]
                if gate._pieces is pieces:
                    assert sorted(pieces) == sorted(in_order)
                    moved += pieces != in_order
        assert moved > 0

    def test_bridge_of_the_octahedron_reaches_only_the_faces_at_its_attachments(
        self, monkeypatch
    ):
        # Poles 0 and 5 over the ring 1, 2, 3, 4; x = 6 hangs on the edge 0-1,
        # whose two faces have the apexes 2 and 4.
        ring = [(1, 2), (2, 3), (3, 4), (1, 4)]
        octahedron = ring + [(p, r) for p in (0, 5) for r in range(1, 5)]
        gate = _PlanarityGate(7)
        for u, v in octahedron:
            assert gate.add_if_planar(u, v)
        gate._pieces = _triconnected_pieces(7, gate.rotation)
        (piece,) = gate._pieces
        assert all(piece[x] for x in range(6))
        assert gate.add_if_planar(6, 0) and gate.add_if_planar(6, 1)

        def no_lr(*args):
            raise AssertionError("the gate ran the LR test")

        with monkeypatch.context() as patch:
            patch.setattr(pmfg.builder, "_lr_rotation", no_lr)
            for d in (3, 5):  # on neither face at 0-1
                rejects = gate.counts["whitney_rejects"]
                assert not gate.add_if_planar(6, d)
                assert gate.counts["whitney_rejects"] == rejects + 1
        rejects = gate.counts["whitney_rejects"]
        assert gate.add_if_planar(6, 2)
        assert gate.counts["whitney_rejects"] == rejects
        assert_components_are_spherical(gate)

    def test_pieces_of_cubes_glued_at_a_diagonal_certify_rejects_in_each_cube(
        self, monkeypatch
    ):
        # The 3-core is the whole graph, which the glued diagonal separates:
        # the pieces are the two cubes, each with a virtual edge there.
        graph = cubes_glued_at_a_diagonal()
        index = {x: i for i, x in enumerate(sorted(graph, key=str))}
        gate = _PlanarityGate(len(index))
        for x, y in graph.edges():
            assert gate.add_if_planar(index[x], index[y])
        gate._pieces = _triconnected_pieces(gate.n, gate.rotation)
        a, b = index[0, 0, 0], index[0, 1, 1]
        vertices = set(index.values())
        cube_b = {i for x, i in index.items() if x[0] == "b"}
        cubes = [vertices - cube_b, cube_b | {a, b}]
        skeletons = []
        for piece in gate._pieces:
            skeleton = {x for x in vertices if piece[x].bit_count() > 2}
            # The other cube keeps the two faces of the virtual edge ab.
            faces = piece[a] & piece[b]
            assert faces.bit_count() == 2
            assert {x for x in vertices if piece[x] == faces} == vertices - skeleton
            skeletons.append(skeleton)
        assert skeletons in (cubes, cubes[::-1])

        def no_lr(*args):
            raise AssertionError("the gate ran the LR test")

        with monkeypatch.context() as patch:
            patch.setattr(pmfg.builder, "_lr_rotation", no_lr)
            rejects = gate.counts["whitney_rejects"]
            assert not gate.add_if_planar(index[0, 0, 1], index[1, 1, 0])  # antipodal
            assert gate.counts["whitney_rejects"] == rejects + 1
            # (0, 1, 0) shares a face with one of the other cube's two
            # corners next to the diagonal, and the other needs that cube
            # flipped, which rule 5 does at the diagonal.
            p = index[0, 1, 0]
            (q,) = [
                index["b", t]
                for t in ((0, 1, 0), (0, 0, 1))
                if not gate._face_mask[p] & gate._face_mask[index["b", t]]
            ]
            flips = gate.counts["flip_accepts"]
            assert gate.add_if_planar(p, q)
            assert gate.counts["flip_accepts"] == flips + 1
        assert gate._face_mask[p] & gate._face_mask[q]
        assert_components_are_spherical(gate)

    def test_chain_of_blocks_is_joined_without_lr(self, monkeypatch):
        # K4 0123 - cube at 3 - K4 at the cube's (1, 1, 0) - cube at 13 - K4
        # at that cube's (1, 0, 0), and a K4 hung at 3 beside the chain.
        def cube_at(at, first):
            ids = {t: first + k for k, t in enumerate(sorted(nx.hypercube_graph(3))[1:])}
            ids[0, 0, 0] = at
            return [(ids[a], ids[b]) for a, b in nx.hypercube_graph(3).edges()], ids

        def k4(*vs):
            return [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]

        cube1, first = cube_at(3, 4)
        cube2, second = cube_at(13, 14)
        blocks = k4(0, 1, 2, 3) + cube1 + k4(first[1, 1, 0], 11, 12, 13) + cube2
        blocks += k4(second[1, 0, 0], 21, 22, 23) + k4(3, 24, 25, 26)

        def no_lr(*args):
            raise AssertionError("the gate ran the LR test")

        monkeypatch.setattr(pmfg.builder, "_lr_rotation", no_lr)
        gate = _PlanarityGate(27)
        for x, y in blocks:
            assert gate.add_if_planar(x, y)
        # Through the first cube, with the hung K4 at a re-hung cut vertex;
        # from the second cube into its K4; between the two merged blocks;
        # and from the hung K4 back into the first.
        for x, y in [(0, 11), (second[1, 1, 1], 21), (12, second[0, 1, 0]), (24, 1)]:
            joins = gate.counts["block_joins"]
            kept = nx.Graph((a, w) for a, nbrs in enumerate(gate.rotation) for w in nbrs)
            assert not any({x, y} <= block for block in nx.biconnected_components(kept))
            assert gate.add_if_planar(x, y)
            assert gate.counts["block_joins"] == joins + 1, (x, y)
            assert_components_are_spherical(gate)
        monkeypatch.undo()
        # (0, 1, 0) and a corner next to the glued diagonal share a face
        # only once that cube flips, so a K4 hung there joins through LR.
        graph = cubes_glued_at_a_diagonal()
        index = {x: i for i, x in enumerate(sorted(graph, key=str))}
        gate = _PlanarityGate(len(index) + 3)
        for x, y in graph.edges():
            assert gate.add_if_planar(index[x], index[y])
        p = index[0, 1, 0]
        (q,) = [
            index["b", t]
            for t in ((0, 1, 0), (0, 0, 1))
            if not gate._face_mask[p] & gate._face_mask[index["b", t]]
        ]
        for x, y in k4(q, *range(len(index), len(index) + 3)):
            assert gate.add_if_planar(x, y)
        lr_calls, joins = gate.counts["lr_calls"], gate.counts["block_joins"]
        assert gate.add_if_planar(p, len(index))
        assert (gate.counts["lr_calls"], gate.counts["block_joins"]) == (lr_calls + 1, joins)
        assert_components_are_spherical(gate)

    def test_counts_cover_every_examined_pair(self):
        sim = sector_similarity(40, seed=6)
        result = build_pmfg(sim)
        counts = result.gate_counts
        examined = len(result.accepted) + len(result.rejected)
        assert sum(astuple(counts)) == examined
        assert counts.component_joins == sim.n - 1  # one per spanning-forest edge
        # 14 LR calls of 621 pairs since LR reads the gate's rotation; 12
        # when it read adjacency lists in accept order and mirrors first
        # skipped it; 24 when block joins first did; 36 when rule 3 first
        # read every triconnected piece, 49 when it read the 3-core's
        # bridges, 116 when it read the 3-core alone.
        assert astuple(counts) == (39, 45, 500, 14, 16, 7)

    def test_triconnectivity_from_faces_matches_networkx(self):
        rng = np.random.default_rng(8)
        seen = Counter()
        for trial in range(150):
            tri = random_triangulation(6 + trial % 35, seed=trial)
            rotation = [list(nbrs) for nbrs in tri.rotation]
            for u, v in rng.permutation(list(tri.edges())):
                if len(rotation[u]) > 3 and len(rotation[v]) > 3 and rng.random() < 0.4:
                    rotation[u].remove(v)
                    rotation[v].remove(u)
            graph = nx.Graph((x, w) for x, nbrs in enumerate(rotation) for w in nbrs)
            expected = nx.node_connectivity(graph) >= 3
            cut = _separator(*_face_table(tri.n, rotation))
            assert (cut is None) == expected
            if cut is not None:
                assert not nx.is_connected(graph.subgraph(set(graph) - set(cut)))
            seen[expected] += 1
        assert min(seen[True], seen[False]) >= 50, seen

    def test_series_reduction_of_pruned_triangulations(self):
        rng = np.random.default_rng(9)
        removed = kept = 0
        for trial in range(100):
            tri = random_triangulation(6 + trial % 35, seed=trial)
            rotation = [list(nbrs) for nbrs in tri.rotation]
            for u, v in tri.edges():
                if rng.random() < 0.5:
                    rotation[u].remove(v)
                    rotation[v].remove(u)
            reduced = _series_reduced(rotation)
            for x, nbrs in enumerate(reduced):
                assert len(nbrs) == 0 or len(nbrs) >= 3, (trial, x, nbrs)
                assert len(set(nbrs)) == len(nbrs) and x not in nbrs
                assert all(x in reduced[w] for w in nbrs)
            assert _series_reduced(reduced) == reduced
            # Still plane: Euler's formula holds on each component.
            sizes = [len(c) for c in components_of(reduced) if len(c) > 1]
            edges = sum(map(len, reduced)) // 2
            assert sum(sizes) - edges + len(trace_faces(reduced)) == 2 * len(sizes)
            removed += sum(1 for a, b in zip(rotation, reduced) if a and not b)
            kept += len([nbrs for nbrs in reduced if nbrs])
        assert min(removed, kept) >= 500, (removed, kept)

    def test_pieces_of_a_connected_rotation_off_the_sphere_raise(self):
        # K4 on the torus: 4 - 6 + 2 faces = 0, and no cut vertex to split at.
        with pytest.raises(VerificationFailure, match="Euler"):
            _triconnected_pieces(4, [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 1, 2]])

    @pytest.mark.parametrize(
        "graph, pair, shared, triconnected",
        [
            (nx.complete_graph(4), (0, 1), 2, True),
            (nx.octahedral_graph(), (0, 1), 2, True),
            # The shared edge's ends lie on three faces.
            (nx.compose(nx.complete_graph(4), nx.complete_graph([0, 1, 4, 5])), (0, 1), 3, False),
            # The glued diagonal's ends are not adjacent and share two faces.
            (cubes_glued_at_a_diagonal(), ((0, 0, 0), (0, 1, 1)), 2, False),
            # Euler's formula fails: 8 - 12 + 8 = 4.
            (nx.disjoint_union(nx.complete_graph(4), nx.complete_graph(4)), (0, 1), 2, False),
        ],
        ids=["k4", "octahedron", "k4s-sharing-an-edge", "cubes-glued-at-a-diagonal", "two-k4s"],
    )
    def test_triconnectivity_of_hand_made_graphs(self, graph, pair, shared, triconnected):
        index = {x: i for i, x in enumerate(graph)}
        planar, plane = nx.check_planarity(graph)
        assert planar
        rotation = [[index[w] for w in plane.neighbors_cw_order(x)] for x in graph]
        walks, masks = _face_table(len(index), rotation)
        x, y = (index[p] for p in pair)
        assert (masks[x] & masks[y]).bit_count() == shared
        assert (nx.node_connectivity(graph) >= 3) == triconnected
        cut = _separator(walks, masks)
        assert (cut is None) == triconnected
        if cut is not None:
            # Both ends of the shared edge, the glued diagonal, or no vertex
            # at all for the disconnected pair.
            assert set(cut) == (set() if nx.number_connected_components(graph) > 1 else {x, y})
