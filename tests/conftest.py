import itertools

import pytest

from pmfg import (
    PlanarEmbedding,
    count_cliques,
    degree_sequence,
    generate_all,
    standard_form,
)


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False, help="also run tests marked slow"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow tier: run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session")
def classes():
    """All isomorphism classes keyed by vertex count, for n = 4..8."""
    return {
        n: generate_all(n) for n in range(4, 9)
    }


@pytest.fixture(scope="session")
def octahedron(classes) -> PlanarEmbedding:
    """The 6-vertex triangulation that is not the standard form."""
    for rec in classes[6].values():
        if count_cliques(rec.embedding).counts == (8, 0):
            return rec.embedding
    raise AssertionError("octahedron class missing at n=6")


@pytest.fixture(scope="session")
def high_degree_eight(classes) -> PlanarEmbedding:
    """The unique 8-vertex class with degrees [7, 5, 5, 5, 4, 4, 3, 3]."""
    found = [
        rec.embedding
        for rec in classes[8].values()
        if degree_sequence(rec.embedding) == [7, 5, 5, 5, 4, 4, 3, 3]
    ]
    assert len(found) == 1
    return found[0]


@pytest.fixture(scope="session")
def chorded_square() -> PlanarEmbedding:
    """The 4-cycle 0-1-2-3 with the chord 0-2: two triangles and a quad."""
    return PlanarEmbedding(((1, 2, 3), (0, 2), (0, 1, 3), (0, 2)))


@pytest.fixture(scope="session")
def p5() -> PlanarEmbedding:
    return standard_form(5)


def brute_isomorphic(e1: PlanarEmbedding, e2: PlanarEmbedding) -> bool:
    """Permutation-search graph isomorphism, the slow reference check."""
    if e1.n != e2.n or e1.e != e2.e:
        return False
    if degree_sequence(e1) != degree_sequence(e2):
        return False
    edges1 = list(e1.edges())
    edges2 = {frozenset(e) for e in e2.edges()}
    deg1 = [e1.degree(v) for v in range(e1.n)]
    deg2 = [e2.degree(v) for v in range(e2.n)]
    for perm in itertools.permutations(range(e1.n)):
        if any(deg1[v] != deg2[perm[v]] for v in range(e1.n)):
            continue
        if all(frozenset((perm[u], perm[v])) in edges2 for u, v in edges1):
            return True
    return False
