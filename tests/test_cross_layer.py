"""Checks that cross layers: a theorem that ties the divisor layer to
the symmetry layer, and classifications that must not depend on how the
graph and the divisor are written down.

Hyperelliptic graphs (Baker-Norine, IMRN 2009): a 2-edge-connected
graph of genus at least 2 has an effective divisor of degree 2 and rank
at least 1 iff it has an involution whose quotient is a tree.  The
divisor side uses `rank` alone, the symmetry side `automorphism_group`
alone, so each checks the other on every atlas class of 4-7 vertices.

Equivariance: relabelling the vertices, or moving d within its class to
d + L f, must not change the rank, the Galois count, or, at each
vertex, the verdict, the reason kind and the `NoQualifyingSubgroup`
count.  `Cond2Fail` names the first failing q in vertex order, so only
its kind is compared.
"""

from collections import Counter
from itertools import combinations_with_replacement

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from graphdivisors import (
    Divisor,
    Graph,
    audit_certificate,
    automorphism_group,
    classify_galois_points,
    laplacian_apply,
    rank,
)

import oracles


def hyperelliptic_by_divisors(g):
    """Some effective divisor of degree 2 has rank at least 1."""
    return any(rank(g, Divisor(g, Counter(pair))) >= 1
               for pair in combinations_with_replacement(g.vertices, 2))


def hyperelliptic_by_symmetry(g):
    """Some involution has a tree quotient.  The quotient's vertices are
    the orbits, and its edges the edge orbits between distinct orbits
    (a flipped edge joins an orbit to itself and is dropped).  The
    quotient is connected, so it is a tree iff it has one edge fewer
    than vertices; an orbit pair joined twice counts twice."""
    for a in automorphism_group(g).elements:
        if a.order() != 2:
            continue
        orbit = {v: min(v, a(v)) for v in g.vertices}
        edges = {frozenset({frozenset((u, v)), frozenset((a(u), a(v)))})
                 for u, v in g.edges if orbit[u] != orbit[v]}
        if len(edges) == len(set(orbit.values())) - 1:
            return True
    return False


def atlas_classes():
    """The connected, 2-edge-connected atlas graphs of genus at least 2
    on 4-7 vertices, one per isomorphism class."""
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    for h in graph_atlas_g():
        n, m = h.number_of_nodes(), h.number_of_edges()
        if 4 <= n <= 7 and m - n + 1 >= 2 and nx.is_connected(h) and not nx.has_bridges(h):
            labels = [f"P{i}" for i in range(1, n + 1)]
            yield Graph(labels, [(labels[u], labels[v]) for u, v in h.edges()])


def test_hyperelliptic_by_divisors_and_by_involutions():
    classes, hyperelliptic = Counter(), Counter()
    for g in atlas_classes():
        by_divisors = hyperelliptic_by_divisors(g)
        assert by_divisors == hyperelliptic_by_symmetry(g), g
        classes[len(g.vertices)] += 1
        hyperelliptic[len(g.vertices)] += by_divisors
    assert sum(classes.values()) == 572
    assert hyperelliptic == {4: 1, 5: 4, 6: 9, 7: 21}


@st.composite
def rank_two_cases(draw):
    """A bridgeless graph on 3-6 vertices, a rank-2 divisor on it (all
    ones half the time, else coefficients in [0, 2]), a reordering of its
    vertices and a vertex function with values in [-3, 3]."""
    n = draw(st.integers(3, 6))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    assume(oracles.two_edge_connected(n, edges))
    labels = [f"P{i}" for i in range(1, n + 1)]
    g = Graph(labels, [(labels[i], labels[j]) for i, j in edges])
    ones = draw(st.booleans())
    coeffs = [1] * n if ones else draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    d = Divisor.from_coeffs(g, coeffs)
    assume(rank(g, d) == 2)
    order = draw(st.permutations(labels))
    f = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return g, d, order, dict(zip(labels, f))


def summary(report):
    return report.rank, report.galois_count, {
        c.vertex: (c.verdict, c.reason and c.reason.tag, getattr(c.reason, "subgroups_checked", None))
        for c in report.certificates
    }


@settings(suppress_health_check=[HealthCheck.filter_too_much])
@given(rank_two_cases())
def test_classification_is_equivariant(case):
    g, d, order, f = case
    expected = summary(classify_galois_points(g, d))
    shuffled = Graph(order, g.edges)
    assert summary(classify_galois_points(shuffled, Divisor(shuffled, d.as_dict()))) == expected
    moved = d + laplacian_apply(g, f)
    report = classify_galois_points(g, moved)
    assert summary(report) == expected
    for cert in report.certificates:
        assert audit_certificate(g, moved, cert) == [], (g, moved, cert)
