"""Rank does not change when edges are subdivided.

Write σk(G) for G with every edge cut into k + 1 edges by k new
vertices.  A divisor d on the vertices of G, placed on σk(G) with 0 at
every new vertex, has the same rank on both: ranks on a graph equal
ranks on its metric graph (Hladký-Král'-Norine, "Rank of divisors on
tropical curves", JCTA 2013; Luo, JCTA 2011).  So this relation checks
the rank walk on graphs full of degree-2 vertices, past the reach of
`oracles.rank_brute`, with no oracle at all.

The enumeration cap counts probes on all the vertices, so σk(G) may
refuse where G does not; values are compared where no side refuses,
and the share of skipped cases is bounded.

The same theorems let the walk probe only a rank-determining set, the
vertices of a loopless model of the metric graph.  So on graphs full of
degree-2 vertices the walk's values are also checked against
`oracles.rank_brute`, the brute force restricted to the oracle's own
rank-determining set against the whole one, and the walk's work on
σ1(G) against a bound.

The same placement keeps the Galois points of the families' all-ones
divisor on G's vertices of σ1(G), and every certificate on σ1(G)
passes the audit.  σ1(K3) is C6, where the new vertices are Galois
points too.
"""

import random

import pytest

import graphdivisors.symmetry as symmetry
from graphdivisors import (DisconnectedError, Divisor, EnumerationCapExceededError, Graph,
                           audit_certificate, classify_galois_points, generate, genus,
                           is_two_edge_connected, rank)
from graphdivisors.divisors import _rank_walk

import oracles
from test_rank import drops  # noqa: F401  (a fixture)


def subdivide(g, k):
    """σk(g): the vertices of g first, in their order, then k new
    vertices `a_b_i` on each edge {a, b}."""
    vertices, edges = list(g.vertices), []
    for a, b in g.edges:
        path = [a] + [f"{a}_{b}_{i}" for i in range(1, k + 1)] + [b]
        vertices += path[1:-1]
        edges += zip(path, path[1:])
    return Graph(vertices, edges)


def atlas_classes():
    """The connected bridgeless atlas graphs on 3-6 vertices, one per
    isomorphism class."""
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    for h in graph_atlas_g():
        n = h.number_of_nodes()
        if 3 <= n <= 6 and nx.is_connected(h) and not nx.has_bridges(h):
            labels = [f"P{i}" for i in range(1, n + 1)]
            yield Graph(labels, [(labels[u], labels[v]) for u, v in h.edges()])


def random_bridgeless(rng, count):
    """count seeded random bridgeless graphs on 3-6 vertices."""
    out = []
    while len(out) < count:
        g = oracles.random_connected_graph(rng, rng.randint(3, 6))
        if is_two_edge_connected(g):
            out.append(g)
    return out


def chipfire_graph(rng):
    """A labeled graph on 6-9 vertices, each pair an edge with
    probability 1/2, redrawn until connected and bridgeless."""
    n = rng.randint(6, 9)
    labels = [f"v{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    while True:
        try:
            g = Graph(labels, [p for p in pairs if rng.random() < 0.5])
        except DisconnectedError:
            continue
        if is_two_edge_connected(g):
            return g


def rank_or_none(g, coeffs):
    """rank of the divisor with these leading coefficients (0 on the
    rest), or None where the enumeration cap refuses it."""
    try:
        return rank(g, Divisor.from_coeffs(g, list(coeffs) + [0] * (len(g.vertices) - len(coeffs))))
    except EnumerationCapExceededError:
        return None


def test_rank_is_invariant_under_subdivision():
    rng = random.Random(1709)
    graphs = list(atlas_classes())
    assert len(graphs) == 75
    graphs += random_bridgeless(rng, 25)
    compared = skipped = 0
    ranks = set()
    for g in graphs:
        refined = [subdivide(g, 1), subdivide(g, 2)]
        for _ in range(6):
            coeffs = [rng.randint(-2, 4) for _ in g.vertices]
            values = [rank_or_none(h, coeffs) for h in [g] + refined]
            if None in values:
                skipped += 1
                continue
            assert values == [values[0]] * 3, (g, coeffs, values)
            compared += 1
            ranks.add(values[0])
    assert compared + skipped == 600
    assert skipped <= 120, skipped
    assert {-1, 0, 1, 2, 3} <= ranks, ranks


@pytest.mark.parametrize("family", ["house4", "complete:3", "complete:4", "complete:5", "complete:6",
                                    "wheel:5", "wheel:6", "wheel:7", "cycle:4", "cycle:5"])
def test_galois_points_survive_subdivision(family, monkeypatch):
    # σ1(wheel:7) has 19 vertices and σ1(K6) 21, past the default
    # automorphism vertex cap of 10.
    monkeypatch.setattr(symmetry, "DEFAULT_AUTOMORPHISM_VERTEX_CAP", 21)
    g = generate(family)
    h = subdivide(g, 1)
    before = classify_galois_points(g, Divisor.all_ones(g))
    d = Divisor(h, dict.fromkeys(g.vertices, 1))
    after = classify_galois_points(h, d)
    assert after.rank == before.rank
    assert [v for v in after.galois_vertices if v in g.vertices] == list(before.galois_vertices)
    if family == "complete:3":
        assert after.galois_vertices == h.vertices
    for cert in after.certificates:
        assert audit_certificate(h, d, cert) == [], (family, cert.vertex)


def test_rank_walk_is_invariant_under_subdivision_on_dense_graphs():
    # Graphs drawn as perfbench's chipfire workload draws them, and
    # effective divisors of degree g + 2 and g + 3 placed chip by chip on
    # G's vertices.  The walk of d itself, since at these degrees `rank`
    # would walk K - d, of degree g - 4 or g - 5, and certify a small rank.
    rng = random.Random(1)
    ranks = set()
    for _ in range(12):
        g = chipfire_graph(rng)
        h = subdivide(g, 1)
        for extra in (2, 3):
            coeffs = [0] * len(g.vertices)
            for _ in range(genus(g) + extra):
                coeffs[rng.randrange(len(coeffs))] += 1
            r = _rank_walk(g, Divisor.from_coeffs(g, coeffs))
            assert _rank_walk(h, Divisor(h, dict(zip(g.vertices, coeffs)))) == r, (g, coeffs)
            ranks.add(r)
    assert {2, 3, 4} <= ranks, ranks


def chain_graphs():
    """Graphs full of degree-2 vertices: σ1(K4), σ2(K4), σ1(house4),
    σ1(K3) = C6, C5 and C8."""
    return ([subdivide(generate("complete:4"), 1), subdivide(generate("complete:4"), 2),
             subdivide(generate("house4"), 1), subdivide(generate("complete:3"), 1)]
            + [generate("cycle:5"), generate("cycle:8")])


def small_divisor(rng, g, most):
    """A divisor of degree at most `most` on g: chips dropped on random
    vertices, less at most one chip somewhere."""
    coeffs = [0] * len(g.vertices)
    for _ in range(rng.randint(1, most)):
        coeffs[rng.randrange(len(coeffs))] += 1
    coeffs[rng.randrange(len(coeffs))] -= rng.randint(0, 1)
    return Divisor.from_coeffs(g, coeffs)


def test_rank_on_chains_matches_brute_force():
    rng = random.Random(4201)
    ranks = set()
    for g in chain_graphs():
        for _ in range(20):
            d = small_divisor(rng, g, 5)
            r = oracles.rank_brute(g, d)
            assert rank(g, d) == _rank_walk(g, d) == r, (g, d)
            ranks.add(r)
    assert {-1, 0, 1, 2} <= ranks, ranks


def test_probes_on_the_rank_determining_set_give_the_rank():
    # Luo's theorem as the walk applies it: the least empty probe on the
    # set is as small as the least empty probe anywhere.  The set leaves
    # out a vertex of every chain graph and of most chipfire-style ones.
    rng = random.Random(4202)
    graphs = chain_graphs() + [chipfire_graph(rng) for _ in range(40)]
    proper, ranks = 0, set()
    for g in graphs:
        support = oracles.rank_determining_set(g)
        proper += len(support) < len(g.vertices)
        for _ in range(3):
            d = small_divisor(rng, g, 5 if len(support) > 12 else 8)
            r = oracles.rank_brute(g, d)
            assert oracles.rank_brute(g, d, support) == r, (g, d, support)
            ranks.add(r)
    assert proper >= 26, proper
    assert {-1, 0, 1, 2, 3} <= ranks, ranks


def test_dense_draw_walks_few_avalanches_on_chains(drops):
    # The draw of `test_rank_walk_is_invariant_under_subdivision_on_dense_graphs`
    # from another seed, where one rank-5 divisor on σ1(G) took 1.35 s.
    # Probing every vertex off the base, the 24 walks on σ1(G) made
    # 154,038 `_drop_chip` calls; on the rank-determining set they make 725.
    rng = random.Random(2308)
    walked = 0
    for _ in range(12):
        g = chipfire_graph(rng)
        h = subdivide(g, 1)
        for extra in (2, 3):
            coeffs = [0] * len(g.vertices)
            for _ in range(genus(g) + extra):
                coeffs[rng.randrange(len(coeffs))] += 1
            r = _rank_walk(g, Divisor.from_coeffs(g, coeffs))
            drops.clear()
            assert _rank_walk(h, Divisor(h, dict(zip(g.vertices, coeffs)))) == r, (g, coeffs)
            walked += len(drops)
    assert walked <= 1_000, walked
