"""The rank walk ends at its degree floor: r(d) >= deg(d) - g.

A 0-reduced form's part off the base is superstable, so it holds at
most g chips (Baker-Norine, Adv. Math. 2007; Baker-Shokrieh, JCTA
2013), and the base keeps at least deg(d) - g of them.  `_rank_walk`
stops once its bound reaches that floor.  These tests hold the walk and
`riemann_roch_check` to `oracles.rank_brute` where the floor fires, and
pin the work the floor saves: none at all on a tree or where the
off-base part of the reduced form holds g chips, and under half of what
the walk made without the floor on a chipfire-style draw.
"""

import random

import pytest

from graphdivisors import (Divisor, VertexFunction, build_graph, canonical_divisor, generate,
                           genus, laplacian_apply, riemann_roch_check)
from graphdivisors.divisors import _rank_walk

import oracles
from test_rank import drops  # noqa: F401  (a fixture)
from test_subdivision import chipfire_graph, subdivide


def path(n):
    labels = [f"P{i}" for i in range(1, n + 1)]
    return build_graph(labels, list(zip(labels, labels[1:])))


def assert_sound(g, d):
    r = oracles.rank_brute(g, d)
    assert _rank_walk(g, d) == r, (g, d)
    check = riemann_roch_check(g, d)
    assert (check.rank, check.canonical_rank, check.holds) == (
        r, oracles.rank_brute(g, canonical_divisor(g) - d), True), (g, d)
    return r


def effective(g, degree, support):
    """Every effective divisor of this degree on these leading vertices."""
    pad = [0] * (len(g.vertices) - support)
    for e in oracles.effective_tuples(degree, support):
        yield Divisor.from_coeffs(g, list(e) + pad)


def soundness_cases():
    """(graph, vertices that carry the divisors above degree g + 1):
    named graphs, a path of genus 0, and σ1(K4), whose every divisor of
    degree g + 2 and g + 3 takes the brute force about a minute, so there
    the divisors sit on K4's vertices, its rank-determining set."""
    for spec in ("house4", "cycle:5", "complete:4", "wheel:5"):
        g = generate(spec)
        yield pytest.param(g, len(g.vertices), id=spec)
    yield pytest.param(path(5), 5, id="path:5")
    yield pytest.param(subdivide(generate("complete:4"), 1), 4, id="sigma1:complete:4")


class TestSoundness:
    @pytest.mark.parametrize("g, support", soundness_cases())
    def test_every_effective_divisor_just_above_the_genus(self, g, support):
        gen, n = genus(g), len(g.vertices)
        at_floor = 0
        for degree in range(gen + 1, gen + 4):
            for d in effective(g, degree, n if degree == gen + 1 else support):
                at_floor += assert_sound(g, d) == degree - gen
        assert at_floor > 0

    def test_chipfire_style_graphs(self):
        rng = random.Random(4402)
        at_floor = 0
        for _ in range(40):
            g = chipfire_graph(rng)
            for extra in (2, 3, 4):
                coeffs = [0] * len(g.vertices)
                for _ in range(genus(g) + extra):
                    coeffs[rng.randrange(len(coeffs))] += 1
                at_floor += assert_sound(g, Divisor.from_coeffs(g, coeffs)) == extra
        assert at_floor > 0


class TestWork:
    def test_trees_walk_nothing(self, drops):
        # On a tree every reduced form holds all its chips at the base,
        # so the walk starts at its floor deg(d).
        rng = random.Random(4403)
        trees = [path(1), path(2), path(6), build_graph(list("abcde"), [("a", v) for v in "bcde"])]
        trees += [oracles.random_connected_graph(rng, n, extra_edge_prob=0) for n in range(3, 9)]
        for g in trees:
            assert genus(g) == 0
            for _ in range(10):
                d = Divisor.from_coeffs(g, [rng.randint(-3, 5) for _ in g.vertices])
                assert _rank_walk(g, d) == max(d.degree, -1), (g, d)
        assert drops == []

    @pytest.mark.parametrize("seed", range(4))
    def test_a_maximal_superstable_off_the_base_walks_nothing(self, seed, drops):
        # An order of the vertices from vertex 0 with each vertex next to
        # an earlier one orients every edge forward; one chip less than
        # the edges coming in is a superstable of degree |E| - (|V| - 1)
        # = g.  With t chips at the base and any principal divisor added,
        # the reduced form is that divisor, and r = t = deg - g.
        rng = random.Random(4404 + seed)
        graphs = [generate(s) for s in ("house4", "cycle:5", "complete:5", "wheel:6")]
        graphs += [chipfire_graph(rng) for _ in range(6)]
        for g in graphs:
            adj = g._adj
            order, todo = [0], list(adj[0])
            while todo:
                v = todo.pop(rng.randrange(len(todo)))
                if v not in order:
                    order.append(v)
                    todo += adj[v]
            coeffs = [sum(order.index(w) < order.index(v) for w in adj[v]) - 1 for v in range(len(adj))]
            t = rng.randint(0, 4)
            coeffs[0] = t
            assert sum(coeffs) - t == genus(g)
            f = VertexFunction(g, {v: rng.randint(-20, 20) for v in g.vertices})
            d = Divisor.from_coeffs(g, coeffs) + laplacian_apply(g, f)
            assert _rank_walk(g, d) == t, (g, d)
        assert drops == []

    def test_chipfire_style_draw(self, drops):
        # Each graph's divisors of degree g + 2..g + 4, as chipfire checks
        # them.  Without the floor the 36 checks made 1,103 `_drop_chip`
        # calls, all in the walks of d; with it they make 275.
        rng = random.Random(4401)
        for _ in range(12):
            g = chipfire_graph(rng)
            for extra in (2, 3, 4):
                coeffs = [0] * len(g.vertices)
                for _ in range(genus(g) + extra):
                    coeffs[rng.randrange(len(coeffs))] += 1
                assert riemann_roch_check(g, Divisor.from_coeffs(g, coeffs)).holds
        assert len(drops) <= 1_103 // 2, len(drops)
