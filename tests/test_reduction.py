"""The fast reduction and the incremental rank probes against their oracles.

`q_reduce_with_witness` fires whole sets in bulk and jumps with the
reduced Laplacian's adjugate; `oracles.reduce_one_chip` fires one chip
per burning round.  Both must give the same reduced form and the same
witness, and the fast one must need a number of burning rounds that does
not grow with the chip count.
"""

import inspect
import random
import sys
from itertools import combinations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from graphdivisors import (
    Divisor,
    Graph,
    VertexFunction,
    canonical_divisor,
    divisors,
    generate,
    genus,
    is_q_reduced,
    laplacian_apply,
    linear_system,
    q_reduce,
    q_reduce_with_witness,
    rank,
)

import oracles


def assert_reduction(g, d, q):
    """Reduce d at q and check the result three independent ways."""
    reduced, witness = q_reduce_with_witness(g, d, q)
    assert is_q_reduced(g, reduced, q), f"{reduced!r} is not {q}-reduced"
    assert reduced == d + laplacian_apply(g, witness)
    assert oracles.is_principal(g, [a - b for a, b in zip(reduced.coeffs, d.coeffs)])
    return reduced


@st.composite
def connected_graphs(draw, max_n=8, max_extra=None):
    """A random spanning tree on 2..max_n vertices plus extra edges."""
    n = draw(st.integers(2, max_n))
    labels = [f"P{i}" for i in range(1, n + 1)]
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    if others:
        edges |= set(draw(st.lists(st.sampled_from(others), unique=True, max_size=max_extra)))
    return Graph(labels, [(labels[i], labels[j]) for i, j in sorted(edges)])


@st.composite
def graph_and_divisor(draw, lo=-60, hi=60, **graph_options):
    g = draw(connected_graphs(**graph_options))
    coeffs = draw(st.lists(st.integers(lo, hi), min_size=len(g), max_size=len(g)))
    return g, Divisor.from_coeffs(g, coeffs)


class TestLargeCoefficients:
    @pytest.mark.parametrize("c", [10**8, 10**12])
    def test_cycle3_multiple_of_p2(self, c):
        g = generate("cycle:3")
        reduced = assert_reduction(g, Divisor(g, {"P2": c}), "P1")
        assert reduced == Divisor(g, {"P1": c - 1, "P2": 1})

    @pytest.mark.parametrize("spec", ["wheel:10", "cycle:8", "complete:6"])
    def test_random_billions_at_every_base(self, spec):
        g = generate(spec)
        rng = random.Random(spec)
        d = Divisor.from_coeffs(g, [rng.randint(-10**9, 10**9) for _ in g.vertices])
        for q in g.vertices:
            assert_reduction(g, d, q)


@pytest.fixture
def burning_rounds(monkeypatch):
    """rounds(g, d, q): the calls to `_dhar_unburnt` one reduction makes,
    that is its burning rounds (the last call finds that every vertex burns)."""
    calls = []
    dhar = divisors._dhar_unburnt

    def counting(*args):
        calls.append(1)
        return dhar(*args)

    monkeypatch.setattr(divisors, "_dhar_unburnt", counting)

    def rounds(g, d, q):
        calls.clear()
        q_reduce(g, d, q)
        return len(calls)

    return rounds


class TestBurningRounds:
    def test_cycle8_multiple_of_p2(self, burning_rounds):
        g = generate("cycle:8")
        for q in g.vertices:
            counts = {burning_rounds(g, Divisor(g, {"P2": 10**e}), q) for e in range(3, 13)}
            assert len(counts) == 1 and counts.pop() <= 5

    def test_wheel10_class_moved_by_ever_more_chips(self, burning_rounds):
        # r + L(c f) lies in one divisor class for every c, and its
        # reduction moves about c chips; the rounds must not grow with c.
        g = generate("wheel:10")
        rng = random.Random(1)
        r = Divisor.from_coeffs(g, [rng.randint(-9, 9) for _ in g.vertices])
        f = [rng.randint(-9, 9) for _ in g.vertices]
        for q in g.vertices:
            counts = {
                burning_rounds(g, r + laplacian_apply(g, VertexFunction.from_values(g, [10**e * x for x in f])), q)
                for e in range(3, 13)
            }
            assert len(counts) == 1 and counts.pop() <= 5


@pytest.mark.parametrize(
    "vertices, edges, k",
    [(["P1"], [], 2000), (["P1", "P2"], [("P1", "P2")], 300)],
)
def test_rank_probe_depth_is_not_bounded_by_the_call_stack(vertices, edges, k):
    # Both graphs have genus 0, so rank(k·P1) = k and the probes reach
    # degree k + 1.  With the recursion limit just above the current
    # depth, a walk that took one stack frame per chip would fail.
    g = Graph(vertices, edges)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        r = rank(g, k * Divisor.vertex(g, "P1"))
    finally:
        sys.setrecursionlimit(limit)
    assert r == k


@pytest.mark.parametrize("spec", ["house4", "cycle:5", "wheel:6", "complete:5"])
def test_laplacian_adjugate(spec):
    g = generate(spec)
    adjugate, det = divisors._laplacian_adjugate(g)
    n = len(g)
    reduced = [row[1:] for row in oracles.laplacian_matrix(g)[1:]]
    for i in range(n - 1):
        for j in range(n - 1):
            assert sum(adjugate[i][k] * reduced[k][j] for k in range(n - 1)) == (det if i == j else 0)
    edges = list(g._edges_idx)
    trees = sum(oracles.is_connected(n, list(t)) for t in combinations(edges, n - 1))
    assert det == trees


@pytest.mark.parametrize("spec", ["wheel:8", "complete:6"])
def test_rank_reduces_only_the_divisor_itself(spec, monkeypatch):
    # Every probe's reduced form comes from its parent's by `_drop_chip`,
    # so one rank call runs one full reduction, whatever the rank.
    g = generate(spec)
    one, p1 = Divisor.all_ones(g), Divisor.vertex(g, "P1")
    by_rank = {}
    for d in [k * p1 for k in range(8)] + [one + k * p1 for k in range(6)] + [2 * one]:
        by_rank.setdefault(rank(g, d), d)
        if set(range(6)) <= set(by_rank):
            break
    assert set(range(6)) <= set(by_rank)
    calls = []
    reduce_coeffs = divisors._reduce_coeffs

    def counting(*args):
        calls.append(1)
        return reduce_coeffs(*args)

    monkeypatch.setattr(divisors, "_reduce_coeffs", counting)
    for r in range(6):
        calls.clear()
        assert rank(g, by_rank[r]) == r
        assert len(calls) == 1, (r, by_rank[r])


@st.composite
def reduced_at_first_vertex(draw):
    g, d = draw(graph_and_divisor(lo=-20, hi=20))
    return g, divisors._reduce_coeffs(g, list(d.coeffs), 0)[0]


class TestDropChip:
    """`_drop_chip(adj, red, v)` is the 0-reduced form of red - v."""

    @staticmethod
    def assert_drop(g, red, v):
        dropped = divisors._drop_chip(g._adj, red, v)
        minus = red.copy()
        minus[v] -= 1
        assert dropped == divisors._reduce_coeffs(g, minus.copy(), 0)[0]
        assert dropped == oracles.reduce_one_chip(g, minus.copy(), 0)[0]
        assert is_q_reduced(g, Divisor.from_coeffs(g, dropped), g.vertices[0])
        return dropped

    @given(reduced_at_first_vertex())
    def test_every_vertex(self, case):
        g, red = case
        before = red.copy()
        for v in range(len(g)):
            self.assert_drop(g, red, v)
        assert red == before

    def test_vertex_borrowing_twice(self):
        # Taking a chip at P4 sends P2 (neighbours P1, P3) into debt three
        # times over before it borrows, so it has to borrow twice.
        g = Graph([f"P{i}" for i in range(1, 7)],
                  [("P1", "P2"), ("P2", "P3"), ("P3", "P4"), ("P3", "P5"), ("P3", "P6"),
                   ("P4", "P6"), ("P5", "P6")])
        red = [10, 0, 0, 0, 0, 0]
        assert divisors._reduce_coeffs(g, red.copy(), 0)[0] == red
        self.assert_drop(g, red, 3)

    @given(reduced_at_first_vertex(), st.data())
    def test_chips_taken_one_after_another(self, case, data):
        g, red = case
        for v in data.draw(st.lists(st.integers(0, len(g) - 1), max_size=12)):
            red = self.assert_drop(g, red, v)


class TestMembers:
    """`_members(adj, red, orbits, k)` walks the orbit-constant members of
    a linear system from the reduced form of the divisor."""

    @given(graph_and_divisor(lo=-2, hi=4, max_n=5))
    def test_linear_system_matches_brute_oracle(self, case):
        g, d = case
        assert linear_system(g, d) == oracles.linear_system_brute(g, d)

    @given(graph_and_divisor(lo=-2, hi=4, max_n=5), st.data())
    def test_orbit_constant_members_match_brute_oracle(self, case, data):
        g, d = case
        n = len(g)
        labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        orbits = sorted(
            [v for v in range(n) if labels[v] == label] for label in sorted(set(labels))
        )
        red = divisors._reduce_coeffs(g, list(d.coeffs), 0)[0]
        expected = set()
        if d.degree >= 0:
            expected = {
                e for e in oracles.effective_tuples(d.degree, n)
                if all(len({e[v] for v in orbit}) == 1 for orbit in orbits)
                and oracles.equivalent(g, d, Divisor.from_coeffs(g, e))
            }
        walked = divisors._members(g._adj, red, orbits, d.degree)
        assert len(walked) == len(set(walked))
        assert set(walked) == expected

    def test_depth_is_not_bounded_by_the_call_stack(self):
        # On a cycle, Pa + Pb ~ 2·P1 iff a + b = 0 mod n (indices from 0).
        # With the recursion limit just above the current depth, a walk
        # that took one stack frame per vertex would fail.
        n = 60
        g = generate(f"cycle:{n}")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            system = linear_system(g, 2 * Divisor.vertex(g, "P1"))
        finally:
            sys.setrecursionlimit(limit)
        expected = set()
        for a in range(n):
            coeffs = [0] * n
            coeffs[a] += 1
            coeffs[-a % n] += 1
            expected.add(Divisor.from_coeffs(g, coeffs))
        assert system == expected and len(system) == n // 2 + 1

    @pytest.mark.parametrize("spec, k", [("complete:6", 2), ("wheel:7", 1), ("cycle:6", 2)])
    def test_linear_system_reduces_only_the_divisor_itself(self, spec, k, monkeypatch):
        g = generate(spec)
        calls = []
        reduce_coeffs = divisors._reduce_coeffs

        def counting(*args):
            calls.append(1)
            return reduce_coeffs(*args)

        monkeypatch.setattr(divisors, "_reduce_coeffs", counting)
        assert linear_system(g, k * Divisor.all_ones(g))
        assert len(calls) == 1


class TestProperties:
    @given(graph_and_divisor())
    def test_matches_one_chip_oracle(self, case):
        g, d = case
        for qi, q in enumerate(g.vertices):
            coeffs, fires = oracles.reduce_one_chip(g, list(d.coeffs), qi)
            reduced, witness = q_reduce_with_witness(g, d, q)
            assert reduced.coeffs == tuple(coeffs)
            assert witness.values == tuple(-c for c in fires)

    @given(graph_and_divisor())
    def test_idempotent(self, case):
        g, d = case
        for q in g.vertices:
            reduced = q_reduce(g, d, q)
            again, witness = q_reduce_with_witness(g, reduced, q)
            assert again == reduced
            assert set(witness.values) == {0}

    @given(graph_and_divisor(), st.data())
    def test_invariant_under_principal_divisors(self, case, data):
        g, d = case
        f = data.draw(st.lists(st.integers(-20, 20), min_size=len(g), max_size=len(g)))
        moved = d + laplacian_apply(g, VertexFunction.from_values(g, f))
        for q in g.vertices:
            assert q_reduce(g, moved, q) == q_reduce(g, d, q)

    @given(graph_and_divisor(lo=-2, hi=2, max_n=4), st.data())
    def test_rank_matches_brute_oracle(self, case, data):
        g, d = case
        assume(d.degree <= 3)
        r = rank(g, d)
        assert r == oracles.rank_brute(g, d)
        f = data.draw(st.lists(st.integers(-5, 5), min_size=len(g), max_size=len(g)))
        assert rank(g, d + laplacian_apply(g, VertexFunction.from_values(g, f))) == r

    @given(graph_and_divisor(lo=-2, hi=2, max_n=6, max_extra=3))
    def test_riemann_roch(self, case):
        g, d = case
        k = canonical_divisor(g)
        assert rank(g, d) - rank(g, k - d) == d.degree + 1 - genus(g)
