"""The fast reduction and the incremental rank probes against their oracles.

`q_reduce_with_witness` fires whole sets in bulk; with many chips off the
base it jumps with the reduced Laplacian's adjugate and finishes by least
borrowing (`_borrow`), with no burning round.  `oracles.reduce_one_chip`
fires one chip per burning round.  Both must give the same reduced form
and the same witness.  After the jump each vertex borrows exactly
floor((L_q^-1 d*)[v]) times, where d* is the reduced form: the
borrowings are bounded by a fact of the graph, not by the chip count.
"""

import inspect
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import floor

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from graphdivisors import (
    DisconnectedError,
    Divisor,
    Graph,
    VertexFunction,
    canonical_divisor,
    divisors,
    generate,
    genus,
    is_q_reduced,
    is_two_edge_connected,
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


class TestSparseDebt:
    """Long cycles with little debt spread far from the chips that pay it,
    so the debt stage fires balls across many shells."""

    @pytest.mark.parametrize("n", [150, 300])
    @pytest.mark.parametrize("base", ["P1", "far"])
    @pytest.mark.parametrize("divisor", ["pile", "halfway", "alternating"])
    def test_matches_one_chip_oracle(self, n, base, divisor):
        # pile: (n - 1)·P1 and -1 at every other vertex; halfway: a single
        # -1 halfway round; alternating: +1 and -1 in turn.  The far base
        # is a quarter turn from both P1 and the halfway vertex.
        g = generate(f"cycle:{n}")
        coeffs = {
            "pile": [n - 1] + [-1] * (n - 1),
            "halfway": [-1 if v == n // 2 else 0 for v in range(n)],
            "alternating": [(-1) ** v for v in range(n)],
        }[divisor]
        q = 0 if base == "P1" else 3 * n // 4
        reduced, witness = q_reduce_with_witness(g, Divisor.from_coeffs(g, coeffs), g.vertices[q])
        expected, fires = oracles.reduce_one_chip(g, coeffs.copy(), q)
        assert list(reduced.coeffs) == expected
        assert list(witness.values) == [-f for f in fires]


def green(g, q, b):
    """L_q^-1 b in exact fractions, 0 at q, for L_q the Laplacian with
    q's row and column removed (positive definite, so no pivoting)."""
    laplacian = oracles.laplacian_matrix(g)
    keep = [v for v in range(len(g)) if v != q]
    rows = [[Fraction(laplacian[i][j]) for j in keep] + [Fraction(b[i])] for i in keep]
    for k, pivot_row in enumerate(rows):
        pivot_row[:] = [a / pivot_row[k] for a in pivot_row]
        for row in rows:
            if row is not pivot_row and row[k]:
                row[:] = [a - row[k] * p for a, p in zip(row, pivot_row)]
    y = [Fraction(0)] * len(g)
    for v, row in zip(keep, rows):
        y[v] = row[-1]
    return y


@pytest.fixture
def work(monkeypatch):
    """work(g, d, q) reduces d at the vertex index q and returns (reduced
    coefficients, burning rounds, borrowings): the calls to
    `_dhar_unburnt` (the last finds that every vertex burns), and each
    vertex's borrowings in `_borrow`, None if the reduction did not round."""
    calls, borrowed = [], []
    dhar, borrow = divisors._dhar_unburnt, divisors._borrow

    def counting_dhar(*args):
        calls.append(1)
        return dhar(*args)

    def counting_borrow(adj, coeffs, fires, q):
        before = fires.copy()
        borrow(adj, coeffs, fires, q)
        borrowed.append([a - b for a, b in zip(before, fires)])

    monkeypatch.setattr(divisors, "_dhar_unburnt", counting_dhar)
    monkeypatch.setattr(divisors, "_borrow", counting_borrow)

    def run(g, d, q):
        calls.clear()
        borrowed.clear()
        reduced = q_reduce(g, d, g.vertices[q]).coeffs
        return reduced, len(calls), borrowed[0] if borrowed else None

    return run


def assert_least_borrowing(g, reduced, q, borrowed):
    """After the jump each vertex v borrows floor((L_q^-1 d*)[v]) times
    for the reduced form d*, which is at most (L_q^-1 (deg - 1))[v]."""
    exact = green(g, q, reduced)
    bound = green(g, q, [len(nbrs) - 1 for nbrs in g._adj])
    assert borrowed == [floor(y) for y in exact]
    assert all(b <= y for b, y in zip(borrowed, bound))


class TestBurningRounds:
    """On the rounding path a reduction makes no burning round, and its
    borrowings are those of least action, whatever the chip count."""

    def test_cycle8_multiple_of_p2(self, work):
        # 10^e·(P2 - q) is principal for e >= 3 (the Jacobian is Z/8), so
        # the jump lands on the reduced form and nothing borrows.  At q =
        # P2 every chip is on the base already and nothing rounds.
        g = generate("cycle:8")
        for q in range(len(g)):
            for e in range(3, 13):
                reduced, rounds, borrowed = work(g, Divisor(g, {"P2": 10**e}), q)
                assert reduced[q] == 10**e
                if q == 1:
                    assert borrowed is None
                else:
                    assert rounds == 0 and borrowed == [0] * len(g)

    def test_wheel10_class_moved_by_ever_more_chips(self, work):
        # r + L(c f) lies in one divisor class for every c, and its
        # reduction moves about c chips; the borrowings depend only on the
        # reduced form, so they are the same for every c.
        g = generate("wheel:10")
        rng = random.Random(1)
        r = Divisor.from_coeffs(g, [rng.randint(-9, 9) for _ in g.vertices])
        f = [rng.randint(-9, 9) for _ in g.vertices]
        for q in range(len(g)):
            seen = set()
            for e in range(3, 13):
                moved = r + laplacian_apply(g, VertexFunction.from_values(g, [10**e * x for x in f]))
                reduced, rounds, borrowed = work(g, moved, q)
                assert rounds == 0
                assert_least_borrowing(g, reduced, q, borrowed)
                seen.add(tuple(borrowed))
            assert len(seen) == 1
            if q < 4:
                assert sum(seen.pop()) == [3, 21, 18, 22][q]

    @given(graph_and_divisor(lo=-10**6, hi=10**6))
    def test_rounding_leaves_reduced_form_or_debt(self, case):
        # The jump from d itself fires floor(x) + T, T being stage one's
        # count at q, and never passes the reduced form: what it leaves is
        # either q-reduced or in debt off q, never effective off q and
        # unreduced.
        g, d = case
        for q in range(len(g)):
            coeffs = list(d.coeffs)
            base_fires = sum(divisors._debt_needs(divisors._fact(g, divisors._shells, q), coeffs))
            fires = divisors._round_to_base(g, coeffs, q, base_fires)
            assert fires[q] == base_fires
            fired = VertexFunction.from_values(g, [-f for f in fires])
            assert Divisor.from_coeffs(g, coeffs) == d + laplacian_apply(g, fired)
            in_debt = any(c < 0 for v, c in enumerate(coeffs) if v != q)
            assert in_debt or is_q_reduced(g, Divisor.from_coeffs(g, coeffs), g.vertices[q])


def two_edge_connected(rng, n):
    """A labeled graph on n vertices, each edge kept with probability 1/2,
    redrawn until it is connected and bridgeless."""
    labels = [f"v{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    while True:
        try:
            g = Graph(labels, [p for p in pairs if rng.random() < 0.5])
        except DisconnectedError:
            continue
        if is_two_edge_connected(g):
            return g


class TestRoundingBoundary:
    """The jump runs exactly when more than 2|E| chips sit off the base
    once stage one has fired, whether they sat there from the start or
    stage one moved them off the base to clear a debt."""

    @pytest.mark.parametrize("spec", ["house4", "wheel:6", "cycle:8", "chipfire:7", "chipfire:9"])
    def test_rounds_on_exactly_the_far_side(self, spec, monkeypatch):
        if spec.startswith("chipfire"):
            g = two_edge_connected(random.Random(spec), int(spec[9:]))
        else:
            g = generate(spec)
        rounded = []
        round_to_base = divisors._round_to_base

        def counting(*args):
            rounded.append(1)
            return round_to_base(*args)

        monkeypatch.setattr(divisors, "_round_to_base", counting)
        edges = len(g.edges)
        for q, label in enumerate(g.vertices):
            for v in range(len(g)):
                if v == q:
                    continue
                # A debt of one at a neighbour w of q makes stage one fire
                # q's ball once, which moves deg(q) chips off q.
                w = next(u for u in g._adj[q] if u != v)
                for off in (2 * edges, 2 * edges + 1):
                    plain, debt = [0] * len(g), [0] * len(g)
                    plain[v] = off
                    debt[v], debt[w] = off - len(g._adj[q]) + 1, -1
                    for coeffs in (plain, debt):
                        rounded.clear()
                        reduced, witness = q_reduce_with_witness(g, Divisor.from_coeffs(g, coeffs), label)
                        expected, fires = oracles.reduce_one_chip(g, coeffs.copy(), q)
                        assert list(reduced.coeffs) == expected
                        assert list(witness.values) == [-f for f in fires]
                        assert fires[q] == (coeffs is debt)
                        assert len(rounded) == (off > 2 * edges)


@pytest.fixture(scope="module")
def cycle100():
    """cycle:100, whose reduced Laplacian's adjugate is built once."""
    return generate("cycle:100")


class TestRoundingPath:
    def test_matches_one_chip_oracle(self, work, monkeypatch):
        # 20 bridgeless graphs on 6-9 vertices, each with one divisor of
        # coefficients in [-150, 150] reduced at every vertex: every one
        # of these reductions rounds, and none fires stage one, though
        # most of them hold a debt that stage one would clear.
        fired, cleared = [], 0
        clear_debt = divisors._clear_debt

        def counting(*args):
            fired.append(1)
            clear_debt(*args)

        monkeypatch.setattr(divisors, "_clear_debt", counting)
        rng = random.Random(43)
        for k in range(20):
            g = two_edge_connected(rng, 6 + k % 4)
            d = Divisor.from_coeffs(g, [rng.randint(-150, 150) for _ in g.vertices])
            for q, label in enumerate(g.vertices):
                reduced, rounds, borrowed = work(g, d, q)
                assert rounds == 0 and borrowed is not None
                assert_least_borrowing(g, reduced, q, borrowed)
                _, witness = q_reduce_with_witness(g, d, label)
                expected, fires = oracles.reduce_one_chip(g, list(d.coeffs), q)
                assert list(reduced) == expected
                assert list(witness.values) == [-f for f in fires]
                cleared += fires[q] > 0
        assert not fired and cleared > 140

    @pytest.mark.parametrize("q", [0, 25, 50, 75])
    def test_cycle100_hundred_thousand_chips(self, q, cycle100, work):
        # On cycle:n, D is equivalent to deg(D)·q + e_w - q with
        # w - q = s, the sum of D(u)·(u - q) mod n, and L_q^-1 is
        # min(i, j)(n - max(i, j)) / n at positions i, j counted from q:
        # the borrowings are that column at j = s, floored, and they sum
        # to at most s(n - s)/2 <= n²/8 however many chips there are.
        n = len(cycle100)
        coeffs = [(-1) ** v for v in range(n)]
        coeffs[1] += 10**5
        reduced, rounds, borrowed = work(cycle100, Divisor.from_coeffs(cycle100, coeffs), q)
        s = sum(c * (u - q) for u, c in enumerate(coeffs)) % n
        expected = [0] * n
        expected[q] = sum(coeffs) - (s > 0)
        expected[(q + s) % n] += s > 0
        assert reduced == tuple(expected) and rounds == 0
        positions = [(v - q) % n for v in range(n)]
        assert borrowed == [min(i, s) * (n - max(i, s)) // n for i in positions]
        assert sum(borrowed) <= n * n // 8


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
        # Taking a chip at P4 makes P2 (neighbours P1, P3) borrow three
        # times in all, as `test_waves_away_from_the_base` pins.
        g = Graph([f"P{i}" for i in range(1, 7)],
                  [("P1", "P2"), ("P2", "P3"), ("P3", "P4"), ("P3", "P5"), ("P3", "P6"),
                   ("P4", "P6"), ("P5", "P6")])
        red = [10, 0, 0, 0, 0, 0]
        assert divisors._reduce_coeffs(g, red.copy(), 0)[0] == red
        self.assert_drop(g, red, 3)

    @given(reduced_at_first_vertex())
    def test_one_wave_next_to_the_base(self, case):
        # Off the base, deg - 1 - red is a recurrent sandpile, and a chip
        # taken at a neighbour v of the base adds e_v, at most the burning
        # configuration, which topples every vertex once (Dhar).  So no
        # vertex borrows twice, and the base loses at most deg(0) chips.
        g, red = case
        adj = g._adj
        for v in adj[0]:
            if red[v]:
                continue
            minus = red.copy()
            minus[v] -= 1
            fires = oracles.reduce_one_chip(g, minus, 0)[1]
            assert {fires[0] - f for f in fires} <= {0, 1}
            assert red[0] - divisors._drop_chip(adj, red, v)[0] <= len(adj[0])

    def test_waves_away_from_the_base(self):
        # P3 and P4 are not neighbours of the base P1.  A chip taken at P3
        # makes P3..P6 borrow twice; one taken at P4 makes P2 borrow three
        # times and costs the base three chips, more than its degree.
        g = Graph([f"P{i}" for i in range(1, 7)],
                  [("P1", "P2"), ("P2", "P3"), ("P3", "P4"), ("P3", "P5"), ("P3", "P6"),
                   ("P4", "P6"), ("P5", "P6")])
        red = [10, 0, 0, 0, 0, 0]
        for v, borrows, base in [(2, [0, 1, 2, 2, 2, 2], 9), (3, [0, 3, 6, 7, 7, 7], 7)]:
            minus = red.copy()
            minus[v] -= 1
            reduced, fires = oracles.reduce_one_chip(g, minus, 0)
            assert [fires[0] - f for f in fires] == borrows
            assert reduced[0] == divisors._drop_chip(g._adj, red, v)[0] == base

    @given(reduced_at_first_vertex(), st.data())
    def test_chips_taken_one_after_another(self, case, data):
        g, red = case
        for v in data.draw(st.lists(st.integers(0, len(g) - 1), max_size=12)):
            red = self.assert_drop(g, red, v)


class TestMembers:
    """`_members(adj, red, orbits)` walks the orbit-constant members of
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
        walked = divisors._members(g._adj, red, orbits)
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
