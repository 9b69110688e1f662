"""`rank` and its branch-and-bound walk, against checks that share no code with them.

The walk visits each probe off vertex 0 at most once and refuses past
the cap exactly where a degree-by-degree search would stop; `rank`
takes the value from the cheaper side of Riemann-Roch.  These tests pin
that refusal point against a per-degree count, `rank` against the walk
of d itself (value or refusal), the values against `oracles.rank_brute`
and, beyond the brute force's reach, the walk against the Baker-Norine
facts, the smoothness table against the brute-force smoothness oracle,
the work of all of them and of `linear_system` in `_drop_chip` calls,
and the walk's avalanches, each with the reduced form it starts from,
against the documented walk of `oracles.rank_walk_spec`.
"""

import random
import time
from collections import Counter
from math import comb

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import graphdivisors.divisors as divisors
import graphdivisors.galois as galois
from graphdivisors import (
    Divisor,
    EnumerationCapExceededError,
    GaloisCertificate,
    Graph,
    NoQualifyingSubgroup,
    VertexFunction,
    build_graph,
    canonical_divisor,
    check_smoothness,
    classify_galois_points,
    enumerate_corpus,
    generate,
    laplacian_apply,
    linear_system,
    rank,
)
from graphdivisors.divisors import DEFAULT_ENUMERATION_CAP

import oracles


def refusal(n, cap):
    """(degree, probes) where a degree-by-degree search on n vertices
    stops: the first degree s at which the count of effective divisors
    of degrees 1..s, added up one degree at a time, exceeds the cap."""
    s, probes = 1, n
    while probes <= cap:
        s += 1
        probes += comb(s + n - 1, n - 1)
    return s, probes


def refused(g, d, cap=None, how=rank):
    with pytest.raises(EnumerationCapExceededError) as exc:
        how(g, d, cap)
    return str(exc.value), exc.value.required, exc.value.cap


@pytest.fixture
def drops(monkeypatch):
    """The vertices of every `_drop_chip` call made after setup; only
    `divisors` binds the function."""
    calls = []
    real = divisors._drop_chip

    def counting(adj, red, v):
        calls.append(v)
        return real(adj, red, v)

    monkeypatch.setattr(divisors, "_drop_chip", counting)
    return calls


class TestCapThreshold:
    def test_one_vertex_refuses_at_once(self):
        # Counting the probes one degree at a time took about 1.9 s on a
        # 2-core Xeon host: 5,000,001 degrees of one probe each.
        g = Graph(["P1"], [])
        start = time.perf_counter()
        outcome = refused(g, 10**7 * Divisor.vertex(g, "P1"))
        assert time.perf_counter() - start < 0.5
        assert outcome == (
            "rank probe at degree 5000001 needs 5000001 effective divisors (cap 5000000)",
            5_000_001,
            DEFAULT_ENUMERATION_CAP,
        )

    def test_cycle3_refuses_at_degree_309(self):
        # rank(1000·P1) = 999 on a genus-1 graph; the walk stops at degree
        # 308 instead of enumerating the 5,013,319 probes of degrees 1..309.
        g = generate("cycle:3")
        start = time.perf_counter()
        outcome = refused(g, 1000 * Divisor.vertex(g, "P1"))
        assert time.perf_counter() - start < 1.0
        assert outcome == (
            "rank probe at degree 309 needs 5013319 effective divisors (cap 5000000)",
            5_013_319,
            DEFAULT_ENUMERATION_CAP,
        )
        assert refusal(3, DEFAULT_ENUMERATION_CAP) == (309, 5_013_319)

    def test_value_or_refusal_where_the_degree_search_stops(self):
        # rank r comes back iff r < s - 1 for the refusal degree s, so the
        # search never needed a probe of degree s; otherwise it refuses
        # at s with the per-degree count.
        rng = random.Random(1313)
        seen = Counter()
        for _ in range(50):
            g = oracles.random_connected_graph(rng, rng.randint(2, 5))
            d = oracles.random_divisor(rng, g, lo=-1, hi=5)
            expected = oracles.rank_brute(g, d)
            n = len(g.vertices)
            for cap in (0, 1, 5, 20, 100, 1000, None):
                capv = DEFAULT_ENUMERATION_CAP if cap is None else cap
                s, probes = refusal(n, capv)
                if expected < s - 1:
                    assert rank(g, d, cap) == expected, (g, d, cap)
                    seen["value"] += 1
                    seen["value just below"] += expected == s - 2
                else:
                    message = f"rank probe at degree {s} needs {probes} effective divisors (cap {capv})"
                    assert refused(g, d, cap) == (message, probes, capv), (g, d, cap)
                    seen["refusal"] += 1
                    seen["refusal at the limit"] += expected == s - 1
        assert min(seen.values()) > 0 and len(seen) == 4, seen


class TestHugeChipCounts:
    """Chip counts far past the cap refuse from the starting bound alone,
    at once, and never build a range as long as the bound."""

    def refused_quickly(self, how, g, d, *shift):
        start = time.perf_counter()
        with pytest.raises(EnumerationCapExceededError) as exc:
            how(g, d, None, *shift)
        assert time.perf_counter() - start < 0.5
        return str(exc.value), exc.value.required, exc.value.cap

    @pytest.mark.parametrize("how", [rank, divisors._rank_walk])
    def test_cycle3(self, how):
        g = generate("cycle:3")
        assert self.refused_quickly(how, g, 10**30 * Divisor.vertex(g, "P1")) == (
            "rank probe at degree 309 needs 5013319 effective divisors (cap 5000000)",
            5_013_319,
            DEFAULT_ENUMERATION_CAP,
        )

    @pytest.mark.parametrize("shift", [0, 3])
    def test_one_vertex_walk(self, shift):
        g = Graph(["P1"], [])
        assert self.refused_quickly(divisors._rank_walk, g, 10**30 * Divisor.vertex(g, "P1"), shift) == (
            "rank probe at degree 5000001 needs 5000001 effective divisors (cap 5000000)",
            5_000_001,
            DEFAULT_ENUMERATION_CAP,
        )


@st.composite
def bridgeless_divisors(draw):
    """A 2-edge-connected graph on 3-6 vertices and a divisor on it with
    coefficients in [-2, 4], of degree at most 7, where `rank_brute`
    still takes milliseconds."""
    n = draw(st.integers(3, 6))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    assume(oracles.two_edge_connected(n, edges))
    coeffs = draw(st.lists(st.integers(-2, 4), min_size=n, max_size=n))
    assume(sum(coeffs) <= 7)
    labels = [f"P{i}" for i in range(1, n + 1)]
    g = Graph(labels, [(labels[i], labels[j]) for i, j in edges])
    return g, Divisor.from_coeffs(g, coeffs)


class TestAgainstBruteForce:
    @given(bridgeless_divisors())
    def test_value_or_refusal_at_the_threshold(self, case):
        # The caps just below and at the probes of degrees 1..r+1: the
        # walk refuses at the first and returns r at the second, by
        # either side of Riemann-Roch.
        g, d = case
        n = len(g.vertices)
        r = oracles.rank_brute(g, d)
        needed = sum(comb(t + n - 1, n - 1) for t in range(1, r + 2))
        for cap in (max(needed - 1, 0), needed, needed + 1):
            s, probes = refusal(n, cap)
            for how in (rank, divisors._rank_walk):
                if r >= s - 1:
                    message = f"rank probe at degree {s} needs {probes} effective divisors (cap {cap})"
                    assert refused(g, d, cap, how) == (message, probes, cap), (g, d, cap, how)
                else:
                    assert how(g, d, cap) == r, (g, d, cap, how)


def walk_outcome(g, d, cap):
    """The walk's value, or its refusal as (message, required, cap)."""
    try:
        return divisors._rank_walk(g, d, cap)
    except EnumerationCapExceededError as exc:
        return str(exc), exc.required, exc.cap


class TestWalkOrder:
    @given(bridgeless_divisors(), st.data())
    def test_vertex_reordering(self, case, data):
        # The walk takes its base and its order of the other vertices from
        # the vertex order; neither may change the value or the refusal,
        # at the caps just below, at and above the probes of degrees
        # 1..r+1.
        g, d = case
        n = len(g.vertices)
        perm = data.draw(st.permutations(range(n)))
        h = Graph([g.vertices[i] for i in perm], g.edges)
        e = Divisor(h, d.as_dict())
        r = divisors._rank_walk(g, d)
        needed = comb(r + 1 + n, n) - 1
        for cap in (max(needed - 1, 0), needed, needed + 1):
            assert walk_outcome(h, e, cap) == walk_outcome(g, d, cap), (h, e, cap)


def two_edge_connected_graph(rng, n, max_genus=7):
    """A random bridgeless graph on n vertices, redrawn until its genus
    is at most max_genus, which bounds the probes the walks need."""
    while True:
        g = oracles.random_connected_graph(rng, n, extra_edge_prob=0.3)
        if len(g.edges) - n + 1 <= max_genus and oracles.two_edge_connected(n, list(g._edges_idx)):
            return g


class TestAgainstRecursion:
    """`oracles.rank_by_recursion` shares no rule with the walk: it
    takes one chip at a time and reduces every divisor from scratch."""

    @pytest.mark.parametrize("family", ["house4", "cycle:5", "complete:4", "complete:5", "wheel:5", "wheel:6"])
    def test_every_effective_divisor_of_the_families(self, family):
        g = generate(family)
        n, memo = len(g.vertices), {}
        top = min(len(g.edges) - n + 3, 7)  # min(g + 2, 7), the genus counted from the edges
        for k in range(top + 1):
            for e in oracles.effective_tuples(k, n):
                assert rank(g, Divisor.from_coeffs(g, e)) == oracles.rank_by_recursion(g, e, memo), (family, e)

    def test_random_bridgeless_graphs(self):
        rng = random.Random(2308)
        ranks = set()
        for _ in range(40):
            g = two_edge_connected_graph(rng, rng.randint(3, 7))
            n, memo = len(g.vertices), {}
            for _ in range(20):
                while True:
                    coeffs = [rng.randint(-2, 4) for _ in range(n)]
                    if sum(coeffs) <= 8:
                        break
                r = oracles.rank_by_recursion(g, coeffs, memo)
                assert rank(g, Divisor.from_coeffs(g, coeffs)) == r, (g, coeffs)
                ranks.add(r)
        assert {-1, 0, 1, 2, 3} <= ranks, ranks


class TestCheaperSide:
    def test_rank_is_the_walk_of_d(self):
        # Random connected graphs, bridges included, every degree from
        # -2 to 2g + 3 and caps from 0 up: `rank` gives the value or the
        # refusal (message, required, cap) of the walk of d itself, on
        # each of its three branches.
        rng = random.Random(1616)
        seen = Counter()
        for _ in range(40):
            while True:
                g = oracles.random_connected_graph(rng, rng.randint(1, 6), extra_edge_prob=0.3)
                genus = len(g.edges) - len(g.vertices) + 1
                if genus <= 5:
                    break
            n = len(g.vertices)
            seen["bridged" if not oracles.two_edge_connected(n, list(g._edges_idx)) else "bridgeless"] += 1
            for degree in range(-2, 2 * genus + 4):
                coeffs = [rng.randint(-2, 2) for _ in range(n)]
                coeffs[rng.randrange(n)] += degree - sum(coeffs)
                d = Divisor.from_coeffs(g, coeffs)
                side = ("closed form" if degree > 2 * genus - 2
                        else "K - d" if degree >= genus - 1 else "d")
                for cap in (None, 0, 1, 3, 10, 50, 200, 5000):
                    try:
                        expected = divisors._rank_walk(g, d, cap)
                    except EnumerationCapExceededError:
                        assert refused(g, d, cap) == refused(g, d, cap, divisors._rank_walk), (g, d, cap)
                        seen[side + ", refused"] += 1
                    else:
                        assert rank(g, d, cap) == expected, (g, d, cap)
                        seen[side] += 1
        assert len(seen) == 8 and min(seen.values()) > 0, seen


class TestBakerNorineFacts:
    """Random 2-edge-connected graphs on 6-9 vertices, beyond `rank_brute`.
    The genus is counted from the edges here, not by the library, and the
    ranks come from the walk: `rank` itself reads most of them off
    Riemann-Roch."""

    @pytest.mark.parametrize("seed", range(4))
    def test_facts(self, seed):
        rng = random.Random(f"baker-norine:{seed}")
        for n in range(6, 10):
            g = two_edge_connected_graph(rng, n)
            genus = len(g.edges) - n + 1
            k = canonical_divisor(g)
            walk = divisors._rank_walk
            assert walk(g, k) == genus - 1
            for degree in (2 * genus - 1, 2 * genus, 2 * genus + 1, -1, -3):
                coeffs = [rng.randint(-3, 3) for _ in range(n)]
                coeffs[rng.randrange(n)] += degree - sum(coeffs)
                d = Divisor.from_coeffs(g, coeffs)
                expected = degree - genus if degree >= 0 else -1
                assert walk(g, d) == expected, (g, d)
                f = VertexFunction.from_values(g, [rng.randint(-4, 4) for _ in range(n)])
                assert walk(g, d + laplacian_apply(g, f)) == expected
            # Degrees g + 2..g + 4 are those of the chipfire benchmark's
            # Riemann-Roch checks, where `rank` walks K - d, not d; they
            # draw from their own stream and leave the one that draws the
            # graphs alone.
            extra = random.Random(f"chipfire-shaped:{seed}:{n}")
            for degree, draw in [(0, rng), (genus - 1, rng), (2 * genus - 2, rng),
                                 (genus + 2, extra), (genus + 3, extra), (genus + 4, extra)]:
                coeffs = [0] * n
                for _ in range(degree):
                    coeffs[draw.randrange(n)] += 1
                d = Divisor.from_coeffs(g, coeffs)
                assert walk(g, d) - walk(g, k - d) == degree + 1 - genus, (g, d)
                assert rank(g, d) == walk(g, d), (g, d)


def smoothness_cases():
    """The rank-2 graphs of `enumerate_corpus(4)` and five named graphs."""
    labels = [f"P{i}" for i in range(1, 5)]
    records = enumerate_corpus(4).records
    cases = [pytest.param(build_graph(labels, r.edges), id=f"corpus4-{i}")
             for i, r in enumerate(records) if r.rank == 2]
    specs = ("house4", "complete:4", "complete:5", "wheel:5", "wheel:6")
    return cases + [pytest.param(generate(s), id=s) for s in specs]


class TestSmoothnessOracle:
    @pytest.mark.parametrize("g", smoothness_cases())
    def test_brute_force_rank_agrees(self, g):
        d = Divisor.all_ones(g)
        report = classify_galois_points.__wrapped__(g, d)
        assert report.rank == 2
        for p, cert in zip(g.vertices, report.certificates):
            expected = oracles.smoothness_by_rank(g, d, p, rank=oracles.rank_brute)
            assert check_smoothness(g, d, p) == expected, p
            if expected.ok:
                assert cert.verdict or isinstance(cert.reason, NoQualifyingSubgroup), p
            else:
                assert not cert.verdict and cert.reason == expected.failure, p


@pytest.fixture
def avalanches(monkeypatch):
    """(reduced form, vertex) of every `_drop_chip` call made after setup."""
    calls = []
    real = divisors._drop_chip

    def recording(adj, red, v):
        calls.append((tuple(red), v))
        return real(adj, red, v)

    monkeypatch.setattr(divisors, "_drop_chip", recording)
    return calls


def spec_walk_cases():
    """The all-ones divisor on named graphs, then 200 seeded bridgeless
    graphs on 3-7 vertices with coefficients in [-2, 4], redrawn up to
    degree 10, which keeps each walk of d to a few hundred nodes, then
    40 more with an effective divisor of degree g + 1..g + 4, as
    chipfire checks Riemann-Roch, where the degree floor ends walks."""
    specs = ["house4"] + [f"cycle:{n}" for n in range(4, 7)] + [f"complete:{n}" for n in range(3, 8)]
    for spec in specs + [f"wheel:{n}" for n in range(5, 9)]:
        g = generate(spec)
        yield g, Divisor.all_ones(g)
    rng = random.Random("spec-walk")
    for _ in range(200):
        n = rng.randint(3, 7)
        g = two_edge_connected_graph(rng, n)
        while True:
            d = Divisor.from_coeffs(g, [rng.randint(-2, 4) for _ in range(n)])
            if d.degree <= 10:
                break
        yield g, d
    for _ in range(40):
        n = rng.randint(3, 7)
        g = two_edge_connected_graph(rng, n)
        coeffs = [0] * n
        for _ in range(len(g.edges) - n + 1 + rng.randint(1, 4)):
            coeffs[rng.randrange(n)] += 1
        yield g, Divisor.from_coeffs(g, coeffs)


class TestSpecWalk:
    def test_avalanches_match_the_documented_walk(self, avalanches):
        # The walk must make exactly the avalanches its rules leave, on
        # exactly the reduced forms its documented order reaches: the
        # walk of d itself (shift 0), and from degree g - 1 up the walk
        # of K - d that `rank` makes with shift deg(d) + 1 - g.  Some
        # walks of d work and then end at their degree floor deg(d) - g.
        walked_k_minus_d = ended_at_floor = 0
        for g, d in spec_walk_cases():
            genus = len(g.edges) - len(g.vertices) + 1
            delta = d.degree + 1 - genus
            walks = [(d, 0, lambda: divisors._rank_walk(g, d))]
            if delta >= 0:
                walks.append((canonical_divisor(g) - d, delta, lambda: rank(g, d)))
            for e, shift, run in walks:
                avalanches.clear()
                r, expected = oracles.rank_walk_spec(g, e)
                assert run() == r + shift, (g, d, shift)
                assert Counter(avalanches) == Counter(expected), (g, d, shift)
                ended_at_floor += not shift and r == d.degree - genus and bool(expected)
            walked_k_minus_d += delta >= 0 and bool(expected)
        assert walked_k_minus_d > 0
        assert ended_at_floor > 0


class TestWork:
    @pytest.mark.parametrize("spec, chips, r, walked, cheaper", [
        # A search restarting from d at every degree made 6,427, 11,601
        # and 990 calls.  A walk that reduced every child, leaves too,
        # made 3,002, 5,050 and 285, and 27 for `rank` on complete:7.
        # Reducing only avalanches made 1,307, 1,700 and 170, and 4 on
        # house4 at one chip a vertex; a child read off its parent's
        # sibling and the one-wave leaves next to the base save the rest,
        # house4-1 by the one-wave rule alone.  In vertex order house4-3
        # made 156; the walk order (non-neighbours of the base first, by
        # degree) leaves more free children at the tail of each range.
        # Probing every vertex off the base, house4 made 141 and 3; its
        # rank-determining set is {P1, P3}, so the walk probes P3 alone.
        # wheel:7 made 1,118 and house4-3 made 4 until the walk stopped at
        # its degree floor deg(d) - g, which their ranks 8 and 10 reach.
        # wheel:7 and the house4 divisors lie above degree 2g - 2, where
        # `rank` walks nothing; on complete:7 it walks K - d, of rank 2
        # instead of 9.
        pytest.param("wheel:7", 2, 8, 1, 0, id="wheel:7-2-8"),
        pytest.param("complete:7", 3, 9, 1_310, 12, id="complete:7-3-9"),
        pytest.param("house4", 3, 10, 0, 0, id="house4-3-10"),
        pytest.param("house4", 1, 2, 0, 0, id="house4-1-2"),
    ])
    def test_rank_drops(self, spec, chips, r, walked, cheaper, drops):
        g = generate(spec)
        n = len(g.vertices)
        d = chips * n * Divisor.vertex(g, g.vertices[-1])
        assert divisors._rank_walk(g, d) == r
        assert len(drops) == walked
        drops.clear()
        assert rank(g, d) == r
        assert len(drops) == cheaper

    @pytest.mark.parametrize(
        "spec", ["house4"] + [f"complete:{n}" for n in range(4, 9)] + [f"wheel:{n}" for n in range(5, 9)]
    )
    def test_smoothness_decisions(self, spec, monkeypatch, drops):
        # One table of the probes of degree <= 3 off vertex 0, whose rows
        # carry each d - p to its witness search (stubbed out); the bound
        # still allows one more call per vertex.
        g = generate(spec)
        n = len(g.vertices)
        d = Divisor.all_ones(g)
        assert rank(g, d) == 2
        drops.clear()
        monkeypatch.setattr(galois, "_find_witness",
                            lambda g, p, dp, cap: (GaloisCertificate(p, False), None))
        galois._certificates(g, d, g.vertices, divisors._probe_rows(g, d, range(n)), None)
        assert len(drops) <= comb(n + 2, 3) - 1 + n

    @pytest.mark.parametrize(
        "spec", ["house4"] + [f"complete:{n}" for n in range(4, 9)] + [f"wheel:{n}" for n in range(5, 9)]
    )
    def test_single_vertex_smoothness(self, spec, monkeypatch, drops):
        # One vertex p walks only the probes through p: d - p, the n - 1
        # d - p - q with q off vertex 0, and at most C(n, 2) leaves below
        # them, against the C(n + 2, 3) - 1 probes of the whole table.
        # Its verdict is the table's row at p.
        g = generate(spec)
        n = len(g.vertices)
        d = Divisor.all_ones(g)
        rows = divisors._probe_rows(g, d, range(n))
        table = [galois._smoothness(g, p, zero) for p, (zero, _) in enumerate(rows)]
        drops.clear()
        rank(g, d)
        walked = len(drops)
        monkeypatch.setattr(galois, "_find_witness",
                            lambda g, p, dp, cap: (GaloisCertificate(p, False), None))
        for p, row in zip(g.vertices, table):
            drops.clear()
            assert check_smoothness(g, d, p) == row, p
            assert len(drops) - walked <= n + comb(n, 2), p
            drops.clear()
            cert = galois.is_galois_point(g, d, p)
            assert cert.reason == (None if row.ok else row.failure), p
            assert len(drops) - walked <= n + comb(n, 2) + row.ok, p

    def test_single_vertex_smoothness_counts(self, drops):
        # The whole table took 55 calls on complete:6 at every vertex.
        g = generate("complete:6")
        d = Divisor.all_ones(g)
        counts = []
        for p in g.vertices:
            drops.clear()
            check_smoothness(g, d, p)
            counts.append(len(drops))
        drops.clear()
        rank(g, d)
        assert [c - len(drops) for c in counts] == [11, 14, 14, 14, 14, 14]


class TestMemberWalkWork:
    """`linear_system` takes the chips of the base vertex in one count at
    each node of its member walk, so for degree k on n vertices it makes
    at most one `_drop_chip` call per effective divisor of degree at
    most k off vertex 0: C(k+n-1, n-1) - 1, the candidates its cap
    counts less the empty one."""

    def test_cycle3_fifty_chips(self, drops):
        g = generate("cycle:3")
        linear_system(g, 50 * Divisor.vertex(g, "P1"))
        assert len(drops) == comb(52, 2) - 1 == 1_325

    @pytest.mark.parametrize("spec", ["house4", "wheel:5", "complete:4"])
    def test_at_most_the_candidates_the_cap_counts(self, spec, drops):
        g = generate(spec)
        n = len(g.vertices)
        for v in g.vertices:
            for k in range(10):
                drops.clear()
                linear_system(g, k * Divisor.vertex(g, v))
                assert len(drops) <= comb(k + n - 1, n - 1) - 1, (v, k)

    @pytest.mark.parametrize("spec, k", [("cycle:3", 30), ("house4", 9), ("wheel:5", 8), ("complete:4", 9)])
    def test_many_chips_on_one_vertex_match_brute_oracle(self, spec, k):
        g = generate(spec)
        d = k * Divisor.vertex(g, "P1")
        assert linear_system(g, d) == oracles.linear_system_brute(g, d)
