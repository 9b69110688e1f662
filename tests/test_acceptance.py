"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Each test prints a single PASS/FAIL line (straight to the terminal,
bypassing capture) with timing.  All comparisons are exact integer
comparisons; nothing is tolerance-tuned.

Criterion 2 note: on wheel:n (hub P1, rim cycle P2..Pn) with D the
all-ones divisor, rank(D - P - Q) is 1 exactly when P != Q are rim
vertices at rim distance two or more, and 0 for every other pair (the
hub, repeated vertices, rim neighbours); that makes 2 + 5 + 9 + 14 = 30
pairs of rank 1 on wheel:5..8.  Rank >= 1: removing any v outside
{P, Q} leaves an effective divisor, and removing P leaves -1 at P,
which borrowing at P repairs (P gains 3 chips, its three neighbours,
none of them Q, lose one each); likewise for Q.  Rank <= 1 because
rank(D - P - Q) <= rank(D - P) = 1.  The test checks the table on every
pair and against the brute-force oracle on wheel:5 and wheel:6.
"""

import random
import time
from itertools import combinations, combinations_with_replacement

import pytest

from graphdivisors import (
    Divisor,
    Graph,
    VertexFunction,
    audit_certificate,
    automorphism_group,
    acts_harmonically,
    all_subgroups,
    build_graph,
    canonical_divisor,
    classify_galois_points,
    enumerate_corpus,
    generate,
    genus,
    laplacian_apply,
    q_reduce,
    q_reduce_with_witness,
    rank,
    riemann_roch_check,
    subgroups_of_order,
)

import oracles


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line, flush=True)

    return _announce


def all_two_edge_connected_graphs(n):
    labels = [f"P{i}" for i in range(1, n + 1)]
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        if len(edges) < n:
            continue
        if not oracles.is_connected(n, edges):
            continue
        if oracles.find_bridges(n, edges):
            continue
        yield Graph(labels, [(labels[a], labels[b]) for a, b in edges])


def test_criterion_1_complete_graphs(announce):
    t0 = time.time()
    for n in range(4, 8):
        tn = time.time()
        g = generate(f"complete:{n}")
        d = Divisor.all_ones(g)
        assert rank(g, d) == 2
        for p in g.vertices:
            assert rank(g, d - Divisor.vertex(g, p)) == 1
        for p, q in combinations_with_replacement(g.vertices, 2):
            assert rank(g, d - Divisor.vertex(g, p) - Divisor.vertex(g, q)) == 0
        report = classify_galois_points(g, d)
        assert report.galois_count == n
        for cert in report.certificates:
            assert cert.verdict
            assert audit_certificate(g, d, cert) == []
        assert time.time() - tn < 60
    announce(f"ACCEPTANCE 1: PASS - complete graphs n=4..7, all ranks exact, "
             f"all vertices certified ({time.time() - t0:.1f}s)")


def test_criterion_2_wheel_classification(announce):
    t0 = time.time()
    for n in range(5, 9):
        tn = time.time()
        g = generate(f"wheel:{n}")
        d = Divisor.all_ones(g)
        assert rank(g, d) == 2
        for p in g.vertices:
            assert rank(g, d - Divisor.vertex(g, p)) == 1
        report = classify_galois_points(g, d)
        assert report.galois_vertices == ("P1",)
        assert report.galois_count == 1
        assert time.time() - tn < 60
    announce(f"ACCEPTANCE 2 (classification): PASS - wheels n=5..8 have exactly "
             f"the hub as Galois point ({time.time() - t0:.1f}s)")


def _wheel_pair_rank(g, p, q):
    """Closed-form rank(D - P - Q) on a wheel, D the all-ones divisor.

    1 exactly when P != Q are rim vertices at rim distance two or more,
    0 otherwise (see the criterion 2 note in the module docstring).
    """
    rim = g.vertices[1:]
    if p == q or p not in rim or q not in rim:
        return 0
    gap = abs(rim.index(p) - rim.index(q))
    return 1 if min(gap, len(rim) - gap) >= 2 else 0


def test_criterion_2_wheel_pair_ranks(announce):
    t0 = time.time()
    pairs = rank_one = oracle_checked = 0
    for n in range(5, 9):
        g = generate(f"wheel:{n}")
        d = Divisor.all_ones(g)
        for p, q in combinations_with_replacement(g.vertices, 2):
            probe = d - Divisor.vertex(g, p) - Divisor.vertex(g, q)
            r = rank(g, probe)
            assert r == _wheel_pair_rank(g, p, q), (n, p, q, r)
            if n <= 6:
                assert r == oracles.rank_brute(g, probe), (n, p, q, r)
                oracle_checked += 1
            pairs += 1
            rank_one += r == 1
    assert pairs == 15 + 21 + 28 + 36
    assert rank_one == 2 + 5 + 9 + 14

    g = generate("wheel:5")
    d = Divisor.all_ones(g)
    p2, p4 = Divisor.vertex(g, "P2"), Divisor.vertex(g, "P4")
    assert oracles.equivalent(g, d - 2 * p2 - p4, 2 * p2)

    announce(f"ACCEPTANCE 2 (pair ranks): PASS - wheels n=5..8, {pairs} pairs match the "
             f"closed form, {rank_one} of rank 1 (distinct rim pairs at rim distance >= 2), "
             f"{oracle_checked} checked against the brute-force oracle ({time.time() - t0:.1f}s)")


def test_criterion_3_house4(announce):
    t0 = time.time()
    g = generate("house4")
    d = Divisor.all_ones(g)
    assert rank(g, d) == 2
    assert genus(g) == 2
    assert canonical_divisor(g) == Divisor(g, {"P1": 1, "P3": 1})
    check = riemann_roch_check(g, d)
    assert check.holds and check.rank == 2 and check.canonical_rank == -1
    assert check.lhs == 3 and check.rhs == 4 + 1 - 2
    full = automorphism_group(g)
    assert full.order == 4
    assert subgroups_of_order(full, 3) == ()
    report = classify_galois_points(g, d)
    assert report.galois_count == 0
    elapsed = time.time() - t0
    assert elapsed < 1.0
    announce(f"ACCEPTANCE 3: PASS - house4 invariants, rank identity, and zero "
             f"Galois points ({elapsed:.2f}s)")


def test_criterion_4_theorem_sweep(announce):
    t0 = time.time()
    expected_counts = {}
    for n in (4, 5):
        expected_counts[n] = sum(1 for _ in all_two_edge_connected_graphs(n))
    results = {}
    for n in (4, 5):
        result = enumerate_corpus(n)
        results[n] = result
        assert result.graphs_tested == expected_counts[n]
        for record in result.records:
            assert record.theorem_consistent
            assert record.corollary_consistent
            if record.rank == 2:
                assert record.galois_count in (0, 1, n)
        assert result.all_consistent

    house = generate("house4")
    house_records = [r for r in results[4].records if set(r.edges) == set(house.edges)]
    assert len(house_records) == 1
    assert house_records[0].galois_count == 0

    k5 = generate("complete:5")
    k5_records = [r for r in results[5].records if set(r.edges) == set(k5.edges)]
    assert len(k5_records) == 1
    assert k5_records[0].galois_count == 5

    elapsed = time.time() - t0
    assert elapsed < 600
    announce(f"ACCEPTANCE 4: PASS - exhaustive n=4 ({results[4].graphs_tested} graphs) "
             f"and n=5 ({results[5].graphs_tested} graphs) sweeps consistent "
             f"({elapsed:.1f}s)")


def test_criterion_5_riemann_roch_suite(announce):
    t0 = time.time()
    rng = random.Random(20240817)
    trials = 0
    while trials < 500:
        g = oracles.random_connected_graph(rng, rng.randint(2, 6))
        d = oracles.random_divisor(rng, g, lo=-3, hi=6)
        assert -3 <= d.degree <= 6
        check = riemann_roch_check(g, d)
        assert check.holds, (g.to_json(), d.to_json(), check)
        trials += 1
    announce(f"ACCEPTANCE 5: PASS - rank identity exact on {trials} random "
             f"graph/divisor pairs ({time.time() - t0:.1f}s)")


def test_criterion_6_reduction_oracle_equivalence(announce):
    t0 = time.time()
    rng = random.Random(987654321)
    trials = 0
    while trials < 500:
        g = oracles.random_connected_graph(rng, rng.randint(2, 6))
        d = oracles.random_divisor(rng, g, lo=-6, hi=8)
        q = rng.choice(g.vertices)
        reduced, witness = q_reduce_with_witness(g, d, q)
        assert oracles.is_q_reduced_by_subsets(g, reduced, q)
        assert q_reduce(g, reduced, q) == reduced
        assert reduced.degree == d.degree
        assert d + laplacian_apply(g, witness) == reduced
        f = VertexFunction.from_values(g, [rng.randint(-2, 2) for _ in g.vertices])
        shifted = d + laplacian_apply(g, f)
        assert q_reduce(g, shifted, q) == reduced
        trials += 1
    announce(f"ACCEPTANCE 6: PASS - {trials} reductions verified against the "
             f"subset-definition oracle with witnesses ({time.time() - t0:.1f}s)")


def test_criterion_7_vertex_classes_distinct(announce):
    t0 = time.time()
    graphs = 0
    for n in (3, 4, 5, 6):
        for g in all_two_edge_connected_graphs(n):
            reduced = [q_reduce(g, Divisor.vertex(g, v), g.vertices[0]) for v in g.vertices]
            assert len(set(reduced)) == len(g.vertices), g.to_json()
            graphs += 1
    announce(f"ACCEPTANCE 7: PASS - distinct vertices stay inequivalent on all "
             f"{graphs} two-edge-connected graphs with n<=6 ({time.time() - t0:.1f}s)")


def _harmonicity_corpus():
    graphs = [
        generate("complete:3"),
        generate("complete:4"),
        generate("house4"),
        build_graph(["c", "a", "b", "d"], [("c", "a"), ("c", "b"), ("c", "d")]),
        build_graph(["P1", "P2", "P3", "P4"], [("P1", "P2"), ("P2", "P3"), ("P3", "P4")]),
        build_graph(
            ["a1", "a2", "b1", "b2", "b3"],
            [(a, b) for a in ("a1", "a2") for b in ("b1", "b2", "b3")],
        ),
        build_graph(
            ["t1", "t2", "t3", "u1", "u2", "u3"],
            [("t1", "t2"), ("t2", "t3"), ("t1", "t3"),
             ("u1", "u2"), ("u2", "u3"), ("u1", "u3"),
             ("t1", "u1"), ("t2", "u2"), ("t3", "u3")],
        ),
    ]
    graphs += [generate(f"cycle:{n}") for n in range(3, 9)]
    graphs += [generate(f"wheel:{n}") for n in range(5, 9)]
    return graphs


def test_criterion_8_harmonicity_modes_agree(announce):
    t0 = time.time()
    pairs = 0
    for g in _harmonicity_corpus():
        full = automorphism_group(g)
        assert full.order <= 48
        for h in all_subgroups(full):
            assert acts_harmonically(g, h, "criterion") == acts_harmonically(g, h, "definition"), (
                g.to_json(),
                h.to_json(),
            )
            pairs += 1
    announce(f"ACCEPTANCE 8: PASS - criterion and definition agree on {pairs} "
             f"(graph, subgroup) pairs ({time.time() - t0:.1f}s)")


def test_criterion_9_certificate_audits(announce):
    t0 = time.time()
    audited = 0

    def audit_all(g, d):
        nonlocal audited
        report = classify_galois_points(g, d)
        for cert in report.certificates:
            assert audit_certificate(g, d, cert) == [], (g.to_json(), cert.to_json())
            audited += 1

    for n in range(4, 8):
        g = generate(f"complete:{n}")
        audit_all(g, Divisor.all_ones(g))
    for n in range(5, 9):
        g = generate(f"wheel:{n}")
        audit_all(g, Divisor.all_ones(g))
    g = generate("house4")
    audit_all(g, Divisor.all_ones(g))
    for n in (4, 5):
        for g in all_two_edge_connected_graphs(n):
            audit_all(g, Divisor.all_ones(g))
    announce(f"ACCEPTANCE 9: PASS - {audited} certificates re-verified "
             f"independently ({time.time() - t0:.1f}s)")
