import random

import pytest

from graphdivisors import (
    Cond1Fail,
    Cond2Fail,
    Divisor,
    GaloisCertificate,
    NoQualifyingSubgroup,
    NotTwoEdgeConnectedError,
    RankNotTwo,
    RankPreconditionError,
    Subgroup,
    audit_certificate,
    build_graph,
    check_smoothness,
    classify_galois_points,
    fixed_members,
    generate,
    genus,
    is_galois_point,
    linear_system,
    rank,
    riemann_roch_check,
    verify_theorem,
)

import oracles


@pytest.fixture(scope="module")
def k4():
    return generate("complete:4")


@pytest.fixture(scope="module")
def w5():
    return generate("wheel:5")


@pytest.fixture(scope="module")
def house4():
    return generate("house4")


class TestCheckSmoothness:
    def test_complete_graphs_smooth_everywhere(self):
        for n in (4, 5):
            g = generate(f"complete:{n}")
            d = Divisor.all_ones(g)
            for p in g.vertices:
                assert check_smoothness(g, d, p).ok

    def test_wheel_hub_smooth(self, w5):
        assert check_smoothness(w5, Divisor.all_ones(w5), "P1").ok

    def test_wheel_rim_fails_second_condition(self, w5):
        # removing two rim vertices at rim-distance two leaves rank 1, not 0:
        # P2 and P4 share the neighbourhood {P1, P3, P5}, so firing P2 once
        # shows D - 2*P2 - P4 is equivalent to the effective divisor 2*P2
        res = check_smoothness(w5, Divisor.all_ones(w5), "P2")
        assert res.failure == Cond2Fail("P2", "P4", 1)

    def test_house4_vertices_split(self, house4):
        d = Divisor.all_ones(house4)
        assert check_smoothness(house4, d, "P1").ok
        assert check_smoothness(house4, d, "P3").ok
        assert check_smoothness(house4, d, "P2").failure == Cond2Fail("P2", "P4", 1)
        assert check_smoothness(house4, d, "P4").failure == Cond2Fail("P4", "P2", 1)

    def test_rank_precondition(self):
        g = generate("cycle:4")
        with pytest.raises(RankPreconditionError) as exc:
            check_smoothness(g, Divisor.all_ones(g), "P1")
        assert exc.value.rank == 3

    def test_wheel_rim_rank_confirmed_by_lattice_oracle(self, w5):
        d = Divisor.all_ones(w5) - Divisor(w5, {"P2": 1, "P4": 1})
        assert oracles.rank_brute(w5, d) == 1


class TestSmoothnessAgainstRankOracle:
    """`check_smoothness` reads the verdict off reduced forms; the oracle
    calls `rank` on d - p and on every d - p - q."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_every_vertex_of_rank_two_corpus_graphs(self, n):
        from graphdivisors import enumerate_corpus

        labels = [f"P{i}" for i in range(1, n + 1)]
        checked = 0
        for record in enumerate_corpus(n).records:
            if record.rank != 2:
                continue
            g = build_graph(labels, record.edges)
            d = Divisor.all_ones(g)
            for p in g.vertices:
                assert check_smoothness(g, d, p) == oracles.smoothness_by_rank(g, d, p), (record, p)
                checked += 1
        assert checked > 0

    def test_random_rank_two_divisors(self):
        rng = random.Random(2024)
        specs = ["house4", "cycle:4", "cycle:5", "cycle:6", "wheel:5", "wheel:6", "wheel:7",
                 "complete:4", "complete:5", "complete:6"]
        divisors = 0
        failures = set()
        for spec in specs:
            g = generate(spec)
            found = 0
            while found < 60:
                d = Divisor.from_coeffs(g, [rng.randint(-1, 3) for _ in g.vertices])
                # rank <= degree, and rank = degree - genus above degree 2g - 2
                if d == Divisor.all_ones(g) or not 2 <= d.degree <= genus(g) + 2:
                    continue
                if rank(g, d) != 2:
                    continue
                found += 1
                for p in g.vertices:
                    res = check_smoothness(g, d, p)
                    assert res == oracles.smoothness_by_rank(g, d, p), (spec, d, p)
                    failures.add(type(res.failure))
            divisors += found
        assert divisors >= 500
        assert failures == {type(None), Cond1Fail, Cond2Fail}


class TestFixedMembers:
    def test_rotation_fixes_both_members(self, k4):
        h = Subgroup.from_generators(
            k4, [{"P1": "P1", "P2": "P3", "P3": "P4", "P4": "P2"}]
        )
        system = linear_system(k4, Divisor.all_ones(k4) - Divisor.vertex(k4, "P1"))
        assert fixed_members(h, system) == system
        assert len(system) == 2

    def test_trivial_subgroup_fixes_everything(self, k4):
        system = linear_system(k4, Divisor(k4, {"P1": 2}))
        assert fixed_members(Subgroup.trivial(k4), system) == system

    def test_swap_moves_asymmetric_divisor(self, k4):
        h = Subgroup.from_generators(
            k4, [{"P1": "P1", "P2": "P3", "P3": "P2", "P4": "P4"}]
        )
        assert fixed_members(h, {Divisor(k4, {"P2": 1, "P3": 2})}) == frozenset()


class TestIsGaloisPoint:
    def test_k4_every_vertex_with_expected_witness(self, k4):
        d = Divisor.all_ones(k4)
        cert = is_galois_point(k4, d, "P1")
        assert cert.verdict
        assert cert.subgroup.order == 3
        assert all(a("P1") == "P1" for a in cert.subgroup.elements)
        assert {cert.e1, cert.e2} == {
            Divisor(k4, {"P2": 1, "P3": 1, "P4": 1}),
            Divisor(k4, {"P1": 3}),
        }
        assert cert.quotient_vertex_count == 2
        assert all(is_galois_point(k4, d, p).verdict for p in k4.vertices)

    def test_w5_hub_only(self, w5):
        d = Divisor.all_ones(w5)
        assert is_galois_point(w5, d, "P1").verdict
        for p in ("P2", "P3", "P4", "P5"):
            cert = is_galois_point(w5, d, p)
            assert not cert.verdict
            assert isinstance(cert.reason, Cond2Fail)

    def test_house4_reasons(self, house4):
        d = Divisor.all_ones(house4)
        for p, expected in (
            ("P1", NoQualifyingSubgroup(3, 0)),
            ("P2", Cond2Fail("P2", "P4", 1)),
            ("P3", NoQualifyingSubgroup(3, 0)),
            ("P4", Cond2Fail("P4", "P2", 1)),
        ):
            cert = is_galois_point(house4, d, p)
            assert not cert.verdict
            assert cert.reason == expected

    def test_requires_two_edge_connected(self):
        g = build_graph(
            ["P1", "P2", "P3", "P4"],
            [("P1", "P2"), ("P2", "P3"), ("P3", "P1"), ("P3", "P4")],
        )
        with pytest.raises(NotTwoEdgeConnectedError):
            is_galois_point(g, Divisor.all_ones(g), "P1")

    def test_requires_rank_two(self, k4):
        with pytest.raises(RankPreconditionError):
            is_galois_point(k4, Divisor.zero(k4), "P1")

    def test_certificate_json_round_trip(self, k4, w5):
        d = Divisor.all_ones(k4)
        cert = is_galois_point(k4, d, "P2")
        assert GaloisCertificate.from_json(k4, cert.to_json()) == cert
        bad = is_galois_point(w5, Divisor.all_ones(w5), "P3")
        assert GaloisCertificate.from_json(w5, bad.to_json()) == bad


class TestAudit:
    def test_positive_certificates_pass(self, k4, w5):
        for g in (k4, w5):
            d = Divisor.all_ones(g)
            for p in g.vertices:
                cert = is_galois_point(g, d, p)
                assert audit_certificate(g, d, cert) == []

    def test_tampered_subgroup_caught(self, k4):
        d = Divisor.all_ones(k4)
        cert = is_galois_point(k4, d, "P1")
        # swap in a subgroup of the wrong order
        wrong = Subgroup.from_generators(
            k4, [{"P1": "P1", "P2": "P3", "P3": "P2", "P4": "P4"}]
        )
        tampered = GaloisCertificate(
            vertex=cert.vertex,
            verdict=True,
            subgroup=wrong,
            e1=cert.e1,
            e2=cert.e2,
            quotient_vertex_count=3,
            reason=None,
        )
        problems = audit_certificate(k4, d, tampered)
        assert any("order" in p for p in problems)

    def test_tampered_fixed_divisor_caught(self, k4):
        d = Divisor.all_ones(k4)
        cert = is_galois_point(k4, d, "P1")
        tampered = GaloisCertificate(
            vertex=cert.vertex,
            verdict=True,
            subgroup=cert.subgroup,
            e1=Divisor(k4, {"P2": 2, "P3": 1}),
            e2=cert.e2,
            quotient_vertex_count=cert.quotient_vertex_count,
            reason=None,
        )
        problems = audit_certificate(k4, d, tampered)
        assert problems != []

    def test_duplicate_fixed_divisors_caught(self, k4):
        d = Divisor.all_ones(k4)
        cert = is_galois_point(k4, d, "P1")
        tampered = GaloisCertificate(
            vertex=cert.vertex,
            verdict=True,
            subgroup=cert.subgroup,
            e1=cert.e2,
            e2=cert.e2,
            quotient_vertex_count=cert.quotient_vertex_count,
            reason=None,
        )
        assert any("distinct" in p for p in audit_certificate(k4, d, tampered))

    def test_negative_reasons_reproduce(self, w5, house4):
        for g in (w5, house4):
            d = Divisor.all_ones(g)
            for p in g.vertices:
                cert = is_galois_point(g, d, p)
                assert audit_certificate(g, d, cert) == []

    def test_fabricated_failure_rejected(self, k4):
        d = Divisor.all_ones(k4)
        fake = GaloisCertificate(vertex="P1", verdict=False, reason=Cond1Fail("P1", 0))
        assert audit_certificate(k4, d, fake) != []


class TestClassification:
    def test_k5_all_vertices(self):
        g = generate("complete:5")
        report = classify_galois_points(g, Divisor.all_ones(g))
        assert report.galois_count == 5
        assert report.corollary_consistent
        assert report.divisor_is_all_ones

    def test_w6_hub_only(self):
        g = generate("wheel:6")
        report = classify_galois_points(g, Divisor.all_ones(g))
        assert report.galois_vertices == ("P1",)
        assert report.galois_count == 1
        assert report.corollary_consistent

    def test_house4_zero(self, house4):
        report = classify_galois_points(house4, Divisor.all_ones(house4))
        assert report.galois_count == 0
        assert report.corollary_consistent

    def test_rank_not_two_reported_not_raised(self):
        g = generate("cycle:4")
        report = classify_galois_points(g, Divisor.all_ones(g))
        assert report.rank == 3
        assert report.galois_count == 0
        assert all(c.reason == RankNotTwo(3) for c in report.certificates)
        assert report.corollary_consistent  # vacuous away from rank 2

    def test_non_all_ones_flagged(self, k4):
        d = Divisor(k4, {"P1": 4})  # equivalent to all-ones but not equal
        report = classify_galois_points(k4, d)
        assert not report.divisor_is_all_ones


class TestVerifyTheorem:
    def test_k5(self):
        check = verify_theorem(generate("complete:5"))
        assert (check.is_complete, check.has_two_galois, check.equivalence_holds) == (
            True,
            True,
            True,
        )
        assert check.all_vertices_galois is True
        assert check.consistent

    def test_w6(self):
        check = verify_theorem(generate("wheel:6"))
        assert (check.is_complete, check.has_two_galois, check.equivalence_holds) == (
            False,
            False,
            True,
        )
        assert check.all_vertices_galois is None

    def test_house4(self, house4):
        check = verify_theorem(house4)
        assert (check.is_complete, check.has_two_galois, check.equivalence_holds) == (
            False,
            False,
            True,
        )

    def test_k3_smallest_complete(self):
        check = verify_theorem(generate("complete:3"))
        assert check.is_complete and check.has_two_galois and check.equivalence_holds
        assert check.galois_count == 3


class TestRiemannRoch:
    def test_house4_values(self, house4):
        check = riemann_roch_check(house4, Divisor.all_ones(house4))
        assert check.holds
        assert (check.rank, check.canonical_rank) == (2, -1)
        assert check.lhs == check.rhs == 3

    def test_zero_divisor(self):
        for fam in ("complete:4", "wheel:5", "cycle:6", "house4"):
            g = generate(fam)
            check = riemann_roch_check(g, Divisor.zero(g))
            assert check.holds
            assert check.rank == 0
            assert check.canonical_rank == genus(g) - 1

    def test_random_small_sweep(self):
        rng = random.Random(61)
        for _ in range(30):
            g = oracles.random_connected_graph(rng, rng.randint(2, 5))
            d = oracles.random_divisor(rng, g)
            check = riemann_roch_check(g, d)
            assert check.holds, (g.to_json(), d.to_json())


class TestSinglePass:
    @pytest.mark.parametrize("family", ["wheel:5", "complete:5"])
    def test_rank_and_symmetry_computed_once(self, family, monkeypatch):
        # One rank(d), at most one pool search, and Aut(G) never built:
        # automorphism_group is replaced wherever the package binds it.
        import graphdivisors.galois as galois
        import graphdivisors.symmetry as symmetry

        g = generate(family)
        d = Divisor.all_ones(g)
        rank_of_d = []
        pool_calls = []
        aut_calls = []
        real_rank, real_pool = galois.rank, galois._admissible_elements
        real_aut = symmetry.automorphism_group

        def counting_rank(graph, divisor, *args):
            if divisor == d:
                rank_of_d.append(divisor)
            return real_rank(graph, divisor, *args)

        def counting_pool(graph, *args):
            pool_calls.append(graph)
            return real_pool(graph, *args)

        def counting_aut(graph, *args):
            aut_calls.append(graph)
            return real_aut(graph, *args)

        monkeypatch.setattr(galois, "rank", counting_rank)
        monkeypatch.setattr(galois, "_admissible_elements", counting_pool)
        for module in (symmetry, galois):
            for attr in [a for a, v in vars(module).items() if v is real_aut]:
                monkeypatch.setattr(module, attr, counting_aut)
        classify_galois_points.__wrapped__(g, d)
        assert len(rank_of_d) == 1
        assert len(pool_calls) <= 1
        assert aut_calls == []

    @pytest.mark.parametrize("family", ["wheel:5", "complete:5", "house4"])
    def test_smoothness_makes_no_rank_call(self, family, monkeypatch):
        import graphdivisors.galois as galois

        g = generate(family)
        calls = []
        real_rank = galois.rank

        def counting_rank(*args):
            calls.append(args[1])
            return real_rank(*args)

        monkeypatch.setattr(galois, "rank", counting_rank)
        classify_galois_points.__wrapped__(g, Divisor.all_ones(g))
        assert calls == [Divisor.all_ones(g)]

    @pytest.mark.parametrize(
        "family", [f"complete:{n}" for n in range(5, 9)] + [f"wheel:{n}" for n in range(5, 9)] + ["house4"]
    )
    def test_d_is_the_only_divisor_reduced(self, family, monkeypatch):
        # One reduction inside rank(d) and one for the decision: every
        # d - p and every member of its linear system is derived by
        # one-grain avalanches from the reduced form of d.
        import graphdivisors.divisors as divisors
        import graphdivisors.galois as galois

        g = generate(family)
        calls = []
        real_reduce = divisors._reduce_coeffs

        def counting(*args):
            calls.append(1)
            return real_reduce(*args)

        monkeypatch.setattr(divisors, "_reduce_coeffs", counting)
        monkeypatch.setattr(galois, "_reduce_coeffs", counting)
        report = classify_galois_points.__wrapped__(g, Divisor.all_ones(g))
        assert report.rank == 2
        assert len(calls) == 2

    def test_fixing_passes_stream_without_the_pool(self, monkeypatch):
        # Complete graphs and wheels find every witness among the
        # elements that fix the vertex, so the full pool is never built;
        # on K8 each vertex's first streamed element generates its
        # witness.  house4 has negatives and builds the pool once.
        import graphdivisors.galois as galois

        pool_calls, drawn = [], []
        real_pool, real_search = galois._admissible_elements, galois._automorphisms

        def counting_pool(*args):
            pool_calls.append(args)
            return real_pool(*args)

        def counting_search(*args, **kwargs):
            for x in real_search(*args, **kwargs):
                if kwargs.get("pin") is not None:
                    drawn.append(x)
                yield x

        monkeypatch.setattr(galois, "_admissible_elements", counting_pool)
        monkeypatch.setattr(galois, "_automorphisms", counting_search)
        for family in [f"complete:{n}" for n in range(5, 9)] + [f"wheel:{n}" for n in range(5, 9)]:
            g = generate(family)
            drawn.clear()
            report = classify_galois_points.__wrapped__(g, Divisor.all_ones(g))
            assert report.galois_count > 0 and pool_calls == [], family
            if family == "complete:8":
                assert 0 < len(drawn) <= 8
        g = generate("house4")
        report = classify_galois_points.__wrapped__(g, Divisor.all_ones(g))
        assert any(isinstance(c.reason, NoQualifyingSubgroup) for c in report.certificates)
        assert len(pool_calls) == 1

    @pytest.mark.parametrize("family", ["complete:6", "wheel:6", "house4"])
    def test_classification_leaves_no_cyclic_garbage(self, family):
        # The recursive searches release themselves when they run out or
        # are dropped at the first witness, so reference counting frees
        # everything a classification made and the cyclic collector,
        # which costs corpus sweeps a few percent, finds nothing.
        import gc

        g = generate(family)
        d = Divisor.all_ones(g)
        gc.collect()
        gc.disable()
        try:
            classify_galois_points.__wrapped__(g, d)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_fixing_passes_keep_no_state_across_vertices(self):
        # Each vertex's fixing pass keeps only its own state, so the
        # passes at vertices 0, 1 and 2 in a row peak no higher than the
        # pass at vertex 0 alone.  In K9 at order 8 there is nothing to
        # share: a harmonic automorphism of K_n fixes at most one vertex.
        # A first pass, dropped before the peak is reset, fills the
        # interpreter's free lists with traced blocks, so both peaks
        # count them alike.
        import tracemalloc

        from graphdivisors.galois import _witness_search

        g = generate("complete:9")
        tracemalloc.start()
        try:
            next(_witness_search(g, 8)(0))
            tracemalloc.reset_peak()
            search = _witness_search(g, 8)
            next(search(0))
            alone = tracemalloc.get_traced_memory()[1]
            next(search(1))
            next(search(2))
            assert tracemalloc.get_traced_memory()[1] <= 1.25 * alone
        finally:
            tracemalloc.stop()

    def test_witness_divisors_match_linear_system_oracle(self):
        from graphdivisors import enumerate_corpus

        graphs = [generate(f"complete:{n}") for n in range(3, 7)]
        graphs += [generate(f"wheel:{n}") for n in range(5, 9)]
        graphs.append(generate("house4"))
        for record in enumerate_corpus(4).records:
            graphs.append(build_graph(["P1", "P2", "P3", "P4"], record.edges))
        positives = 0
        for g in graphs:
            d = Divisor.all_ones(g)
            for cert in classify_galois_points(g, d).certificates:
                if not cert.verdict:
                    continue
                positives += 1
                system = linear_system(g, d - Divisor.vertex(g, cert.vertex))
                fixed = sorted(fixed_members(cert.subgroup, system), key=lambda e: e.coeffs)
                assert (cert.e1, cert.e2) == tuple(fixed[:2]), (g, cert.vertex)
        assert positives > 0


def _rank_two_corpus_graphs(n):
    from graphdivisors import enumerate_corpus

    labels = [f"P{i}" for i in range(1, n + 1)]
    return [build_graph(labels, r.edges) for r in enumerate_corpus(n).records if r.rank == 2]


class TestWitnessSearch:
    """The search builds only harmonic subgroups, those fixing p first,
    and stops at the first witness; `oracles.witness_by_all_subgroups`
    builds every subgroup of the order and sorts them."""

    @staticmethod
    def _check_against_oracle(g, d):
        searched = []
        for cert in classify_galois_points(g, d).certificates:
            if isinstance(cert.reason, (Cond1Fail, Cond2Fail)):
                continue
            assert cert == oracles.witness_by_all_subgroups(g, d, cert.vertex), (g, d, cert.vertex)
            searched.append(cert)
        return searched

    def test_all_ones_matches_oracle(self):
        graphs = _rank_two_corpus_graphs(4) + _rank_two_corpus_graphs(5)
        graphs += [generate(f"complete:{n}") for n in range(3, 8)]
        graphs += [generate(f"wheel:{n}") for n in range(5, 9)]
        graphs.append(generate("house4"))
        verdicts = set()
        for g in graphs:
            for cert in self._check_against_oracle(g, Divisor.all_ones(g)):
                verdicts.add(cert.verdict)
        assert verdicts == {True, False}

    def test_random_divisors_match_oracle(self):
        rng = random.Random(7)
        graphs = rng.sample(_rank_two_corpus_graphs(4) + _rank_two_corpus_graphs(5), 20)
        graphs += [generate(s) for s in ("complete:3", "complete:4", "complete:5", "complete:6",
                                         "wheel:5", "wheel:6", "wheel:7", "house4")]
        divisors = 0
        moved, negatives = 0, 0
        for g in graphs:
            found = 0
            while found < 15:
                d = Divisor.from_coeffs(g, [rng.randint(-1, 3) for _ in g.vertices])
                if d == Divisor.all_ones(g) or not 2 <= d.degree <= genus(g) + 2:
                    continue
                if rank(g, d) != 2:
                    continue
                found += 1
                for cert in self._check_against_oracle(g, d):
                    if cert.verdict:
                        moved += any(x[g.index_of(cert.vertex)] != g.index_of(cert.vertex)
                                     for x in cert.subgroup.perms)
                    else:
                        negatives += cert.reason.subgroups_checked > 0
            divisors += found
        assert divisors >= 300
        assert moved > 0 and negatives > 0, (moved, negatives)

    def test_negative_counts_are_all_harmonic_subgroups(self):
        from graphdivisors import (
            acts_harmonically,
            automorphism_group,
            enumerate_corpus,
            subgroups_of_order,
        )

        labels = ["P1", "P2", "P3", "P4", "P5"]
        graphs = [build_graph(labels, r.edges) for r in enumerate_corpus(5).records]
        graphs.append(generate("house4"))
        verdicts = 0
        for g in graphs:
            d = Divisor.all_ones(g)
            m = d.degree - 1
            harmonic = None
            for cert in classify_galois_points(g, d).certificates:
                if not isinstance(cert.reason, NoQualifyingSubgroup):
                    continue
                if harmonic is None:
                    harmonic = len([h for h in subgroups_of_order(automorphism_group(g), m)
                                    if acts_harmonically(g, h)])
                assert cert.reason == NoQualifyingSubgroup(m, harmonic)
                assert audit_certificate(g, d, cert) == []
                verdicts += 1
        assert verdicts == 170 + 2

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_complete_graph_stops_at_first_witness(self, n, monkeypatch):
        import graphdivisors.galois as galois

        produced = []
        real = galois._subgroups_in_order

        def counting(*args):
            for h in real(*args):
                produced.append(h)
                yield h

        monkeypatch.setattr(galois, "_subgroups_in_order", counting)
        g = generate(f"complete:{n}")
        report = classify_galois_points.__wrapped__(g, Divisor.all_ones(g))
        assert report.galois_count == n
        assert len(produced) == n


class TestAdmissiblePool:
    """The witness pool from the pruned automorphism search against
    `oracles.admissible_brute`.  Where m does not divide |Aut(G)| the
    pool may hold elements no subgroup of order m can use (Lagrange),
    so no subgroup may come out of it."""

    @staticmethod
    def check(g, m, order):
        from graphdivisors.galois import _admissible_elements
        from graphdivisors.symmetry import _subgroups_in_order

        pool = _admissible_elements(g, m)
        assert len(set(pool)) == len(pool)
        assert set(pool) == set(oracles.admissible_brute(g, m)), m
        if order % m:
            assert list(_subgroups_in_order(pool, m, len(g.vertices))) == []

    def test_corpus5_graphs_for_small_orders(self):
        from graphdivisors import automorphism_group, enumerate_corpus

        labels = ["P1", "P2", "P3", "P4", "P5"]
        for record in enumerate_corpus(5).records:
            g = build_graph(labels, record.edges)
            order = automorphism_group(g).order
            for m in range(1, 9):
                self.check(g, m, order)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_edgeless_graph_leaves_out_the_identity(self, m):
        # With no edge to fix, only the identity test keeps it out.
        self.check(build_graph(["P1"], []), m, 1)

    @pytest.mark.parametrize(
        "family",
        ["house4"] + [f"cycle:{n}" for n in range(4, 7)] + [f"complete:{n}" for n in range(3, 8)]
        + [f"wheel:{n}" for n in range(5, 11)],
    )
    def test_families_at_the_classification_order(self, family):
        from graphdivisors import automorphism_group

        g = generate(family)
        self.check(g, len(g.vertices) - 1, automorphism_group(g).order)


class TestPinnedStream:
    """Each vertex's stream from the pinned automorphism search against
    the brute-force admissible elements that fix it, in exact order, and
    the subgroup search on the stream against the same search on that
    list."""

    @staticmethod
    def check(g, m=None):
        from graphdivisors.galois import _pinned_fits
        from graphdivisors.symmetry import _automorphisms, _subgroups_in_order

        n = len(g.vertices)
        m = m or n - 1
        brute = oracles.admissible_brute(g, m)
        for pi in range(n):
            expected = sorted(x for x in brute if x[pi] == pi)
            assert list(_automorphisms(g, m=m, pin=pi)) == expected, (g, pi)
            streamed = _subgroups_in_order(_automorphisms(g, m=m, pin=pi), m, n,
                                           _pinned_fits(g, m, pi))
            assert list(streamed) == list(_subgroups_in_order(expected, m, n)), (g, pi)

    def test_corpus5_graphs(self):
        from graphdivisors import enumerate_corpus

        labels = ["P1", "P2", "P3", "P4", "P5"]
        for record in enumerate_corpus(5).records:
            self.check(build_graph(labels, record.edges))

    @pytest.mark.parametrize(
        "family",
        ["house4"] + [f"cycle:{n}" for n in range(4, 7)] + [f"complete:{n}" for n in range(3, 8)]
        + [f"wheel:{n}" for n in range(5, 9)],
    )
    def test_families(self, family):
        self.check(generate(family))

    def test_products_are_checked_for_harmonicity(self):
        # In K(2,4) at order 6, harmonic elements fixing P1 generate a
        # group with a non-harmonic element of order dividing 6, so the
        # stream's test must check harmonicity, not only the order.
        labels = ["P1", "P2", "P3", "P4", "P5", "P6"]
        g = build_graph(labels, [(a, b) for a in labels[:4] for b in labels[4:]])
        self.check(g, 6)
