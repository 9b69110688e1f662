import json
import random
from collections import Counter

import pytest

from graphdivisors import (
    Cond1Fail,
    Cond2Fail,
    DisconnectedError,
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
    is_two_edge_connected,
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

    def test_requires_two_edge_connected(self, tmp_path, capsys):
        from graphdivisors.cli import main

        g = build_graph(
            ["P1", "P2", "P3", "P4"],
            [("P1", "P2"), ("P2", "P3"), ("P3", "P1"), ("P3", "P4")],
        )
        for call in (lambda: is_galois_point(g, Divisor.all_ones(g), "P1"),
                     lambda: classify_galois_points(g, Divisor.all_ones(g)),
                     lambda: verify_theorem(g)):
            with pytest.raises(NotTwoEdgeConnectedError, match="graph has a bridge"):
                call()
        path = tmp_path / "bridged.json"
        path.write_text(json.dumps(g.to_json()))
        for command in ("classify", "verify-theorem"):
            assert main([command, "--graph", str(path)]) == 2, command
            out = capsys.readouterr()
            assert out.out == "", command
            assert out.err.startswith("error: graph has a bridge") and out.err.count("\n") == 1, command

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

    def test_arithmetic_shortcut_is_checked_not_trusted(self, monkeypatch):
        # With an orbit test that wrongly ruled out every order, K5's
        # witnesses would come out as NoQualifyingSubgroup(4, 0).  The
        # audit recounts through both passes of the subgroup search, so
        # it rejects each of them.
        import graphdivisors.galois as galois

        g = generate("complete:5")
        d = Divisor.all_ones(g)
        monkeypatch.setattr(galois, "_orbits_fit", lambda g, m: False)
        report = classify_galois_points.__wrapped__(g, d)
        assert {c.reason for c in report.certificates} == {NoQualifyingSubgroup(4, 0)}
        for cert in report.certificates:
            assert audit_certificate(g, d, cert) == ["a qualifying subgroup exists after all"]

    @pytest.mark.parametrize("family, vertex, reason", [
        # The search at P1 gives NoQualifyingSubgroup(3, 0): the order differs.
        ("house4", "P1", NoQualifyingSubgroup(99, 0)),
        # P2 is not smooth: its verdict is Cond2Fail(P2, P4, 1).
        ("house4", "P2", NoQualifyingSubgroup(3, 0)),
        # The all-ones divisor on cycle:5 has rank 4, not 2.
        ("cycle:5", "P1", NoQualifyingSubgroup(4, 0)),
    ])
    def test_misplaced_no_qualifying_subgroup_rejected(self, family, vertex, reason):
        g = generate(family)
        fake = GaloisCertificate(vertex=vertex, verdict=False, reason=reason)
        assert audit_certificate(g, Divisor.all_ones(g), fake) != []


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


def _count_draws(monkeypatch, drawn):
    """Replace `symmetry._automorphisms` so that every element any search
    it returns yields is appended to drawn as (pin, element)."""
    import graphdivisors.symmetry as symmetry

    real = symmetry._automorphisms

    def counting(*args, **kwargs):
        search = real(*args, **kwargs)

        def counted(*bounds):
            for x in search(*bounds):
                drawn.append((kwargs.get("pin"), x))
                yield x

        return counted

    monkeypatch.setattr(symmetry, "_automorphisms", counting)


class TestSinglePass:
    @pytest.mark.parametrize("family", ["wheel:5", "complete:5"])
    def test_rank_and_symmetry_computed_once(self, family, monkeypatch):
        # One rank(d), no pool search (every witness fixes its vertex),
        # and Aut(G) never built: automorphism_group is replaced wherever
        # the package binds it.
        import graphdivisors.galois as galois
        import graphdivisors.symmetry as symmetry

        g = generate(family)
        d = Divisor.all_ones(g)
        rank_of_d = []
        pool_calls = []
        aut_calls = []
        real_rank, real_groups = galois.rank, galois._harmonic_subgroups
        real_aut = symmetry.automorphism_group

        def counting_rank(graph, divisor, *args):
            if divisor == d:
                rank_of_d.append(divisor)
            return real_rank(graph, divisor, *args)

        def counting_groups(graph, m, pin=None):
            if pin is None:
                pool_calls.append(graph)
            return real_groups(graph, m, pin)

        def counting_aut(graph, *args):
            aut_calls.append(graph)
            return real_aut(graph, *args)

        monkeypatch.setattr(galois, "rank", counting_rank)
        monkeypatch.setattr(galois, "_harmonic_subgroups", counting_groups)
        for module in (symmetry, galois):
            for attr in [a for a, v in vars(module).items() if v is real_aut]:
                monkeypatch.setattr(module, attr, counting_aut)
        classify_galois_points.__wrapped__(g, d)
        assert len(rank_of_d) == 1
        assert pool_calls == []
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
        # One reduction inside rank(d), of K - d on these graphs except
        # complete:6..8, and one for the decision: every d - p and every
        # member of its linear system is derived by one-grain avalanches
        # from the reduced form of d.  On house4, deg(d) = 4 > 2g - 2, so
        # rank(d) = deg(d) - g reduces nothing.
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
        assert len(calls) == (1 if family == "house4" else 2)

    def test_fixing_passes_stream_without_the_pool(self, monkeypatch):
        # Complete graphs and wheels find every witness among the
        # elements that fix the vertex, so the full pool is never built.
        # On K8 the first element the pinned search at P1 yields
        # generates its witness, and every later vertex carries the
        # witness of its twin before it, so exactly one element is drawn
        # in all, at P1.  On house4 at order 3 the two vertices of degree
        # 2 cannot be orbits of sizes 3/s with s dividing gcd(3, 2) = 1,
        # so its two NoQualifyingSubgroup vertices run neither pass.
        import graphdivisors.galois as galois

        pool_calls, drawn = [], []
        real_groups = galois._harmonic_subgroups

        def counting_groups(graph, m, pin=None):
            if pin is None:
                pool_calls.append(graph)
            return real_groups(graph, m, pin)

        monkeypatch.setattr(galois, "_harmonic_subgroups", counting_groups)
        _count_draws(monkeypatch, drawn)
        for family in [f"complete:{n}" for n in range(5, 9)] + [f"wheel:{n}" for n in range(5, 9)]:
            g = generate(family)
            drawn.clear()
            report = classify_galois_points.__wrapped__(g, Divisor.all_ones(g))
            assert report.galois_count > 0 and pool_calls == [], family
            if family == "complete:8":
                assert [pin for pin, _ in drawn] == [0]
        g = generate("house4")
        drawn.clear()
        report = classify_galois_points.__wrapped__(g, Divisor.all_ones(g))
        negatives = [c for c in report.certificates if isinstance(c.reason, NoQualifyingSubgroup)]
        assert len(negatives) == 2
        assert pool_calls == [] and drawn == []

    @pytest.mark.parametrize("family, coeffs", [
        pytest.param("complete:6", None, id="complete:6"),
        pytest.param("wheel:6", None, id="wheel:6"),
        pytest.param("house4", None, id="house4"),
        # At P1 and P2 the witness moves the vertex and is the first of
        # the two groups that do, so the moving pass is dropped mid-way.
        pytest.param("complete:3", {"P1": 1, "P3": 2}, id="complete:3 moved witness"),
    ])
    def test_classification_leaves_no_cyclic_garbage(self, family, coeffs):
        # The recursive searches take themselves as an argument, so no
        # closure refers to one, and reference counting frees everything
        # a classification made whether a search runs out or is dropped
        # at the first witness.  The cyclic collector, which costs corpus
        # sweeps a few percent, finds nothing.
        import gc

        g = generate(family)
        d = Divisor(g, coeffs) if coeffs else Divisor.all_ones(g)
        if coeffs:
            witness = classify_galois_points(g, d).certificates[0].subgroup
            assert any(x[0] != 0 for x in witness.perms)
        gc.collect()
        gc.disable()
        try:
            classify_galois_points.__wrapped__(g, d)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("case", ["refused by the linear-system cap",
                                      "pinned search never read", "unpinned search never read"])
    def test_searches_dropped_unstarted_leave_no_cyclic_garbage(self, case):
        # A search dropped before its first draw frees itself as well.
        # The refused classification has made the pinned search at P1
        # when `_require_enumerable` raises.  The collector runs only
        # after the exception is released: until then its traceback
        # keeps the refusing frame, and with it the search, alive.
        import gc

        from graphdivisors import EnumerationCapExceededError
        from graphdivisors.symmetry import _harmonic_subgroups

        g = generate("complete:7")
        gc.collect()
        gc.disable()
        try:
            if case == "refused by the linear-system cap":
                try:
                    classify_galois_points.__wrapped__(g, Divisor.all_ones(g), 900)
                except EnumerationCapExceededError:
                    pass
                else:
                    pytest.fail("cap 900 should refuse the linear system of K7")
            else:
                _harmonic_subgroups(g, 6, 0 if case.startswith("pinned") else None)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_fixing_passes_keep_no_state_across_vertices(self):
        # Each vertex's fixing pass keeps only its own state, so the
        # passes at vertices 0, 1 and 2 in a row peak no higher than the
        # pass at vertex 0 alone.  No pass could reuse another's elements:
        # a harmonic automorphism of K_n fixes at most one vertex.  What
        # the vertices of K9 do share is found by symmetry instead, as
        # each carries its twin's witness across by their swap, so a
        # classification runs only the pass at vertex 0.
        # A first pass, dropped before the peak is reset, fills the
        # interpreter's free lists with traced blocks, so both peaks
        # count them alike.
        import tracemalloc

        from graphdivisors.symmetry import _harmonic_subgroups

        g = generate("complete:9")
        tracemalloc.start()
        try:
            next(_harmonic_subgroups(g, 8, 0))
            tracemalloc.reset_peak()
            next(_harmonic_subgroups(g, 8, 0))
            alone = tracemalloc.get_traced_memory()[1]
            next(_harmonic_subgroups(g, 8, 1))
            next(_harmonic_subgroups(g, 8, 2))
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
        # The pinned pass at P1 stops at its first group, and each later
        # vertex carries the witness of the twin before it, so one group
        # is produced in all.
        import graphdivisors.symmetry as symmetry

        produced = []
        real = symmetry._subgroups_in_order

        def counting(*args):
            for h in real(*args):
                produced.append(h)
                yield h

        monkeypatch.setattr(symmetry, "_subgroups_in_order", counting)
        g = generate(f"complete:{n}")
        report = classify_galois_points.__wrapped__(g, Divisor.all_ones(g))
        assert report.galois_count == n
        assert len(produced) == 1



def _twins(g, d, a, b):
    """Whether swapping vertices a and b (indices) is an automorphism of
    g that fixes d, read off the neighbour sets and coefficients."""
    u, v = g.vertices[a], g.vertices[b]
    return (d.coeffs[a] == d.coeffs[b]
            and set(g.neighbors(u)) - {v} == set(g.neighbors(v)) - {u})


def _blown_up(rng):
    """A random bridgeless graph on at most 7 vertices in which each
    vertex of a random base graph on 2-4 vertices became a run of 1-3
    twins, adjacent to each other or not, with the base vertex of each
    of its vertices.  The labels are shuffled one time in four, so some
    twins are not consecutive."""
    while True:
        base = rng.randint(2, 4)
        base_edges = {(u, v) for u in range(base) for v in range(u + 1, base) if rng.random() < 0.6}
        runs = [rng.choice((1, 2, 2, 3, 3)) for _ in range(base)]
        if sum(runs) > 7:
            continue
        copies = [b for b in range(base) for _ in range(runs[b])]
        clique = [rng.random() < 0.5 for _ in range(base)]
        edges = [(i, j) for i in range(len(copies)) for j in range(i + 1, len(copies))
                 if (copies[i], copies[j]) in base_edges or copies[i] == copies[j] and clique[copies[i]]]
        order = list(range(len(copies)))
        if rng.random() < 0.25:
            rng.shuffle(order)
        labels = [f"P{k + 1}" for k in order]
        try:
            g = build_graph(sorted(labels, key=lambda v: int(v[1:])),
                            [(labels[i], labels[j]) for i, j in edges])
        except DisconnectedError:
            continue
        if is_two_edge_connected(g):
            return g, [copies[labels.index(v)] for v in g.vertices]


class TestTwinCarry:
    """A smooth vertex whose twin with the same coefficient comes just
    before it carries the twin's certificate over by the swap of the
    two, unless the twin's witness moves the twin.  Every certificate
    must equal `_find_witness` run directly at its vertex, and every
    carried one must pass `audit_certificate`."""

    @staticmethod
    def _check(g, d):
        # Returns the number of positive and negative carries, and of
        # twins searched again because the witness moves the first.
        import graphdivisors.galois as galois
        from graphdivisors.divisors import _reduce_coeffs

        fit = galois._orbits_fit(g, d.degree - 1)
        certs = classify_galois_points.__wrapped__(g, d).certificates
        counts = Counter()
        for i, cert in enumerate(certs):
            if isinstance(cert.reason, (RankNotTwo, Cond1Fail, Cond2Fail)):
                continue
            dp, _ = _reduce_coeffs(g, list((d - Divisor.vertex(g, cert.vertex)).coeffs), 0)
            assert cert == galois._find_witness(g, cert.vertex, dp, None, fit), (g, d, cert.vertex)
            last = certs[i - 1] if i else None
            if last is None or isinstance(last.reason, (Cond1Fail, Cond2Fail)) or not _twins(g, d, i - 1, i):
                continue
            if not last.verdict:
                counts["negative"] += 1
            elif all(x[i - 1] == i - 1 for x in last.subgroup.perms):
                counts["positive"] += 1
            else:
                counts["moved"] += 1
                continue
            assert audit_certificate(g, d, cert) == [], (g, d, cert.vertex)
        return counts

    @pytest.mark.parametrize("n", range(3, 10))
    def test_complete_graphs(self, n):
        g = generate(f"complete:{n}")
        assert self._check(g, Divisor.all_ones(g)) == {"positive": n - 1}

    def test_every_labeled_graph_up_to_five_vertices(self):
        from graphdivisors import enumerate_corpus

        counts = Counter()
        for n in (3, 4, 5):
            labels = [f"P{i}" for i in range(1, n + 1)]
            for record in enumerate_corpus(n).records:
                g = build_graph(labels, record.edges)
                counts += self._check(g, Divisor.all_ones(g))
        assert counts["positive"] > 0 and counts["negative"] > 0, counts

    def test_random_divisors_on_twin_blow_ups(self):
        # Twins mostly share a coefficient; now and then one differs, and
        # then the swap does not fix d.
        rng = random.Random(17)
        counts, divisors = Counter(), 0
        while divisors < 600:
            g, base = _blown_up(rng)
            for _ in range(20):
                by_base = [rng.randint(-1, 3) for _ in range(max(base) + 1)]
                d = Divisor.from_coeffs(g, [by_base[b] if rng.random() < 0.9 else rng.randint(-1, 3)
                                            for b in base])
                if not 2 <= d.degree <= genus(g) + 2 or rank(g, d) != 2:
                    continue
                divisors += 1
                counts += self._check(g, d)
        assert counts["positive"] >= 150 and counts["negative"] >= 100 and counts["moved"] > 0, counts

    def test_witness_that_moves_the_twin_is_not_carried(self, monkeypatch):
        # On K_{2,2} with d = P1 + P2 + P3, the witness at P1 swaps P1
        # with P4 and P2 with P3, so it came from the moving pass, whose
        # order the swap of P1 and P2 does not keep: P2 is searched.  P3
        # and P4 are twins with different coefficients.
        import graphdivisors.galois as galois

        g = build_graph(["P1", "P2", "P3", "P4"],
                        [("P1", "P3"), ("P1", "P4"), ("P2", "P3"), ("P2", "P4")])
        d = Divisor(g, {"P1": 1, "P2": 1, "P3": 1})
        searched = []
        real = galois._find_witness

        def counting(graph, p, *args):
            searched.append(p)
            return real(graph, p, *args)

        monkeypatch.setattr(galois, "_find_witness", counting)
        first = classify_galois_points.__wrapped__(g, d).certificates[0]
        monkeypatch.undo()
        assert searched == ["P1", "P2", "P3", "P4"]
        assert first.verdict and any(x[0] != 0 for x in first.subgroup.perms)
        assert self._check(g, d) == {"moved": 1}

CORPUS_AND_FAMILIES = (
    [pytest.param(n, None, id=f"corpus{n}") for n in (3, 4, 5)]
    + [pytest.param(None, f, id=f) for f in ["house4"] + [f"cycle:{n}" for n in range(4, 7)]
       + [f"complete:{n}" for n in range(3, 9)] + [f"wheel:{n}" for n in range(5, 11)]]
)


class TestOrbitArithmetic:
    """`galois._orbits_fit` and the divisibility test of the pinned pass
    only ever rule out what the exhaustive search finds empty."""

    @pytest.mark.parametrize("n, family", CORPUS_AND_FAMILIES)
    def test_never_rules_out_a_harmonic_group(self, n, family):
        from graphdivisors import enumerate_corpus
        from graphdivisors.galois import _orbits_fit
        from graphdivisors.symmetry import _harmonic_subgroups

        if family is None:
            labels = [f"P{i}" for i in range(1, n + 1)]
            graphs = [build_graph(labels, r.edges) for r in enumerate_corpus(n).records]
        else:
            graphs = [generate(family)]
        ruled_out = pinned_out = 0
        for g in graphs:
            size = len(g.vertices)
            for m in range(2, size + 3):
                if not _orbits_fit(g, m):
                    assert next(_harmonic_subgroups(g, m), None) is None, (g, m)
                    ruled_out += 1
                for pi, nbrs in enumerate(g._adj):
                    if len(nbrs) % m:
                        assert next(_harmonic_subgroups(g, m, pi), None) is None, (g, m, pi)
                        pinned_out += 1
        assert ruled_out > 0 and pinned_out > 0

    def test_feasible_orders(self):
        from graphdivisors.galois import _orbits_fit

        # K8 (8 vertices of degree 7): orbit sizes m/s, s | gcd(m, 7).
        k8 = generate("complete:8")
        assert [m for m in range(1, 15) if _orbits_fit(k8, m)] == [1, 2, 4, 7, 8, 14]
        # house4: two vertices of degree 3, two of degree 2.  At m = 3
        # the degree-2 pair needs orbits of size 3; at m = 6, of size 6
        # or 3.
        house4 = generate("house4")
        assert [m for m in range(1, 9) if _orbits_fit(house4, m)] == [1, 2]

    @pytest.mark.parametrize("family, coeffs, order", [
        ("complete:8", {"P1": 2, "P2": 1, "P3": 2, "P5": 2, "P6": 2, "P7": 2, "P8": 2}, 12),
        ("complete:9", {"P1": 2, "P2": 1, "P3": 2, "P5": 2, "P6": 2, "P7": 2, "P8": 2, "P9": 2}, 14),
    ])
    def test_negatives_decided_without_a_search(self, family, coeffs, order, monkeypatch):
        # A search over every admissible element took 0.6-0.9 s on K8 and
        # 1.7 s on K9; no harmonic group of order 12 on 8 vertices of
        # degree 7, or of order 14 on 9 vertices of degree 8, exists.
        drawn = []
        _count_draws(monkeypatch, drawn)
        g = generate(family)
        d = Divisor(g, coeffs)
        report = classify_galois_points.__wrapped__(g, d)
        negatives = [c for c in report.certificates if isinstance(c.reason, NoQualifyingSubgroup)]
        assert report.rank == 2 and negatives
        assert {c.reason for c in negatives} == {NoQualifyingSubgroup(order, 0)}
        assert drawn == []


class TestAdmissiblePool:
    """The witness pool from the pruned automorphism search against
    `oracles.admissible_brute`.  Where m does not divide |Aut(G)| the
    pool may hold elements no subgroup of order m can use (Lagrange),
    so no subgroup may come out of it."""

    @staticmethod
    def check(g, m, order):
        from graphdivisors.symmetry import _automorphisms, _harmonic_subgroups

        pool = list(_automorphisms(g, m=m)())
        assert len(set(pool)) == len(pool)
        assert set(pool) == set(oracles.admissible_brute(g, m)), m
        if order % m:
            assert list(_harmonic_subgroups(g, m)) == []

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
    """Each vertex's pinned pass against oracles.  The elements the
    unbounded pinned search yields must be, in exact order, the
    brute-force admissible elements that fix the vertex.  The groups the
    pass yields, each from a search bounded by the group before it,
    must be, in exact order, the groups `oracles.subgroups_by_generators`
    closes from those elements whose elements all lie among them."""

    @staticmethod
    def check(g, m):
        # Returns the number of groups the passes yield.
        from graphdivisors.symmetry import _automorphisms, _harmonic_subgroups

        n = len(g.vertices)
        identity = tuple(range(n))
        brute = oracles.admissible_brute(g, m)
        groups = 0
        for pi in range(n):
            fixing = sorted(x for x in brute if x[pi] == pi)
            assert list(_automorphisms(g, m=m, pin=pi)()) == fixing, (g, m, pi)
            allowed = {identity, *fixing}
            expected = [h for h in oracles.subgroups_by_generators([identity, *fixing], m)
                        if allowed.issuperset(h)]
            assert [tuple(sorted(h)) for h in _harmonic_subgroups(g, m, pi)] == expected, (g, m, pi)
            groups += len(expected)
        return groups

    def test_every_labeled_graph_up_to_five_vertices(self):
        from graphdivisors import enumerate_corpus

        groups = 0
        for n in (3, 4, 5):
            labels = [f"P{i}" for i in range(1, n + 1)]
            for record in enumerate_corpus(n).records:
                g = build_graph(labels, record.edges)
                for m in range(2, n + 3):
                    groups += self.check(g, m)
        assert groups > 0

    @pytest.mark.parametrize(
        "family",
        ["house4"] + [f"cycle:{n}" for n in range(4, 7)] + [f"complete:{n}" for n in range(3, 8)]
        + [f"wheel:{n}" for n in range(5, 9)],
    )
    def test_families(self, family):
        g = generate(family)
        self.check(g, len(g.vertices) - 1)

    def test_twin_blow_ups(self):
        # Runs of twins fix a vertex in many ways at once.
        rng = random.Random(29)
        groups = Counter()
        for _ in range(40):
            g, _ = _blown_up(rng)
            for m in range(2, len(g.vertices) + 3):
                groups[m] += self.check(g, m)
        assert all(groups[m] > 0 for m in (2, 3, 4, 5)), groups

    def test_products_are_checked_for_harmonicity(self):
        # In K(2,4) at order 6, harmonic elements fixing P1 generate a
        # group with a non-harmonic element of order dividing 6, so the
        # pass must check harmonicity, not only the order.
        labels = ["P1", "P2", "P3", "P4", "P5", "P6"]
        g = build_graph(labels, [(a, b) for a in labels[:4] for b in labels[4:]])
        self.check(g, 6)

    @pytest.mark.parametrize("n, generators", [
        (9, [(0, 2, 1, 4, 3, 6, 5, 8, 7), (0, 3, 4, 1, 2, 7, 8, 5, 6), (0, 5, 6, 7, 8, 1, 2, 3, 4)]),
        (10, [(0, 2, 3, 1, 5, 6, 4, 8, 9, 7), (0, 4, 5, 6, 7, 8, 9, 1, 2, 3)]),
    ])
    def test_first_group_at_p1_of_large_complete_graphs(self, n, generators):
        # Recorded with the shared stream the pass read before its
        # searches were bounded.
        from graphdivisors.symmetry import _harmonic_subgroups

        g = generate(f"complete:{n}")
        first = next(_harmonic_subgroups(g, n - 1, 0))
        assert len(first) == n - 1
        assert first == Subgroup.from_generators(g, generators).perms

    @pytest.mark.parametrize("n, most", [(9, 7), (10, 66)])
    def test_pass_at_p1_of_large_complete_graphs_draws_few_elements(self, n, most, monkeypatch):
        # Classifying K9 or K10 runs one pinned pass, at P1.  Its bounded
        # searches draw 7 elements over 3 groups on K9 and 66 over 2 on
        # K10; the one stream they replaced drew 3,953 and 12,481.
        drawn = []
        _count_draws(monkeypatch, drawn)
        g = generate(f"complete:{n}")
        report = classify_galois_points.__wrapped__(g, Divisor.all_ones(g))
        assert report.galois_count == n
        assert {pin for pin, _ in drawn} == {0}
        assert len(drawn) <= most
