import random

import pytest

from graphdivisors import (
    Automorphism,
    Divisor,
    GraphMismatchError,
    GraphMorphism,
    InvalidMorphismError,
    SizeCapExceededError,
    Subgroup,
    VertexFunction,
    acts_harmonically,
    all_subgroups,
    apply_to_divisor,
    automorphism_group,
    build_graph,
    generate,
    is_harmonic_morphism,
    laplacian_apply,
    linearly_equivalent,
    orbit,
    quotient_graph,
    stabilizer,
    subgroups_of_order,
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


def rotation(g, cycle):
    mapping = {v: v for v in g.vertices}
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        mapping[a] = b
    return Automorphism.from_mapping(g, mapping)


class TestAutomorphism:
    def test_from_mapping_and_call(self, k4):
        s = rotation(k4, ["P2", "P3", "P4"])
        assert s("P2") == "P3"
        assert s("P1") == "P1"
        assert s.order() == 3
        assert s.cycles() == (("P2", "P3", "P4"),)

    def test_non_automorphism_rejected(self, w5):
        # swapping hub and rim breaks adjacency
        mapping = {v: v for v in w5.vertices}
        mapping["P1"], mapping["P2"] = "P2", "P1"
        with pytest.raises(InvalidMorphismError):
            Automorphism.from_mapping(w5, mapping)

    def test_non_bijection_rejected(self, k4):
        with pytest.raises(InvalidMorphismError):
            Automorphism.from_mapping(k4, {v: "P1" for v in k4.vertices})

    def test_compose_inverse(self, k4):
        s = rotation(k4, ["P2", "P3", "P4"])
        assert (s * s.inverse()).is_identity
        assert (s * s * s).is_identity

    def test_json_round_trip(self, house4):
        s = Automorphism.from_mapping(house4, {"P1": "P3", "P3": "P1", "P2": "P2", "P4": "P4"})
        assert Automorphism.from_json(house4, s.to_json()) == s


class TestApplyToDivisor:
    def test_rotation_fixes_symmetric_divisor(self, k4):
        s = rotation(k4, ["P2", "P3", "P4"])
        d = Divisor(k4, {"P2": 1, "P3": 1, "P4": 1})
        assert apply_to_divisor(s, d) == d

    def test_identity(self, k4):
        d = Divisor(k4, {"P1": 2, "P3": -1})
        assert apply_to_divisor(Automorphism.identity(k4), d) == d

    def test_coefficient_transport(self, k4):
        s = Automorphism.from_mapping(k4, {"P1": "P1", "P2": "P3", "P3": "P2", "P4": "P4"})
        assert apply_to_divisor(s, Divisor(k4, {"P2": 2})) == Divisor(k4, {"P3": 2})

    def test_graph_mismatch(self, k4, w5):
        with pytest.raises(GraphMismatchError):
            apply_to_divisor(Automorphism.identity(k4), Divisor.zero(w5))

    def test_commutes_with_equivalence(self, house4):
        rng = random.Random(17)
        group = automorphism_group(house4).elements
        for _ in range(20):
            d1 = oracles.random_divisor(rng, house4)
            f = VertexFunction.from_values(house4, [rng.randint(-2, 2) for _ in range(4)])
            d2 = d1 + laplacian_apply(house4, f)
            s = rng.choice(group)
            assert linearly_equivalent(house4, apply_to_divisor(s, d1), apply_to_divisor(s, d2))


class TestAutomorphismGroup:
    def test_k4_order(self, k4):
        assert automorphism_group(k4).order == 24

    def test_w5_order(self, w5):
        assert automorphism_group(w5).order == 8

    def test_house4_exact_elements(self, house4):
        got = {a.mapping()["P1"] + a.mapping()["P2"] for a in automorphism_group(house4)}
        full = automorphism_group(house4)
        assert full.order == 4
        perms = {tuple(a.perm) for a in full}
        assert perms == {(0, 1, 2, 3), (2, 1, 0, 3), (0, 3, 2, 1), (2, 3, 0, 1)}
        assert got == {"P1P2", "P1P4", "P3P2", "P3P4"}

    def test_degree_preserved_pointwise(self, w5):
        for a in automorphism_group(w5):
            for v in w5.vertices:
                assert w5.degree(a(v)) == w5.degree(v)

    def test_matches_brute_force(self):
        rng = random.Random(23)
        for _ in range(10):
            g = oracles.random_connected_graph(rng, rng.randint(2, 5))
            assert tuple(sorted(p.perm for p in automorphism_group(g))) == oracles.automorphism_perms_brute(g)

    def test_vertex_cap(self):
        g = generate("cycle:12")
        with pytest.raises(SizeCapExceededError):
            automorphism_group(g, cap=10)


class TestSubgroups:
    def test_closure_required(self, k4):
        s = rotation(k4, ["P2", "P3", "P4"])
        with pytest.raises(ValueError, match="closed"):
            Subgroup.from_elements(k4, [s])

    def test_from_generators(self, k4):
        s = rotation(k4, ["P2", "P3", "P4"])
        h = Subgroup.from_generators(k4, [s])
        assert h.order == 3

    def test_k4_order_3_count(self, k4):
        subs = subgroups_of_order(automorphism_group(k4), 3)
        assert len(subs) == 4
        supports = set()
        for h in subs:
            moved = frozenset(
                v for a in h.elements for v in k4.vertices if a(v) != v
            )
            supports.add(moved)
        assert len(supports) == 4  # one subgroup per 3-element support

    def test_lagrange_prefilter(self, w5):
        assert subgroups_of_order(automorphism_group(w5), 3) == ()

    def test_house4_no_order_3(self, house4):
        assert subgroups_of_order(automorphism_group(house4), 3) == ()

    def test_s4_subgroup_counts(self, k4):
        full = automorphism_group(k4)
        expected = {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}
        for m, count in expected.items():
            assert len(subgroups_of_order(full, m)) == count, m
        assert len(all_subgroups(full)) == sum(expected.values())

    def test_matches_subset_closure_oracle(self, house4, w5):
        for g in (house4, w5, generate("cycle:6")):
            full = automorphism_group(g)
            assert full.order <= 12
            perms = sorted(p.perm for p in full)
            for m in range(1, full.order + 1):
                if full.order % m:
                    continue
                got = {h.perms for h in subgroups_of_order(full, m)}
                assert got == oracles.subgroup_sets_brute(perms, m), (g, m)

    @pytest.mark.parametrize("spec", ["house4", "cycle:3", "cycle:4", "cycle:5", "cycle:6",
                                      "wheel:5", "wheel:6", "wheel:7", "wheel:8", "complete:3",
                                      "complete:4"])
    def test_matches_generator_subset_oracle(self, spec):
        full = automorphism_group(generate(spec))
        perms = [p.perm for p in full]
        for m in range(1, full.order + 1):
            if full.order % m == 0:
                got = tuple(tuple(sorted(h.perms)) for h in subgroups_of_order(full, m))
                assert got == tuple(oracles.subgroups_by_generators(perms, m)), (spec, m)

    @pytest.mark.parametrize("spec", ["house4", "cycle:6", "wheel:6", "complete:4", "complete:5"])
    def test_restricted_pool_yields_the_filtered_subgroups(self, spec):
        # Harmonicity and fixing a vertex hold for a group iff they hold
        # for each element, so a pool filtered by either yields exactly
        # the subgroups that pass the filter, in the same order.
        from graphdivisors.symmetry import _drawn, _harmonic_element, _perm_order, _subgroups_in_order

        g = generate(spec)
        full = automorphism_group(g)
        n = len(g.vertices)
        identity = tuple(range(n))
        tests = {
            "harmonic": lambda x: x == identity or _harmonic_element(g._adj, x),
            "fixes P1": lambda x: x[0] == 0,
        }
        for m in range(1, full.order + 1):
            if full.order % m:
                continue
            subs = subgroups_of_order(full, m)
            for name, test in tests.items():
                pool = [x for x in full.perms if x != identity and m % _perm_order(x) == 0 and test(x)]
                expected = [h.perms for h in subs if all(map(test, h.perms))]
                assert list(_subgroups_in_order(*_drawn(pool, n), m, n)) == expected, (spec, m, name)

    def test_s5_subgroup_counts(self):
        full = automorphism_group(generate("complete:5"))
        expected = {1: 1, 2: 25, 3: 10, 4: 35, 5: 6, 6: 30, 8: 15, 10: 6, 12: 15, 15: 0,
                    20: 6, 24: 5, 30: 0, 40: 0, 60: 1, 120: 1}
        for m, count in expected.items():
            assert len(subgroups_of_order(full, m)) == count, m
        assert len(all_subgroups(full)) == sum(expected.values()) == 156

    def test_order_6_in_s4(self, k4):
        # the four order-6 subgroups of S4 fix one vertex each
        subs = subgroups_of_order(automorphism_group(k4), 6)
        assert len(subs) == 4
        for h in subs:
            fixed = [v for v in k4.vertices if all(a(v) == v for a in h.elements)]
            assert len(fixed) == 1

    def test_json_round_trip(self, house4):
        h = automorphism_group(house4)
        assert Subgroup.from_json(house4, h.to_json()) == h


class TestOrbitStabilizer:
    def test_rotation_orbits_on_k4(self, k4):
        h = Subgroup.from_generators(k4, [rotation(k4, ["P2", "P3", "P4"])])
        assert orbit(h, "P1") == {"P1"}
        assert orbit(h, "P2") == {"P2", "P3", "P4"}

    def test_trivial_subgroup(self, w5):
        h = Subgroup.trivial(w5)
        assert orbit(h, "P3") == {"P3"}
        assert stabilizer(h, "P3") == h

    def test_house4_orbit(self, house4):
        assert orbit(automorphism_group(house4), "P1") == {"P1", "P3"}

    def test_orbit_stabilizer_identity(self, w5, house4, k4):
        for g in (w5, house4, k4):
            full = automorphism_group(g)
            for h in all_subgroups(full):
                for v in g.vertices:
                    assert len(orbit(h, v)) * stabilizer(h, v).order == h.order


class TestQuotient:
    def test_trivial_subgroup_isomorphic(self, house4):
        q = quotient_graph(house4, Subgroup.trivial(house4))
        assert q.vertices == house4.vertices
        assert len(q.edge_classes) == len(house4.edges)
        assert all(len(c.members) == 1 for c in q.edge_classes)

    def test_k4_mod_rotation(self, k4):
        h = Subgroup.from_generators(k4, [rotation(k4, ["P2", "P3", "P4"])])
        q = quotient_graph(k4, h)
        assert q.vertices == ("P1", "P2")
        assert len(q.edge_classes) == 1
        assert set(q.edge_classes[0].members) == {("P1", "P2"), ("P1", "P3"), ("P1", "P4")}

    def test_w5_mod_rim_rotation(self, w5):
        h = Subgroup.from_generators(w5, [rotation(w5, ["P2", "P3", "P4", "P5"])])
        q = quotient_graph(w5, h)
        assert q.vertices == ("P1", "P2")
        assert len(q.edge_classes) == 1  # rim orbit is internal to one vertex orbit
        assert len(q.edge_classes[0].members) == 4

    def test_parallel_edge_classes_preserved(self):
        c4 = generate("cycle:4")
        half_turn = Subgroup.from_generators(
            c4, [{"P1": "P3", "P2": "P4", "P3": "P1", "P4": "P2"}]
        )
        q = quotient_graph(c4, half_turn)
        assert q.vertices == ("P1", "P2")
        assert len(q.edge_classes) == 2
        assert all(c.endpoints == ("P1", "P2") for c in q.edge_classes)
        assert is_harmonic_morphism(q.projection)

    def test_projection_is_valid_morphism(self, w5):
        for h in all_subgroups(automorphism_group(w5)):
            q = quotient_graph(w5, h)
            phi = q.projection  # constructor validates the morphism laws
            assert len(q.vertices) == len({phi.vertex_map[v] for v in w5.vertices})


class TestHarmonicMorphism:
    def test_identity_harmonic(self, house4):
        assert is_harmonic_morphism(GraphMorphism.identity(house4))

    def test_k4_quotient_projection_harmonic(self, k4):
        h = Subgroup.from_generators(k4, [rotation(k4, ["P2", "P3", "P4"])])
        assert is_harmonic_morphism(quotient_graph(k4, h).projection)

    def test_collapsed_path_not_harmonic(self):
        path3 = build_graph(["l1", "c", "l2"], [("l1", "c"), ("c", "l2")])
        target = build_graph(["A", "B", "C"], [("A", "B"), ("B", "C")])
        phi = GraphMorphism(
            path3,
            target,
            {"l1": "A", "c": "B", "l2": "B"},
            {("l1", "c"): ("A", "B"), ("c", "l2"): "B"},
        )
        assert not is_harmonic_morphism(phi)

    def test_morphism_validation(self, house4):
        target = build_graph(["A", "B"], [("A", "B")])
        with pytest.raises(InvalidMorphismError):
            # edge collapsed onto a vertex that is not the shared image
            GraphMorphism(
                build_graph(["x", "y"], [("x", "y")]),
                target,
                {"x": "A", "y": "B"},
                {("x", "y"): "A"},
            )
        with pytest.raises(InvalidMorphismError):
            # edge image endpoints must match the vertex images
            GraphMorphism(
                build_graph(["x", "y"], [("x", "y")]),
                target,
                {"x": "A", "y": "A"},
                {("x", "y"): ("A", "B")},
            )


class TestActsHarmonically:
    def test_rotation_on_complete(self, k4):
        h = Subgroup.from_generators(k4, [rotation(k4, ["P2", "P3", "P4"])])
        assert acts_harmonically(k4, h, "criterion")
        assert acts_harmonically(k4, h, "definition")

    def test_trivial_subgroup(self, w5):
        assert acts_harmonically(w5, Subgroup.trivial(w5), "criterion")

    def test_full_house4_group_not_harmonic(self, house4):
        full = automorphism_group(house4)
        assert not acts_harmonically(house4, full, "criterion")
        assert not acts_harmonically(house4, full, "definition")

    def test_modes_agree_on_small_groups(self, k4, w5, house4):
        star = build_graph(["c", "a", "b", "d"], [("c", "a"), ("c", "b"), ("c", "d")])
        for g in (w5, house4, star, generate("cycle:5")):
            for h in all_subgroups(automorphism_group(g)):
                assert acts_harmonically(g, h, "criterion") == acts_harmonically(g, h, "definition")

    def test_definition_mode_cap(self, k4):
        full = automorphism_group(k4)
        with pytest.raises(SizeCapExceededError):
            acts_harmonically(k4, full, "definition", cap=10)

    def test_unknown_mode(self, k4):
        with pytest.raises(ValueError):
            acts_harmonically(k4, Subgroup.trivial(k4), "hopeful")


class TestHarmonicSubgroups:
    """`_harmonic_subgroups` against the public path: the subgroups of
    order m of the full group that act harmonically (and fix the pin),
    in the same order."""

    @staticmethod
    def check(g, m=None):
        from graphdivisors.symmetry import _harmonic_subgroups

        n = len(g.vertices)
        m = m or n - 1
        harmonic = [h.perms for h in subgroups_of_order(automorphism_group(g), m)
                    if acts_harmonically(g, h)]
        assert list(_harmonic_subgroups(g, m)) == harmonic, g
        for pi in range(n):
            fixing = [h for h in harmonic if all(x[pi] == pi for x in h)]
            assert list(_harmonic_subgroups(g, m, pi)) == fixing, (g, pi)

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

    def test_complete_bipartite_at_order_6(self):
        labels = ["P1", "P2", "P3", "P4", "P5", "P6"]
        self.check(build_graph(labels, [(a, b) for a in labels[:4] for b in labels[4:]]), 6)

    def test_cap_at_the_call_and_pool_drawn_at_the_first_read(self, monkeypatch):
        # The vertex cap refuses before any group is read.  Without a pin
        # nothing is drawn until the first group is asked for, and then
        # the whole pool is.
        import graphdivisors.symmetry as symmetry
        from graphdivisors.symmetry import _harmonic_subgroups

        for pin in (None, 0):
            with pytest.raises(SizeCapExceededError):
                _harmonic_subgroups(generate("cycle:12"), 2, pin)
        real = symmetry._automorphisms
        drawn = []

        def counting(*args, **kwargs):
            search = real(*args, **kwargs)

            def counted(*bounds):
                for x in search(*bounds):
                    drawn.append(x)
                    yield x

            return counted

        monkeypatch.setattr(symmetry, "_automorphisms", counting)
        g = generate("complete:5")
        groups = _harmonic_subgroups(g, 4)
        assert drawn == []
        next(groups)
        assert drawn == list(real(g, m=4)())
