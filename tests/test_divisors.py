import random
from collections import Counter

import pytest

from graphdivisors import (
    Divisor,
    EnumerationCapExceededError,
    GraphMismatchError,
    MissingVertexValueError,
    UnknownVertexError,
    VertexFunction,
    canonical_divisor,
    classify_galois_points,
    generate,
    genus,
    is_q_reduced,
    laplacian_apply,
    linear_system,
    linearly_equivalent,
    q_reduce,
    q_reduce_with_witness,
    rank,
)

import oracles
from test_reduction import two_edge_connected


def checked_reduce_with_witness(g, d, q):
    """q_reduce_with_witness, re-checked against the subset definition
    and the witness identity reduced = d + laplacian_apply(witness)."""
    reduced, witness = q_reduce_with_witness(g, d, q)
    assert oracles.is_q_reduced_by_subsets(g, reduced, q), f"{reduced!r} is not {q}-reduced"
    assert reduced == d + laplacian_apply(g, witness)
    return reduced, witness


def checked_reduce(g, d, q):
    """q_reduce, with the checks of checked_reduce_with_witness."""
    reduced = q_reduce(g, d, q)
    assert reduced == checked_reduce_with_witness(g, d, q)[0]
    return reduced


@pytest.fixture(scope="module")
def k4():
    return generate("complete:4")


@pytest.fixture(scope="module")
def w5():
    return generate("wheel:5")


@pytest.fixture(scope="module")
def house4():
    return generate("house4")


class TestDivisorValues:
    def test_mapping_construction_defaults_to_zero(self, k4):
        d = Divisor(k4, {"P1": 3, "P3": -1})
        assert d["P1"] == 3
        assert d["P2"] == 0
        assert d["P3"] == -1
        assert d.degree == 2
        assert d.support == ("P1", "P3")

    def test_unknown_vertex_rejected(self, k4):
        with pytest.raises(UnknownVertexError, match="P9"):
            Divisor(k4, {"P9": 1})

    def test_arithmetic(self, k4):
        d = Divisor(k4, {"P1": 2})
        e = Divisor.vertex(k4, "P2")
        assert (d + e).as_dict() == {"P1": 2, "P2": 1, "P3": 0, "P4": 0}
        assert (d - e)["P2"] == -1
        assert (-d)["P1"] == -2
        assert (3 * e)["P2"] == 3

    def test_mixing_graphs_rejected(self, k4, w5):
        with pytest.raises(GraphMismatchError):
            Divisor.all_ones(k4) + Divisor.all_ones(w5)

    def test_effective_partial_order(self, k4):
        assert Divisor.all_ones(k4) >= Divisor.zero(k4)
        assert not Divisor(k4, {"P1": -1}) >= Divisor.zero(k4)
        assert Divisor(k4, {"P1": -1}).is_effective is False

    def test_text_format(self, k4):
        assert str(Divisor(k4, {"P1": 3, "P2": -1})) == "3·P1 - 1·P2"
        assert str(Divisor.zero(k4)) == "0"
        assert str(Divisor(k4, {"P2": -2, "P4": 5})) == "-2·P2 + 5·P4"

    def test_json_round_trip(self, k4):
        d = Divisor(k4, {"P1": 3, "P2": -1})
        assert Divisor.from_json(k4, d.to_json()) == d
        assert d.to_json() == {"P1": 3, "P2": -1}

    @pytest.mark.parametrize("obj, kind", [([["P1", 1]], "list"), (3, "int"), ("P1", "str"), (None, "NoneType")],
                             ids=["pairs", "int", "str", "null"])
    def test_json_not_an_object_rejected(self, k4, obj, kind):
        with pytest.raises(ValueError, match=f"divisor JSON must be an object, got {kind}"):
            Divisor.from_json(k4, obj)


class TestVertexFunction:
    def test_total_mapping_required(self, k4):
        with pytest.raises(MissingVertexValueError, match="P4"):
            VertexFunction(k4, {"P1": 1, "P2": 0, "P3": 0})

    def test_indicator(self, k4):
        f = VertexFunction.indicator(k4, "P2")
        assert f["P2"] == 1 and f["P1"] == 0


class TestLaplacian:
    def test_complete_indicator(self, k4):
        # indicator of P1 on K_n maps to (n-1)P1 - P2 - ... - Pn
        f = VertexFunction.indicator(k4, "P1")
        assert laplacian_apply(k4, f) == Divisor(k4, {"P1": 3, "P2": -1, "P3": -1, "P4": -1})

    def test_wheel_indicator_rim(self, w5):
        f = VertexFunction.indicator(w5, "P2")
        assert laplacian_apply(w5, f) == Divisor(w5, {"P1": -1, "P2": 3, "P3": -1, "P5": -1})

    def test_constant_is_zero(self, w5):
        assert laplacian_apply(w5, VertexFunction.constant(w5, 7)) == Divisor.zero(w5)

    def test_accepts_plain_mapping(self, k4):
        assert laplacian_apply(k4, {"P1": 1, "P2": 0, "P3": 0, "P4": 0})[
            "P1"
        ] == 3

    def test_partial_mapping_rejected(self, k4):
        with pytest.raises(MissingVertexValueError):
            laplacian_apply(k4, {"P1": 1})

    def test_degree_zero_always(self, w5):
        rng = random.Random(7)
        for _ in range(25):
            f = VertexFunction.from_values(w5, [rng.randint(-5, 5) for _ in range(5)])
            assert laplacian_apply(w5, f).degree == 0

    def test_matches_matrix_oracle(self, house4):
        rng = random.Random(11)
        L = oracles.laplacian_matrix(house4)
        for _ in range(20):
            vals = [rng.randint(-4, 4) for _ in range(4)]
            via_matrix = [sum(L[i][j] * vals[j] for j in range(4)) for i in range(4)]
            f = VertexFunction.from_values(house4, vals)
            assert list(laplacian_apply(house4, f).coeffs) == via_matrix


class TestIsQReduced:
    def test_single_vertex_divisor_reduced(self, house4):
        # on a bridgeless graph, a vertex divisor is reduced at any other base
        for p in house4.vertices:
            for q in house4.vertices:
                if p != q:
                    assert is_q_reduced(house4, Divisor.vertex(house4, p), q)

    def test_negative_off_base_not_reduced(self, k4):
        assert not is_q_reduced(k4, Divisor(k4, {"P2": -1}), "P1")

    def test_all_ones_on_k4_not_reduced(self, k4):
        # S = {P2,P3,P4} has outdeg 1 at each vertex, never above the coefficient
        assert not is_q_reduced(k4, Divisor.all_ones(k4), "P1")

    def test_unknown_base_rejected(self, k4):
        with pytest.raises(UnknownVertexError):
            is_q_reduced(k4, Divisor.zero(k4), "Q7")

    def test_negative_off_base_decided_before_cap(self):
        # A debt off the base answers before any fire is lit.
        g = generate("cycle:30")
        assert not is_q_reduced(g, Divisor(g, {"P1": 5, "P17": -1}), "P1")

    def test_matches_dhar_criterion(self):
        # Dhar (PRL 1990): d is q-reduced iff it is nonnegative off q and
        # fire started at q burns every vertex.  The library's burn against
        # the subset definition.
        rng = random.Random(1990)
        for _ in range(3000):
            g = oracles.random_connected_graph(rng, rng.randint(1, 7))
            d = Divisor.from_coeffs(g, [rng.randint(-1, 3) for _ in g.vertices])
            q = rng.choice(g.vertices)
            assert is_q_reduced(g, d, q) == oracles.is_q_reduced_by_subsets(g, d, q), (g, d, q)

    def test_matches_the_oracle_on_chipfire_draws(self):
        # Graphs and divisors drawn as perfbench's chipfire workload draws
        # them, whose check asks `is_q_reduced` of every reduction.  Each
        # reduced form passes both; a chip moved from q to another vertex
        # may pass or fail, but both say the same; the reduced form with q
        # fired once is in the same class and fails both.
        rng = random.Random(1009)
        verdicts = Counter()
        for k in range(12):
            g = two_edge_connected(rng, 6 + k % 4)
            d = Divisor.from_coeffs(g, [rng.randint(-2000, 2000) for _ in g.vertices])
            for q in g.vertices:
                reduced = q_reduce(g, d, q)
                assert is_q_reduced(g, reduced, q) and oracles.is_q_reduced_by_subsets(g, reduced, q)
                for v in g.vertices:
                    if v != q:
                        shifted = reduced + Divisor.vertex(g, v) - Divisor.vertex(g, q)
                        verdicts[is_q_reduced(g, shifted, q)] += 1
                        assert is_q_reduced(g, shifted, q) == oracles.is_q_reduced_by_subsets(g, shifted, q)
                fire_q = VertexFunction.from_values(g, [int(v == q) for v in g.vertices])
                fired = reduced - laplacian_apply(g, fire_q)
                assert not is_q_reduced(g, fired, q) and not oracles.is_q_reduced_by_subsets(g, fired, q)
        assert verdicts[True] and verdicts[False], verdicts


class TestQReduce:
    def test_k4_all_ones(self, k4):
        assert checked_reduce(k4, Divisor.all_ones(k4), "P1") == Divisor(k4, {"P1": 4})

    def test_w5_all_ones_at_rim(self, w5):
        assert checked_reduce(w5, Divisor.all_ones(w5), "P2") == Divisor(w5, {"P2": 4, "P4": 1})

    def test_idempotent(self, house4):
        rng = random.Random(3)
        for _ in range(30):
            d = oracles.random_divisor(rng, house4)
            q = rng.choice(house4.vertices)
            r = checked_reduce(house4, d, q)
            assert checked_reduce(house4, r, q) == r

    def test_witness_reproduces_reduction(self, w5):
        rng = random.Random(5)
        for _ in range(30):
            d = oracles.random_divisor(rng, w5)
            q = rng.choice(w5.vertices)
            reduced, witness = checked_reduce_with_witness(w5, d, q)
            assert d + laplacian_apply(w5, witness) == reduced

    def test_preserves_degree_and_class(self, w5):
        rng = random.Random(9)
        for _ in range(20):
            d = oracles.random_divisor(rng, w5)
            r = checked_reduce(w5, d, "P3")
            assert r.degree == d.degree
            assert oracles.equivalent(w5, d, r)

    def test_equivalent_inputs_reduce_identically(self, house4):
        rng = random.Random(13)
        for _ in range(30):
            d = oracles.random_divisor(rng, house4)
            f = VertexFunction.from_values(house4, [rng.randint(-2, 2) for _ in range(4)])
            d2 = d + laplacian_apply(house4, f)
            q = rng.choice(house4.vertices)
            assert checked_reduce(house4, d, q) == checked_reduce(house4, d2, q)

    def test_deep_debt_cleared(self, w5):
        d = Divisor(w5, {"P1": 40, "P4": -9})
        r = checked_reduce(w5, d, "P1")
        assert is_q_reduced(w5, r, "P1")
        assert r.degree == d.degree


class TestLinearEquivalence:
    def test_all_ones_equivalent_to_stack(self, k4):
        assert linearly_equivalent(k4, Divisor.all_ones(k4), Divisor(k4, {"P1": 4}))

    def test_distinct_vertices_inequivalent(self, house4):
        for p in house4.vertices:
            for q in house4.vertices:
                if p != q:
                    assert not linearly_equivalent(
                        house4, Divisor.vertex(house4, p), Divisor.vertex(house4, q)
                    )

    def test_reflexive(self, w5):
        d = Divisor(w5, {"P2": 3, "P5": -1})
        assert linearly_equivalent(w5, d, d)

    def test_matches_lattice_oracle(self):
        rng = random.Random(21)
        for _ in range(40):
            g = oracles.random_connected_graph(rng, rng.randint(2, 5))
            d1 = oracles.random_divisor(rng, g)
            d2 = oracles.random_divisor(rng, g)
            assert linearly_equivalent(g, d1, d2) == oracles.equivalent(g, d1, d2)

    def test_different_degrees_refused_without_a_reduction(self, monkeypatch):
        # Without the degree test, 100000·P2 against 0 on cycle:150 costs a
        # reduction of almost a second; with it, no reduction at all.
        import graphdivisors.divisors as divisors

        calls = []
        real = divisors._reduce_coeffs

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(divisors, "_reduce_coeffs", counting)
        g = generate("cycle:150")
        assert not linearly_equivalent(g, Divisor(g, {"P2": 100000}), Divisor.zero(g))
        assert not linearly_equivalent(g, Divisor.zero(g), Divisor.all_ones(g))
        assert calls == []
        assert linearly_equivalent(g, Divisor(g, {"P2": 1}), Divisor(g, {"P3": 1})) is False
        assert calls == [0]


class TestLinearSystem:
    def test_key_emptiness_on_complete_graphs(self):
        # (n-2)P1 - P2 has an empty system on K_n
        for n in (4, 5, 6):
            g = generate(f"complete:{n}")
            d = Divisor(g, {"P1": n - 2, "P2": -1})
            assert linear_system(g, d) == frozenset()

    def test_zero_divisor(self, w5):
        assert linear_system(w5, Divisor.zero(w5)) == {Divisor.zero(w5)}

    def test_negative_degree_empty(self, k4):
        assert linear_system(k4, Divisor(k4, {"P1": -1})) == frozenset()

    def test_k4_punctured_system_exact(self, k4):
        d = Divisor.all_ones(k4) - Divisor.vertex(k4, "P1")
        assert linear_system(k4, d) == {
            Divisor(k4, {"P2": 1, "P3": 1, "P4": 1}),
            Divisor(k4, {"P1": 3}),
        }

    def test_matches_brute_oracle(self):
        rng = random.Random(31)
        for _ in range(15):
            g = oracles.random_connected_graph(rng, rng.randint(2, 4))
            d = oracles.random_divisor(rng, g, lo=-2, hi=4)
            assert linear_system(g, d) == oracles.linear_system_brute(g, d)

    def test_cap_refuses_large_enumeration(self, k4):
        with pytest.raises(EnumerationCapExceededError) as exc:
            linear_system(k4, Divisor(k4, {"P1": 10}), cap=5)
        assert exc.value.required == 286  # C(13,3)
        assert exc.value.cap == 5

    def test_cap_refusal_word_for_word(self, k4):
        # The witness-search gate reuses this text.
        with pytest.raises(EnumerationCapExceededError) as exc:
            linear_system(k4, Divisor(k4, {"P1": 10}), cap=5)
        assert str(exc.value) == "linear system of degree 10 on 4 vertices needs 286 effective divisors (cap 5)"
        assert (exc.value.required, exc.value.cap) == (286, 5)


class TestRank:
    def test_negative_degree(self, k4):
        assert rank(k4, Divisor(k4, {"P1": -1})) == -1

    def test_zero_divisor_rank_zero(self, house4):
        assert rank(house4, Divisor.zero(house4)) == 0

    def test_complete_graph_values(self):
        for n in (4, 5):
            g = generate(f"complete:{n}")
            d = Divisor.all_ones(g)
            assert rank(g, d) == 2
            assert rank(g, d - Divisor.vertex(g, "P2")) == 1
            assert rank(g, d - 2 * Divisor.vertex(g, "P1")) == 0
            assert rank(g, d - Divisor.vertex(g, "P1") - Divisor.vertex(g, "P3")) == 0

    def test_wheel_rank_two(self, w5):
        assert rank(w5, Divisor.all_ones(w5)) == 2

    def test_house4_values(self, house4):
        d = Divisor.all_ones(house4)
        assert rank(house4, d) == 2
        assert rank(house4, canonical_divisor(house4)) == 1

    def test_cycle_all_ones(self):
        g = generate("cycle:4")
        assert rank(g, Divisor.all_ones(g)) == 3

    def test_matches_brute_oracle(self):
        rng = random.Random(41)
        for _ in range(12):
            g = oracles.random_connected_graph(rng, rng.randint(2, 4))
            d = oracles.random_divisor(rng, g, lo=-2, hi=4)
            assert rank(g, d) == oracles.rank_brute(g, d)

    def test_negative_rank_iff_empty_system(self):
        rng = random.Random(43)
        for _ in range(20):
            g = oracles.random_connected_graph(rng, rng.randint(2, 4))
            d = oracles.random_divisor(rng, g, lo=-2, hi=3)
            assert (rank(g, d) == -1) == (linear_system(g, d) == frozenset())

    def test_cap_raises(self, k4):
        with pytest.raises(EnumerationCapExceededError):
            rank(k4, Divisor(k4, {"P1": 30}), cap=10)


class TestSystemNonemptinessCharacterization:
    def test_sign_at_base_matches_search(self):
        # nonempty system iff the reduced form is nonnegative at the base,
        # for every base vertex; cross-checked against the lattice search
        rng = random.Random(51)
        for _ in range(25):
            g = oracles.random_connected_graph(rng, rng.randint(2, 4))
            d = oracles.random_divisor(rng, g, lo=-3, hi=4)
            expected = oracles.system_nonempty_by_lattice(g, d)
            for q in g.vertices:
                reduced = checked_reduce(g, d, q)
                assert (reduced[q] >= 0) == expected

    def test_reduction_oracle_matches_lattice_search(self):
        # `oracles.system_nonempty` decides |d| by one one-chip reduction
        # (the reduced-divisor theorem); the lattice search decides it by
        # definition.  Every degree from -2 to 5 on 1-5 vertices.
        rng = random.Random(2808)
        seen = Counter()
        for _ in range(60):
            g = oracles.random_connected_graph(rng, rng.randint(1, 5))
            for degree in range(-2, 6):
                coeffs = [rng.randint(-3, 3) for _ in g.vertices]
                coeffs[rng.randrange(len(coeffs))] += degree - sum(coeffs)
                d = Divisor.from_coeffs(g, coeffs)
                nonempty = oracles.system_nonempty(g, d)
                assert nonempty == oracles.system_nonempty_by_lattice(g, d), (g, d)
                seen[nonempty] += 1
        assert min(seen[True], seen[False]) > 50, seen


class TestRiemannRochIdentity:
    def test_house4(self, house4):
        d = Divisor.all_ones(house4)
        k = canonical_divisor(house4)
        assert rank(house4, d) - rank(house4, k - d) == d.degree + 1 - genus(house4)

    def test_zero_divisor_forces_canonical_rank(self):
        for fam in ("complete:4", "wheel:5", "house4", "cycle:5"):
            g = generate(fam)
            k = canonical_divisor(g)
            assert rank(g, Divisor.zero(g)) == 0
            assert rank(g, k) == genus(g) - 1


@pytest.mark.parametrize("make, error, message", [
    (lambda g: Divisor(g, {"P1": 1.5}), ValueError, "coefficient of 'P1' must be an integer, got 1.5"),
    (lambda g: Divisor(g, {"P2": True}), ValueError, "coefficient of 'P2' must be an integer, got True"),
    (lambda g: Divisor.from_coeffs(g, (1, 2, 3)), ValueError, "expected 4 coefficients, got 3"),
    (lambda g: VertexFunction(g, {"P1": 0, "P2": "x", "P3": 0, "P4": 0}), ValueError,
     "value at 'P2' must be an integer, got 'x'"),
    (lambda g: VertexFunction.from_values(g, (0, 1, 2, 3, 4)), MissingVertexValueError,
     "expected 4 values, got 5"),
    (lambda g: laplacian_apply(g, VertexFunction.constant(generate("cycle:4"), 1)), GraphMismatchError,
     "vertex function is bound to a different graph"),
], ids=["float coefficient", "bool coefficient", "coefficient count", "str value", "value count",
        "foreign function"])
def test_input_checks(make, error, message):
    # Each refusal names what it refuses, as `errors` promises.
    with pytest.raises(error) as exc:
        make(generate("complete:4"))
    assert str(exc.value) == message


CAP_CALLS = {
    "rank": lambda g, cap: rank(g, Divisor.all_ones(g), cap=cap),
    "linear_system": lambda g, cap: linear_system(g, Divisor.all_ones(g), cap=cap),
    "linear_system of negative degree": lambda g, cap: linear_system(g, -Divisor.all_ones(g), cap=cap),
    "classify_galois_points": lambda g, cap: classify_galois_points(g, Divisor.all_ones(g), cap),
}


class TestCapValues:
    """A cap is None or a nonnegative int, checked before any answer."""

    @pytest.mark.parametrize("call", CAP_CALLS.values(), ids=CAP_CALLS.keys())
    @pytest.mark.parametrize("cap", [-1, -3, 2.5, "10", True, False], ids=repr)
    def test_refused(self, call, cap):
        with pytest.raises(ValueError) as exc:
            call(generate("complete:4"), cap)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"cap must be a nonnegative integer, got {cap!r}"

    @pytest.mark.parametrize("name, cap, message", [
        ("rank", 0, "rank probe at degree 1 needs 4 effective divisors (cap 0)"),
        ("rank", 33, "rank probe at degree 3 needs 34 effective divisors (cap 33)"),
        ("classify_galois_points", 0, "rank probe at degree 1 needs 4 effective divisors (cap 0)"),
        ("linear_system", 0, "linear system of degree 4 on 4 vertices needs 35 effective divisors (cap 0)"),
        ("linear_system", 34, "linear system of degree 4 on 4 vertices needs 35 effective divisors (cap 34)"),
    ])
    def test_valid_caps_refuse_as_before(self, name, cap, message):
        with pytest.raises(EnumerationCapExceededError) as exc:
            CAP_CALLS[name](generate("complete:4"), cap)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name, cap, answer", [
        ("rank", 34, 2),
        ("linear_system", 35, 5),
        ("linear_system of negative degree", 0, 0),
    ])
    def test_valid_caps_answer(self, name, cap, answer):
        result = CAP_CALLS[name](generate("complete:4"), cap)
        assert (len(result) if isinstance(result, frozenset) else result) == answer

    def test_cached_classification_refuses_a_bool_cap(self):
        # True == 1 and they hash alike, so an untyped cache would answer
        # cap=True from the entry of cap=1.
        g = generate("complete:4")
        d = -Divisor.all_ones(g)
        assert classify_galois_points(g, d, 1).rank == -1
        with pytest.raises(ValueError, match="got True"):
            classify_galois_points(g, d, True)
