"""Operators between values and their reprs.

An operator given a value of another type returns NotImplemented, so
Python raises TypeError, or answers False for ==.  `Divisor` defines
only `>=` of the two orders: Python answers `d <= e` with the reflected
`e >= d`, which checks that both are bound to the same graph.
"""

import pytest

from graphdivisors import (
    Automorphism,
    Divisor,
    GraphMismatchError,
    Subgroup,
    VertexFunction,
    automorphism_group,
    generate,
    quotient_graph,
)

# The hub is P1 and the rim the 4-cycle P2-P3-P4-P5.
G = generate("wheel:5")
TURN = Automorphism.from_mapping(G, {"P1": "P1", "P2": "P3", "P3": "P4", "P4": "P5", "P5": "P2"})
D = Divisor(G, {"P1": 2, "P3": -1})
ROTATIONS = Subgroup.from_generators(G, [TURN])

VALUES = {
    "Divisor": D,
    "VertexFunction": VertexFunction.constant(G, 3),
    "Graph": G,
    "Automorphism": TURN,
    "Subgroup": ROTATIONS,
}


@pytest.mark.parametrize("operation", [
    lambda: D + 1,
    lambda: 1 + D,
    lambda: D - 1,
    lambda: D * 1.5,
    lambda: D >= 1,
    lambda: D <= 1,
    lambda: 1 <= D,
    lambda: TURN * 1,
], ids=["d + 1", "1 + d", "d - 1", "d * 1.5", "d >= 1", "d <= 1", "1 <= d", "sigma * 1"])
def test_other_operand_types_raise_type_error(operation):
    with pytest.raises(TypeError):
        operation()


@pytest.mark.parametrize("value", list(VALUES.values()), ids=list(VALUES))
def test_equality_with_another_type_is_false(value):
    assert not value == 1
    assert value != 1
    assert not value == "P1"


def test_divisor_order_by_reflection():
    zero, ones = Divisor.zero(G), Divisor.all_ones(G)
    assert zero <= ones
    assert not ones <= zero
    assert D <= D
    assert not D <= zero and not zero <= D
    assert ones >= zero and not zero >= ones


def test_divisor_order_across_graphs_raises():
    other = Divisor.zero(generate("complete:5"))
    for compare in (lambda: other <= D, lambda: D <= other, lambda: D >= other):
        with pytest.raises(GraphMismatchError):
            compare()


def test_subgroup_length_is_its_order():
    for h in (ROTATIONS, automorphism_group(G), Subgroup.from_generators(G, [])):
        assert len(h) == h.order


@pytest.mark.parametrize("value, text", [
    (D, "Divisor({'P1': 2, 'P3': -1})"),
    (Divisor.zero(G), "Divisor({})"),
    (VertexFunction.constant(G, 3), "VertexFunction({'P1': 3, 'P2': 3, 'P3': 3, 'P4': 3, 'P5': 3})"),
    (G, "Graph(5 vertices, 8 edges)"),
    (TURN, "Automorphism((P2 P3 P4 P5))"),
    (ROTATIONS, "Subgroup(order 4)"),
    (quotient_graph(G, ROTATIONS), "QuotientGraph(2 vertices, 1 edge classes)"),
], ids=["Divisor", "zero Divisor", "VertexFunction", "Graph", "Automorphism", "Subgroup", "QuotientGraph"])
def test_repr_names_its_value(value, text):
    assert repr(value) == text
