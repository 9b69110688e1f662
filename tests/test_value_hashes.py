"""Equal values hash equal, whichever constructor built them.

`Graph` and `Divisor` store their hash when built; `VertexFunction`,
`Automorphism` and `Subgroup` hash their fields when asked.  Each case
builds one value several ways: every pair must be equal and hash equal,
and all of them must collapse to one entry in a set.  A named tuple
value (a report, reason, check or record) hashes as the tuple of its
fields, as a frozen dataclass did.
"""

import pytest

from graphdivisors import Automorphism, Divisor, Subgroup, VertexFunction, automorphism_group, generate

from test_value_operators import VALUE_TUPLES

# The hub is P1 and the rim the 4-cycle P2-P3-P4-P5.
G = generate("wheel:5")
TURN = Automorphism.from_mapping(G, {"P1": "P1", "P2": "P3", "P3": "P4", "P4": "P5", "P5": "P2"})
FLIP = Automorphism.from_mapping(G, {"P1": "P1", "P2": "P2", "P3": "P5", "P4": "P4", "P5": "P3"})

CASES = {
    "Divisor": [
        Divisor(G, {"P1": 2, "P3": -1}),
        Divisor.from_coeffs(G, (2, 0, -1, 0, 0)),
        2 * Divisor.vertex(G, "P1") - Divisor.vertex(G, "P3"),
        Divisor.all_ones(G) + Divisor(G, {"P1": 1, "P2": -1, "P3": -2, "P4": -1, "P5": -1}),
    ],
    "VertexFunction": [
        VertexFunction(G, {v: 3 for v in G.vertices}),
        VertexFunction.from_values(G, [3] * 5),
        VertexFunction.constant(G, 3),
    ],
    "Automorphism": [
        TURN,
        Automorphism(G, (0, 2, 3, 4, 1)),
        TURN * TURN * TURN * TURN * TURN,
        FLIP * TURN.inverse() * FLIP,
        TURN.inverse().inverse(),
    ],
    "Subgroup": [
        Subgroup.from_generators(G, [TURN]),
        Subgroup.from_elements(G, [TURN, TURN * TURN, TURN.inverse()]),
    ],
    "full Subgroup": [
        automorphism_group(G),
        Subgroup.from_generators(G, [TURN, FLIP]),
        Subgroup.from_elements(G, automorphism_group(G).elements),
    ],
    **{name: [value, type(value)(*value), type(value)(**value._asdict()), value._replace()]
       for name, (value, _) in VALUE_TUPLES.items()},
}


@pytest.mark.parametrize("values", list(CASES.values()), ids=list(CASES))
def test_equal_values_hash_equal(values):
    first = values[0]
    for other in values[1:]:
        assert other == first
        assert hash(other) == hash(first)
    assert len(set(values)) == 1


@pytest.mark.parametrize("value", [value for value, _ in VALUE_TUPLES.values()], ids=list(VALUE_TUPLES))
def test_value_tuple_hashes_as_its_fields(value):
    assert hash(value) == hash(tuple(value))
