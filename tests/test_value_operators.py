"""Operators between values and their reprs.

An operator given a value of another type returns NotImplemented, so
Python raises TypeError, or answers False for ==.  `Divisor` defines
only `>=` of the two orders: Python answers `d <= e` with the reflected
`e >= d`, which checks that both are bound to the same graph.

Reports, reasons, checks and records are immutable named tuples that
equal only an instance of their own class, never the plain tuple of
their fields.
"""

from collections import namedtuple

import pytest

from graphdivisors import (
    Automorphism,
    ClassificationReport,
    Cond1Fail,
    Cond2Fail,
    CorpusResult,
    Divisor,
    EdgeClass,
    GaloisCertificate,
    GraphFamily,
    GraphMismatchError,
    GraphRecord,
    NoQualifyingSubgroup,
    RankNotTwo,
    RiemannRochCheck,
    SmoothnessCheck,
    Subgroup,
    TheoremCheck,
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

RECORD = GraphRecord(edges=(("P1", "P2"), ("P1", "P3"), ("P2", "P3")), rank=1, galois_count=0,
                     theorem_consistent=True, corollary_consistent=True)

# One instance of each named tuple value class, with its repr.
VALUE_TUPLES = {
    "RankNotTwo": (RankNotTwo(rank=1), "RankNotTwo(rank=1)"),
    "Cond1Fail": (Cond1Fail(vertex="P2", rank=2), "Cond1Fail(vertex='P2', rank=2)"),
    "Cond2Fail": (Cond2Fail(vertex="P2", other="P3", rank=1), "Cond2Fail(vertex='P2', other='P3', rank=1)"),
    "NoQualifyingSubgroup": (NoQualifyingSubgroup(order=4, subgroups_checked=3),
                             "NoQualifyingSubgroup(order=4, subgroups_checked=3)"),
    "SmoothnessCheck": (SmoothnessCheck(ok=False, failure=Cond1Fail(vertex="P2", rank=2)),
                        "SmoothnessCheck(ok=False, failure=Cond1Fail(vertex='P2', rank=2))"),
    "GaloisCertificate": (
        GaloisCertificate(vertex="P1", verdict=True, subgroup=ROTATIONS, e1=D, e2=D, quotient_vertex_count=2),
        "GaloisCertificate(vertex='P1', verdict=True, subgroup=Subgroup(order 4), "
        "e1=Divisor({'P1': 2, 'P3': -1}), e2=Divisor({'P1': 2, 'P3': -1}), quotient_vertex_count=2, "
        "reason=None)"),
    "ClassificationReport": (
        ClassificationReport(graph=G, divisor=D, divisor_is_all_ones=False, rank=0, certificates=(),
                             galois_count=0, corollary_consistent=True),
        "ClassificationReport(graph=Graph(5 vertices, 8 edges), divisor=Divisor({'P1': 2, 'P3': -1}), "
        "divisor_is_all_ones=False, rank=0, certificates=(), galois_count=0, corollary_consistent=True)"),
    "TheoremCheck": (
        TheoremCheck(is_complete=False, has_two_galois=False, equivalence_holds=True, all_vertices_galois=None,
                     galois_count=1, rank=2),
        "TheoremCheck(is_complete=False, has_two_galois=False, equivalence_holds=True, "
        "all_vertices_galois=None, galois_count=1, rank=2)"),
    "RiemannRochCheck": (
        RiemannRochCheck(holds=True, rank=2, canonical_rank=0, lhs=2, rhs=2, degree=5, genus=4),
        "RiemannRochCheck(holds=True, rank=2, canonical_rank=0, lhs=2, rhs=2, degree=5, genus=4)"),
    "GraphRecord": (
        RECORD,
        "GraphRecord(edges=(('P1', 'P2'), ('P1', 'P3'), ('P2', 'P3')), rank=1, galois_count=0, "
        "theorem_consistent=True, corollary_consistent=True)"),
    "CorpusResult": (
        CorpusResult(n=3, graphs_tested=1, records=(RECORD,), all_consistent=True),
        "CorpusResult(n=3, graphs_tested=1, records=(GraphRecord(edges=(('P1', 'P2'), ('P1', 'P3'), "
        "('P2', 'P3')), rank=1, galois_count=0, theorem_consistent=True, corollary_consistent=True),), "
        "all_consistent=True)"),
    "GraphFamily": (GraphFamily(kind="wheel", n=5), "GraphFamily(kind='wheel', n=5)"),
    "EdgeClass": (EdgeClass(key=0, endpoints=("P1", "P2"), members=(("P1", "P2"), ("P1", "P3"))),
                  "EdgeClass(key=0, endpoints=('P1', 'P2'), members=(('P1', 'P2'), ('P1', 'P3')))"),
}

VALUES = {
    "Divisor": D,
    "VertexFunction": VertexFunction.constant(G, 3),
    "Graph": G,
    "Automorphism": TURN,
    "Subgroup": ROTATIONS,
    **{name: value for name, (value, _) in VALUE_TUPLES.items()},
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


@pytest.mark.parametrize("value", [value for value, _ in VALUE_TUPLES.values()], ids=list(VALUE_TUPLES))
def test_value_tuple_equals_only_its_own_class(value):
    fields = tuple(value)
    assert value == type(value)(*fields)
    assert not value == fields and value != fields
    assert not fields == value and fields != value
    twin = namedtuple(type(value).__name__, value._fields)(*fields)
    assert not value == twin and value != twin
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)


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
    *VALUE_TUPLES.values(),
], ids=["Divisor", "zero Divisor", "VertexFunction", "Graph", "Automorphism", "Subgroup", "QuotientGraph",
        *VALUE_TUPLES])
def test_repr_names_its_value(value, text):
    assert repr(value) == text
