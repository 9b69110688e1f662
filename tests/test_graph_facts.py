"""Per-graph facts live on the graph, behind one accessor.

`graphs._fact` computes a fact of a graph (the bridgeless verdict, the
BFS shells of a base, the Laplacian adjugate, the rank walk's order, the
canonical divisor's coefficients) on its first read and keeps it in the
graph's `_derived` slot.  Each builder is handed the adjacency lists
alone, so a fact can read nothing else.  A fact must depend on the
graph alone: read
before a classification or after one, it is the same, and a report is
the same whichever facts its graph already holds.  The guard tests read
the sources with `ast`: only `graphs.py` names `_derived`, and a graph
keeps its adjacency once, so nothing names the dropped `_edge_set` or
`_adj_masks`.
"""

import ast
import json
from pathlib import Path

import pytest

import graphdivisors
import graphdivisors.divisors as divisors
import graphdivisors.galois as galois
import graphdivisors.graphs as graphs
from graphdivisors import Divisor, VertexFunction, generate, laplacian_apply

from test_graphs import bridgeless_atlas_graphs

PACKAGE = Path(graphdivisors.__file__).parent
TESTS = Path(__file__).parent


def every_fact(g):
    """Every (build, args) fact of g that a classification can read."""
    return ([(graphs._bridgeless, ()), (divisors._canonical_coeffs, ()),
             (divisors._laplacian_adjugate, ()), (divisors._walk_order, ())]
            + [(divisors._shells, (q,)) for q in range(len(g.vertices))])


def far_from_base(g, d):
    """d moved within its class so that its reduction fires the rounded
    Laplacian solution and reads the adjugate."""
    return d + laplacian_apply(g, VertexFunction.from_values(g, [-100] + [0] * (len(g.vertices) - 1)))


CASES = [
    ("complete:5", None),
    ("wheel:6", None),
    ("house4", {"P1": 1, "P2": 1, "P3": 2}),
    ("cycle:5", {"P1": 3}),
]


def classify(spec, coeffs, before=False):
    """A fresh graph of the family, its facts read first when `before`,
    the JSON text of a classification of the divisor, and the facts
    read after it."""
    g = generate(spec)
    d = far_from_base(g, Divisor(g, coeffs) if coeffs else Divisor.all_ones(g))
    facts = every_fact(g)
    read = [graphs._fact(g, build, *args) for build, args in facts] if before else None
    text = json.dumps(galois.classify_galois_points.__wrapped__(g, d).to_json(), indent=2)
    return g, read, text, [graphs._fact(g, build, *args) for build, args in facts]


@pytest.mark.parametrize("spec, coeffs", CASES, ids=[c[0] for c in CASES])
def test_facts_depend_on_the_graph_alone(spec, coeffs):
    g, read, text, after = classify(spec, coeffs, before=True)
    equal, _, equal_text, equal_after = classify(spec, coeffs)
    assert equal == g and equal is not g
    assert read == after == equal_after
    assert text == equal_text == classify(spec, coeffs)[2]


def test_every_kept_fact_is_listed():
    # A classification keeps only facts that `every_fact` lists, so the
    # test above reads them all; the cases reach every kind of fact.
    builds = set()
    for spec, coeffs in CASES:
        g = generate(spec)
        d = far_from_base(g, Divisor(g, coeffs) if coeffs else Divisor.all_ones(g))
        galois.classify_galois_points.__wrapped__(g, d)
        listed = set(every_fact(g))
        assert set(g._derived) <= listed, set(g._derived) - listed
        builds |= {build for build, _ in g._derived}
    assert builds == {build for build, _ in every_fact(g)}


def rebuilt_adjacency(g):
    """g's sorted neighbour tuples, rebuilt from its vertices and edges."""
    index = {v: i for i, v in enumerate(g.vertices)}
    nbrs = [[] for _ in g.vertices]
    for u, v in g.edges:
        nbrs[index[u]].append(index[v])
        nbrs[index[v]].append(index[u])
    return tuple(tuple(sorted(ws)) for ws in nbrs)


def assert_builders_read_the_adjacency(g):
    adj = rebuilt_adjacency(g)
    for build, args in every_fact(g):
        assert build(adj, *args) == graphs._fact(g, build, *args), build.__name__


@pytest.mark.parametrize("spec", ["house4", "complete:5", "wheel:6"])
def test_builders_read_only_the_adjacency(spec):
    assert_builders_read_the_adjacency(generate(spec))


def test_builders_read_only_the_adjacency_on_the_atlas():
    count = 0
    for g in bridgeless_atlas_graphs():
        if 3 <= len(g) <= 6:
            assert_builders_read_the_adjacency(g)
            count += 1
    assert count == 75  # the connected bridgeless classes on 3-6 vertices


def named(tree):
    """Every attribute, name and string constant under the ast tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def modules_naming(paths, name):
    return sorted(p.name for p in paths if name in named(ast.parse(p.read_text(encoding="utf-8"))))


def test_the_guard_finds_attributes_names_and_strings():
    for source in ("g._derived.get(1)", "_derived = {}", "getattr(g, '_derived')"):
        assert "_derived" in named(ast.parse(source))
    assert "_derived" not in named(ast.parse('"""`_derived` in a docstring"""'))


def test_only_graphs_names_the_fact_store():
    assert modules_naming(sorted(PACKAGE.glob("*.py")), "_derived") == ["graphs.py"]


def other_sources():
    """The package's modules and every test module but this one."""
    here = Path(__file__).name
    return sorted(PACKAGE.glob("*.py")) + [p for p in sorted(TESTS.glob("*.py")) if p.name != here]


def test_nothing_names_an_edge_set():
    assert modules_naming(other_sources(), "_edge_set") == []


def test_nothing_names_adjacency_masks():
    # The searches that need bit masks build them from `_adj` per call.
    assert modules_naming(other_sources(), "_adj_masks") == []
    assert "_adj_masks" not in graphs.Graph.__slots__
