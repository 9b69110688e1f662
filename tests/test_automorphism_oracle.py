"""The two ways `oracles.automorphism_perms_brute` lists a graph's
automorphisms give the same tuple: the walk over all n! permutations,
which it uses below nine vertices, and networkx's VF2 matcher, which it
uses from nine up.  They are compared on every graph of at most eight
vertices that the suite hands the oracle, and on wheel:9, the largest
graph where the walk takes about a second.
"""

import random

import pytest

import oracles
from graphdivisors import build_graph, enumerate_corpus, generate
from test_galois import _blown_up


def assert_same(g):
    walked = oracles.automorphism_perms_by_permutations(g)
    assert oracles.automorphism_perms_vf2(g) == walked, g
    return walked


@pytest.mark.parametrize(
    "family",
    ["house4"] + [f"cycle:{n}" for n in range(4, 7)] + [f"complete:{n}" for n in range(3, 8)]
    + [f"wheel:{n}" for n in range(5, 10)],
)
def test_families(family):
    assert assert_same(generate(family))


def test_corpus_graphs_up_to_five_vertices():
    for n in (3, 4, 5):
        labels = [f"P{i}" for i in range(1, n + 1)]
        for record in enumerate_corpus(n).records:
            assert_same(build_graph(labels, record.edges))


def test_random_small_graphs_twin_blow_ups_and_odd_cases():
    rng = random.Random(23)
    for _ in range(10):
        assert_same(oracles.random_connected_graph(rng, rng.randint(2, 5)))
    rng = random.Random(29)
    for _ in range(40):
        assert_same(_blown_up(rng)[0])
    assert assert_same(build_graph(["P1"], [])) == ((0,),)
    labels = ["P1", "P2", "P3", "P4", "P5", "P6"]
    assert len(assert_same(build_graph(labels, [(a, b) for a in labels[:4] for b in labels[4:]]))) == 48
