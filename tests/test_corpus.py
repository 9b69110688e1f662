"""The corpus sweep classifies one graph per isomorphism class.

`enumerate_corpus` must give what classifying every labeled graph gives
(`oracles.corpus_labeled`), record by record in mask order, and refuse
at the same caps with the same errors.  It must also keep what the
benchmark counts of it: one `classify_galois_points` call per labeled
graph, answered by the cache for every graph but the first of its class,
so that the certificate tags of one n = 5 sweep still add up to the
verdicts of `perfbench/reference/corpus5.json`.  Each class's verdict
row is worked out once.  `corpus --format json` writes the records as
text, and must print what `json.dumps` prints for the sweep.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

import graphdivisors.cli
import oracles
from graphdivisors import Graph, classify_galois_points, corpus, enumerate_corpus
from graphdivisors.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "corpus5.json"

# Labeled 2-edge-connected graphs and their isomorphism classes
# (OEIS A095983, A007146).
SIZES = {3: (1, 1), 4: (10, 3), 5: (253, 11), 6: (11968, 60)}


@pytest.fixture(scope="module")
def sweep():
    """`enumerate_corpus(n)`, made once per n in this module."""
    made = {}

    def sweep(n):
        if n not in made:
            made[n] = enumerate_corpus(n)
        return made[n]

    return sweep


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_matches_the_labeled_sweep(n, sweep):
    result = sweep(n)
    assert result.to_json() == oracles.corpus_labeled(n).to_json()
    assert result.graphs_tested == SIZES[n][0]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cli_json_is_json_dumps_of_the_sweep(n, sweep, monkeypatch, capsys):
    def swept(m, cap=None):
        assert (m, cap) == (n, None)
        return sweep(n)

    monkeypatch.setattr(graphdivisors.cli, "enumerate_corpus", swept)
    assert main(["corpus", "--n", str(n), "--format", "json"]) == 0
    out = capsys.readouterr().out
    expected = json.dumps(sweep(n).to_json(), indent=2) + "\n"
    # Not `assert out == expected`: pytest's diff of two 7.5 MB texts takes minutes.
    if out != expected:
        lines = zip(out.splitlines(), expected.splitlines())
        pytest.fail(f"first difference: {next(((a, b) for a, b in lines if a != b), 'a truncated output')}")


@pytest.mark.parametrize("n", [5, 6])
def test_one_verdict_row_per_class(n, monkeypatch):
    calls = []
    theorem = corpus._theorem_from_report

    def counting(g, report):
        calls.append(1)
        return theorem(g, report)

    monkeypatch.setattr(corpus, "_theorem_from_report", counting)
    enumerate_corpus(n)
    assert len(calls) == SIZES[n][1]


@pytest.mark.parametrize("cap", [0, 1, 3, 5, 20, 100, 1000])
def test_refuses_where_the_labeled_sweep_refuses(cap):
    def outcome(sweep):
        try:
            return sweep(5, cap).to_json()
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(enumerate_corpus) == outcome(oracles.corpus_labeled)


def test_cli_cap_refusal_exits_2(capsys):
    assert main(["corpus", "--n", "5", "--cap", "20"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: rank probe at degree 3 needs 55 effective divisors (cap 20)\n"


class TestOneClassificationPerClass:
    @pytest.mark.parametrize("n", [5, 6])
    def test_one_cache_miss_per_class(self, n):
        classify_galois_points.cache_clear()
        enumerate_corpus(n)
        info = classify_galois_points.cache_info()
        assert (info.hits + info.misses, info.misses) == SIZES[n]
        assert info.currsize == info.misses  # nothing evicted

    def test_certificate_tags_match_the_benchmark_reference(self, monkeypatch):
        tags = Counter()

        def counting(g, d, cap=None):
            report = classify_galois_points(g, d, cap)
            for cert in report.certificates:
                tags["positive" if cert.verdict else cert.reason.tag] += 1
            return report

        monkeypatch.setattr(corpus, "classify_galois_points", counting)
        enumerate_corpus(5)
        assert tags == json.loads(REFERENCE.read_text())["verdicts"]

    def test_one_graph_built_per_class(self, monkeypatch):
        built = []
        init = Graph.__init__

        def counting(self, vertices, edges):
            built.append(1)
            init(self, vertices, edges)

        monkeypatch.setattr(Graph, "__init__", counting)
        enumerate_corpus(5)
        assert len(built) == SIZES[5][1]
