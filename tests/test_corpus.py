"""The corpus sweep classifies one graph per isomorphism class.

`enumerate_corpus` must give what classifying every labeled graph gives
(`oracles.corpus_labeled`), record by record in mask order, and refuse
at the same caps with the same errors.  It must also keep what the
benchmark counts of it: one `classify_galois_points` call per labeled
graph, answered by the cache for every graph but the first of its class,
so that the certificate tags of one n = 5 sweep still add up to the
verdicts of `perfbench/reference/corpus5.json`.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

import oracles
from graphdivisors import Graph, classify_galois_points, corpus, enumerate_corpus
from graphdivisors.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "corpus5.json"

# Labeled 2-edge-connected graphs and their isomorphism classes
# (OEIS A095983, A007146).
SIZES = {3: (1, 1), 4: (10, 3), 5: (253, 11), 6: (11968, 60)}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_matches_the_labeled_sweep(n):
    result = enumerate_corpus(n)
    assert result.to_json() == oracles.corpus_labeled(n).to_json()
    assert result.graphs_tested == SIZES[n][0]


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
