"""Exhaustive small-graph sweeps over labeled 2-edge-connected graphs.

Every edge subset on n labeled vertices is enumerated (no isomorphism
reduction; correctness claims are per graph, so duplicates are
harmless), filtered to connected bridgeless graphs, and classified.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .divisors import Divisor
from .errors import ParameterOutOfRangeError, SizeCapExceededError
from .galois import _theorem_from_report, classify_galois_points
from .graphs import Graph, _labels, _unreachable_from, is_two_edge_connected

MAX_CORPUS_VERTICES = 6


@dataclass(frozen=True)
class GraphRecord:
    edges: tuple[tuple[str, str], ...]
    rank: int
    galois_count: int
    theorem_consistent: bool
    corollary_consistent: bool

    def to_json(self) -> dict:
        return {
            "edges": [list(e) for e in self.edges],
            "rank": self.rank,
            "galois_count": self.galois_count,
            "theorem_consistent": self.theorem_consistent,
            "corollary_consistent": self.corollary_consistent,
        }


@dataclass(frozen=True)
class CorpusResult:
    n: int
    graphs_tested: int
    records: tuple[GraphRecord, ...]
    all_consistent: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "graphs_tested": self.graphs_tested,
            "all_consistent": self.all_consistent,
            "graphs": [r.to_json() for r in self.records],
        }


def enumerate_corpus(n: int, filter: str = "two_edge_connected",
                     cap: int | None = None) -> CorpusResult:
    """Classify every labeled 2-edge-connected graph on n vertices.

    Each graph is tested with the all-ones divisor: the completeness
    equivalence must hold, and at rank 2 the number of Galois points
    must be 0, 1, or n.
    """
    if filter != "two_edge_connected":
        raise ValueError(f"unsupported corpus filter {filter!r}")
    if n > MAX_CORPUS_VERTICES:
        raise SizeCapExceededError(
            f"corpus sweep is capped at {MAX_CORPUS_VERTICES} vertices, got {n}"
        )
    if n < 3:
        raise ParameterOutOfRangeError(f"corpus sweep needs n >= 3, got {n}")

    labels = _labels(n)
    all_pairs = list(combinations(range(n), 2))
    records: list[GraphRecord] = []
    for mask in range(1 << len(all_pairs)):
        pairs = [all_pairs[k] for k in range(len(all_pairs)) if mask >> k & 1]
        if len(pairs) < n:
            # A bridgeless connected graph has at least n edges (n >= 3).
            continue
        adj = [[] for _ in range(n)]
        for a, b in pairs:
            adj[a].append(b)
            adj[b].append(a)
        if _unreachable_from(0, adj) is not None:
            continue
        g = Graph(labels, [(labels[a], labels[b]) for a, b in pairs])
        if not is_two_edge_connected(g):
            continue
        report = classify_galois_points(g, Divisor.all_ones(g), cap)
        theorem = _theorem_from_report(g, report)
        records.append(
            GraphRecord(
                edges=g.edges,
                rank=report.rank,
                galois_count=report.galois_count,
                theorem_consistent=theorem.consistent,
                corollary_consistent=report.corollary_consistent,
            )
        )
    return CorpusResult(
        n=n,
        graphs_tested=len(records),
        records=tuple(records),
        all_consistent=all(r.theorem_consistent and r.corollary_consistent for r in records),
    )
