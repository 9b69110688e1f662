"""Exhaustive small-graph sweeps over labeled 2-edge-connected graphs.

Every edge subset on n labeled vertices is enumerated, filtered to
connected bridgeless graphs, and reported graph by graph; each
isomorphism class is checked and classified through one representative.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .divisors import Divisor
from .errors import ParameterOutOfRangeError, SizeCapExceededError
from .galois import _theorem_from_report, classify_galois_points
from .graphs import Graph, _bridgeless, _labels, _value_type

MAX_CORPUS_VERTICES = 6


@_value_type
class GraphRecord(NamedTuple):
    edges: tuple[tuple[str, str], ...]
    rank: int
    galois_count: int
    theorem_consistent: bool
    corollary_consistent: bool

    def to_json(self) -> dict:
        return {**self._asdict(), "edges": [list(e) for e in self.edges]}


@_value_type
class CorpusResult(NamedTuple):
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


def enumerate_corpus(n: int, cap: int | None = None) -> CorpusResult:
    """Classify every labeled 2-edge-connected graph on n vertices.

    Each graph is tested with the all-ones divisor: the completeness
    equivalence must hold, and at rank 2 the number of Galois points
    must be 0, 1, or n.

    Every field of a record but its edges is an isomorphism invariant: a
    relabeling carries the all-ones divisor to itself, ranks to ranks
    and Galois points to Galois points, and completeness and the count
    law do not see labels.  So the edge masks are walked in increasing
    order, and the first mask of each isomorphism class stands for it:
    it alone is checked for bridges and, if it has none, built as a
    graph, classified, and its whole orbit is marked with the result:
    the graph, its divisor and the class's verdict row (rank, Galois
    count, theorem and corollary consistency), which every record of the
    class copies.  Every labeled graph of a bridgeless class still gets
    one `classify_galois_points` call, made on the representative, so
    the cache answers the repeats; its record keeps its own edges.
    Every cap gate reads only invariants (n, degrees, ranks, which
    vertices are smooth), so a class refuses at its representative, the
    first mask at which classifying each labeled graph would refuse.
    """
    if n > MAX_CORPUS_VERTICES:
        raise SizeCapExceededError("corpus sweep", n, "vertices", MAX_CORPUS_VERTICES)
    if n < 3:
        raise ParameterOutOfRangeError(f"corpus sweep needs n >= 3, got {n}")

    labels = _labels(n)
    all_pairs = list(combinations(range(n), 2))
    half, swaps = _adjacent_swaps(n, all_pairs)
    low_bits = (1 << half) - 1
    # A record's edges: the labeled pairs of its mask's low bits, then of
    # its high bits, each pair in a 1-tuple so that `_sums` concatenates.
    labeled_pairs = [((labels[a], labels[b]),) for a, b in all_pairs]
    low_edges, high_edges = _sums(labeled_pairs[:half], ()), _sums(labeled_pairs[half:], ())
    # Per mask: None until its class is reached, () for a class with a
    # bridge, else the representative graph, its all-ones divisor and
    # the class's verdict row.
    rep_of: list[tuple | None] = [None] * (1 << len(all_pairs))
    records: list[GraphRecord] = []
    for mask in range(len(rep_of)):
        if mask.bit_count() < n:
            # A bridgeless connected graph has at least n edges (n >= 3).
            continue
        rep = rep_of[mask]
        if rep is None:
            pairs = [pair for k, pair in enumerate(all_pairs) if mask >> k & 1]
            rep = _representative(labels, pairs, cap)
            _mark_orbit(mask, rep, rep_of, half, swaps)
        elif rep:
            # The cache answers it.  The call stays so that every labeled
            # graph is classified once, as perfbench's traced totals count.
            classify_galois_points(rep[0], rep[1], cap)
        if rep:
            records.append(GraphRecord(low_edges[mask & low_bits] + high_edges[mask >> half], *rep[2]))
    return CorpusResult(
        n=n,
        graphs_tested=len(records),
        records=tuple(records),
        all_consistent=all(r.theorem_consistent and r.corollary_consistent for r in records),
    )


def _representative(labels: list[str], pairs: list[tuple[int, int]], cap: int | None) -> tuple:
    """The graph with these edges, its all-ones divisor and its verdict
    row, or () when the edges leave it disconnected or with a bridge."""
    adj: list[list[int]] = [[] for _ in labels]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    if not _bridgeless(adj):
        return ()
    g = Graph(labels, [(labels[a], labels[b]) for a, b in pairs])
    d = Divisor.all_ones(g)
    report = classify_galois_points(g, d, cap)
    row = (report.rank, report.galois_count, _theorem_from_report(g, report).consistent,
           report.corollary_consistent)
    return g, d, row


def _adjacent_swaps(n: int, all_pairs: list[tuple[int, int]]) -> tuple[int, list]:
    """Each transposition (i, i + 1) of the vertices as a map on edge
    masks: the image of mask x is low[x & (2^half - 1)] | high[x >> half]
    for its pair of tables (low, high).

    The n - 1 adjacent transpositions generate the symmetric group, so
    closing a mask under them reaches its whole isomorphism class.
    """
    index = {pair: k for k, pair in enumerate(all_pairs)}
    half = len(all_pairs) // 2
    swaps = []
    for i in range(n - 1):
        move = {i: i + 1, i + 1: i}
        images = [
            1 << index[tuple(sorted((move.get(a, a), move.get(b, b))))] for a, b in all_pairs
        ]
        swaps.append((_sums(images[:half], 0), _sums(images[half:], 0)))
    return half, swaps


def _sums(items: list, zero):
    """For every mask x over len(items) bits, zero plus items[k] over
    the set bits k of x, in increasing k: the union of disjoint bit masks,
    or the concatenation of tuples."""
    out = [zero]
    for item in items:
        out += [x + item for x in out]
    return out


def _mark_orbit(mask: int, rep: tuple, rep_of: list, half: int, swaps: list) -> None:
    """Mark every mask isomorphic to `mask` with `rep`."""
    low_bits = (1 << half) - 1
    rep_of[mask] = rep
    stack = [mask]
    while stack:
        x = stack.pop()
        for low, high in swaps:
            y = low[x & low_bits] | high[x >> half]
            if rep_of[y] is None:
                rep_of[y] = rep
                stack.append(y)
