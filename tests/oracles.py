"""Independent brute-force oracles used to cross-check the library.

Nothing here shares code with the package's fast paths: connectivity
and bridges are naive searches, linear equivalence solves the reduced
Laplacian system exactly over the rationals, rank follows its
definition and enumerates every probe, group enumeration filters raw
permutations (networkx's VF2 matcher lists them from nine vertices up)
or closes small generating sets, and `reduce_one_chip`
reduces with a burning loop that fires one chip per round.
`rank_walk_spec` walks the rank probes in the order and by the rules
that `divisors._rank_walk` documents, supported on the rank-determining
set that `rank_determining_set` builds from its definition, but reduces
every probe from scratch with `reduce_one_chip`, to name the avalanches
the walk must make.  `rank_brute` takes the same set as a support for
its probes, to check the theorem as the walk applies it.
`rank_by_recursion` takes the rank one chip at a time from the same
`reduce_one_chip` test, with no probe enumeration and no walk rule.
`system_nonempty`, which `rank_brute` asks of every probe, leans on the
reduced-divisor theorem (Baker-Norine: |D| is nonempty iff its q-reduced
form is effective), not on library code: it is one `reduce_one_chip`
at vertex 0.  `system_nonempty_by_lattice` keeps the definition, some
effective divisor of the same degree in the class by the exact lattice
test, and the tests check that the two agree on small cases.
`smoothness_by_rank` decides the smoothness conditions by their
definition, one rank per condition, where the library reads them off a
table of reduced forms.  Given `rank=rank_brute` it shares no code with
the library; by default it calls the library's `rank` (itself checked
against `rank_brute`), for sizes the brute force cannot reach, and is
then an exception.  `witness_by_all_subgroups` is another: it runs the
witness search over every subgroup of the right order, built by the
library's `subgroups_of_order` (checked against
`subgroups_by_generators`) and tested one by one with
`acts_harmonically`, where the library only ever builds harmonic
subgroups.  `corpus_labeled` is the third: the labeled corpus sweep,
which classifies every labeled graph with the library's
`classify_galois_points` past its cache, where the library classifies
one graph per isomorphism class.  Slow on purpose; use at small sizes
only.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

from graphdivisors import (
    Cond1Fail,
    Cond2Fail,
    CorpusResult,
    Divisor,
    GaloisCertificate,
    Graph,
    GraphRecord,
    NoQualifyingSubgroup,
    SmoothnessCheck,
    acts_harmonically,
    automorphism_group,
    classify_galois_points,
    fixed_members,
    linear_system,
    quotient_graph,
    rank,
    subgroups_of_order,
)


def is_connected(n, edges):
    if n == 0:
        return False
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def find_bridges(n, edges):
    """Every edge whose removal disconnects the graph (exhaustive)."""
    out = []
    for k in range(len(edges)):
        rest = edges[:k] + edges[k + 1 :]
        if not is_connected(n, rest):
            out.append(edges[k])
    return out


def two_edge_connected(n, edges):
    return is_connected(n, edges) and not find_bridges(n, edges)


def effective_tuples(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in effective_tuples(total - first, parts - 1):
            yield (first,) + rest


def laplacian_matrix(g: Graph):
    n = len(g.vertices)
    L = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        i, j = g.index_of(u), g.index_of(v)
        L[i][i] += 1
        L[j][j] += 1
        L[i][j] -= 1
        L[j][i] -= 1
    return L


def is_principal(g: Graph, coeffs):
    """Exact test for membership in the Laplacian image lattice.

    Solves the system with the first row and column removed (the
    reduced Laplacian of a connected graph is nonsingular) and checks
    the unique rational solution for integrality.
    """
    n = len(g.vertices)
    if sum(coeffs) != 0:
        return False
    if n == 1:
        return True
    L = laplacian_matrix(g)
    m = n - 1
    A = [[Fraction(L[i][j]) for j in range(1, n)] + [Fraction(coeffs[i])] for i in range(1, n)]
    row = 0
    for col in range(m):
        piv = next((r for r in range(row, m) if A[r][col] != 0), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        pv = A[row][col]
        A[row] = [x / pv for x in A[row]]
        for r in range(m):
            if r != row and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[row])]
        row += 1
    return all(A[r][m].denominator == 1 for r in range(m))


def equivalent(g: Graph, d1: Divisor, d2: Divisor):
    return is_principal(g, [a - b for a, b in zip(d1.coeffs, d2.coeffs)])


def system_nonempty(g: Graph, d: Divisor):
    """|d| is nonempty iff the 0-reduced form of d is effective, that is
    nonnegative at vertex 0."""
    return reduce_one_chip(g, list(d.coeffs), 0)[0][0] >= 0


def system_nonempty_by_lattice(g: Graph, d: Divisor):
    """|d| is nonempty iff some effective divisor of its degree is
    equivalent to d."""
    if d.degree < 0:
        return False
    return any(
        equivalent(g, d, Divisor.from_coeffs(g, e))
        for e in effective_tuples(d.degree, len(g.vertices))
    )


def linear_system_brute(g: Graph, d: Divisor):
    if d.degree < 0:
        return frozenset()
    return frozenset(
        Divisor.from_coeffs(g, e)
        for e in effective_tuples(d.degree, len(g.vertices))
        if equivalent(g, d, Divisor.from_coeffs(g, e))
    )


def rank_brute(g: Graph, d: Divisor, support=None):
    """Rank of d by its definition, probing every effective divisor of
    each degree in turn; with `support`, only those supported on these
    vertex indices."""
    if not system_nonempty(g, d):
        return -1
    support = range(len(g.vertices)) if support is None else sorted(support)
    s = 1
    while True:
        for e in effective_tuples(s, len(support)):
            coeffs = list(d.coeffs)
            for v, c in zip(support, e):
                coeffs[v] -= c
            if not system_nonempty(g, Divisor.from_coeffs(g, coeffs)):
                return s - 1
        s += 1


def rank_by_recursion(g: Graph, coeffs, memo: dict) -> int:
    """Rank of the divisor with these coefficients by the recursion
    r(D) = -1 when |D| is empty, else 1 + min over v of r(D - v).

    Removing a chip lowers the rank by at most one, and some chip of an
    empty probe of degree r(D) + 1 lowers it by exactly one.  |D| is
    empty iff the 0-reduced form from `reduce_one_chip` is negative at
    vertex 0; `memo` keeps the ranks by that form, one per class.
    """
    red, _ = reduce_one_chip(g, list(coeffs), 0)
    key = tuple(red)
    if key not in memo:
        if red[0] < 0:
            memo[key] = -1
        else:
            memo[key] = 1 + min(
                rank_by_recursion(g, [c - (v == w) for w, c in enumerate(red)], memo)
                for v in range(len(red))
            )
    return memo[key]


def rank_determining_set(g: Graph) -> set:
    """The vertex indices of a loopless model of the metric graph of g,
    a rank-determining set (Luo, JCTA 2011): vertex 0, every vertex
    whose degree is not 2, and for each connected set of the other
    degree-2 vertices (a chain) that touches just one vertex of those,
    its lowest vertex."""
    adj = g._adj
    kept = {v for v in range(len(adj)) if v == 0 or len(adj[v]) != 2}
    chained = set()
    for start in range(len(adj)):
        if start in kept or start in chained:
            continue
        chain, ends, todo = {start}, set(), [start]
        while todo:
            for w in adj[todo.pop()]:
                if w in kept:
                    ends.add(w)
                elif w not in chain:
                    chain.add(w)
                    todo.append(w)
        chained |= chain
        if len(ends) == 1:
            kept.add(min(chain))
    return kept


def rank_walk_spec(g: Graph, d: Divisor):
    """(rank of d, avalanches) by the walk `divisors._rank_walk` documents,
    without its cap, where avalanches lists (reduced parent, vertex) for
    every child that the walk's rules leave to `_drop_chip`.

    Each node is a multiset e' of the vertices of `rank_determining_set`
    off vertex 0 with nondecreasing positions in the walk order (the
    non-neighbours of vertex 0, then its neighbours, each group by
    ascending degree), and its reduced form is `reduce_one_chip` of
    d - e' at vertex 0, from scratch.  The bound starts at the base's
    chips (-1 if |d| is empty) and falls to j at an empty child of a
    node of degree j, which ends that node's children, and to
    c0 + j + 1 at a child with c0 chips at the base.  A node of degree j >= bound is not visited; one with j + 1
    >= bound keeps its children as leaves, not extended.  The walk ends
    once the bound is at most the degree floor deg(d) - g, with g = 1 -
    |V| + |E|: at a node's visit, or within its children at the child
    that lowered the bound there.  A node's
    children are found in position order, then visited last first, as
    the walk's stack pops them.  A child needs no avalanche when its
    parent holds a chip at its vertex (the leaf rule), when the parent's
    sibling at its position holds a chip at the parent's vertex (the
    sibling rule), or at a leaf next to vertex 0 whose parent holds at
    least deg(0) chips there (the one-wave rule).  Every child is still
    reduced here and moves the bound, so a rule that spared a child that
    mattered shows up as a different walk.
    """
    adj = g._adj
    order = sorted((v for v in rank_determining_set(g) if v), key=lambda v: (v in adj[0], len(adj[v])))
    m = len(order)

    def reduced(taken):
        coeffs = list(d.coeffs)
        for v in taken:
            coeffs[v] -= 1
        return reduce_one_chip(g, coeffs, 0)[0]

    avalanches = []
    base = reduced(()) if d.degree >= 0 else [-1]
    if base[0] < 0:
        return -1, avalanches
    bound = base[0]
    floor = d.degree - (1 - len(g.vertices) + len(g.edges))

    def visit(taken, red, i, j, row):
        nonlocal bound
        if j >= bound or bound <= floor:
            return
        leaves = j + 1 >= bound
        kids = [None] * m
        children = []
        for b in range(i, m):
            v = order[b]
            kid = taken + (v,)
            kids[b] = child = reduced(kid)
            spared = (red[v] > 0 or (row is not None and row[b][taken[-1]] > 0)
                      or (leaves and red[0] >= len(adj[0]) and v in adj[0]))
            if not spared:
                avalanches.append((tuple(red), v))
            if child[0] < 0:
                bound = j
                break
            bound = min(bound, child[0] + j + 1)
            if bound <= floor:
                break
            children.append((kid, child, b))
        if not leaves:
            for kid, child, b in reversed(children):
                visit(kid, child, b, j + 1, kids)

    visit((), base, 0, 0, None)
    return bound, avalanches


# The plain reduction: stage one clears debt off q with ball firings,
# stage two fires one chip per burning round.  It is the reference for
# the reduced forms and firing counts of the library's fast reduction.


def _bfs_distances(adj, q: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[q] = 0
    frontier = [q]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] == -1:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _dhar_unburnt(adj, coeffs, q: int):
    """Vertices left unburnt by fire spreading from q, or None if all burn.

    A vertex burns once the number of its burnt neighbours exceeds its
    coefficient.  The unburnt set, when nonempty, can fire without
    driving any of its members negative.
    """
    n = len(adj)
    burnt = [False] * n
    burnt[q] = True
    threat = [0] * n
    stack = [q]
    remaining = n - 1
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not burnt[w]:
                threat[w] += 1
                if coeffs[w] < threat[w]:
                    burnt[w] = True
                    remaining -= 1
                    stack.append(w)
    if remaining == 0:
        return None
    return [v for v in range(n) if not burnt[v]]


def reduce_one_chip(g: Graph, coeffs: list[int], q: int) -> tuple[list[int], list[int]]:
    """Reduce coeffs (mutated in place) relative to base vertex q.

    Returns (reduced coefficients, firing counts), where the input minus
    the Laplacian of the firing counts equals the output.  Stage one
    clears debt off q by bulk-firing balls around q, farthest layer
    first; stage two runs the burning loop until no subset can fire.
    """
    n = len(coeffs)
    adj = g._adj
    fires = [0] * n
    if n == 1:
        return coeffs, fires

    if any(coeffs[v] < 0 for v in range(n) if v != q):
        dist = _bfs_distances(adj, q)
        for k in range(max(dist), 0, -1):
            need = 0
            for v in range(n):
                if dist[v] == k and coeffs[v] < 0:
                    inner = sum(1 for w in adj[v] if dist[w] < k)
                    # ceil(-coeffs[v] / inner); inner >= 1 by BFS layering
                    need = max(need, -(coeffs[v] // inner))
            if need:
                inside = [dist[v] < k for v in range(n)]
                for v in range(n):
                    if inside[v]:
                        fires[v] += need
                for a, b in g._edges_idx:
                    if inside[a] != inside[b]:
                        if inside[a]:
                            coeffs[a] -= need
                            coeffs[b] += need
                        else:
                            coeffs[b] -= need
                            coeffs[a] += need

    rounds = 0
    while True:
        unburnt = _dhar_unburnt(adj, coeffs, q)
        if unburnt is None:
            return coeffs, fires
        rounds += 1
        if rounds > 10_000_000:
            raise RuntimeError("reduction did not terminate; this is a bug")
        in_set = [False] * n
        for v in unburnt:
            in_set[v] = True
        for v in unburnt:
            fires[v] += 1
            for w in adj[v]:
                if not in_set[w]:
                    coeffs[v] -= 1
                    coeffs[w] += 1


# From this many vertices up the n! walk takes a second or more (1.2 s
# at 9, 11 s at 10), and networkx's VF2 matcher lists the automorphisms
# instead.  VF2 is the slower of the two on small dense graphs (K7 0.8 s
# against 0.1 s).
VF2_VERTICES = 9


@cache
def automorphism_perms_brute(g: Graph) -> tuple:
    """Every permutation that maps edges to edges, sorted.  Memoised per
    graph (equal graphs share an entry), so the result is a tuple that
    no caller can change for another."""
    if len(g.vertices) >= VF2_VERTICES:
        return automorphism_perms_vf2(g)
    return automorphism_perms_by_permutations(g)


def automorphism_perms_vf2(g: Graph) -> tuple:
    """The automorphisms as networkx's VF2 matcher finds them, sorted."""
    from networkx import Graph as NxGraph
    from networkx.algorithms.isomorphism import GraphMatcher

    n = len(g.vertices)
    nx_graph = NxGraph()
    nx_graph.add_nodes_from(range(n))
    nx_graph.add_edges_from(g._edges_idx)
    return tuple(sorted(tuple(m[i] for i in range(n))
                        for m in GraphMatcher(nx_graph, nx_graph).isomorphisms_iter()))


def automorphism_perms_by_permutations(g: Graph) -> tuple:
    """The automorphisms filtered from all n! permutations, sorted."""
    n = len(g.vertices)
    edge_set = frozenset(g._edges_idx)
    out = []
    for p in permutations(range(n)):
        if all((min(p[i], p[j]), max(p[i], p[j])) in edge_set for i, j in g._edges_idx):
            out.append(p)
    return tuple(sorted(out))


def compose(p, q):
    return tuple(p[x] for x in q)


def admissible_brute(g: Graph, m: int):
    """The elements a harmonic subgroup of order m can hold, filtered
    from every permutation: non-identity automorphisms whose powers
    return to the identity after a number of steps dividing m, and that
    fix the two ends of no edge."""
    identity = tuple(range(len(g.vertices)))
    out = []
    for p in automorphism_perms_brute(g):
        order, power = 1, p
        while power != identity:
            order, power = order + 1, compose(p, power)
        if p != identity and m % order == 0 and not any(
                p[i] == i and p[j] == j for i, j in g._edges_idx):
            out.append(p)
    return out


def subgroup_sets_brute(perms, m):
    """All order-m subgroups of a tiny group by raw subset filtering."""
    perms = list(perms)
    n = len(perms[0])
    identity = tuple(range(n))
    rest = [p for p in perms if p != identity]
    out = set()
    for combo in combinations(rest, m - 1):
        cand = frozenset(combo) | {identity}
        if all(compose(a, b) in cand for a in cand for b in cand):
            out.add(cand)
    if m == 1:
        out.add(frozenset({identity}))
    return out


def subgroups_by_generators(perms, m):
    """All order-m subgroups of a small group, as a sorted list of sorted
    element tuples.  A group of order m is generated by at most log2(m)
    of its elements, so closing every subset that small finds them all."""
    identity = tuple(range(len(perms[0])))
    # Only elements with x^m = identity can lie in a group of order m.
    usable = []
    for x in sorted(perms):
        power = identity
        for _ in range(m):
            power = compose(power, x)
        if power == identity and x != identity:
            usable.append(x)
    found = set()
    for k in range(m.bit_length()):
        for gens in combinations(usable, k):
            elems, todo = {identity}, [identity]
            while todo and len(elems) <= m:
                a = todo.pop()
                for b in (compose(a, x) for x in gens):
                    if b not in elems:
                        elems.add(b)
                        todo.append(b)
            if len(elems) == m:
                found.add(tuple(sorted(elems)))
    return sorted(found)


def random_connected_graph(rng, n, extra_edge_prob=0.5):
    """Random connected graph: a random spanning tree plus extras."""
    labels = [f"P{i}" for i in range(1, n + 1)]
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for k in range(1, n):
        a = order[k]
        b = order[rng.randrange(k)]
        edges.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    return Graph(labels, [(labels[i], labels[j]) for i, j in sorted(edges)])


def random_divisor(rng, g, lo=-3, hi=6):
    n = len(g.vertices)
    while True:
        coeffs = [rng.randint(-3, 4) for _ in range(n)]
        if lo <= sum(coeffs) <= hi:
            return Divisor.from_coeffs(g, coeffs)


def smoothness_by_rank(g: Graph, d: Divisor, p: str, rank=rank):
    """The smoothness check by its definition, one `rank(g, divisor)` call
    per condition: rank(d - p) = 1, then rank(d - p - q) = 0 for every q
    in vertex order."""
    dp = d - Divisor.vertex(g, p)
    r1 = rank(g, dp)
    if r1 != 1:
        return SmoothnessCheck(False, Cond1Fail(p, r1))
    for q in g.vertices:
        r0 = rank(g, dp - Divisor.vertex(g, q))
        if r0 != 0:
            return SmoothnessCheck(False, Cond2Fail(p, q, r0))
    return SmoothnessCheck(True)


def witness_by_all_subgroups(g: Graph, d: Divisor, p: str):
    """The certificate at a smooth vertex p of a rank-2 divisor d, by
    building every subgroup of order deg(d) - 1 of Aut(g).

    Subgroups fixing p come first, each part in sorted order; the first
    that acts harmonically, has two or more orbits, and fixes two members
    of the linear system of d - p (the smallest two by coefficients) is
    the witness.  A negative certificate counts the harmonic subgroups."""
    m = d.degree - 1
    pi = g.index_of(p)
    subs = subgroups_of_order(automorphism_group(g), m)
    harmonic = [h for h in subs if acts_harmonically(g, h, "criterion")]
    system = linear_system(g, d - Divisor.vertex(g, p))
    for h in sorted(harmonic, key=lambda h: any(x[pi] != pi for x in h.perms)):
        orbits = quotient_graph(g, h).vertex_count
        if orbits < 2:
            continue
        fixed = sorted(fixed_members(h, system), key=lambda e: e.coeffs)
        if len(fixed) >= 2:
            return GaloisCertificate(p, True, h, fixed[0], fixed[1], orbits)
    return GaloisCertificate(p, False, reason=NoQualifyingSubgroup(m, len(harmonic)))


def corpus_labeled(n, cap=None):
    """`enumerate_corpus(n, cap)` by classifying every labeled graph.

    Each edge mask in increasing order is kept if it is connected and has
    no bridge (both by the naive searches above), built, and classified
    through `classify_galois_points.__wrapped__`, so that no cache can
    answer for it; the theorem and count-law checks are recomputed from
    the report."""
    labels = [f"P{i}" for i in range(1, n + 1)]
    pairs = list(combinations(range(n), 2))
    complete = len(pairs)
    records = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        if len(edges) < n or not two_edge_connected(n, edges):
            continue
        g = Graph(labels, [(labels[a], labels[b]) for a, b in edges])
        report = classify_galois_points.__wrapped__(g, Divisor.all_ones(g), cap)
        is_complete = len(edges) == complete
        has_two = report.rank == 2 and report.galois_count >= 2
        records.append(GraphRecord(
            edges=g.edges,
            rank=report.rank,
            galois_count=report.galois_count,
            theorem_consistent=(is_complete == has_two)
            and (not is_complete or report.galois_count == n),
            corollary_consistent=report.corollary_consistent,
        ))
    return CorpusResult(
        n=n,
        graphs_tested=len(records),
        records=tuple(records),
        all_consistent=all(r.theorem_consistent and r.corollary_consistent for r in records),
    )
