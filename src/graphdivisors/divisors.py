"""Divisor arithmetic: Laplacian, reduced forms, linear systems, rank.

Everything is exact integer arithmetic.  `is_q_reduced` checks the
subset definition directly (2^(n-1) subsets) and serves as the reference
oracle; `q_reduce` computes the unique reduced representative and is the
fast path used by everything else.  It clears debt with ball firings,
jumps close to the answer with the rounded solution of the reduced
Laplacian system (the idea behind Baker-Shokrieh's polynomial-time
reduction), and finishes with Dhar's burning algorithm, firing each
unburnt set in bulk; the number of burning rounds does not grow with the
chip count.  The BFS layering per base vertex and the reduced
Laplacian's adjugate are computed once per graph and kept on it.  `rank`
and `linear_system` reduce d once and derive every other reduced form
from a parent's by a one-grain sandpile avalanche (`_drop_chip`).  The
enumerating operations (`linear_system`, `rank`) refuse, via
`EnumerationCapExceededError`, to start an enumeration above the cap;
they never silently truncate.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import (
    EnumerationCapExceededError,
    GraphMismatchError,
    MissingVertexValueError,
)

if TYPE_CHECKING:
    from .graphs import Graph

DEFAULT_ENUMERATION_CAP = 5_000_000


def _resolve_cap(cap: int | None) -> int:
    return DEFAULT_ENUMERATION_CAP if cap is None else cap


class Divisor:
    """Integer-valued divisor on the vertices of a bound graph.

    Coefficients are stored densely in vertex order; vertices absent
    from a mapping input count as 0.  Divisors are immutable, hashable
    values; arithmetic requires both operands to be bound to the same
    graph.
    """

    __slots__ = ("graph", "coeffs", "_hash")

    def __init__(self, graph: "Graph", coefficients: Mapping[str, int] | None = None):
        coeffs = [0] * len(graph.vertices)
        if coefficients:
            for label, value in coefficients.items():
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(f"coefficient of {label!r} must be an integer, got {value!r}")
                coeffs[graph.index_of(label)] = value
        self.graph = graph
        self.coeffs = tuple(coeffs)
        self._hash = hash((graph, self.coeffs))

    @classmethod
    def from_coeffs(cls, graph: "Graph", coeffs: Iterable[int]) -> "Divisor":
        d = object.__new__(cls)
        t = tuple(coeffs)
        if len(t) != len(graph.vertices):
            raise ValueError(f"expected {len(graph.vertices)} coefficients, got {len(t)}")
        d.graph = graph
        d.coeffs = t
        d._hash = hash((graph, t))
        return d

    @classmethod
    def zero(cls, graph: "Graph") -> "Divisor":
        return cls.from_coeffs(graph, (0,) * len(graph.vertices))

    @classmethod
    def vertex(cls, graph: "Graph", label: str) -> "Divisor":
        i = graph.index_of(label)
        return cls.from_coeffs(graph, tuple(1 if j == i else 0 for j in range(len(graph.vertices))))

    @classmethod
    def all_ones(cls, graph: "Graph") -> "Divisor":
        """The divisor with coefficient 1 at every vertex."""
        return cls.from_coeffs(graph, (1,) * len(graph.vertices))

    @classmethod
    def from_json(cls, graph: "Graph", obj: Mapping[str, int]) -> "Divisor":
        return cls(graph, dict(obj))

    def to_json(self) -> dict:
        return {v: c for v, c in zip(self.graph.vertices, self.coeffs) if c != 0}

    @property
    def degree(self) -> int:
        return sum(self.coeffs)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(v for v, c in zip(self.graph.vertices, self.coeffs) if c != 0)

    @property
    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.graph.vertices, self.coeffs))

    def __getitem__(self, label: str) -> int:
        return self.coeffs[self.graph.index_of(label)]

    def _same_graph(self, other: "Divisor") -> None:
        if self.graph != other.graph:
            raise GraphMismatchError("divisors are bound to different graphs")

    def __add__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        self._same_graph(other)
        return Divisor.from_coeffs(self.graph, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        self._same_graph(other)
        return Divisor.from_coeffs(self.graph, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Divisor.from_coeffs(self.graph, tuple(-a for a in self.coeffs))

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return Divisor.from_coeffs(self.graph, tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__

    def __ge__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        self._same_graph(other)
        return all(a >= b for a, b in zip(self.coeffs, other.coeffs))

    def __le__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return other.__ge__(self)

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self.graph == other.graph and self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def __str__(self):
        terms = []
        for v, c in zip(self.graph.vertices, self.coeffs):
            if c == 0:
                continue
            if not terms:
                terms.append(f"{c}·{v}")
            elif c > 0:
                terms.append(f"+ {c}·{v}")
            else:
                terms.append(f"- {-c}·{v}")
        return " ".join(terms) if terms else "0"

    def __repr__(self):
        return f"Divisor({self.to_json()!r})"


class VertexFunction:
    """Integer-valued function on all vertices of a bound graph.

    Unlike a divisor, a vertex function must be total: building one from
    a mapping that misses a vertex raises MissingVertexValueError.
    """

    __slots__ = ("graph", "values", "_hash")

    def __init__(self, graph: "Graph", values: Mapping[str, int]):
        vals = [None] * len(graph.vertices)
        for label, value in values.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"value at {label!r} must be an integer, got {value!r}")
            vals[graph.index_of(label)] = value
        for i, v in enumerate(vals):
            if v is None:
                raise MissingVertexValueError(f"no value for vertex {graph.vertices[i]!r}")
        self.graph = graph
        self.values = tuple(vals)
        self._hash = hash((graph, self.values))

    @classmethod
    def from_values(cls, graph: "Graph", values: Iterable[int]) -> "VertexFunction":
        f = object.__new__(cls)
        t = tuple(values)
        if len(t) != len(graph.vertices):
            raise MissingVertexValueError(f"expected {len(graph.vertices)} values, got {len(t)}")
        f.graph = graph
        f.values = t
        f._hash = hash((graph, t))
        return f

    @classmethod
    def constant(cls, graph: "Graph", value: int) -> "VertexFunction":
        return cls.from_values(graph, (value,) * len(graph.vertices))

    @classmethod
    def indicator(cls, graph: "Graph", label: str) -> "VertexFunction":
        i = graph.index_of(label)
        return cls.from_values(graph, tuple(1 if j == i else 0 for j in range(len(graph.vertices))))

    def __getitem__(self, label: str) -> int:
        return self.values[self.graph.index_of(label)]

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.graph.vertices, self.values))

    def __eq__(self, other):
        if not isinstance(other, VertexFunction):
            return NotImplemented
        return self.graph == other.graph and self.values == other.values

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"VertexFunction({self.as_dict()!r})"


def canonical_divisor(g: "Graph") -> Divisor:
    """The divisor with coefficient deg(v) - 2 at every vertex v."""
    return Divisor.from_coeffs(g, tuple(len(nbrs) - 2 for nbrs in g._adj))


def _function_values(g: "Graph", f) -> tuple[int, ...]:
    if isinstance(f, VertexFunction):
        if f.graph != g:
            raise GraphMismatchError("vertex function is bound to a different graph")
        return f.values
    return VertexFunction(g, f).values


def laplacian_apply(g: "Graph", f: VertexFunction | Mapping[str, int]) -> Divisor:
    """Apply the graph Laplacian: sum over edges vw of (f(v) - f(w)) at v.

    The result always has degree 0 and generates the group of principal
    divisors as f ranges over all integer vertex functions.
    """
    vals = _function_values(g, f)
    out = []
    for v, nbrs in enumerate(g._adj):
        fv = vals[v]
        out.append(sum(fv - vals[w] for w in nbrs))
    return Divisor.from_coeffs(g, out)


def _check_bound(g: "Graph", d: Divisor) -> None:
    if d.graph != g:
        raise GraphMismatchError("divisor is bound to a different graph")


def is_q_reduced(g: "Graph", d: Divisor, q: str) -> bool:
    """Check the definition of q-reducedness by direct subset enumeration.

    d is q-reduced iff d(v) >= 0 for every v != q and every nonempty
    subset S avoiding q contains a vertex with d(v) < outdeg_S(v).
    This is the reference oracle; it is exponential in |V| on purpose.
    """
    _check_bound(g, d)
    qi = g.index_of(q)
    coeffs = d.coeffs
    n = len(coeffs)
    others = [v for v in range(n) if v != qi]
    if any(coeffs[v] < 0 for v in others):
        return False
    masks = g._adj_masks
    full = (1 << n) - 1
    for bits in range(1, 1 << len(others)):
        smask = 0
        members = []
        rest = bits
        while rest:
            t = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            members.append(others[t])
            smask |= 1 << others[t]
        outside = full & ~smask
        if not any(coeffs[v] < (masks[v] & outside).bit_count() for v in members):
            return False
    return True


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


def _layers(g: "Graph", q: int) -> list[tuple]:
    """The BFS layering around base q, computed once per graph and base.

    One entry per distance k from the farthest down to 1: the vertices at
    distance k with their counts of neighbours at distance k - 1, the
    vertices at distance k - 1 with their counts of neighbours at
    distance k, and the ball of all vertices at distance < k.  Firing
    that ball moves chips only across the edges between the two shells.
    """
    key = ("layers", q)
    layers = g._derived.get(key)
    if layers is None:
        adj = g._adj
        dist = _bfs_distances(adj, q)
        layers = []
        for k in range(max(dist), 0, -1):
            outer = [(v, sum(dist[w] == k - 1 for w in adj[v])) for v in range(len(adj)) if dist[v] == k]
            inner = [(v, sum(dist[w] == k for w in adj[v])) for v in range(len(adj)) if dist[v] == k - 1]
            layers.append((outer, inner, [v for v in range(len(adj)) if dist[v] < k]))
        g._derived[key] = layers
    return layers


def _laplacian_adjugate(g: "Graph") -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adjugate, determinant) of the Laplacian with vertex 0's row and
    column removed, computed once per graph.

    The determinant is the number of spanning trees (Kirchhoff).  The
    matrix is symmetric positive definite for a connected graph, so every
    leading minor is positive and fraction-free Gauss-Jordan elimination
    (Bareiss) needs no pivoting; every division in it is exact.  It ends
    with det times the identity on the left and the adjugate on the right.
    """
    cached = g._derived.get("adjugate")
    if cached is None:
        adj = g._adj
        m = len(adj) - 1
        rows = []
        for i in range(m):
            row = [0] * (2 * m)
            row[i] = len(adj[i + 1])
            for w in adj[i + 1]:
                if w:
                    row[w - 1] = -1
            row[m + i] = 1
            rows.append(row)
        prev = 1
        for k in range(m):
            pivot_row = rows[k]
            pivot = pivot_row[k]
            for i in range(m):
                if i != k:
                    row = rows[i]
                    factor = row[k]
                    rows[i] = [(pivot * a - factor * b) // prev for a, b in zip(row, pivot_row)]
            prev = pivot
        cached = (tuple(tuple(row[m:]) for row in rows), prev)
        g._derived["adjugate"] = cached
    return cached


def _clear_debt(layers: list[tuple], coeffs: list[int], fires: list[int]) -> None:
    """Fire balls around the base, farthest shell first, each as many
    times as its outer shell needs, so no vertex off the base ends in debt."""
    for outer, inner, ball in layers:
        need = 0
        for v, count in outer:
            if coeffs[v] < 0:
                # ceil(-coeffs[v] / count); count >= 1 by BFS layering
                need = max(need, -(coeffs[v] // count))
        if need:
            for v in ball:
                fires[v] += need
            for v, count in outer:
                coeffs[v] += need * count
            for v, count in inner:
                coeffs[v] -= need * count


def _round_to_base(g: "Graph", coeffs: list[int], fires: list[int], q: int) -> None:
    """Fire the integer part of the rational firing vector that would move
    every chip onto q.

    With t = deg(d) chips on q, d - t = L x has the unique solution x with
    x[0] = 0, namely x = adj (d - t)|_{v != 0} / det.  Firing f = floor(x)
    leaves t + L(x - f), whose coefficient at each v lies strictly
    between -deg(v) and deg(v).
    """
    adjugate, det = _laplacian_adjugate(g)
    rhs = coeffs[1:]
    if q:
        rhs[q - 1] -= sum(coeffs)
    f = [0]
    f.extend(sum(a * b for a, b in zip(row, rhs)) // det for row in adjugate)
    for v, nbrs in enumerate(g._adj):
        fires[v] += f[v]
        coeffs[v] -= len(nbrs) * f[v] - sum(f[w] for w in nbrs)


def _dhar_unburnt(adj, coeffs, q: int):
    """Vertices left unburnt by fire spreading from q, with the count of
    burnt neighbours of every vertex, or None if all burn.

    A vertex burns once the number of its burnt neighbours exceeds its
    coefficient.  The unburnt set S, when nonempty, can fire without
    driving any of its members negative; a member's count of burnt
    neighbours is its out-degree from S.
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
    return [v for v in range(n) if not burnt[v]], threat


def _reduce_coeffs(g: "Graph", coeffs: list[int], q: int) -> tuple[list[int], list[int]]:
    """Reduce coeffs (mutated in place) relative to base vertex q.

    Returns (reduced coefficients, firing counts), where the input minus
    the Laplacian of the firing counts equals the output.  Stage one
    clears debt off q by bulk-firing balls around q, farthest layer
    first.  If more than 2|E| chips then sit off q, stage two fires the
    rounded solution of the reduced Laplacian system that would put them
    all on q (this leaves fewer than 2|E| off q, in absolute value) and
    clears the debt that rounding left.  Stage three is Dhar's burning
    loop, which fires each unburnt set as many times in a row as it
    stays effective, until no subset can fire.  Each step is a sequence
    of legal firings, so the loop ends, and the number of burning rounds
    does not grow with the chip count.

    The firing counts are unique up to a constant, and are shifted so
    that q's count is the one stage one gives (stage three never fires
    q): the counts a one-chip-per-round burning loop would return.
    """
    n = len(coeffs)
    adj = g._adj
    fires = [0] * n
    if n == 1:
        return coeffs, fires

    layers = _layers(g, q)
    _clear_debt(layers, coeffs, fires)
    fires_q = fires[q]
    if sum(coeffs) - coeffs[q] > 2 * len(g._edges_idx):
        _round_to_base(g, coeffs, fires, q)
        _clear_debt(layers, coeffs, fires)

    while True:
        burning = _dhar_unburnt(adj, coeffs, q)
        if burning is None:
            break
        unburnt, threat = burning
        in_set = [False] * n
        times = None
        for v in unburnt:
            in_set[v] = True
            if threat[v] and (times is None or coeffs[v] // threat[v] < times):
                times = coeffs[v] // threat[v]
        for v in unburnt:
            fires[v] += times
            for w in adj[v]:
                if not in_set[w]:
                    coeffs[v] -= times
                    coeffs[w] += times

    shift = fires_q - fires[q]
    if shift:
        fires = [c + shift for c in fires]
    return coeffs, fires


def q_reduce_with_witness(g: "Graph", d: Divisor, q: str) -> tuple[Divisor, VertexFunction]:
    """The unique q-reduced divisor equivalent to d, plus a witness f
    with reduced = d + laplacian_apply(f)."""
    _check_bound(g, d)
    qi = g.index_of(q)
    coeffs, fires = _reduce_coeffs(g, list(d.coeffs), qi)
    reduced = Divisor.from_coeffs(g, coeffs)
    witness = VertexFunction.from_values(g, tuple(-c for c in fires))
    return reduced, witness


def q_reduce(g: "Graph", d: Divisor, q: str) -> Divisor:
    return q_reduce_with_witness(g, d, q)[0]


def linearly_equivalent(g: "Graph", d1: Divisor, d2: Divisor) -> bool:
    """True iff d1 - d2 is principal.

    Decided by comparing reduced forms at the canonical base vertex
    (the first vertex in construction order); correct for any base by
    uniqueness of the reduced representative.
    """
    _check_bound(g, d1)
    _check_bound(g, d2)
    if d1.coeffs == d2.coeffs:
        return True
    if d1.degree != d2.degree:
        return False
    r1, _ = _reduce_coeffs(g, list(d1.coeffs), 0)
    r2, _ = _reduce_coeffs(g, list(d2.coeffs), 0)
    return r1 == r2


def _require_enumerable(k: int, n: int, cap: int | None) -> None:
    """Refuse up front when the C(k+n-1, n-1) effective divisors of
    degree k >= 0 on n vertices exceed the cap."""
    capv = _resolve_cap(cap)
    size = comb(k + n - 1, n - 1)
    if size > capv:
        raise EnumerationCapExceededError(
            f"linear system of degree {k} on {n} vertices needs {size} "
            f"effective divisors (cap {capv})",
            required=size,
            cap=capv,
        )


def linear_system(g: "Graph", d: Divisor, cap: int | None = None) -> frozenset[Divisor]:
    """All effective divisors linearly equivalent to d; empty for
    negative degree.  Reduces d once and walks the members by `_members`
    with one orbit per vertex, so the cost follows the members, not the
    C(k+n-1, n-1) candidates, though the cap still counts those.
    """
    _check_bound(g, d)
    k = d.degree
    if k < 0:
        return frozenset()
    n = len(g.vertices)
    _require_enumerable(k, n, cap)
    red, _ = _reduce_coeffs(g, list(d.coeffs), 0)
    members = _members(g._adj, red, [[v] for v in range(n)], k)
    return frozenset(Divisor.from_coeffs(g, e) for e in members)


def _drop_chip(adj, red: list[int], v: int) -> list[int]:
    """The 0-reduced form of red - v, where red is 0-reduced.

    Off the base, c is superstable iff deg - 1 - c is a recurrent
    sandpile with sink 0 (Baker-Shokrieh), so taking a chip from a
    vertex holding none is adding a grain to a recurrent configuration
    and stabilising: every vertex off the base in debt borrows (gains
    its degree, each neighbour loses one) until none is.  Each borrowing
    is a legal move, and the result is superstable again.  No BFS
    layering, debt stage or burning round is needed.
    """
    c = red.copy()
    c[v] -= 1
    if v == 0 or c[v] >= 0:
        return c
    # Every vertex off the base in debt is on the stack exactly once.
    stack = [v]
    while stack:
        u = stack.pop()
        nbrs = adj[u]
        c[u] += len(nbrs)
        for w in nbrs:
            c[w] -= 1
            if c[w] == -1 and w:
                stack.append(w)
        if c[u] < 0:
            stack.append(u)
    return c


def _members(adj, red: list[int], orbits: list[list[int]], k: int) -> list[tuple[int, ...]]:
    """The effective e of degree k, constant on each orbit, equivalent to
    the divisor whose 0-reduced form is red.

    e is built orbit by orbit, in increasing order, carrying the reduced
    form (the remainder) of red - e' for the part e' taken so far, chip
    by chip with `_drop_chip`.  A remainder negative at the base has an empty linear
    system, and stays empty, so it is not extended; a complete e is a
    member iff its remainder is zero.  The walk keeps its own stack of
    (remainder, lowest open orbit, chips left, (orbit, value) pairs).
    """
    found = []
    stack = [(red, 0, k, ())] if red[0] >= 0 else []
    while stack:
        rest, start, left, taken = stack.pop()
        if not left:
            if not any(rest):
                coeffs = [0] * len(red)
                for i, value in taken:
                    for v in orbits[i]:
                        coeffs[v] = value
                found.append(tuple(coeffs))
            continue
        for i in range(start, len(orbits)):
            orbit = orbits[i]
            child = rest
            for value in range(1, left // len(orbit) + 1):
                for v in orbit:
                    child = _drop_chip(adj, child, v)
                if child[0] < 0:
                    break
                stack.append((child, i + 1, left - value * len(orbit), taken + ((i, value),)))
    return found


def _empty_probe(g: "Graph", base: list[int], s: int) -> bool:
    """True iff some effective e of degree s leaves d - e with an empty
    linear system, where base is the 0-reduced form of d.

    Taking chips at vertex 0 leaves a 0-reduced divisor 0-reduced, so
    the walk covers only the part e' of e off vertex 0, and d - e is
    empty iff the reduced form of d - e' holds fewer than s - deg(e')
    chips at vertex 0.  Each e' is derived from e' minus one chip at its
    highest vertex by `_drop_chip`, so the walk never runs a full
    reduction.  The stack holds (reduced form, lowest vertex still open,
    chips left); an entry opens a higher vertex than the entry it came
    from, so the walk's depth is bounded by the vertex count, not by s.
    """
    if base[0] < s:
        return True
    adj = g._adj
    n = len(base)
    stack = [(base, 1, s)]
    while stack:
        red, start, left = stack.pop()
        for v in range(start, n):
            child = red
            for rest in range(left - 1, -1, -1):
                child = _drop_chip(adj, child, v)
                if child[0] < rest:
                    return True
                if rest and v + 1 < n:
                    stack.append((child, v + 1, rest))
    return False


def rank(g: "Graph", d: Divisor, cap: int | None = None) -> int:
    """Rank of the divisor class of d.

    -1 when the linear system of d is empty; otherwise the largest r
    such that removing any effective divisor of degree r leaves a
    nonempty linear system.  Nonemptiness of d - e is read off the sign
    of the reduced form at the base vertex.  The enumeration runs
    s = 1, 2, ... and stops at the first degree containing a witness e
    with empty system.  The probes of degree s are walked depth-first
    from the reduced form of d, one chip at a time and without
    recursion; each probe's reduced form comes from its parent's by a
    one-grain sandpile avalanche (`_drop_chip`), so d itself is the only
    divisor fully reduced.  The cap bounds the total count of probes up
    to the degree about to be walked.
    """
    _check_bound(g, d)
    if d.degree < 0:
        return -1
    capv = _resolve_cap(cap)
    n = len(g.vertices)
    base, _ = _reduce_coeffs(g, list(d.coeffs), 0)
    if base[0] < 0:
        return -1
    enumerated = 0
    s = 1
    while True:
        enumerated += comb(s + n - 1, n - 1)
        if enumerated > capv:
            raise EnumerationCapExceededError(
                f"rank probe at degree {s} needs {enumerated} effective divisors (cap {capv})",
                required=enumerated,
                cap=capv,
            )
        if _empty_probe(g, base, s):
            return s - 1
        s += 1
