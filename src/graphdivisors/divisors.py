"""Divisor arithmetic: Laplacian, reduced forms, linear systems, rank.

Everything is exact integer arithmetic.  `is_q_reduced` checks the
subset definition directly (2^(n-1) subsets) and serves as the reference
oracle; `q_reduce` computes the unique reduced representative with the
burning algorithm and is the fast path used by everything else.  The
enumerating operations (`linear_system`, `rank`) refuse, via
`EnumerationCapExceededError`, to start an enumeration above the cap;
they never silently truncate.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

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


def _reduce_coeffs(g: "Graph", coeffs: list[int], q: int) -> tuple[list[int], list[int]]:
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


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


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
    """All effective divisors linearly equivalent to d.

    Enumerates every effective divisor of degree deg(d) and keeps those
    with the same reduced form as d.  Empty for negative degree.
    """
    _check_bound(g, d)
    k = d.degree
    if k < 0:
        return frozenset()
    n = len(g.vertices)
    _require_enumerable(k, n, cap)
    target, _ = _reduce_coeffs(g, list(d.coeffs), 0)
    members = []
    for e in _compositions(k, n):
        red, _ = _reduce_coeffs(g, list(e), 0)
        if red == target:
            members.append(Divisor.from_coeffs(g, e))
    return frozenset(members)


def rank(g: "Graph", d: Divisor, cap: int | None = None) -> int:
    """Rank of the divisor class of d.

    -1 when the linear system of d is empty; otherwise the largest r
    such that removing any effective divisor of degree r leaves a
    nonempty linear system.  Nonemptiness of d - e is read off the sign
    of the reduced form at the base vertex, so each probe costs one
    reduction; the enumeration runs s = 1, 2, ... and stops at the first
    degree containing a witness e with empty system.
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
        for e in _compositions(s, n):
            probe = [base[i] - e[i] for i in range(n)]
            red, _ = _reduce_coeffs(g, probe, 0)
            if red[0] < 0:
                return s - 1
        s += 1
