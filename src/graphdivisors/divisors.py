"""Divisor arithmetic: Laplacian, reduced forms, linear systems, rank.

Everything is exact integer arithmetic.  `is_q_reduced` checks the
subset definition directly (2^(n-1) subsets) and serves as the reference
oracle; `q_reduce` computes the unique reduced representative and is the
fast path used by everything else.  It reads how often ball firings
must clear debt (`_debt_needs`); with few chips off the base it fires
them and finishes with Dhar's burning algorithm, firing each unburnt set
in bulk.  With many it fires nothing first: it jumps from the divisor
itself by the floor of the reduced Laplacian system's solution (the idea
behind Baker-Shokrieh's polynomial-time reduction), which never passes
the reduced form, and finishes by least borrowing (`_borrow`), one grain
at a time: no burning round, and the borrowings are bounded by a fact of
the graph, not by the chip count.
The table of BFS shells around each base vertex, the
reduced Laplacian's adjugate, the rank walk's vertex order (over a
rank-determining set) and the canonical divisor's coefficients are
facts of the graph (`graphs._fact`), computed once and kept on it.
The rank walk, the probe table
(`_probe_rows`) and `linear_system` reduce their divisor once and derive
every other reduced form from a parent's by a one-grain sandpile
avalanche (`_drop_chip`); `rank` walks d or K - d, whichever
Riemann-Roch makes cheaper.  The whole probe table, every probe of
degree <= 3, also decides whether r(d) = 2 (no probe of degree <= 2 is
empty, some probe of degree 3 is), so a classification reads rank 2
off it with no rank walk; it runs only when the cap admits all its
probes, exactly when a rank-2 walk would pass the cap.  Superstables
form a down-set, so taking a chip from a vertex off the base that holds one
needs no avalanche and leaves the base as it was: the two walks copy
such a child only to extend it, and never reduce it as a leaf.  The
rank walk also reads a child off its parent's sibling when that
sibling holds the parent's last chip, and settles a leaf next to a
base holding at least its degree in chips without reducing it, since
such an avalanche is one wave (Dhar's burning test).  The
enumerating operations (`linear_system`, `rank`, `is_q_reduced`)
refuse to start an enumeration above the cap; they never silently
truncate.  Every refusal is raised by `_refuse`, one
`EnumerationCapExceededError` of one shape, "<what> needs <required>
<unit> (cap <cap>)", carrying `required` and `cap`.  A cap is None
(the module limit) or a nonnegative int; `_resolve_cap` raises
ValueError for anything else.
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb
from operator import mul, neg
from typing import Iterable, Mapping, Sequence

from .errors import (
    EnumerationCapExceededError,
    GraphMismatchError,
    MissingVertexValueError,
)
from .graphs import Graph, _fact, _shells, genus

DEFAULT_ENUMERATION_CAP = 5_000_000


def _resolve_cap(cap: int | None) -> int:
    """The cap of one call: the module limit for None, else cap itself,
    which must be a nonnegative int (a bool is refused)."""
    if cap is None:
        return DEFAULT_ENUMERATION_CAP
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
        raise ValueError(f"cap must be a nonnegative integer, got {cap!r}")
    return cap


def _refuse(what: str, required: int, unit: str, capv: int) -> None:
    """Raise the one refusal of every enumeration past the cap."""
    raise EnumerationCapExceededError(f"{what} needs {required} {unit} (cap {capv})",
                                      required=required, cap=capv)


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
        if not isinstance(obj, Mapping):
            raise ValueError(f"divisor JSON must be an object, got {type(obj).__name__}")
        return cls(graph, obj)

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

    # Python answers d <= e with the reflected e >= d.
    def __ge__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        self._same_graph(other)
        return all(a >= b for a, b in zip(self.coeffs, other.coeffs))

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

    __slots__ = ("graph", "values")

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

    @classmethod
    def from_values(cls, graph: "Graph", values: Iterable[int]) -> "VertexFunction":
        f = object.__new__(cls)
        t = tuple(values)
        if len(t) != len(graph.vertices):
            raise MissingVertexValueError(f"expected {len(graph.vertices)} values, got {len(t)}")
        f.graph = graph
        f.values = t
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
        return hash((self.graph, self.values))

    def __repr__(self):
        return f"VertexFunction({self.as_dict()!r})"


def canonical_divisor(g: "Graph") -> Divisor:
    """The divisor with coefficient deg(v) - 2 at every vertex v."""
    return Divisor.from_coeffs(g, _fact(g, _canonical_coeffs))


def _canonical_coeffs(g: "Graph") -> tuple[int, ...]:
    return tuple(len(nbrs) - 2 for nbrs in g._adj)


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


def is_q_reduced(g: "Graph", d: Divisor, q: str, cap: int | None = None) -> bool:
    """Check the definition of q-reducedness by direct subset enumeration.

    d is q-reduced iff d(v) >= 0 for every v != q and every nonempty
    subset S avoiding q contains a vertex with d(v) < outdeg_S(v).
    This is the reference oracle; it is exponential in |V| on purpose,
    and refuses up front when its 2^(n-1) subsets exceed the cap.
    """
    _check_bound(g, d)
    capv = _resolve_cap(cap)
    qi = g.index_of(q)
    coeffs = d.coeffs
    n = len(coeffs)
    others = [v for v in range(n) if v != qi]
    if any(coeffs[v] < 0 for v in others):
        return False
    subsets = 1 << len(others)
    if subsets > capv:
        _refuse("the subset check", subsets, "subsets", capv)
    masks = [sum(1 << w for w in nbrs) for nbrs in g._adj]
    full = (1 << n) - 1
    for bits in range(1, subsets):
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


def _laplacian_adjugate(g: "Graph") -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adjugate, determinant) of the Laplacian with vertex 0's row and
    column removed; a fact of g.

    The determinant is the number of spanning trees (Kirchhoff).  The
    matrix is symmetric positive definite for a connected graph, so every
    leading minor is positive and fraction-free Gauss-Jordan elimination
    (Bareiss) needs no pivoting; every division in it is exact.  It ends
    with det times the identity on the left and the adjugate on the right.
    """
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
    return tuple(tuple(row[m:]) for row in rows), prev


def _debt_needs(table, coeffs: list[int]) -> list[int]:
    """needs[k]: how many times stage one fires the ball of the vertices
    nearer than shell k, so that no vertex off the base ends in debt.

    Working inwards, only the shell outside has fired into shell k by
    the time its need is taken, so each need is read off the input:
    shell k's vertex v holds coeffs[v] - needs[k + 1] * farther[v].
    """
    shells, nearer, farther = table
    needs = [0] * (len(shells) + 1)
    for k in range(len(shells) - 1, 0, -1):
        outside = needs[k + 1]
        need = 0
        for v in shells[k]:
            # ceil(debt / nearer[v]); nearer[v] >= 1 off the base
            owed = -((coeffs[v] - outside * farther[v]) // nearer[v])
            if owed > need:
                need = owed
        needs[k] = need
    return needs


def _clear_debt(table, needs: list[int], coeffs: list[int], fires: list[int]) -> None:
    """Fire the balls of stage one, farthest shell first, each needs[k]
    times (`_debt_needs`).

    Firing the ball of the vertices nearer than shell k moves chips only
    across the edges between shells k - 1 and k, so each need touches
    those two shells alone.  A vertex lies in the ball of every shell
    beyond its own, so its firing count is the running sum of their
    needs, added once when the stage, working inwards, reaches its shell.
    """
    shells, nearer, farther = table
    total = 0
    for k in range(len(shells) - 1, 0, -1):
        need = needs[k]
        if need:
            total += need
            for v in shells[k]:
                coeffs[v] += need * nearer[v]
            for v in shells[k - 1]:
                coeffs[v] -= need * farther[v]
        if total:
            for v in shells[k - 1]:
                fires[v] += total


def _round_to_base(g: "Graph", coeffs: list[int], q: int, base_fires: int) -> list[int]:
    """Fire f = floor(x) + base_fires, where x, zero at q, is the rational
    firing vector that would move every chip onto q; return f.

    With t = deg(d) chips on q, d - t = L x has a solution X / det with
    X = adj (d - t)|_{v != 0} and X[0] = 0, and the one with x[q] = 0 is
    (X - X[q]) / det; lowering X[q] by det * base_fires adds base_fires
    inside the floor.  L f = L floor(x), so one Laplacian pass fires it,
    leaving t + L(x - floor(x)): each coefficient lies strictly between
    -deg(v) and deg(v).
    """
    adjugate, det = _fact(g, _laplacian_adjugate)
    rhs = coeffs[1:]
    if q:
        rhs[q - 1] -= sum(coeffs)
    x = [0]
    x.extend(sum(map(mul, row, rhs)) for row in adjugate)
    xq = x[q] - det * base_fires
    f = [(xv - xq) // det for xv in x]
    for v, nbrs in enumerate(g._adj):
        coeffs[v] -= len(nbrs) * f[v] - sum(map(f.__getitem__, nbrs))
    return f


def _borrow(adj, coeffs: list[int], fires: list[int], q: int) -> None:
    """Let every vertex off q in debt borrow (gain its degree, each
    neighbour losing one) one grain at a time until none is; coeffs and
    fires change in place.

    Each step is a legal borrowing and q never borrows.  By least action
    every such order that ends with no debt off q makes the same counts,
    so this order borrows as a bulk one would.
    """
    # Every vertex off q in debt is on the stack exactly once.
    stack = [v for v, c in enumerate(coeffs) if c < 0 and v != q]
    while stack:
        u = stack.pop()
        nbrs = adj[u]
        fires[u] -= 1
        coeffs[u] += len(nbrs)
        for w in nbrs:
            coeffs[w] -= 1
            if coeffs[w] == -1 and w != q:
                stack.append(w)
        if coeffs[u] < 0:
            stack.append(u)


def _dhar_unburnt(adj, coeffs, q: int):
    """(unburnt vertices, burnt marks, counts of burnt neighbours) of fire
    spreading from q, or None if all burn.

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
    return [v for v in range(n) if not burnt[v]], burnt, threat


def _reduce_coeffs(g: "Graph", coeffs: list[int], q: int) -> tuple[list[int], list[int]]:
    """Reduce coeffs (mutated in place) relative to base vertex q.

    Returns (reduced coefficients, firing counts), where the input minus
    the Laplacian of the firing counts equals the output.  Stage one
    clears debt off q by bulk-firing balls around q, farthest shell
    first; `_debt_needs` reads each ball's count without firing, and q's
    count T is their sum.  If at most 2|E| chips sit off q after stage
    one, it fires (`_clear_debt`) and Dhar's burning loop follows, which
    fires each unburnt set as many times in a row as it stays effective,
    until no subset can fire.  It fires from the burn's own marks: each
    unburnt v loses times * threat[v] at once (its out-degree from the
    set), and each burnt neighbour gains times per edge.  Each step is a
    sequence of legal firings, so the loop ends.  Such small reductions
    never build the adjugate.

    With more chips off q nothing fires before the jump: `_round_to_base`
    fires floor(x) + T from the input, where x[q] = 0 would put every
    chip on q, and `_borrow` finishes, with no burning round.  Stage
    one's script less T is an integer script F zero at q, so a jump from
    its state fires floor(x) - F + T: the same totals and the same
    configuration.  Let d* be the reduced form and f* its firing vector
    with f*[q] = 0, and f = floor(x).
    - f >= f*: x - f* = L_q^-1 d*, where d* is effective off q and
      L_q^-1 >= 0 (Baker-Shokrieh), and f* is an integer.
    - Least action: f leaves d* fired h = f - f* >= 0 times, never at q,
      so borrowing at vertices in debt off q until none is stops after
      some u <= h borrowings (Fey-Levine-Peres).
    - Superstability: that leaves d* fired h - u >= 0 times, effective
      off q.  Were h - u not 0, each v in the set S where it is largest
      (q not in S) would lose at least outdeg_S(v) chips of d*, which a
      reduced d* cannot pay; so u = h, the result is d*, and each v
      borrows floor((L_q^-1 d*)[v]) <= (L_q^-1 (deg - 1))[v] times: a
      fact of the graph, not of the chip count.

    The firing counts are unique up to a constant.  Neither path fires
    q more than stage one would, so q's count is T: the counts a
    one-chip-per-round burning loop would return.
    """
    adj = g._adj
    table = _fact(g, _shells, q)
    needs = _debt_needs(table, coeffs)
    base_fires = sum(needs)
    # chips off q once stage one has fired q's ball needs[1] times
    if sum(coeffs) - coeffs[q] + needs[1] * len(adj[q]) > 2 * len(g._edges_idx):
        fires = _round_to_base(g, coeffs, q, base_fires)
        _borrow(adj, coeffs, fires, q)
        return coeffs, fires
    fires = [0] * len(coeffs)
    if base_fires:
        _clear_debt(table, needs, coeffs, fires)
    while True:
        burning = _dhar_unburnt(adj, coeffs, q)
        if burning is None:
            break
        unburnt, burnt, threat = burning
        times = None
        for v in unburnt:
            if threat[v] and (times is None or coeffs[v] // threat[v] < times):
                times = coeffs[v] // threat[v]
        for v in unburnt:
            fires[v] += times
            coeffs[v] -= times * threat[v]
            for w in adj[v]:
                if burnt[w]:
                    coeffs[w] += times
    return coeffs, fires


def q_reduce_with_witness(g: "Graph", d: Divisor, q: str) -> tuple[Divisor, VertexFunction]:
    """The unique q-reduced divisor equivalent to d, plus a witness f
    with reduced = d + laplacian_apply(f)."""
    _check_bound(g, d)
    qi = g.index_of(q)
    coeffs, fires = _reduce_coeffs(g, list(d.coeffs), qi)
    reduced = Divisor.from_coeffs(g, coeffs)
    witness = VertexFunction.from_values(g, map(neg, fires))
    return reduced, witness


def q_reduce(g: "Graph", d: Divisor, q: str) -> Divisor:
    return q_reduce_with_witness(g, d, q)[0]


def linearly_equivalent(g: "Graph", d1: Divisor, d2: Divisor) -> bool:
    """True iff d1 - d2 is principal.

    Decided by one reduction of d1 - d2 at the canonical base vertex
    (the first vertex in construction order): a divisor is principal
    iff its reduced form is 0, since 0 is reduced and the reduced
    representative of a class is unique.  A principal divisor has
    degree 0, so d1 and d2 of different degrees are refused before any
    reduction.
    """
    _check_bound(g, d1)
    _check_bound(g, d2)
    if d1.degree != d2.degree:
        return False
    reduced, _ = _reduce_coeffs(g, [a - b for a, b in zip(d1.coeffs, d2.coeffs)], 0)
    return not any(reduced)


def _require_enumerable(k: int, n: int, cap: int | None) -> None:
    """Refuse up front when the C(k+n-1, n-1) effective divisors of
    degree k >= 0 on n vertices exceed the cap."""
    capv = _resolve_cap(cap)
    size = comb(k + n - 1, n - 1)
    if size > capv:
        _refuse(f"linear system of degree {k} on {n} vertices", size, "effective divisors", capv)


def linear_system(g: "Graph", d: Divisor, cap: int | None = None) -> frozenset[Divisor]:
    """All effective divisors linearly equivalent to d; empty for
    negative degree.  Reduces d once and walks the members by `_members`
    with one orbit per vertex: each of its `_drop_chip` calls reaches a
    distinct effective divisor of degree at most k off vertex 0, so the
    work is at most the C(k+n-1, n-1) candidates that the cap counts.
    """
    _check_bound(g, d)
    capv = _resolve_cap(cap)
    k = d.degree
    if k < 0:
        return frozenset()
    n = len(g.vertices)
    _require_enumerable(k, n, capv)
    red, _ = _reduce_coeffs(g, list(d.coeffs), 0)
    members = _members(g._adj, red, [[v] for v in range(n)])
    return frozenset(Divisor.from_coeffs(g, e) for e in members)


def _drop_chip(adj, red: list[int], v: int) -> list[int]:
    """The 0-reduced form of red - v, where red is 0-reduced.

    Off the base, c is superstable iff deg - 1 - c is a recurrent
    sandpile with sink 0 (Baker-Shokrieh), so taking a chip from a
    vertex holding none is adding a grain to a recurrent configuration
    and stabilising: every vertex off the base in debt borrows (gains
    its degree, each neighbour loses one) until none is.  Each borrowing
    is a legal move, and the result is superstable again.  No BFS
    shells, debt stage or burning round are needed.
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


def _members(adj, red: list[int], orbits: list[list[int]]) -> list[tuple[int, ...]]:
    """The effective e, constant on each orbit, equivalent to the divisor
    whose 0-reduced form is red; `orbits[0]` holds vertex 0 first.

    e is built orbit by orbit over `orbits[1:]`, in increasing order,
    carrying the reduced form (the remainder) of red - e' for the part
    e' taken so far, chip by chip with `_drop_chip`.  A remainder
    negative at the base has an empty linear system, and stays empty,
    so it is not extended.  At every node the chips left can only go to
    `orbits[0]`, so the node completes in at most one way: the count
    must divide evenly, and dropping it at each of that orbit's other
    vertices must leave zero off the base (a chip at vertex 0 takes no
    avalanche).  With one orbit per vertex each drop reaches its own
    node, so the work is at most the C(k+n-1, n-1) candidates that
    `linear_system`'s cap counts.  The walk keeps its own stack of
    (remainder, lowest open orbit, chips left, (orbit, value) pairs).
    """
    found = []
    base, others = orbits[0], orbits[0][1:]
    stack = [(red, 1, sum(red), ())] if red[0] >= 0 else []
    while stack:
        rest, start, left, taken = stack.pop()
        last, spare = divmod(left, len(base))
        if not spare:
            child = rest
            for v in others:
                for _ in range(last):
                    child = _drop_chip(adj, child, v)
            if not any(child[1:]):
                coeffs = [0] * len(red)
                for i, value in taken + ((0, last),):
                    for v in orbits[i]:
                        coeffs[v] = value
                found.append(tuple(coeffs))
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


def rank(g: "Graph", d: Divisor, cap: int | None = None) -> int:
    """Rank of the divisor class of d, from the cheaper side of
    Riemann-Roch (Baker-Norine): r(d) - r(K - d) = deg(d) + 1 - g.

    From degree g - 1 up, r(K - d) <= r(d), and `_rank_walk` walks
    K - d with its limit lowered by delta = deg(d) + 1 - g, which it
    then adds back.  Below g - 1 it walks d.  The walk's cost grows with
    the rank it certifies, so each branch certifies the smaller of the
    two ranks.  Above 2g - 2 the walk of K - d returns at once: K - d
    has negative degree, so its rank is -1 and r(d) = deg(d) - g.  Both
    branches refuse exactly where the walk of d would, with the same
    message, `required` and `cap`: past the cap iff r(d) >= s - 1 (see
    `_rank_walk`).
    """
    _check_bound(g, d)
    k = d.degree
    gen = genus(g)
    if k < gen - 1:
        return _rank_walk(g, d, cap)
    delta = k + 1 - gen
    return _rank_walk(g, canonical_divisor(g) - d, cap, delta) + delta


def _refusal_degree(n: int, capv: int) -> int:
    """The least s >= 1 whose C(s+n, n) - 1 probes of degrees 1..s on n
    vertices exceed the cap: doubling, then bisection."""
    hi = 1
    while comb(hi + n, n) - 1 <= capv:
        hi *= 2
    return bisect_left(range(hi), True, (hi + 1) // 2, key=lambda t: comb(t + n, n) - 1 > capv)


def _rank_walk(g: "Graph", d: Divisor, cap: int | None = None, shift: int = 0) -> int:
    """Rank of the divisor class of d by one branch-and-bound walk,
    refusing as a divisor of rank r(d) + shift would.  Its callers,
    `rank` and `galois.riemann_roch_check`, check that d is bound to g.

    -1 when the linear system of d is empty; otherwise the largest r
    such that removing any effective divisor of degree r leaves a
    nonempty linear system.  The padding bound (`_probe_rows` uses it
    too): taking chips at vertex 0 keeps a 0-reduced form 0-reduced, so
    if the reduced form of d - e' holds c0 chips there, where e' of
    degree j avoids vertex 0, then e' plus t chips at vertex 0 is an
    empty probe iff c0 < t: r <= j - 1 when c0 < 0, r <= c0 + j
    otherwise, and r is the least such bound.
    d is reduced once, and one depth-first branch-and-bound walk with
    its own stack visits each e' at most once, its reduced form one
    `_drop_chip` from its parent's.  Every e' above one of degree j
    bounds r by at least j, so a node is extended only while j is below
    the bound, and its children stop at an empty one.

    The walk order: e' is taken as a multiset with nondecreasing
    positions in one order of the vertices off the base, a fact of g:
    the non-neighbours of vertex 0 first, then its neighbours, each
    group by ascending degree.  A node's children range over the
    positions from its own on, so the tail of the order shows up in the
    most ranges; it holds the children that most often come free,
    next to the base (the one-wave rule) and of high degree, likelier to
    hold a chip (the leaf rule).  Any order gives the same answer.
    The order holds only the vertices off the base of a rank-determining
    set A (`_walk_order`; Luo, JCTA 2011, on the metric graph of g, whose
    ranks are those of g by Hladký-Král'-Norine, JCTA 2013), so r is the
    least bound over the probes supported on A.  A keeps vertex 0, where
    the padding bound puts its chips, and leaves out most degree-2
    vertices.  The rules below are stated over positions in the order.

    The leaf rule (`_probe_rows` uses it too): a child that takes its
    chip from a vertex v holding one (red[v] > 0) needs no avalanche:
    superstables form a down-set (Baker-Shokrieh), so its reduced form
    is red less that chip, with red[0] chips at the base.  It is
    nonempty, and it cannot lower the bound, since every node on the
    stack was pushed with bound <= red[0] + j and the bound only falls.
    So once a node's children cannot be extended, those children are
    skipped, and only the ones with red[v] = 0 are reduced, for the two
    bound updates; higher up they are plain copies.  Every `_drop_chip`
    call of the walk is an avalanche.

    The sibling rule: each stack entry carries its parent's row, the
    reduced forms of the parent's children by position.  For a node P =
    G + p of degree j and a child C = P + v with v at or after p, S =
    G + v is a sibling of P reduced in that row, and C = S + p; so when
    S holds a chip at p, red(C) is red(S) less that chip, by the leaf
    rule from S.  It keeps the chips of S at the base, and S was pushed
    with bound <= those chips + j, so like a leaf-rule child it can be
    neither empty nor lower the bound, and it is skipped at leaf level.
    G filled its row at every position from p's on unless it stopped at
    an empty child, and then bound = j - 1 cuts P.  The walk keeps one
    row per node on its path.

    The one-wave rule: at leaves (j + 1 >= bound) only a child's
    emptiness matters, since a nonempty child cannot lower the bound.
    If red[0] >= deg(0) and v is a neighbour of vertex 0, which the
    order holds from position `split` on, the child is not empty.  Off
    the base, sigma = deg - 1 - red is recurrent, and sigma + e_v <=
    sigma + beta, where beta counts each vertex's edges to vertex 0.
    By Dhar's burning test (PRL 1990) sigma + beta topples every vertex
    exactly once, and by the abelian property a smaller configuration
    topples no vertex more often; so in red - v each vertex borrows at
    most once, and the base loses at most deg(0) chips.

    The cap counts the C(s+n, n) - 1 probes of degrees 1..s.  At the
    least s where that exceeds the cap, the refusal degree, the call
    refuses iff r + shift >= s - 1, that is iff a probe of degree
    s - shift would be needed.  The bound only falls, so s is worked
    out once, and only when the starting bound plus shift is past the
    cap (one `comb` test); the bound is then lowered to s - shift - 1.
    The walk never goes past that degree, and a final bound still there
    refuses through `_refuse` whatever r is, while one below it is r.
    With shift 0 that is the walk of d itself; `rank` walks K - d with
    shift deg(d) + 1 - g, so it refuses iff r(d) >= s - 1 and walks no
    further than the walk of d would.

    The floor: a reduced form's part off the base is superstable, of
    degree at most g, so r >= deg(d) - g (Baker-Norine), and the walk
    stops once the bound is there, at a node or at the child that moved
    it.  A bound that reaches the floor is r; a cap-lowered one at or
    below it was the final bound anyway, so refusals do not move.
    """
    capv = _resolve_cap(cap)
    n = len(g.vertices)
    bound, stack = -1, []
    if d.degree >= 0:
        base, _ = _reduce_coeffs(g, list(d.coeffs), 0)
        if base[0] >= 0:
            bound, stack = base[0], [(base, 0, 0, None)]
    # Certifying r >= 0 takes a probe of degree r + 1, past the cap iff
    # the probes of degrees 1..r+1 exceed it.
    s = None
    if bound + shift >= 0 and comb(bound + shift + 1 + n, n) - 1 > capv:
        s = _refusal_degree(n, capv)
        bound = s - shift - 1
    adj = g._adj
    deg0 = len(adj[0])
    order, split = _fact(g, _walk_order)
    m = len(order)
    floor = d.degree - genus(g)
    while stack and bound > floor:
        red, i, j, row = stack.pop()
        if j >= bound:
            continue
        leaves = j + 1 >= bound
        wave = leaves and red[0] >= deg0
        kids = None if leaves else [None] * m
        p = order[i] if row else None
        for b in range(i, m):
            v = order[b]
            if red[v]:
                if leaves:
                    continue
                child = red.copy()
                child[v] -= 1
            elif row and row[b][p]:
                if leaves:
                    continue
                child = row[b].copy()
                child[p] -= 1
            elif wave and b >= split:
                continue
            else:
                child = _drop_chip(adj, red, v)
                c0 = child[0]
                if c0 < 0:
                    bound = j
                    break
                if c0 + j + 1 < bound:
                    bound = c0 + j + 1
                    if bound <= floor:
                        break
            if not leaves:
                kids[b] = child
                stack.append((child, b, j + 1, kids))
    if s is not None and bound + shift >= s - 1:
        _refuse(f"rank probe at degree {s}", comb(s + n, n) - 1, "effective divisors", capv)
    return bound


def _walk_order(g: "Graph") -> tuple[list[int], int]:
    """The rank walk's order of the vertices off the base that it probes
    (`_rank_walk`), and the count of vertex 0's non-neighbours in it,
    which come first; a fact of g.

    Those are the vertices of A off the base, a rank-determining set:
    ranks on g equal ranks on its metric graph (Hladký-Král'-Norine,
    JCTA 2013), where the vertex set of any loopless model is
    rank-determining (Luo, JCTA 2011).  A keeps vertex 0 and every
    vertex of degree other than 2; each maximal chain of degree-2
    vertices then joins two of those, an edge of the model, or closes
    on one, and keeps its lowest vertex so that the model has no loop.
    """
    adj, near0 = g._adj, set(g._adj[0])
    keep = [v == 0 or len(nbrs) != 2 for v, nbrs in enumerate(adj)]
    seen = keep.copy()
    for v in range(1, len(adj)):
        if seen[v]:
            continue
        ends = []
        for w in adj[v]:
            prev = v
            while not keep[w]:
                seen[w] = True
                prev, w = w, adj[w][adj[w][0] == prev]
            ends.append(w)
        keep[v] = ends[0] == ends[1]
    probed = [v for v in range(1, len(adj)) if keep[v]]
    return sorted(probed, key=lambda v: (v in near0, len(adj[v]))), sum(v not in near0 for v in probed)


def _probe_rows(g: "Graph", d: Divisor, rows: Sequence[int],
                cap: int | None = None) -> list[tuple[list[bool], list[int]]] | None:
    """For a rank-2 divisor d and each vertex index p in `rows`, the
    flags of the q with r(d - p - q) = 0 and the 0-reduced d - p.

    r(d - p - q) = 0 iff some d - p - q - v is empty, as removing a
    vertex lowers the rank by at most one and r(D) = 1 + min_v r(D - v)
    for nonempty |D|.  d is reduced once; the walk takes each multiset
    e' of at most three chips off vertex 0 one `_drop_chip` from its
    parent, reads the probes e' padded with vertex 0 by the padding
    bound and spares leaves by the leaf rule (both in `_rank_walk`),
    and uses no other rule of that walk.  One row p visits only the
    multisets through p; more visit all.

    All the rows also decide whether r(d) = 2, so d need not be known to
    have rank 2: r(d) = 2 iff no probe of degree <= 2 is empty and some
    probe of degree 3 is (Baker-Norine), and the table holds every probe
    of degree <= 3.  It is None when r(d) is not 2, from the first empty
    probe of degree <= 2 on, and when its C(n+3, n) - 1 probes exceed
    the cap; it refuses nothing.  The walk of a rank-2 d refuses iff
    that count exceeds the cap (`_rank_walk`), so a None from the cap
    falls back to a `rank` that refuses as before.
    """
    adj = g._adj
    n = len(adj)
    one = len(rows) == 1
    if not one and comb(n + 3, n) - 1 > _resolve_cap(cap):
        return None
    red, _ = _reduce_coeffs(g, list(d.coeffs), 0)
    zero = [[False] * n for _ in range(n)]
    dps = [None] * n

    def mark(p, q, v):
        zero[p][q] = zero[q][p] = zero[p][v] = zero[v][p] = zero[q][v] = zero[v][q] = True

    # In the whole table, a count at vertex 0 below the padding less one
    # is an empty probe of degree <= 2, so r(d) < 2.
    if not one and red[0] < 3:
        if red[0] < 2:
            return None
        mark(0, 0, 0)
    for p in rows if one else range(1, n):
        dp = dps[p] = _drop_chip(adj, red, p)
        if dp[0] < 2:
            if dp[0] < 1 and not one:
                return None
            mark(p, 0, 0)
        for q in range(1 if one else p, n):
            dpq = _drop_chip(adj, dp, q)
            if dpq[0] < 1:
                if dpq[0] < 0 and not one:
                    return None
                mark(p, q, 0)
            for v in range(q, n):
                c0 = dpq[0] if dpq[v] else _drop_chip(adj, dpq, v)[0]
                if c0 < 0:
                    mark(p, q, v)
    if not (one or any(map(any, zero))):
        return None
    return [(zero[p], dps[p] or _drop_chip(adj, red, p)) for p in rows]
