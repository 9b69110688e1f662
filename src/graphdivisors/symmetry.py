"""Graph automorphisms, subgroups, quotients, and harmonic actions.

Permutations are stored as tuples of vertex indices; groups as frozen
sets of such tuples.  All search results are returned in a fixed sorted
order so repeated runs are byte-identical.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from math import factorial, lcm
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .divisors import Divisor
from .errors import (
    GraphMismatchError,
    InvalidMorphismError,
    SizeCapExceededError,
    UnknownEndpointError,
    UnknownVertexError,
)
from .graphs import Graph, _value_type

DEFAULT_AUTOMORPHISM_VERTEX_CAP = 10
DEFAULT_HARMONIC_DEFINITION_CAP = 48


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p after q: (p * q)(v) = p(q(v))."""
    return tuple([p[x] for x in q])


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def _perm_order(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = p[v]
            length += 1
        order = lcm(order, length)
    return order


class Automorphism:
    """Adjacency-preserving bijection on the vertices of one graph."""

    __slots__ = ("graph", "perm")

    def __init__(self, graph: Graph, perm: tuple[int, ...], _checked: bool = False):
        if not _checked:
            n = len(graph.vertices)
            if len(perm) != n or sorted(perm) != list(range(n)):
                raise InvalidMorphismError(f"{perm!r} is not a permutation of {n} vertices")
            for i, j in graph._edges_idx:
                if perm[j] not in graph._adj[perm[i]]:
                    raise InvalidMorphismError(
                        f"edge {{{graph.vertices[i]!r}, {graph.vertices[j]!r}}} maps to a non-edge"
                    )
        self.graph = graph
        self.perm = perm

    @classmethod
    def identity(cls, graph: Graph) -> "Automorphism":
        return cls(graph, tuple(range(len(graph.vertices))), _checked=True)

    @classmethod
    def from_mapping(cls, graph: Graph, mapping: Mapping[str, str]) -> "Automorphism":
        n = len(graph.vertices)
        perm = [-1] * n
        for src, dst in mapping.items():
            perm[graph.index_of(src)] = graph.index_of(dst)
        if -1 in perm:
            missing = graph.vertices[perm.index(-1)]
            raise InvalidMorphismError(f"mapping gives no image for vertex {missing!r}")
        return cls(graph, tuple(perm))

    def __call__(self, label: str) -> str:
        return self.graph.vertices[self.perm[self.graph.index_of(label)]]

    def __mul__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        if self.graph != other.graph:
            raise GraphMismatchError("automorphisms of different graphs cannot be composed")
        return Automorphism(self.graph, _compose(self.perm, other.perm), _checked=True)

    def inverse(self) -> "Automorphism":
        return Automorphism(self.graph, _invert(self.perm), _checked=True)

    @property
    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.perm))

    def order(self) -> int:
        return _perm_order(self.perm)

    def cycles(self) -> tuple[tuple[str, ...], ...]:
        """Nontrivial cycles, each starting at its smallest vertex index."""
        seen = [False] * len(self.perm)
        out = []
        for start in range(len(self.perm)):
            if seen[start] or self.perm[start] == start:
                seen[start] = True
                continue
            cyc = []
            v = start
            while not seen[v]:
                seen[v] = True
                cyc.append(self.graph.vertices[v])
                v = self.perm[v]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_notation(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(c) + ")" for c in cycs)

    def mapping(self) -> dict[str, str]:
        return {v: self.graph.vertices[self.perm[i]] for i, v in enumerate(self.graph.vertices)}

    to_json = mapping

    @classmethod
    def from_json(cls, graph: Graph, obj: Mapping[str, str]) -> "Automorphism":
        if not isinstance(obj, Mapping):
            raise InvalidMorphismError(f"automorphism JSON must be an object, got {type(obj).__name__}")
        return cls.from_mapping(graph, obj)

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.graph == other.graph and self.perm == other.perm

    def __hash__(self):
        return hash((self.graph, self.perm))

    def __repr__(self):
        return f"Automorphism({self.cycle_notation()})"


def apply_to_divisor(sigma: Automorphism, d: Divisor) -> Divisor:
    """Transport coefficients along sigma: result(sigma(v)) = d(v)."""
    if sigma.graph != d.graph:
        raise GraphMismatchError("automorphism and divisor are bound to different graphs")
    out = [0] * len(d.coeffs)
    for i, c in enumerate(d.coeffs):
        out[sigma.perm[i]] = c
    return Divisor.from_coeffs(d.graph, out)


class Subgroup:
    """A finite set of automorphisms of one graph, closed under composition."""

    __slots__ = ("graph", "perms")

    def __init__(self, graph: Graph, perms: frozenset[tuple[int, ...]], _checked: bool = False):
        if not _checked:
            identity = tuple(range(len(graph.vertices)))
            if identity not in perms:
                raise ValueError("a subgroup must contain the identity")
            for p in perms:
                Automorphism(graph, p)  # validates
            for p in perms:
                for q in perms:
                    if _compose(p, q) not in perms:
                        raise ValueError("element set is not closed under composition")
        self.graph = graph
        self.perms = perms

    @classmethod
    def trivial(cls, graph: Graph) -> "Subgroup":
        return cls(graph, frozenset({tuple(range(len(graph.vertices)))}), _checked=True)

    @classmethod
    def from_elements(cls, graph: Graph, elements: Iterable) -> "Subgroup":
        perms = frozenset(_as_perm(graph, e) for e in elements)
        return cls(graph, perms | {tuple(range(len(graph.vertices)))})

    @classmethod
    def from_generators(cls, graph: Graph, generators: Iterable) -> "Subgroup":
        gens = [_as_perm(graph, e) for e in generators]
        for p in gens:
            Automorphism(graph, p)  # validates
        # No larger than the largest group `automorphism_group` lists.
        cap = factorial(DEFAULT_AUTOMORPHISM_VERTEX_CAP)
        closure = _closure(gens, len(graph.vertices), cap)
        if closure is None:
            raise SizeCapExceededError(
                f"subgroup generation is capped at {cap} elements "
                f"({DEFAULT_AUTOMORPHISM_VERTEX_CAP}!), the generators give more"
            )
        return cls(graph, closure, _checked=True)

    @property
    def order(self) -> int:
        return len(self.perms)

    @property
    def elements(self) -> tuple[Automorphism, ...]:
        return tuple(Automorphism(self.graph, p, _checked=True) for p in sorted(self.perms))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.perms)

    def __contains__(self, item) -> bool:
        if isinstance(item, Automorphism):
            return item.graph == self.graph and item.perm in self.perms
        if isinstance(item, tuple):
            return item in self.perms
        return False

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.graph == other.graph and self.perms == other.perms

    def __hash__(self):
        return hash((self.graph, self.perms))

    def __repr__(self):
        return f"Subgroup(order {len(self.perms)})"

    def to_json(self) -> list[dict[str, str]]:
        return [a.mapping() for a in self.elements]

    @classmethod
    def from_json(cls, graph: Graph, obj: Iterable[Mapping[str, str]]) -> "Subgroup":
        if not isinstance(obj, (list, tuple)):
            raise InvalidMorphismError(f"subgroup JSON must be a list, got {type(obj).__name__}")
        return cls.from_elements(graph, obj)


def _as_perm(graph: Graph, e) -> tuple[int, ...]:
    if isinstance(e, Automorphism):
        if e.graph != graph:
            raise GraphMismatchError("automorphism is bound to a different graph")
        return e.perm
    if isinstance(e, tuple):
        return e
    if isinstance(e, Mapping):
        return Automorphism.from_mapping(graph, e).perm
    raise InvalidMorphismError(f"cannot interpret {e!r} as an automorphism")


def _closure(gens: list[tuple[int, ...]], n: int, cap: int) -> frozenset | None:
    """Group generated by gens; None if the size passes cap."""
    identity = tuple(range(n))
    elems = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            for gpm in gens:
                b = _compose(a, gpm)
                if b not in elems:
                    if len(elems) >= cap:
                        return None
                    elems.add(b)
                    new.append(b)
        frontier = new
    return frozenset(elems)


def automorphism_group(g: Graph) -> Subgroup:
    """The full automorphism group of g, found by `_automorphisms`
    with no bound or prune beyond adjacency."""
    return Subgroup(g, frozenset(_automorphisms(g)()), _checked=True)


def _automorphisms(g: Graph, m: int | None = None,
                   pin: int | None = None) -> Callable[..., Iterator[tuple[int, ...]]]:
    """Return search(last=None, rest=()), a function that yields, lazily
    and in sorted order, the automorphisms x of g after `last` with
    x*c > x and c*x > x for every permutation c in `rest`.  Given m, it
    yields only the non-identity ones whose order divides m and that fix
    no vertex together with a neighbour; given pin, only those fixing
    that vertex, and every c in `rest` must then fix it too.  The vertex
    cap `DEFAULT_AUTOMORPHISM_VERTEX_CAP`, read at the call, is checked
    and the tables of g, its adjacency bit masks among them, are built
    here, once for all the searches the function starts.

    Exhaustive by construction: a backtracking search that gives vertex
    0, 1, ... its image in turn, smallest first, pruned to same-degree
    images and adjacency-consistent partial maps.  Given m, vertex i may
    not stay put next to a fixed neighbour, and i -> c may not close a
    cycle (c, images[c], ..., i) whose length does not divide m.  Every
    cycle closes at its last vertex and every fixed pair is seen at its
    later end, so no prune drops a wanted automorphism.  The pinned
    vertex is mapped to itself and marked fixed before the search
    starts.

    Each bound is decided by a prefix of x, and is tested there:
    - x > last: while the images so far are those of last, the next one
      is at least last's, and a map equal to last is not yielded.
    - x*c > x: the two first differ at c's first moved point v, so this
      holds iff x(v) < x(c(v)).  As c fixes every point below v,
      c(v) > v, and the test is made when the image of c(v) is chosen.
    - c*x > x: the two first differ at the first i for which c moves
      x(i), so this holds iff c(x(i)) > x(i) there.  So while c fixes
      every image taken so far, no image y with c(y) < y may be chosen.
      The image of pin, taken first, is one that c fixes.
    The recursive step takes itself as its first argument, so no closure
    refers to a search, and reference counting frees it whether it is
    run out, dropped mid-way or never started.
    """
    n = len(g.vertices)
    cap = DEFAULT_AUTOMORPHISM_VERTEX_CAP
    if n > cap:
        raise SizeCapExceededError(
            f"automorphism search is capped at {cap} vertices, graph has {n}"
        )
    masks = [sum(1 << j for j in a) for a in g._adj]
    degrees = [len(a) for a in g._adj]
    lower = [[j for j in a if j < i or j == pin] for i, a in enumerate(g._adj)]
    identity = tuple(range(n))
    start = 0 if pin is None else 1 << pin

    def search(last: tuple[int, ...] | None = None, rest=()) -> Iterator[tuple[int, ...]]:
        images = list(identity)
        below: list[list[int]] = [[] for _ in identity]  # c(v) -> first moved points v
        moved = []  # per c in rest: masks of the points it moves, and moves down
        for c in rest:
            v = next(v for v in identity if c[v] != v)
            below[c[v]].append(v)
            moved.append((sum(1 << y for y in identity if c[y] != y),
                          sum(1 << y for y in identity if c[y] < y)))

        def extend(extend, i: int, taken: int, fixed: int, tight: bool):
            # taken and fixed: bit masks of the images so far and of the
            # fixed points so far.  c fits adjacency iff its neighbours
            # among the taken images are exactly the images of i's
            # neighbours.  tight: the images so far are those of last.
            if i == pin:
                i += 1
            if i == n:
                x = tuple(images)
                if not tight and (m is None or x != identity):
                    yield x
                return
            want = 0
            for j in lower[i]:
                want |= 1 << images[j]
            free = ~taken & (1 << n) - 1
            if tight:
                free &= -1 << last[i]
            if rest:
                for v in below[i]:
                    free &= -2 << images[v]
                for moves, downs in moved:
                    if not moves & taken:  # c has moved no image so far
                        free &= ~downs
            while free:  # the allowed untaken images, lowest first
                bit = free & -free
                free ^= bit
                c = bit.bit_length() - 1
                if degrees[c] != degrees[i] or masks[c] & taken != want:
                    continue
                if m is not None:
                    if c == i and masks[i] & fixed:
                        continue
                    x, length = c, 1
                    while x < i:
                        x, length = images[x], length + 1
                    if x == i and m % length:
                        continue
                images[i] = c
                if i == n - 1:  # a whole map: yield it here, not one call deeper
                    x = tuple(images)
                    if not (tight and c == last[i]) and (m is None or x != identity):
                        yield x
                else:
                    yield from extend(extend, i + 1, taken | bit, fixed | (c == i) << i,
                                      tight and c == last[i])

        return extend(extend, 0, start, start, last is not None)

    return search


def orbit(h: Subgroup, v: str) -> frozenset[str]:
    i = h.graph.index_of(v)
    return frozenset(h.graph.vertices[p[i]] for p in h.perms)


def stabilizer(h: Subgroup, v: str) -> Subgroup:
    i = h.graph.index_of(v)
    return Subgroup(h.graph, frozenset(p for p in h.perms if p[i] == i), _checked=True)


def _vertex_orbits(h: Subgroup) -> list[list[int]]:
    """The vertex orbits of h as sorted index lists, by smallest member."""
    n = len(h.graph.vertices)
    seen = [False] * n
    orbits = []
    for v in range(n):
        if not seen[v]:
            members = sorted({p[v] for p in h.perms})
            for w in members:
                seen[w] = True
            orbits.append(members)
    return orbits


def _divisors_of(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def subgroups_of_order(full: Subgroup, m: int) -> tuple[Subgroup, ...]:
    """All subgroups of `full` with exactly m elements, sorted by their
    sorted element tuples.  Returns () whenever m does not divide the
    group order."""
    if m < 1:
        raise ValueError(f"subgroup order must be positive, got {m}")
    if len(full.perms) % m:
        return ()
    n = len(full.graph.vertices)
    identity = tuple(range(n))
    # A subgroup of order m holds only elements whose order divides m.
    pool = [x for x in full.perms if x != identity and m % _perm_order(x) == 0]
    return tuple(Subgroup(full.graph, h, _checked=True)
                 for h in _subgroups_in_order(*_drawn(pool, n), m, n))


def _drawn(pool: Iterable[tuple[int, ...]], n: int):
    """search(last, rest) and fits(y) over a pool of permutations of n
    points, drawn and sorted here once.  search yields the pool elements
    after `last`, in order, that map the first point v each c in `rest`
    moves below c(v), as x*c > x asks; fits says whether y is the
    identity or in the pool."""
    elements = sorted(pool)
    fits = {tuple(range(n)), *elements}.__contains__

    def search(last: tuple[int, ...], rest) -> list[tuple[int, ...]]:
        xs = elements[bisect_right(elements, last):]
        for v, w in {next((v, w) for v, w in enumerate(c) if v != w) for c in rest}:
            xs = [x for x in xs if x[v] < x[w]]
        return xs

    return search, fits


def _subgroups_in_order(search: Callable[..., Iterable[tuple[int, ...]]],
                        fits: Callable[[tuple[int, ...]], bool], m: int, n: int):
    """Yield lazily, in sorted order, the order-m groups of permutations
    of n points whose non-identity elements all lie in a pool.

    The pool holds distinct non-identity elements whose orders divide
    m.  search(last, rest), as returned by `_automorphisms` or
    `_drawn`, yields in sorted order the pool elements x after `last`,
    at least those with x*c > x and c*x > x for every c in `rest`; it
    is called afresh at every group.  fits(y) says exactly whether the
    product y of pool elements is the identity or in the pool.  Each
    element's smallest power is worked out once per call, when a
    candidate first reaches it: an element with a power below itself
    can only extend a group holding that power.

    Every group H is reached exactly once, along its chain
    g1 < g2 < ... where g(i+1) is the smallest element of H outside
    C = <g1..gi>.  So a candidate x at group C must exceed the last
    generator, and <C, x> may hold no element below x that C lacks, nor
    any element outside the pool.  For every c in C other than the
    identity, the products x*c and c*x lie in <C, x> but not in C, so
    both must exceed x: the search bounds drop only candidates that the
    product test below would refuse, and they leave the groups and
    their order as they are.  That also keeps out every x in C, as
    x^-1 * x is the identity.  The search runs depth first over
    candidates in increasing order; two groups that first differ in the
    next generator x < x' agree below x, and only the first holds x, so
    groups come out sorted.  As in `_automorphisms`, the recursive step
    takes itself as an argument, so the search frees itself.
    """
    identity = tuple(range(n))
    lows: dict = {}  # element -> its smallest power

    def low_of(x: tuple) -> tuple:
        # The smallest of the non-identity powers of x, x included.
        low = lows.get(x)
        if low is None:
            low, power = x, _compose(x, x)
            while power != identity:
                low, power = min(low, power), _compose(power, x)
            lows[x] = low
        return low

    def extend(extend, gens: list, group: frozenset, last: tuple):
        if len(group) == m:
            yield group
            return
        rest = [c for c in group if c != identity]
        for x in search(last, rest):
            low = low_of(x)
            if low != x and low not in group:
                continue
            for c in rest:
                cx = _compose(c, x)
                if cx < x or not fits(cx) or not fits(_compose(x, c)):
                    break
            else:
                h = _closure(gens + [x], n, cap=m)
                if h is None or m % len(h) or any(
                        y < x and y not in group or not fits(y) for y in h):
                    continue
                yield from extend(extend, gens + [x], h, x)

    yield from extend(extend, [], frozenset({identity}), identity)


def _harmonic_subgroups(g: Graph, m: int, pin: int | None = None) -> Iterator[frozenset]:
    """The subgroups of order m of Aut(g) that act harmonically, lazily
    and in sorted order; given the vertex index pin, only those fixing
    it.  Harmonicity holds for a group iff it holds for each element,
    so the groups are built from the admissible elements that
    `_automorphisms(g, m=m)` finds, without building Aut(g).

    Given pin, every group the subgroup search reaches starts its own
    search pinned at pin, bounded by that group; without pin, `_drawn`
    serves every group from the pool drawn at the first read.  Either
    way the vertex cap is checked at this call, and the tables of g are
    built once.
    """
    n = len(g.vertices)
    search = _automorphisms(g, m=m, pin=pin)
    if pin is None:
        # A generator expression, so the pool is drawn at the first read.
        return (h for pool in [search()] for h in _subgroups_in_order(*_drawn(pool, n), m, n))
    identity = tuple(range(n))
    adj = g._adj

    def fits(y):
        # Exactly whether y is the identity or an element the pinned
        # search yields, so the subgroup search needs no pool.
        return y[pin] == pin and (
            y == identity or (m % _perm_order(y) == 0 and _harmonic_element(adj, y)))

    return _subgroups_in_order(search, fits, m, n)


def all_subgroups(full: Subgroup) -> tuple[Subgroup, ...]:
    """Every subgroup of `full`, ordered by size then elements."""
    out: list[Subgroup] = []
    for m in _divisors_of(len(full.perms)):
        out.extend(subgroups_of_order(full, m))
    return tuple(out)


@_value_type
class EdgeClass(NamedTuple):
    """One edge orbit of a quotient; parallel classes are kept apart."""

    key: int
    endpoints: tuple[str, str]
    members: tuple[tuple[str, str], ...]


class QuotientGraph:
    """Quotient of a graph by a subgroup action.

    Vertices are the vertex orbits, labelled by their first-in-order
    member.  Edge orbits whose endpoints fall into one orbit are
    dropped; the remaining orbits become edge classes.  Two classes may
    join the same pair of orbit vertices, so the quotient is kept as a
    multigraph rather than coerced into a Graph.
    """

    __slots__ = ("source", "group", "vertices", "orbits", "edge_classes", "_orbit_label", "_classes_at")

    def __init__(self, source: Graph, group: Subgroup):
        if group.graph != source:
            raise GraphMismatchError("subgroup acts on a different graph")
        n = len(source.vertices)
        members_by_orbit = _vertex_orbits(group)
        orbit_id = [0] * n
        for k, members in enumerate(members_by_orbit):
            for w in members:
                orbit_id[w] = k

        labels = tuple(source.vertices[members[0]] for members in members_by_orbit)
        self.source = source
        self.group = group
        self.vertices = labels
        self.orbits = {
            labels[k]: tuple(source.vertices[w] for w in members)
            for k, members in enumerate(members_by_orbit)
        }
        self._orbit_label = tuple(labels[orbit_id[v]] for v in range(n))

        seen: set[tuple[int, int]] = set()
        classes = []  # (endpoints, members) of each edge orbit kept
        for a, b in source._edges_idx:
            if (a, b) in seen:
                continue
            members = sorted({(min(p[a], p[b]), max(p[a], p[b])) for p in group.perms})
            seen.update(members)
            if orbit_id[a] == orbit_id[b]:
                continue
            ka, kb = sorted((orbit_id[a], orbit_id[b]))
            classes.append(((labels[ka], labels[kb]),
                            tuple((source.vertices[i], source.vertices[j]) for i, j in members)))
        self.edge_classes = tuple(
            EdgeClass(key=k, endpoints=ends, members=members)
            for k, (ends, members) in enumerate(sorted(classes))
        )
        at: dict[str, list[EdgeClass]] = {v: [] for v in labels}
        for c in self.edge_classes:
            at[c.endpoints[0]].append(c)
            at[c.endpoints[1]].append(c)
        self._classes_at = {v: tuple(cs) for v, cs in at.items()}

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def edges_at(self, label: str):
        try:
            return self._classes_at[label]
        except KeyError:
            raise UnknownVertexError(f"unknown quotient vertex {label!r}") from None

    def orbit_label(self, source_vertex: str) -> str:
        return self._orbit_label[self.source.index_of(source_vertex)]

    @property
    def projection(self) -> "GraphMorphism":
        vmap = {v: self._orbit_label[i] for i, v in enumerate(self.source.vertices)}
        by_member = {}
        for c in self.edge_classes:
            for e in c.members:
                by_member[e] = c
        emap = {}
        for e in self.source.edges:
            if e in by_member:
                emap[e] = by_member[e]
            else:
                emap[e] = vmap[e[0]]
        return GraphMorphism(self.source, self, vmap, emap)

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "orbits": {v: list(members) for v, members in self.orbits.items()},
            "edge_classes": [
                {"endpoints": list(c.endpoints), "edges": [list(e) for e in c.members]}
                for c in self.edge_classes
            ],
        }

    def __repr__(self):
        return f"QuotientGraph({len(self.vertices)} vertices, {len(self.edge_classes)} edge classes)"


def quotient_graph(g: Graph, h: Subgroup) -> QuotientGraph:
    return QuotientGraph(g, h)


class GraphMorphism:
    """A map of graphs sending vertices to vertices and every edge either
    to an edge joining the endpoint images or, when both endpoints share
    an image, to that image vertex.

    The target may be a Graph or a QuotientGraph (whose edges are edge
    classes); both expose `vertices` and `edges_at`.
    """

    __slots__ = ("source", "target", "vertex_map", "edge_map")

    def __init__(self, source: Graph, target, vertex_map: Mapping[str, str], edge_map: Mapping):
        target_vertices = set(target.vertices)
        vmap = {}
        for v in source.vertices:
            if v not in vertex_map:
                raise InvalidMorphismError(f"no image for vertex {v!r}")
            img = vertex_map[v]
            if img not in target_vertices:
                raise InvalidMorphismError(f"vertex image {img!r} is not a target vertex")
            vmap[v] = img

        normalized = {}
        for key, value in edge_map.items():
            normalized[_source_edge_key(source, key)] = value
        emap = {}
        for e in source.edges:
            if e not in normalized:
                raise InvalidMorphismError(f"no image for edge {{{e[0]!r}, {e[1]!r}}}")
            img = normalized[e]
            u, v = vmap[e[0]], vmap[e[1]]
            if isinstance(img, str):
                if not (img == u == v):
                    raise InvalidMorphismError(
                        f"edge {{{e[0]!r}, {e[1]!r}}} collapses to {img!r} but its endpoints "
                        f"map to {u!r} and {v!r}"
                    )
            else:
                img = _target_edge(target, img)
                ends = set(_edge_endpoints(img))
                if ends != {u, v}:
                    raise InvalidMorphismError(
                        f"edge {{{e[0]!r}, {e[1]!r}}} maps to an edge with endpoints {sorted(ends)}, "
                        f"but its endpoints map to {u!r} and {v!r}"
                    )
            emap[e] = img
        self.source = source
        self.target = target
        self.vertex_map = vmap
        self.edge_map = emap

    @classmethod
    def identity(cls, g: Graph) -> "GraphMorphism":
        return cls(g, g, {v: v for v in g.vertices}, {e: e for e in g.edges})


def _source_edge_key(g: Graph, key) -> tuple[str, str]:
    pair = tuple(key)
    if len(pair) != 2:
        raise InvalidMorphismError(f"edge key {key!r} must have two endpoints")
    try:
        return g.edge_key(pair[0], pair[1])
    except (UnknownVertexError, UnknownEndpointError):
        raise InvalidMorphismError(f"{{{pair[0]!r}, {pair[1]!r}}} is not an edge of the graph") from None


def _target_edge(target, value):
    if isinstance(target, QuotientGraph):
        if isinstance(value, EdgeClass):
            if value in target.edge_classes:
                return value
            raise InvalidMorphismError(f"{value!r} is not an edge class of the target")
        if isinstance(value, int):
            try:
                return target.edge_classes[value]
            except IndexError:
                raise InvalidMorphismError(f"no edge class with key {value}") from None
        raise InvalidMorphismError(f"cannot interpret {value!r} as a target edge class")
    return _source_edge_key(target, value)


def _edge_endpoints(edge) -> tuple[str, str]:
    if isinstance(edge, EdgeClass):
        return edge.endpoints
    return edge


def is_harmonic_morphism(phi: GraphMorphism) -> bool:
    """True iff at every vertex the edge-preimage counts agree.

    For each source vertex v with image w, count the incident edges of v
    that map onto each target edge at w; the morphism is harmonic when,
    vertex by vertex, those counts do not depend on the chosen target
    edge.  Vertices whose image has at most one incident target edge
    impose no constraint.
    """
    for v in phi.source.vertices:
        w = phi.vertex_map[v]
        target_edges = phi.target.edges_at(w)
        if len(target_edges) < 2:
            continue
        incident = phi.source.edges_at(v)
        counts = []
        for te in target_edges:
            counts.append(sum(1 for e in incident if phi.edge_map[e] == te))
        if len(set(counts)) > 1:
            return False
    return True


def _harmonic_element(adj, p: tuple[int, ...]) -> bool:
    """Whether the non-identity permutation p fixes no vertex together
    with one of its neighbours, the condition that every element of a
    harmonically acting group must meet."""
    return not any(p[v] == v and any(p[w] == w for w in adj[v]) for v in range(len(p)))


def _definition_group(g: Graph) -> Subgroup:
    """Aut(g) for definition mode, which refuses a group of more than
    `DEFAULT_HARMONIC_DEFINITION_CAP` elements (read at the call): the
    group is drawn no further than one element past the cap."""
    cap = DEFAULT_HARMONIC_DEFINITION_CAP
    perms = frozenset(islice(_automorphisms(g)(), cap + 1))
    if len(perms) > cap:
        raise SizeCapExceededError(
            f"definition mode enumerates all subgroups; group order is larger than the cap {cap}"
        )
    return Subgroup(g, perms, _checked=True)


def acts_harmonically(g: Graph, h: Subgroup, mode: str = "criterion") -> bool:
    """Whether h acts harmonically on g.

    criterion mode: no non-identity element may fix both a vertex and
    one of its neighbours (i.e. vertex stabilizers act freely on the
    incident edges).  definition mode: the quotient projection of every
    subgroup of h, including h itself and the trivial one, must be a
    harmonic morphism.  The two modes agree; the acceptance suite checks
    this on every subgroup of every corpus graph.  Definition mode
    refuses a group of more than `DEFAULT_HARMONIC_DEFINITION_CAP`
    elements, read at the call.
    """
    if h.graph != g:
        raise GraphMismatchError("subgroup acts on a different graph")
    if mode == "criterion":
        identity = tuple(range(len(g.vertices)))
        return all(_harmonic_element(g._adj, p) for p in h.perms if p != identity)
    if mode == "definition":
        cap = DEFAULT_HARMONIC_DEFINITION_CAP
        if len(h.perms) > cap:
            raise SizeCapExceededError(
                f"definition mode enumerates all subgroups; group order {len(h.perms)} "
                f"exceeds the cap {cap}"
            )
        for sub in all_subgroups(h):
            if not is_harmonic_morphism(QuotientGraph(g, sub).projection):
                return False
        return True
    raise ValueError(f"unknown mode {mode!r} (expected 'criterion' or 'definition')")
