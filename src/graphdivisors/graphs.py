"""Finite simple connected graphs with stable vertex labels.

The vertex sequence given at construction defines a canonical total
order that is used everywhere a base vertex, representative, or
tie-break is needed, so all outputs are deterministic.  Graphs are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    DuplicateVertexError,
    LoopEdgeError,
    ParameterOutOfRangeError,
    SizeCapExceededError,
    UnknownEndpointError,
    UnknownVertexError,
)


class Graph:
    """Undirected simple connected graph over string vertex labels.

    A graph keeps each edge once, as a sorted pair of vertex indices in
    `_edges_idx`, which equality and the hash read, and as sorted
    neighbour tuples in `_adj`, which everything else reads; the two
    bit-parallel searches build their own masks from `_adj` per call,
    so a graph takes memory linear in its size.  `_derived` holds
    the facts of the graph that the layers read again and again (the
    bridgeless verdict, the canonical divisor's coefficients
    `_canonical_coeffs`, the reduction's and the rank walk's tables),
    each computed on its first read through `_fact`, which alone reads
    and writes it.  Construction reads the BFS shell table of vertex 0
    (`_shells`) to refuse a disconnected graph, so every reduction at
    vertex 0 finds it kept.  Every entry depends on the vertices and
    edges alone, so it is the same whoever computes it first: a graph
    stays a value, equal and hashed by its vertices and edges, and is
    still safe to share.
    """

    __slots__ = (
        "vertices", "edges", "_index", "_adj", "_edges_idx", "_hash", "_derived",
    )

    def __init__(self, vertices: Iterable[str], edges: Iterable[Iterable[str]]):
        verts = tuple(vertices)
        if not verts:
            raise ValueError("a graph needs at least one vertex")
        index: dict[str, int] = {}
        for i, v in enumerate(verts):
            if not isinstance(v, str):
                raise ValueError(f"vertex label {v!r} is not a string")
            if index.setdefault(v, i) != i:
                raise DuplicateVertexError(f"duplicate vertex {v!r}")

        pairs: set[tuple[int, int]] = set()
        for e in edges:
            pair = tuple(e)
            if len(pair) != 2:
                raise ValueError(f"edge {pair!r} must have exactly two endpoints")
            a, b = pair
            if a == b:
                raise LoopEdgeError(f"loop edge at vertex {a!r}")
            for x in pair:
                if not isinstance(x, str) or x not in index:
                    raise UnknownEndpointError(f"edge endpoint {x!r} is not a vertex")
            i, j = index[a], index[b]
            if i > j:
                i, j = j, i
            if (i, j) in pairs:
                raise DuplicateEdgeError(f"duplicate edge {{{a!r}, {b!r}}}")
            pairs.add((i, j))
        edge_idx = sorted(pairs)

        # The pairs are sorted with i < j, so every list comes out sorted.
        adj: list[list[int]] = [[] for _ in verts]
        for i, j in edge_idx:
            adj[i].append(j)
            adj[j].append(i)

        self.vertices = verts
        self.edges = tuple((verts[i], verts[j]) for i, j in edge_idx)
        self._index = index
        self._adj = tuple(map(tuple, adj))
        self._edges_idx = tuple(edge_idx)
        self._hash = hash((verts, self._edges_idx))
        self._derived: dict = {}
        # Off the base, a vertex is reached iff a neighbour is one step nearer.
        nearer = _fact(self, _shells, 0)[1]
        if 0 in nearer[1:]:
            raise DisconnectedError(
                f"vertex {verts[nearer.index(0, 1)]!r} is not reachable from {verts[0]!r}"
            )

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self._edges_idx == other._edges_idx

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def index_of(self, v: str) -> int:
        try:
            return self._index[v]
        except (KeyError, TypeError):
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def has_vertex(self, v: str) -> bool:
        return isinstance(v, str) and v in self._index

    def has_edge(self, u: str, v: str) -> bool:
        nbrs = self._adj[self.index_of(u)]
        return self.index_of(v) in nbrs

    def neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(self.vertices[w] for w in self._adj[self.index_of(v)])

    def degree(self, v: str) -> int:
        return len(self._adj[self.index_of(v)])

    def edges_at(self, v: str) -> tuple[tuple[str, str], ...]:
        """Edges incident to v, in the canonical edge order."""
        i, verts = self.index_of(v), self.vertices
        # The neighbours are sorted, so those below i come first.
        return tuple((verts[w], verts[i]) if w < i else (verts[i], verts[w]) for w in self._adj[i])

    def edge_key(self, u: str, v: str) -> tuple[str, str]:
        """Canonical (index-ordered) form of an existing edge."""
        i, j = sorted((self.index_of(u), self.index_of(v)))
        if j not in self._adj[i]:
            raise UnknownEndpointError(f"{{{u!r}, {v!r}}} is not an edge")
        return (self.vertices[i], self.vertices[j])

    def to_json(self) -> dict:
        edges = sorted(tuple(sorted(e)) for e in self.edges)
        return {"vertices": list(self.vertices), "edges": [list(e) for e in edges]}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Graph":
        """Build from {"vertices": [label, ...], "edges": [[u, v], ...]}.

        A graph with more than `MAX_FAMILY_SIZE` vertices or edges is
        refused before anything is built.
        """
        if not isinstance(obj, Mapping):
            raise ValueError(f"graph JSON must be an object, got {type(obj).__name__}")
        for key in ("vertices", "edges"):
            if key not in obj:
                raise ValueError(f"graph JSON has no {key!r} key")
            if not isinstance(obj[key], (list, tuple)):
                raise ValueError(f"graph JSON {key!r} must be a list, got {type(obj[key]).__name__}")
        n, m = len(obj["vertices"]), len(obj["edges"])
        if max(n, m) > MAX_FAMILY_SIZE:
            raise SizeCapExceededError(f"graph JSON is capped at {MAX_FAMILY_SIZE} vertices and edges, "
                                       f"it has {n} vertices and {m} edges")
        for e in obj["edges"]:
            if not isinstance(e, (list, tuple)):
                raise ValueError(f"graph JSON edge {e!r} must be a list of two vertex labels")
        return cls(obj["vertices"], obj["edges"])


def _shells(g: Graph, q: int) -> tuple[list[list[int]], list[int], list[int]]:
    """The BFS shells around base q, built in one pass; a fact of g per q.

    Returns (shells, nearer, farther): the vertices at each distance from
    q, nearest first, and for every vertex its counts of neighbours one
    step nearer to q and one step farther.  Each edge between
    consecutive shells is counted at both ends when the search first
    meets it from the nearer end.
    """
    adj = g._adj
    n = len(adj)
    dist, nearer, farther = [-1] * n, [0] * n, [0] * n
    dist[q] = 0
    shells = []
    frontier = [q]
    while frontier:
        shells.append(frontier)
        k = len(shells)
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = k
                    nxt.append(w)
                if dist[w] == k:
                    farther[v] += 1
                    nearer[w] += 1
        frontier = nxt
    return shells, nearer, farther


def _fact(g: Graph, build, *args):
    """The fact build(g, *args) of g, a value computed from the graph
    alone and never None: the first read computes it and keeps it in
    `g._derived` under (build, args), and every later read, from any
    caller, returns the kept value.  This is the only code that reads or
    writes `_derived`."""
    key = (build, args)
    value = g._derived.get(key)
    if value is None:
        value = g._derived[key] = build(g, *args)
    return value


def build_graph(vertices: Iterable[str], edges: Iterable[Iterable[str]]) -> Graph:
    """Validate and build a graph; see Graph for the accepted input."""
    return Graph(vertices, edges)


def is_two_edge_connected(g: Graph) -> bool:
    """True iff g has no bridge.

    Connectivity is guaranteed by construction; a single-vertex graph is
    two-edge-connected vacuously.  Uses the usual DFS lowpoint scan
    (`_bridgeless`), once per graph, so the exhaustive remove-one-edge
    check stays available as an independent test oracle.
    """
    return _fact(g, _graph_bridgeless)


def _graph_bridgeless(g: Graph) -> bool:
    return _bridgeless(g._adj)


def _bridgeless(adj) -> bool:
    """Whether the simple graph with adjacency lists adj is connected
    and has no bridge, by one DFS lowpoint scan from vertex 0: every
    vertex is discovered and none is cut off by a bridge."""
    n = len(adj)
    disc = [0] * n  # 0 = unvisited
    low = [0] * n
    parent = [-1] * n
    timer = 1
    disc[0] = low[0] = timer
    stack = [(0, iter(adj[0]))]
    while stack:
        v, it = stack[-1]
        descended = False
        for w in it:
            if disc[w] == 0:
                timer += 1
                disc[w] = low[w] = timer
                parent[w] = v
                stack.append((w, iter(adj[w])))
                descended = True
                break
            if w != parent[v] and disc[w] < low[v]:
                # No parallel edges, so skipping the parent once is safe.
                low[v] = disc[w]
        if not descended:
            stack.pop()
            p = parent[v]
            if p != -1:
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] > disc[p]:
                    return False
    return timer == n


def genus(g: Graph) -> int:
    """Cycle rank 1 - |V| + |E| of a connected graph (always >= 0)."""
    return 1 - len(g.vertices) + len(g.edges)


def _value_eq(self, other):
    return type(other) is type(self) and tuple.__eq__(self, other)


def _value_type(cls):
    """Make the named tuple class `cls` a value type: an instance equals
    only an instance of `cls` with equal fields, never a plain tuple or
    an instance of another class, and hashes as the tuple of its fields.
    `object.__ne__` negates `__eq__`; tuple's own would compare fields.
    Instances are immutable; `_replace` copies one with new fields."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _value_eq, object.__ne__, tuple.__hash__
    return cls


# Each family kind with its least size; house4 takes no size.
_FAMILY_KINDS = {"complete": 3, "wheel": 5, "cycle": 3, "house4": None}

# The most vertices, and the most edges, of a family member that
# `generate` builds, and of a graph that `Graph.from_json` builds.
MAX_FAMILY_SIZE = 50_000


@_value_type
class GraphFamily(NamedTuple):
    """A named graph family plus its size parameter (None for house4)."""

    kind: str
    n: int | None = None


def parse_family(text: str) -> GraphFamily:
    """Parse 'complete:5', 'wheel:6', 'cycle:4' or 'house4'."""
    kind, sep, param = text.partition(":")
    if kind not in _FAMILY_KINDS:
        raise ValueError(f"unknown graph family {kind!r} (expected one of {', '.join(_FAMILY_KINDS)})")
    if kind == "house4":
        if sep:
            raise ValueError("family 'house4' takes no parameter")
        return GraphFamily("house4")
    if not sep or not param:
        raise ValueError(f"family {kind!r} needs a size, e.g. {kind}:5")
    try:
        n = int(param)
    except ValueError:
        raise ValueError(f"family size {param!r} is not an integer") from None
    return GraphFamily(kind, n)


def _labels(n: int) -> list[str]:
    return [f"P{i}" for i in range(1, n + 1)]


def generate(family: GraphFamily | str) -> Graph:
    """Build a named family member.

    complete(n), n >= 3: all pairs adjacent.
    wheel(n), n >= 5: hub P1 joined to the rim cycle P2..Pn.
    cycle(n), n >= 3: the n-cycle.
    house4: four vertices, five edges (the 4-cycle plus the P1P3 chord).

    A member with more than `MAX_FAMILY_SIZE` vertices or edges is
    refused before anything is built.
    """
    if isinstance(family, str):
        family = parse_family(family)
    kind, n = family.kind, family.n
    if kind not in _FAMILY_KINDS:
        raise ValueError(f"unknown graph family {kind!r}")
    if kind == "house4":
        if n is not None:
            raise ValueError("family 'house4' takes no parameter")
        return Graph(
            ["P1", "P2", "P3", "P4"],
            [("P1", "P2"), ("P2", "P3"), ("P3", "P4"), ("P4", "P1"), ("P1", "P3")],
        )
    least = _FAMILY_KINDS[kind]
    if n is None or n < least:
        raise ParameterOutOfRangeError(f"{kind} graph needs n >= {least}, got {n}")
    # Every sized kind has at least as many edges as vertices.
    size = n * (n - 1) // 2 if kind == "complete" else 2 * (n - 1) if kind == "wheel" else n
    if size > MAX_FAMILY_SIZE:
        raise SizeCapExceededError(f"graph family is capped at {MAX_FAMILY_SIZE} vertices and edges, "
                                   f"{kind}:{n} has {n} vertices and {size} edges")
    labels = _labels(n)
    if kind == "complete":
        return Graph(labels, [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)])
    if kind == "cycle":
        return Graph(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])
    hub = labels[0]
    rim = labels[1:]
    edges = [(hub, v) for v in rim]
    edges += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return Graph(labels, edges)
