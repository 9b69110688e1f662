"""Galois-point decision procedure, certificates, and consistency checks.

A vertex p qualifies for a rank-2 divisor d when the two smoothness
conditions hold (rank drops to 1 after removing p and to 0 after
removing p and any second vertex) and some automorphism subgroup of
order deg(d) - 1 acts harmonically with a nontrivial quotient while
fixing two distinct members of the linear system of d - p.  Successful
verdicts carry the full witness; failures carry a structured reason
that reproduces in isolation.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain
from math import gcd
from typing import Iterable, Mapping, NamedTuple, Union

from .divisors import Divisor, canonical_divisor, linearly_equivalent, q_reduce, rank
from .divisors import _check_bound, _members, _probe_rows, _rank_walk, _require_enumerable
from .errors import (
    GraphMismatchError,
    NotTwoEdgeConnectedError,
    ParameterOutOfRangeError,
    RankPreconditionError,
    UnknownVertexError,
)
from .graphs import Graph, _value_type, genus, is_two_edge_connected
from .symmetry import Subgroup, _harmonic_subgroups, _vertex_orbits, acts_harmonically, apply_to_divisor


@_value_type
class RankNotTwo(NamedTuple):
    rank: int

    tag = "RankNotTwo"

    def describe(self) -> str:
        return f"divisor has rank {self.rank}, not 2"


@_value_type
class Cond1Fail(NamedTuple):
    vertex: str
    rank: int

    tag = "Cond1Fail"

    def describe(self) -> str:
        return f"rank after removing {self.vertex} is {self.rank}, not 1"


@_value_type
class Cond2Fail(NamedTuple):
    vertex: str
    other: str
    rank: int

    tag = "Cond2Fail"

    def describe(self) -> str:
        return f"rank after removing {self.vertex} and {self.other} is {self.rank}, not 0"


@_value_type
class NoQualifyingSubgroup(NamedTuple):
    """No witness exists.  `subgroups_checked` is the number of harmonic
    subgroups of the given order that the search examined, which is
    all of them: a subgroup that acts harmonically but has a single
    orbit or fixes fewer than two members still counts."""

    order: int
    subgroups_checked: int

    tag = "NoQualifyingSubgroup"

    def describe(self) -> str:
        return (
            f"none of the {self.subgroups_checked} subgroups of order {self.order} "
            "acts harmonically with a nontrivial quotient while fixing two members "
            "of the linear system"
        )


FailureReason = Union[RankNotTwo, Cond1Fail, Cond2Fail, NoQualifyingSubgroup]


def _reason_from_json(obj) -> FailureReason | None:
    if obj is None:
        return None
    if not isinstance(obj, Mapping):
        raise ValueError(f"reason JSON must be an object, got {type(obj).__name__}")
    tag = obj.get("tag")
    cls = next((c for c in (RankNotTwo, Cond1Fail, Cond2Fail, NoQualifyingSubgroup) if c.tag == tag), None)
    if cls is None:
        raise ValueError(f"reason JSON has an unknown tag {tag!r}")
    kwargs = {k: v for k, v in obj.items() if k != "tag"}
    if kwargs.keys() != set(cls._fields):
        raise ValueError(f"{cls.tag} reason JSON needs the fields {list(cls._fields)}, got {list(kwargs)}")
    return cls(**kwargs)


@_value_type
class SmoothnessCheck(NamedTuple):
    ok: bool
    failure: Cond1Fail | Cond2Fail | None = None


@_value_type
class GaloisCertificate(NamedTuple):
    """Verdict for one vertex, with witnesses or a failure reason."""

    vertex: str
    verdict: bool
    subgroup: Subgroup | None = None
    e1: Divisor | None = None
    e2: Divisor | None = None
    quotient_vertex_count: int | None = None
    reason: FailureReason | None = None

    def to_json(self) -> dict:
        return {
            "vertex": self.vertex,
            "verdict": self.verdict,
            "subgroup": self.subgroup.to_json() if self.subgroup is not None else None,
            "E1": self.e1.to_json() if self.e1 is not None else None,
            "E2": self.e2.to_json() if self.e2 is not None else None,
            "quotient_vertex_count": self.quotient_vertex_count,
            "reason": None if self.reason is None else {"tag": self.reason.tag, **self.reason._asdict()},
        }

    @classmethod
    def from_json(cls, graph: Graph, obj: Mapping) -> "GaloisCertificate":
        if not isinstance(obj, Mapping):
            raise ValueError(f"certificate JSON must be an object, got {type(obj).__name__}")
        for key in ("vertex", "verdict"):
            if key not in obj:
                raise ValueError(f"certificate JSON has no {key!r} key")
        if not isinstance(obj["verdict"], bool):
            raise ValueError(f"certificate JSON 'verdict' must be true or false, got {obj['verdict']!r}")
        count = obj.get("quotient_vertex_count")
        if count is not None and (not isinstance(count, int) or isinstance(count, bool)):
            raise ValueError(f"certificate JSON 'quotient_vertex_count' must be an integer or null, "
                             f"got {count!r}")
        return cls(
            vertex=obj["vertex"],
            verdict=obj["verdict"],
            subgroup=Subgroup.from_json(graph, obj["subgroup"]) if obj.get("subgroup") else None,
            e1=Divisor.from_json(graph, obj["E1"]) if obj.get("E1") else None,
            e2=Divisor.from_json(graph, obj["E2"]) if obj.get("E2") else None,
            quotient_vertex_count=count,
            reason=_reason_from_json(obj.get("reason")),
        )


@_value_type
class ClassificationReport(NamedTuple):
    """Per-vertex certificates for one graph and divisor."""

    graph: Graph
    divisor: Divisor
    divisor_is_all_ones: bool
    rank: int
    certificates: tuple[GaloisCertificate, ...]
    galois_count: int
    corollary_consistent: bool

    @property
    def galois_vertices(self) -> tuple[str, ...]:
        return tuple(c.vertex for c in self.certificates if c.verdict)

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "divisor": self.divisor.to_json(),
            "divisor_is_all_ones": self.divisor_is_all_ones,
            "rank": self.rank,
            "galois_count": self.galois_count,
            "galois_vertices": list(self.galois_vertices),
            "corollary_consistent": self.corollary_consistent,
            "certificates": [c.to_json() for c in self.certificates],
        }


@_value_type
class TheoremCheck(NamedTuple):
    """Completeness vs. two-Galois-points equivalence for one graph."""

    is_complete: bool
    has_two_galois: bool
    equivalence_holds: bool
    all_vertices_galois: bool | None
    galois_count: int
    rank: int

    @property
    def consistent(self) -> bool:
        return self.equivalence_holds and self.all_vertices_galois is not False

    def to_json(self) -> dict:
        return self._asdict()


@_value_type
class RiemannRochCheck(NamedTuple):
    holds: bool
    rank: int
    canonical_rank: int
    lhs: int
    rhs: int
    degree: int
    genus: int

    def to_json(self) -> dict:
        return self._asdict()


def _require_two_edge_connected(g: Graph) -> None:
    if not is_two_edge_connected(g):
        raise NotTwoEdgeConnectedError("graph has a bridge; a 2-edge-connected graph is required")


def _require_rank_two(g: Graph, d: Divisor, cap: int | None) -> None:
    r = rank(g, d, cap)
    if r != 2:
        raise RankPreconditionError(f"divisor has rank {r}, but rank 2 is required", rank=r)


def check_smoothness(g: Graph, d: Divisor, p: str) -> SmoothnessCheck:
    """Conditions for p to behave like a smooth plane-curve point:
    rank(d - p) = 1 and rank(d - p - q) = 0 for every q, including q = p.

    Requires rank(d) = 2, a rank computation that
    `DEFAULT_ENUMERATION_CAP`, read at the call, limits; returns the
    first violation found, scanning q in vertex order.
    """
    pi = g.index_of(p)
    _require_rank_two(g, d, None)
    return _smoothness(g, pi, _probe_rows(g, d, (pi,))[0][0])


def _smoothness(g: Graph, p: int, zero: list[bool]) -> SmoothnessCheck:
    """Smoothness at vertex index p of a rank-2 divisor d, from its row of
    `divisors._probe_rows` (zero[q] iff r(d - p - q) = 0): r(d - p) = 1
    iff some zero[q] holds, else 2; r(d - p - q) = 1 where it fails."""
    missed = [q for q, z in zip(g.vertices, zero) if not z]
    return (SmoothnessCheck(True) if not missed
            else SmoothnessCheck(False, Cond1Fail(g.vertices[p], 2)) if len(missed) == len(zero)
            else SmoothnessCheck(False, Cond2Fail(g.vertices[p], missed[0], 1)))


def fixed_members(h: Subgroup, divisors: Iterable[Divisor]) -> frozenset[Divisor]:
    """The members fixed by every element of h."""
    elements = h.elements
    out = []
    for d in divisors:
        if d.graph != h.graph:
            raise GraphMismatchError("divisor is bound to a different graph than the subgroup")
        if all(apply_to_divisor(a, d) == d for a in elements):
            out.append(d)
    return frozenset(out)


def _orbits_fit(g: Graph, m: int) -> bool:
    """Whether the vertices of g can be the orbits of a harmonic group of
    order m; False proves that Aut(g) has no harmonic subgroup of order m.

    Let H act harmonically with |H| = m.  No non-identity element of H
    fixes a vertex v together with a neighbour, so the stabiliser H_v
    acts freely on the neighbours of v, and its order s divides deg v;
    it divides m as well (Lagrange), so s divides gcd(m, deg v).  The
    orbit of v has m/s vertices, and automorphisms keep degrees, so
    every orbit lies inside one degree class.  Hence the number of
    vertices of each degree is a sum of sizes m/s with s dividing
    gcd(m, deg).  This tests that, one small knapsack per degree class.
    (For a group that fixes p, H_p = H, so m divides deg p.)
    """
    for degree, count in Counter(len(nbrs) for nbrs in g._adj).items():
        k = gcd(m, degree)
        sums = [True] + [False] * count  # sums[t]: t is a sum of orbit sizes
        for size in {m // s for s in range(1, k + 1) if k % s == 0}:
            for t in range(size, count + 1):
                sums[t] = sums[t] or sums[t - size]
        if not sums[count]:
            return False
    return True


def _find_witness(g: Graph, p: str, dp: list[int],
                  cap: int | None) -> tuple[GaloisCertificate, list | None]:
    """The certificate at a smooth vertex p, where dp is the 0-reduced
    form of d - p, and its fixed members (`_first_witness`): the first
    qualifying witness among the harmonic subgroups of order
    m = deg(d) - 1, or, once every one fails, NoQualifyingSubgroup with
    their count.

    The groups fixing p come first, built from searches pinned at p,
    then the groups that move p.  Arithmetic rules out both passes
    before they draw anything: when `_orbits_fit(g, m)` is False there
    is no harmonic group of order m, and the count is 0; when m does not
    divide deg p, no such group fixes p, so the pinned pass is skipped.
    The cap refuses the search whenever it would refuse to enumerate the
    linear system of d - p, after the automorphism vertex cap, and
    before either shortcut.
    """
    pi = g.index_of(p)
    m = sum(dp)
    fixing = _harmonic_subgroups(g, m, pi)
    _require_enumerable(m, len(dp), cap)
    if not _orbits_fit(g, m):
        return GaloisCertificate(vertex=p, verdict=False, reason=NoQualifyingSubgroup(m, 0)), None
    if len(g._adj[pi]) % m:
        fixing = ()
    return _first_witness(g, p, dp, chain(fixing, _moving(g, m, pi)))


def _moving(g: Graph, m: int, pi: int):
    """The harmonic subgroups of order m that move vertex pi.  The pass
    draws the whole admissible pool at its first read, not before; each
    pass keeps only its own state."""
    for perms in _harmonic_subgroups(g, m):
        if any(x[pi] != pi for x in perms):
            yield perms


def _first_witness(g: Graph, p: str, dp: list[int], groups) -> tuple[GaloisCertificate, list | None]:
    """The first of `groups` that qualifies at p, with the sorted list of
    the members of |d - p| that it fixes, or NoQualifyingSubgroup with
    the number of groups read and None.  A subgroup fixes the
    orbit-constant members of |d - p|, which `_members` walks from dp."""
    m = sum(dp)
    checked = 0
    for perms in groups:
        checked += 1
        h = Subgroup(g, perms, _checked=True)
        orbits = _vertex_orbits(h)
        if len(orbits) <= 1:
            continue
        fixed = sorted(_members(g._adj, dp, orbits))
        if len(fixed) >= 2:
            return GaloisCertificate(
                vertex=p,
                verdict=True,
                subgroup=h,
                e1=Divisor.from_coeffs(g, fixed[0]),
                e2=Divisor.from_coeffs(g, fixed[1]),
                quotient_vertex_count=len(orbits),
                reason=None,
            ), fixed
    return GaloisCertificate(vertex=p, verdict=False, reason=NoQualifyingSubgroup(m, checked)), None


def _certificates(g: Graph, d: Divisor, vertices: tuple[str, ...], rows: list,
                  cap: int | None) -> tuple[GaloisCertificate, ...]:
    """The verdicts at the given vertices for a rank-2 divisor d on a
    bridgeless graph, from their rows of the `_probe_rows` table: each
    vertex p gets its smoothness row and d - p reduced, and each smooth
    p runs `_find_witness` on d - p unless it can carry over the
    certificate of the vertex before.

    Let p - 1 and p be twins (`_twin_swap`), so that the transposition
    t = (p - 1 p) is an automorphism of g that fixes d, and let the
    certificate at p - 1 come from a witness search, or be carried to
    it, which gives the same certificate.  Conjugation by t maps the
    harmonic subgroups of order m that fix p - 1 one to one onto those
    that fix p, and those that move p - 1 onto those that move p; it
    keeps the number of orbits, and maps the members of |d - (p - 1)|
    a group fixes onto those its conjugate fixes in |d - p|.  So a
    group qualifies at p - 1 exactly when its conjugate qualifies at p,
    and the two vertices have the same degree, so m divides both or
    neither.  As t maps the vertices other than p - 1 increasingly onto
    those other than p, conjugation keeps the order of permutations
    that fix p - 1, and with it the order of the pinned pass.  Hence a
    NoQualifyingSubgroup verdict at p - 1 holds at p with the same
    count, and a witness that fixes p - 1, the first of its pinned
    pass, has a conjugate that is the first of the pinned pass at p.
    Its fixed members in |d - p| are the images under t of those at
    p - 1 (t fixes d and sends p - 1 to p), so the sorted images give
    E1 and E2 with no member walk.  A witness that moves p - 1 came
    from the moving pass, whose order conjugation does not keep, so p
    is searched.  Both caps, with the same n and m, were already passed
    at p - 1.
    """
    certs: list[GaloisCertificate] = []
    fixed = None  # the sorted fixed members of the last positive certificate
    for p, (zero, dp) in zip(vertices, rows):
        pi = g.index_of(p)
        smooth = _smoothness(g, pi, zero)
        if not smooth.ok:
            certs.append(GaloisCertificate(vertex=p, verdict=False, reason=smooth.failure))
            continue
        last = certs[-1] if pi and certs and certs[-1].vertex == g.vertices[pi - 1] else None
        t = _twin_swap(g, d, pi) if last else None
        if t and isinstance(last.reason, NoQualifyingSubgroup):
            cert = GaloisCertificate(vertex=p, verdict=False, reason=last.reason)
        elif t and last.verdict and all(x[pi - 1] == pi - 1 for x in last.subgroup.perms):
            fixed = sorted(tuple([e[u] for u in t]) for e in fixed)
            carried = frozenset(tuple([t[x[u]] for u in t]) for x in last.subgroup.perms)
            cert = last._replace(vertex=p, subgroup=Subgroup(g, carried, _checked=True),
                                 e1=Divisor.from_coeffs(g, fixed[0]), e2=Divisor.from_coeffs(g, fixed[1]))
        else:
            cert, fixed = _find_witness(g, p, dp, cap)
        certs.append(cert)
    return tuple(certs)


def _twin_swap(g: Graph, d: Divisor, pi: int) -> tuple[int, ...] | None:
    """The transposition of vertices pi - 1 and pi when it is an
    automorphism of g that fixes d: the two have the same neighbours
    apart from each other, and the same coefficient.  Else None."""
    a, adj = pi - 1, g._adj
    if d.coeffs[a] != d.coeffs[pi] or [v for v in adj[a] if v != pi] != [v for v in adj[pi] if v != a]:
        return None
    t = list(range(len(adj)))
    t[a], t[pi] = pi, a
    return tuple(t)


def is_galois_point(g: Graph, d: Divisor, p: str, cap: int | None = None) -> GaloisCertificate:
    """Decide whether p is a Galois point for the rank-2 divisor d.

    The witness search ranges over the harmonic subgroups of the full
    automorphism group of order deg(d) - 1, those fixing p first, and
    returns the first qualifying one; exhausting them yields a
    NoQualifyingSubgroup verdict that counts them.
    """
    pi = g.index_of(p)
    _require_two_edge_connected(g)
    _require_rank_two(g, d, cap)
    return _certificates(g, d, (p,), _probe_rows(g, d, (pi,)), cap)[0]


@lru_cache(maxsize=512, typed=True)
def classify_galois_points(g: Graph, d: Divisor, cap: int | None = None) -> ClassificationReport:
    """Run the Galois decision at every vertex.

    The probe table of d (`_probe_rows`), which gives every smoothness
    verdict, is computed once per call from the one reduction of d, and
    the bridge check once per graph (`graphs._fact`).  The table also
    decides r(d) = 2: no probe of degree <= 2 is empty, and some probe
    of degree 3 is.  So `rank` comes first only where its answer is free
    or the cap needs it: above degree 2g - 2 (r(d) = deg(d) - g), from
    degree g + 3 (the floor r(d) >= deg(d) - g), below degree 3, and
    where the table's C(n+3, n) - 1 probes exceed the cap, for which the
    table is None.  Elsewhere the table comes first, and `rank` walks
    for the exact rank only when the table shows it is not 2.  A rank-2
    walk refuses iff C(n+3, n) - 1 exceeds the cap, so refusals stay
    where a call of `rank` first would put them.  A smooth vertex whose
    twin just before it was searched carries the twin's certificate over
    by their swap (`_certificates`).  Every other smooth vertex searches the
    admissible automorphisms that fix it, one pruned search per group,
    until the first witness; only a vertex whose fixing pass finds none
    runs one pass over the full admissible pool for the subgroups that
    move it.  When rank(d) differs from 2 no vertex can qualify, so every
    certificate carries RankNotTwo instead of raising.  The count
    constraint (0, 1, or all vertices) only applies to the all-ones
    divisor at rank 2; otherwise the report is vacuously consistent.
    The cache serves `enumerate_corpus`, which passes every labeled
    graph of an isomorphism class as the same representative (g, d).
    It answers a repeated (g, d, cap) without reading the module limits
    (`DEFAULT_ENUMERATION_CAP`, `DEFAULT_AUTOMORPHISM_VERTEX_CAP`) again,
    so assigning a limit does not reach an answer already cached.  It
    keys cap by type too, so cap=True is refused, not read off cap=1.
    """
    _check_bound(g, d)
    _require_two_edge_connected(g)
    all_ones = d == Divisor.all_ones(g)
    n, k, gen = len(g.vertices), d.degree, genus(g)
    rows = _probe_rows(g, d, range(n), cap) if 3 <= k <= min(2 * gen - 2, gen + 2) else None
    r = 2 if rows else rank(g, d, cap)
    if r != 2:
        certs = tuple(
            GaloisCertificate(vertex=v, verdict=False, reason=RankNotTwo(r)) for v in g.vertices
        )
    else:
        certs = _certificates(g, d, g.vertices, rows or _probe_rows(g, d, range(n), cap), cap)
    count = sum(1 for c in certs if c.verdict)
    consistent = count in (0, 1, n) if (r == 2 and all_ones) else True
    return ClassificationReport(
        graph=g,
        divisor=d,
        divisor_is_all_ones=all_ones,
        rank=r,
        certificates=certs,
        galois_count=count,
        corollary_consistent=consistent,
    )


def verify_theorem(g: Graph, cap: int | None = None) -> TheoremCheck:
    """Check that completeness is equivalent to having two Galois points.

    Uses the all-ones divisor.  For complete graphs the stronger
    statement is also recorded: every vertex must be a Galois point.
    The characterization is stated for n >= 3 vertices, as the corpus
    sweeps it; a smaller graph raises ParameterOutOfRangeError.
    """
    if len(g.vertices) < 3:
        raise ParameterOutOfRangeError(f"the theorem check needs n >= 3 vertices, got {len(g.vertices)}")
    report = classify_galois_points(g, Divisor.all_ones(g), cap)
    return _theorem_from_report(g, report)


def _theorem_from_report(g: Graph, report: ClassificationReport) -> TheoremCheck:
    n = len(g.vertices)
    is_complete = len(g.edges) == n * (n - 1) // 2
    has_two = report.rank == 2 and report.galois_count >= 2
    all_galois = (report.galois_count == n) if is_complete else None
    return TheoremCheck(
        is_complete=is_complete,
        has_two_galois=has_two,
        equivalence_holds=is_complete == has_two,
        all_vertices_galois=all_galois,
        galois_count=report.galois_count,
        rank=report.rank,
    )


def riemann_roch_check(g: Graph, d: Divisor, cap: int | None = None) -> RiemannRochCheck:
    """Evaluate rank(d) - rank(K - d) against deg(d) + 1 - genus.

    Both ranks come from `_rank_walk` on their own divisor, since `rank`
    takes one of them from the other by this very identity.  Each walk
    still proves its upper bound with an empty probe; its lower bound
    comes from the probes or from the degree floor r >= deg - g (see
    `_rank_walk`), weaker than the identity checked here.
    """
    _check_bound(g, d)
    k = canonical_divisor(g)
    r_d = _rank_walk(g, d, cap)
    r_kd = _rank_walk(g, k - d, cap)
    lhs = r_d - r_kd
    gen = genus(g)
    rhs = d.degree + 1 - gen
    return RiemannRochCheck(
        holds=lhs == rhs,
        rank=r_d,
        canonical_rank=r_kd,
        lhs=lhs,
        rhs=rhs,
        degree=d.degree,
        genus=gen,
    )


def audit_certificate(g: Graph, d: Divisor, cert: GaloisCertificate) -> list[str]:
    """Re-verify a certificate without trusting the search that built it.

    Returns a list of problems; an empty list means the certificate is
    sound.  One derivation of the decision, by `rank` alone, serves
    every certificate: RankNotTwo when rank(d) is not 2, else Cond1Fail
    when rank(d - p) is not 1, else Cond2Fail at the first q in vertex
    order with rank(d - p - q) not 0, else nothing.  A positive verdict
    must derive nothing, and then gets every witness condition
    rechecked (group axioms, order, harmonicity, quotient size,
    fixedness, and membership of both divisors in the linear system via
    independent equivalence checks).  A negative verdict must carry the
    derived reason as a whole; where nothing is derived, the harmonic
    subgroups of order deg(d) - 1 are recounted in one unpinned pass,
    without the search's pinned pass or its arithmetic shortcuts, and
    must give the recorded NoQualifyingSubgroup.  The ranks and the
    recount refuse past `DEFAULT_ENUMERATION_CAP`, read at the call.
    """
    problems: list[str] = []
    p = cert.vertex
    try:
        g.index_of(p)
    except UnknownVertexError:
        return [f"certificate names unknown vertex {p!r}"]
    dp = d - Divisor.vertex(g, p)
    derived = None
    if (r := rank(g, d)) != 2:
        derived = RankNotTwo(r)
    elif (r := rank(g, dp)) != 1:
        derived = Cond1Fail(p, r)
    else:
        ranks = ((q, rank(g, dp - Divisor.vertex(g, q))) for q in g.vertices)
        derived = next((Cond2Fail(p, q, r) for q, r in ranks if r), None)

    if cert.verdict:
        if derived is not None:
            return [f"{derived.describe()}, so {p} cannot be a Galois point"]
        h = cert.subgroup
        if h is None or cert.e1 is None or cert.e2 is None or cert.quotient_vertex_count is None:
            return ["positive certificate is missing witnesses"]
        try:
            Subgroup(g, h.perms)  # revalidates automorphisms, identity, closure
        except Exception as exc:
            problems.append(f"witness subgroup is invalid: {exc}")
        if len(h.perms) != d.degree - 1:
            problems.append(f"witness subgroup has order {len(h.perms)}, expected {d.degree - 1}")
        orbit_count = len(_vertex_orbits(h))
        if orbit_count != cert.quotient_vertex_count:
            problems.append("recorded quotient vertex count does not match the orbit count")
        if orbit_count <= 1:
            problems.append("quotient has a single vertex")
        if not acts_harmonically(g, h, "criterion"):
            problems.append("witness subgroup does not act harmonically")
        if cert.e1 == cert.e2:
            problems.append("fixed divisors are not distinct")
        for name, e in (("E1", cert.e1), ("E2", cert.e2)):
            if not e.is_effective:
                problems.append(f"{name} is not effective")
            if not linearly_equivalent(g, e, dp):
                problems.append(f"{name} is not equivalent to the divisor minus the vertex")
            for a in h.elements:
                if apply_to_divisor(a, e) != e:
                    problems.append(f"{name} is moved by {a!r}")
                    break
        if d == Divisor.all_ones(g):
            # With the all-ones divisor the witness group must fix the
            # vertex and the punctured divisor elementwise.
            for a in h.elements:
                if a(cert.vertex) != cert.vertex:
                    problems.append(f"{a!r} moves the certified vertex")
                    break
            for a in h.elements:
                if apply_to_divisor(a, dp) != dp:
                    problems.append(f"{a!r} moves the punctured divisor")
                    break
        return problems

    if cert.reason is None:
        return ["negative certificate carries no reason"]
    if derived is None:
        m = dp.degree
        groups = _harmonic_subgroups(g, m)
        _require_enumerable(m, len(g.vertices), None)
        again, _ = _first_witness(g, p, list(q_reduce(g, dp, g.vertices[0]).coeffs), groups)
        if again.verdict:
            return ["a qualifying subgroup exists after all"]
        derived = again.reason
    if cert.reason != derived:
        problems.append(f"recorded {cert.reason}, the decision gives {derived}")
    return problems
