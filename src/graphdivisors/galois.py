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
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain
from math import gcd
from typing import Iterable, Mapping, Union

from .divisors import Divisor, canonical_divisor, linearly_equivalent, rank
from .divisors import _drop_chip, _members, _rank_walk, _reduce_coeffs, _require_enumerable
from .errors import (
    GraphMismatchError,
    NotTwoEdgeConnectedError,
    RankPreconditionError,
    UnknownVertexError,
)
from .graphs import Graph, genus, is_two_edge_connected
from .symmetry import Subgroup, _harmonic_subgroups, _vertex_orbits, acts_harmonically, apply_to_divisor


@dataclass(frozen=True)
class RankNotTwo:
    rank: int

    tag = "RankNotTwo"

    def describe(self) -> str:
        return f"divisor has rank {self.rank}, not 2"


@dataclass(frozen=True)
class Cond1Fail:
    vertex: str
    rank: int

    tag = "Cond1Fail"

    def describe(self) -> str:
        return f"rank after removing {self.vertex} is {self.rank}, not 1"


@dataclass(frozen=True)
class Cond2Fail:
    vertex: str
    other: str
    rank: int

    tag = "Cond2Fail"

    def describe(self) -> str:
        return f"rank after removing {self.vertex} and {self.other} is {self.rank}, not 0"


@dataclass(frozen=True)
class NoQualifyingSubgroup:
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


def _reason_to_json(reason: FailureReason | None):
    if reason is None:
        return None
    return {"tag": reason.tag, **asdict(reason)}


def _reason_from_json(obj) -> FailureReason | None:
    if obj is None:
        return None
    tags = {c.tag: c for c in (RankNotTwo, Cond1Fail, Cond2Fail, NoQualifyingSubgroup)}
    cls = tags[obj["tag"]]
    kwargs = {k: v for k, v in obj.items() if k != "tag"}
    return cls(**kwargs)


@dataclass(frozen=True)
class SmoothnessCheck:
    ok: bool
    failure: Cond1Fail | Cond2Fail | None = None


@dataclass(frozen=True)
class GaloisCertificate:
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
            "reason": _reason_to_json(self.reason),
        }

    @classmethod
    def from_json(cls, graph: Graph, obj: Mapping) -> "GaloisCertificate":
        return cls(
            vertex=obj["vertex"],
            verdict=obj["verdict"],
            subgroup=Subgroup.from_json(graph, obj["subgroup"]) if obj.get("subgroup") else None,
            e1=Divisor.from_json(graph, obj["E1"]) if obj.get("E1") else None,
            e2=Divisor.from_json(graph, obj["E2"]) if obj.get("E2") else None,
            quotient_vertex_count=obj.get("quotient_vertex_count"),
            reason=_reason_from_json(obj.get("reason")),
        )


@dataclass(frozen=True)
class ClassificationReport:
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


@dataclass(frozen=True)
class TheoremCheck:
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
        return asdict(self)


@dataclass(frozen=True)
class RiemannRochCheck:
    holds: bool
    rank: int
    canonical_rank: int
    lhs: int
    rhs: int
    degree: int
    genus: int

    def to_json(self) -> dict:
        return asdict(self)


def _require_two_edge_connected(g: Graph) -> None:
    if not is_two_edge_connected(g):
        raise NotTwoEdgeConnectedError("graph has a bridge; a 2-edge-connected graph is required")


def _require_rank_two(g: Graph, d: Divisor, cap: int | None) -> None:
    r = rank(g, d, cap)
    if r != 2:
        raise RankPreconditionError(f"divisor has rank {r}, but rank 2 is required", rank=r)


def check_smoothness(g: Graph, d: Divisor, p: str, cap: int | None = None) -> SmoothnessCheck:
    """Conditions for p to behave like a smooth plane-curve point:
    rank(d - p) = 1 and rank(d - p - q) = 0 for every q, including q = p.

    Requires rank(d) = 2 (the cap applies to that rank computation);
    returns the first violation found, scanning q in vertex order.
    """
    pi = g.index_of(p)
    _require_rank_two(g, d, cap)
    red, _ = _reduce_coeffs(g, list(d.coeffs), 0)
    return _smoothness(g, red)[pi]


def _smoothness(g: Graph, red: list[int]) -> list[SmoothnessCheck]:
    """The smoothness verdict at every vertex p for a rank-2 divisor d,
    read off its 0-reduced form red without calling `rank`.

    Removing a vertex lowers the rank by at most one, and r(D) =
    1 + min_v r(D - v) when |D| is nonempty.  With r(d) = 2 this gives
    r(d - p - q) = 0 iff some d - p - q - v is empty, and r(d - p) = 1
    iff that holds for some q.  One walk takes each multiset e' of at
    most three chips off vertex 0 one `_drop_chip` from its parent; as
    taking chips at vertex 0 keeps a reduced form reduced, e' padded
    with vertex 0 is an empty probe p + q + v iff the reduced form of
    d - e' holds fewer chips at vertex 0 than the padding takes.
    """
    adj = g._adj
    n = len(red)
    zero = [[False] * n for _ in range(n)]

    def mark(p, q, v):
        zero[p][q] = zero[q][p] = zero[p][v] = zero[v][p] = zero[q][v] = zero[v][q] = True

    if red[0] < 3:
        mark(0, 0, 0)
    for p in range(1, n):
        dp = _drop_chip(adj, red, p)
        if dp[0] < 2:
            mark(p, 0, 0)
        for q in range(p, n):
            dpq = _drop_chip(adj, dp, q)
            if dpq[0] < 1:
                mark(p, q, 0)
            for v in range(q, n):
                if _drop_chip(adj, dpq, v)[0] < 0:
                    mark(p, q, v)
    checks = []
    for p, row in zip(g.vertices, zero):
        missed = [q for q, z in zip(g.vertices, row) if not z]
        checks.append(SmoothnessCheck(True) if not missed
                      else SmoothnessCheck(False, Cond1Fail(p, 2)) if len(missed) == n
                      else SmoothnessCheck(False, Cond2Fail(p, missed[0], 1)))
    return checks


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


def _find_witness(g: Graph, p: str, dp: list[int], cap: int | None,
                  orbits_fit: bool) -> GaloisCertificate:
    """The certificate at a smooth vertex p, where dp is the 0-reduced
    form of d - p: the first qualifying witness among the harmonic
    subgroups of order m = deg(d) - 1, or, once every one fails,
    NoQualifyingSubgroup with their count.

    The groups fixing p come first, built from searches pinned at p,
    then the groups that move p.  Arithmetic rules out both passes
    before they draw anything: when `orbits_fit` (`_orbits_fit(g, m)`,
    computed once per classification) is False there is no harmonic
    group of order m, and the count is 0; when m does not divide deg p,
    no such group fixes p, so the pinned pass is skipped.  The cap
    refuses the search whenever it would refuse to enumerate the linear
    system of d - p, after the automorphism vertex cap, and before
    either shortcut.
    """
    pi = g.index_of(p)
    m = sum(dp)
    fixing = _harmonic_subgroups(g, m, pi)
    _require_enumerable(m, len(dp), cap)
    if not orbits_fit:
        return GaloisCertificate(vertex=p, verdict=False, reason=NoQualifyingSubgroup(m, 0))
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


def _first_witness(g: Graph, p: str, dp: list[int], groups) -> GaloisCertificate:
    """The first of `groups` that qualifies at p, or NoQualifyingSubgroup
    with the number of groups read.  A subgroup fixes the orbit-constant
    members of |d - p|, which `_members` walks from dp."""
    m = sum(dp)
    checked = 0
    for perms in groups:
        checked += 1
        h = Subgroup(g, perms, _checked=True)
        orbits = _vertex_orbits(h)
        if len(orbits) <= 1:
            continue
        fixed = sorted(_members(g._adj, dp, orbits, m))
        if len(fixed) >= 2:
            return GaloisCertificate(
                vertex=p,
                verdict=True,
                subgroup=h,
                e1=Divisor.from_coeffs(g, fixed[0]),
                e2=Divisor.from_coeffs(g, fixed[1]),
                quotient_vertex_count=len(orbits),
                reason=None,
            )
    return GaloisCertificate(vertex=p, verdict=False, reason=NoQualifyingSubgroup(m, checked))


def _certificates(g: Graph, d: Divisor, vertices: tuple[str, ...],
                  cap: int | None) -> tuple[GaloisCertificate, ...]:
    """The verdicts at the given vertices for a rank-2 divisor d on a
    bridgeless graph.  d is reduced once, the smoothness verdicts are
    read off it by `_smoothness`, the orbit arithmetic of order
    deg(d) - 1 is done once, and each smooth vertex p runs its own
    `_find_witness` on d - p, one `_drop_chip` from the reduced form,
    unless it can carry over the certificate of the vertex before it.

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
    pass, has a conjugate that is the first of the pinned pass at p;
    `_first_witness` works out its E1 and E2 afresh.  A witness that
    moves p - 1 came from the moving pass, whose order conjugation does
    not keep, so p is searched.  Both caps, with the same n and m, were
    already passed at p - 1.
    """
    red, _ = _reduce_coeffs(g, list(d.coeffs), 0)
    every = _smoothness(g, red)
    fit = _orbits_fit(g, d.degree - 1)
    certs: list[GaloisCertificate] = []
    for p in vertices:
        pi = g.index_of(p)
        if not every[pi].ok:
            certs.append(GaloisCertificate(vertex=p, verdict=False, reason=every[pi].failure))
            continue
        dp = _drop_chip(g._adj, red, pi)
        last = certs[-1] if pi and certs and certs[-1].vertex == g.vertices[pi - 1] else None
        t = _twin_swap(g, d, pi) if last else None
        if t and isinstance(last.reason, NoQualifyingSubgroup):
            certs.append(GaloisCertificate(vertex=p, verdict=False, reason=last.reason))
        elif t and last.verdict and all(x[pi - 1] == pi - 1 for x in last.subgroup.perms):
            carried = frozenset(tuple([t[x[u]] for u in t]) for x in last.subgroup.perms)
            certs.append(_first_witness(g, p, dp, [carried]))
        else:
            certs.append(_find_witness(g, p, dp, cap, fit))
    return tuple(certs)


def _twin_swap(g: Graph, d: Divisor, pi: int) -> tuple[int, ...] | None:
    """The transposition of vertices pi - 1 and pi when it is an
    automorphism of g that fixes d: the two have the same neighbours
    apart from each other, and the same coefficient.  Else None."""
    a, masks = pi - 1, g._adj_masks
    if d.coeffs[a] != d.coeffs[pi] or masks[a] & ~(1 << pi) != masks[pi] & ~(1 << a):
        return None
    t = list(range(len(masks)))
    t[a], t[pi] = pi, a
    return tuple(t)


def is_galois_point(g: Graph, d: Divisor, p: str, cap: int | None = None) -> GaloisCertificate:
    """Decide whether p is a Galois point for the rank-2 divisor d.

    The witness search ranges over the harmonic subgroups of the full
    automorphism group of order deg(d) - 1, those fixing p first, and
    returns the first qualifying one; exhausting them yields a
    NoQualifyingSubgroup verdict that counts them.
    """
    g.index_of(p)
    _require_two_edge_connected(g)
    _require_rank_two(g, d, cap)
    return _certificates(g, d, (p,), cap)[0]


@lru_cache(maxsize=512)
def classify_galois_points(g: Graph, d: Divisor, cap: int | None = None) -> ClassificationReport:
    """Run the Galois decision at every vertex.

    The bridge check, rank(d) and the reduced form of d depend on
    (g, d) only, so each is computed once per call.  The smoothness
    conditions are read off the reduced form of d.  A smooth vertex
    whose twin just before it was searched carries the twin's
    certificate over by their swap (`_certificates`).  Every other
    smooth vertex searches the admissible automorphisms that fix it, one
    pruned search per group, until the first witness; only a vertex
    whose fixing pass finds none runs one pass over the full admissible
    pool for the subgroups that move it.
    When rank(d) differs from 2 no vertex can qualify, so every
    certificate carries RankNotTwo instead of raising.  The count
    constraint (0, 1, or all vertices) only applies to the all-ones
    divisor at rank 2; otherwise the report is vacuously consistent.
    The cache serves `enumerate_corpus`, which passes every labeled
    graph of an isomorphism class as the same representative (g, d).
    """
    if d.graph != g:
        raise GraphMismatchError("divisor is bound to a different graph")
    _require_two_edge_connected(g)
    all_ones = d == Divisor.all_ones(g)
    r = rank(g, d, cap)
    if r != 2:
        certs = tuple(
            GaloisCertificate(vertex=v, verdict=False, reason=RankNotTwo(r)) for v in g.vertices
        )
    else:
        certs = _certificates(g, d, g.vertices, cap)
    count = sum(1 for c in certs if c.verdict)
    n = len(g.vertices)
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
    """
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
    takes one of them from the other by this very identity.
    """
    if d.graph != g:
        raise GraphMismatchError("divisor is bound to a different graph")
    k = canonical_divisor(g)
    r_d = _rank_walk(g, d, cap)
    r_kd = _rank_walk(g, k - d, cap)
    lhs = r_d - r_kd
    rhs = d.degree + 1 - genus(g)
    return RiemannRochCheck(
        holds=lhs == rhs,
        rank=r_d,
        canonical_rank=r_kd,
        lhs=lhs,
        rhs=rhs,
        degree=d.degree,
        genus=genus(g),
    )


def audit_certificate(g: Graph, d: Divisor, cert: GaloisCertificate,
                      cap: int | None = None) -> list[str]:
    """Re-verify a certificate without trusting the search that built it.

    Returns a list of problems; an empty list means the certificate is
    sound.  Positive verdicts get every witness condition rechecked
    (group axioms, order, harmonicity, quotient size, fixedness, and
    membership of both divisors in the linear system via independent
    equivalence checks).  Negative verdicts must reproduce their stated
    failure; a NoQualifyingSubgroup verdict also needs the ranks that
    put its vertex in the search, checked by `rank` alone, and its count
    is redone over both passes of the harmonic subgroups, without the
    search's arithmetic shortcuts.
    """
    problems: list[str] = []
    try:
        g.index_of(cert.vertex)
    except UnknownVertexError:
        return [f"certificate names unknown vertex {cert.vertex!r}"]

    if cert.verdict:
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
        dp = d - Divisor.vertex(g, cert.vertex)
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

    reason = cert.reason
    if reason is None:
        return ["negative certificate carries no reason"]
    if isinstance(reason, (RankNotTwo, Cond1Fail, Cond2Fail)):
        # The rank of d, d - p or d - p - q, which must not be 2, 1 or 0.
        removed = [getattr(reason, f) for f in ("vertex", "other") if hasattr(reason, f)]
        probe = d
        for label in removed:
            probe = probe - Divisor.vertex(g, label)
        r = rank(g, probe, cap)
        if r == 2 - len(removed) or r != reason.rank:
            problems.append(f"recorded rank {reason.rank} does not reproduce (got {r})")
    elif isinstance(reason, NoQualifyingSubgroup):
        # The search runs only where rank(d) = 2, rank(d - p) = 1 and
        # rank(d - p - q) = 0 for every q.
        p = cert.vertex
        dp = d - Divisor.vertex(g, p)
        probes = [(d, 2, "d"), (dp, 1, f"d - {p}")]
        probes += [(dp - Divisor.vertex(g, q), 0, f"d - {p} - {q}") for q in g.vertices]
        for probe, want, name in probes:
            r = rank(g, probe, cap)
            if r != want:
                return [f"rank({name}) is {r}, not {want}, so no subgroup search applies"]
        pi, m = g.index_of(p), dp.degree
        groups = chain(_harmonic_subgroups(g, m, pi), _moving(g, m, pi))
        _require_enumerable(m, len(g.vertices), cap)
        red, _ = _reduce_coeffs(g, list(dp.coeffs), 0)
        again = _first_witness(g, p, red, groups)
        if again.verdict:
            problems.append("a qualifying subgroup exists after all")
        elif again.reason != reason:
            problems.append(f"recorded {reason}, the search gives {again.reason}")
    return problems
