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

from copy import copy
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, tee
from typing import Callable, Iterable, Iterator, Mapping, Union

from .divisors import Divisor, canonical_divisor, linearly_equivalent, rank
from .divisors import _drop_chip, _empty_probe, _members, _reduce_coeffs, _require_enumerable
from .errors import (
    GraphMismatchError,
    NotTwoEdgeConnectedError,
    RankPreconditionError,
    UnknownVertexError,
)
from .graphs import Graph, genus, is_two_edge_connected
from .symmetry import (
    Subgroup,
    _automorphisms,
    _harmonic_element,
    _perm_order,
    _subgroups_in_order,
    _vertex_orbits,
    acts_harmonically,
    apply_to_divisor,
)


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
    out = {"tag": reason.tag}
    for field in reason.__dataclass_fields__:
        out[field] = getattr(reason, field)
    return out


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
        return {
            "is_complete": self.is_complete,
            "has_two_galois": self.has_two_galois,
            "equivalence_holds": self.equivalence_holds,
            "all_vertices_galois": self.all_vertices_galois,
            "galois_count": self.galois_count,
            "rank": self.rank,
        }


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
        return {
            "holds": self.holds,
            "rank": self.rank,
            "canonical_rank": self.canonical_rank,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "degree": self.degree,
            "genus": self.genus,
        }


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
    return _smoothness_unchecked(g, _drop_chip(g._adj, red, pi), p)


def _smoothness_unchecked(g: Graph, dp: list[int], p: str) -> SmoothnessCheck:
    """The smoothness verdict at p for a rank-2 divisor d, read off the
    0-reduced form dp of d - p and its avalanches without calling `rank`.

    Removing a vertex lowers the rank by at most one, and r(D) =
    1 + min_v r(D - v) when |D| is nonempty.  With
    r(d) = 2 this gives r(d - p - q) = 0 iff d - p - q - v is empty for
    some v (the degree-1 probe), and r(d - p) = 1 iff that holds for some
    q; otherwise r(d - p) = 2 and every r(d - p - q) = 1.  Each reduced
    form is one `_drop_chip` away from dp, and every probe stays within
    degree 3, which rank(d) = 2 already passed under the cap.
    """
    adj = g._adj
    rank_zero = [_empty_probe(g, _drop_chip(adj, dp, q), 1) for q in range(len(g.vertices))]
    if not any(rank_zero):
        return SmoothnessCheck(False, Cond1Fail(p, 2))
    for q, zero in zip(g.vertices, rank_zero):
        if not zero:
            return SmoothnessCheck(False, Cond2Fail(p, q, 1))
    return SmoothnessCheck(True)


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


def _admissible_elements(g: Graph, m: int) -> list[tuple[int, ...]]:
    """The elements a harmonic subgroup of order m of Aut(g) can hold,
    sorted: non-identity automorphisms of order dividing m that fix no
    vertex together with a neighbour.  One pruned automorphism search
    finds them without building Aut(g); when m does not divide |Aut(g)|
    they may be nonempty, but then no subgroup of order m exists and
    `_subgroups_in_order` yields none.  The witness search builds this
    pool only when some vertex needs the subgroups that move it."""
    return list(_automorphisms(g, m=m))


def _witness_search(g: Graph, m: int) -> Callable[[int], Iterator[frozenset]]:
    """For order m, a map from a vertex index pi to its candidates: the
    harmonic subgroups of order m, lazily, those fixing pi first, each
    part in sorted order.  Each call checks the automorphism vertex cap.

    The groups fixing pi are searched on the admissible elements that
    fix pi, streamed from a search pinned at pi as far as the subgroup
    search reads them; each such pass keeps only its own state.  The
    full pool and its subgroups are built once, and only when some
    vertex needs the groups that move it.
    """
    n = len(g.vertices)

    def every_group():
        # A generator, so the pool is built at the first read, not here.
        yield from _subgroups_in_order(_admissible_elements(g, m), m, n)

    # Each copy of the unread tee rereads one lazily drawn list.
    every, = tee(every_group(), 1)

    def candidates(pi: int) -> Iterator[frozenset]:
        fixing = _subgroups_in_order(_automorphisms(g, m=m, pin=pi), m, n, _pinned_fits(g, m, pi))
        return chain(fixing, (h for h in copy(every) if any(x[pi] != pi for x in h)))

    return candidates


def _pinned_fits(g: Graph, m: int, pi: int) -> Callable[[tuple[int, ...]], bool]:
    """Whether an automorphism y is the identity or one of the elements
    `_automorphisms(g, m=m, pin=pi)` streams: it fixes pi, its order
    divides m and it is harmonic.  A test on y alone, so the subgroup
    search over the stream needs no pool."""
    identity = tuple(range(len(g.vertices)))
    adj = g._adj

    def fits(y):
        return y[pi] == pi and (
            y == identity or (m % _perm_order(y) == 0 and _harmonic_element(adj, y)))

    return fits


def _find_witness(g: Graph, p: str, dp: list[int], candidates: Iterable[frozenset],
                  cap: int | None) -> GaloisCertificate:
    """The certificate at a smooth vertex p, where dp is the 0-reduced
    form of d - p: the first qualifying witness among `candidates` (see
    `_witness_search`), or, once every candidate fails,
    NoQualifyingSubgroup with their count.

    A subgroup fixes the orbit-constant members of |d - p|, which
    `_members` walks from dp.  The cap refuses the search whenever it
    would refuse to enumerate that linear system.
    """
    m = sum(dp)
    _require_enumerable(m, len(dp), cap)
    checked = 0
    for perms in candidates:
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


def _certificates(g: Graph, d: Divisor, vertices: Iterable[str],
                  cap: int | None) -> tuple[GaloisCertificate, ...]:
    """The verdicts at the given vertices for a rank-2 divisor d on a
    bridgeless graph.  d is reduced once, each d - p is one `_drop_chip`
    from it, and every smooth vertex draws its candidates from one
    `_witness_search`, built only if some vertex is smooth.
    """
    red, _ = _reduce_coeffs(g, list(d.coeffs), 0)
    dps = [(p, _drop_chip(g._adj, red, g.index_of(p))) for p in vertices]
    checks = [_smoothness_unchecked(g, dp, p) for p, dp in dps]
    search = _witness_search(g, d.degree - 1) if any(sm.ok for sm in checks) else None
    return tuple(
        _find_witness(g, p, dp, search(g.index_of(p)), cap) if sm.ok
        else GaloisCertificate(vertex=p, verdict=False, reason=sm.failure)
        for (p, dp), sm in zip(dps, checks)
    )


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
    conditions are read off the reduced form of d.  Each smooth vertex
    streams the admissible automorphisms that fix it until the first
    witness; the full admissible pool and its subgroups are built at
    most once, only if some vertex needs the subgroups that move it.
    When rank(d) differs from 2 no vertex can qualify, so every
    certificate carries RankNotTwo instead of raising.  The count
    constraint (0, 1, or all vertices) only applies to the all-ones
    divisor at rank 2; otherwise the report is vacuously consistent.
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
    _require_two_edge_connected(g)
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
    """Evaluate rank(d) - rank(K - d) against deg(d) + 1 - genus."""
    if d.graph != g:
        raise GraphMismatchError("divisor is bound to a different graph")
    k = canonical_divisor(g)
    r_d = rank(g, d, cap)
    r_kd = rank(g, k - d, cap)
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
    failure.
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
    if isinstance(reason, RankNotTwo):
        r = rank(g, d, cap)
        if r == 2 or r != reason.rank:
            problems.append(f"recorded rank {reason.rank} does not reproduce (got {r})")
    elif isinstance(reason, Cond1Fail):
        r = rank(g, d - Divisor.vertex(g, reason.vertex), cap)
        if r == 1 or r != reason.rank:
            problems.append(f"recorded rank {reason.rank} does not reproduce (got {r})")
    elif isinstance(reason, Cond2Fail):
        probe = d - Divisor.vertex(g, reason.vertex) - Divisor.vertex(g, reason.other)
        r = rank(g, probe, cap)
        if r == 0 or r != reason.rank:
            problems.append(f"recorded rank {reason.rank} does not reproduce (got {r})")
    elif isinstance(reason, NoQualifyingSubgroup):
        dp, _ = _reduce_coeffs(g, list((d - Divisor.vertex(g, cert.vertex)).coeffs), 0)
        candidates = _witness_search(g, d.degree - 1)(g.index_of(cert.vertex))
        again = _find_witness(g, cert.vertex, dp, candidates, cap)
        if again.verdict:
            problems.append("a qualifying subgroup exists after all")
        elif again.reason.subgroups_checked != reason.subgroups_checked:
            problems.append(
                f"recorded {reason.subgroups_checked} candidate subgroups, "
                f"search examined {again.reason.subgroups_checked}"
            )
    return problems
