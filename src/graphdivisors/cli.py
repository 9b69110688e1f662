"""Command-line front end.

Exit status: 0 for a computed answer (and for consistency checks that
pass), 1 when a consistency check fails mathematically (verify-theorem,
rr-check, classify, corpus), 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import enumerate_corpus
from .divisors import (
    Divisor,
    _resolve_cap,
    is_q_reduced,
    linear_system,
    linearly_equivalent,
    q_reduce_with_witness,
    rank,
)
from .errors import GraphDivisorsError
from .galois import classify_galois_points, is_galois_point, riemann_roch_check, verify_theorem
from .graphs import Graph, generate, parse_family
from .symmetry import Subgroup, acts_harmonically, automorphism_group, quotient_graph, subgroups_of_order

USAGE_ERROR = 2


def _cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _add_graph_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="inline family spec, e.g. complete:5, wheel:6, cycle:4, house4")
    p.add_argument("--graph", help="path to a graph JSON file")


def _add_common(p: argparse.ArgumentParser, divisor: bool = False, cap: bool = False) -> None:
    _add_graph_options(p)
    if divisor:
        p.add_argument("--divisor", default=None,
                       help="inline divisor JSON, or 'all-ones' or 'zero'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    if cap:
        p.add_argument("--cap", type=_cap, default=None, help="enumeration cap override")


def _load_graph(args) -> Graph:
    if bool(args.family) == bool(args.graph):
        raise CliUsageError("exactly one of --family or --graph is required")
    if args.family:
        return generate(parse_family(args.family))
    try:
        with open(args.graph) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliUsageError(f"--graph: cannot read {args.graph!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"--graph: invalid JSON in {args.graph!r}: {exc}") from None
    return Graph.from_json(obj)


def _parse_divisor(g: Graph, text: str | None, flag: str = "--divisor") -> Divisor:
    if text is None:
        raise CliUsageError(f"{flag} is required for this command")
    if text == "all-ones":
        return Divisor.all_ones(g)
    if text == "zero":
        return Divisor.zero(g)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"{flag}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise CliUsageError(f"{flag}: expected a JSON object of vertex coefficients")
    return Divisor.from_json(g, obj)


def _parse_subgroup(g: Graph, text: str | None) -> Subgroup:
    if text is None:
        return automorphism_group(g)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"--subgroup: invalid JSON ({exc})") from None
    if not isinstance(obj, list):
        raise CliUsageError("--subgroup: expected a JSON list of vertex mappings")
    return Subgroup.from_generators(g, obj)


class CliUsageError(Exception):
    pass


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        for line in text_lines:
            print(line)


def _cmd_gen(args) -> int:
    g = _load_graph(args)
    _emit(args, g.to_json(), [
        "vertices: " + " ".join(g.vertices),
        "edges: " + " ".join(f"{u}-{v}" for u, v in g.edges),
    ])
    return 0


def _cmd_rank(args) -> int:
    g = _load_graph(args)
    d = _parse_divisor(g, args.divisor)
    r = rank(g, d, args.cap)
    _emit(args, {"rank": r}, [str(r)])
    return 0


def _cmd_reduce(args) -> int:
    g = _load_graph(args)
    d = _parse_divisor(g, args.divisor)
    base = args.base if args.base is not None else g.vertices[0]
    reduced, witness = q_reduce_with_witness(g, d, base)
    # The self-check enumerates 2^(n-1) subsets; past the cap it is skipped.
    subsets = 1 << (len(g.vertices) - 1)
    capv = _resolve_cap(args.cap)
    if subsets > capv:
        is_reduced = None
        print(f"note: is_reduced not checked: the subset check needs {subsets} subsets (cap {capv})",
              file=sys.stderr)
    else:
        is_reduced = is_q_reduced(g, reduced, base)
    payload = {
        "base": base,
        "divisor": d.to_json(),
        "reduced": reduced.to_json(),
        "witness": witness.as_dict(),
        "is_reduced": is_reduced,
    }
    _emit(args, payload, [str(reduced)])
    return 0


def _cmd_equiv(args) -> int:
    g = _load_graph(args)
    d1 = _parse_divisor(g, args.divisor)
    d2 = _parse_divisor(g, args.divisor2, flag="--divisor2")
    eq = linearly_equivalent(g, d1, d2)
    _emit(args, {"equivalent": eq}, ["true" if eq else "false"])
    return 0


def _cmd_linsys(args) -> int:
    g = _load_graph(args)
    d = _parse_divisor(g, args.divisor)
    members = sorted(linear_system(g, d, args.cap), key=lambda e: e.coeffs)
    payload = {"degree": d.degree, "count": len(members), "divisors": [e.to_json() for e in members]}
    _emit(args, payload, [str(e) for e in members] or ["(empty)"])
    return 0


def _cmd_aut(args) -> int:
    g = _load_graph(args)
    full = automorphism_group(g)
    payload = {"order": full.order, "elements": full.to_json()}
    _emit(args, payload, [f"order {full.order}"] + [a.cycle_notation() for a in full.elements])
    return 0


def _cmd_subgroups(args) -> int:
    g = _load_graph(args)
    if args.order is None:
        raise CliUsageError("--order is required for this command")
    full = automorphism_group(g)
    subs = subgroups_of_order(full, args.order)
    payload = {"order": args.order, "count": len(subs), "subgroups": [s.to_json() for s in subs]}
    lines = [f"{len(subs)} subgroup(s) of order {args.order}"]
    for s in subs:
        lines.append("  {" + ", ".join(a.cycle_notation() for a in s.elements) + "}")
    _emit(args, payload, lines)
    return 0


def _cmd_quotient(args) -> int:
    g = _load_graph(args)
    h = _parse_subgroup(g, args.subgroup)
    q = quotient_graph(g, h)
    lines = ["vertices: " + " ".join(q.vertices)]
    for c in q.edge_classes:
        lines.append(f"class {c.key}: {c.endpoints[0]}-{c.endpoints[1]} "
                     f"({' '.join(f'{u}-{v}' for u, v in c.members)})")
    _emit(args, q.to_json(), lines)
    return 0


def _cmd_harmonic(args) -> int:
    g = _load_graph(args)
    h = _parse_subgroup(g, args.subgroup)
    result = acts_harmonically(g, h, args.mode)
    _emit(args, {"harmonic": result, "mode": args.mode, "order": h.order},
          ["true" if result else "false"])
    return 0


def _cmd_galois(args) -> int:
    g = _load_graph(args)
    d = _parse_divisor(g, args.divisor or "all-ones")
    if args.vertex is None:
        raise CliUsageError("--vertex is required for this command")
    cert = is_galois_point(g, d, args.vertex, args.cap)
    if cert.verdict:
        lines = [f"{cert.vertex}: galois point",
                 f"  subgroup order {cert.subgroup.order}, quotient vertices {cert.quotient_vertex_count}",
                 f"  E1 = {cert.e1}",
                 f"  E2 = {cert.e2}"]
    else:
        lines = [f"{cert.vertex}: not a galois point ({cert.reason.describe()})"]
    _emit(args, cert.to_json(), lines)
    return 0


def _cmd_classify(args) -> int:
    g = _load_graph(args)
    d = _parse_divisor(g, args.divisor or "all-ones")
    report = classify_galois_points(g, d, args.cap)
    lines = [f"rank {report.rank}, galois points: {report.galois_count}"]
    for c in report.certificates:
        if c.verdict:
            lines.append(f"  {c.vertex}: galois")
        else:
            lines.append(f"  {c.vertex}: no ({c.reason.describe()})")
    lines.append("corollary consistent" if report.corollary_consistent else "COROLLARY VIOLATED")
    _emit(args, report.to_json(), lines)
    return 0 if report.corollary_consistent else 1


def _cmd_verify_theorem(args) -> int:
    g = _load_graph(args)
    check = verify_theorem(g, args.cap)
    lines = [
        f"complete: {'yes' if check.is_complete else 'no'}",
        f"rank-2 with two galois points: {'yes' if check.has_two_galois else 'no'}",
        f"equivalence holds: {'yes' if check.equivalence_holds else 'no'}",
    ]
    if check.is_complete:
        lines.append(f"all vertices galois: {'yes' if check.all_vertices_galois else 'NO'}")
    _emit(args, check.to_json(), lines)
    return 0 if check.consistent else 1


def _cmd_rr_check(args) -> int:
    g = _load_graph(args)
    d = _parse_divisor(g, args.divisor)
    check = riemann_roch_check(g, d, args.cap)
    lines = [
        f"rank(D) = {check.rank}, rank(K-D) = {check.canonical_rank}",
        f"lhs {check.lhs} vs rhs {check.rhs} (deg {check.degree}, genus {check.genus})",
        "identity holds" if check.holds else "IDENTITY VIOLATED",
    ]
    _emit(args, check.to_json(), lines)
    return 0 if check.holds else 1


def _cmd_corpus(args) -> int:
    result = enumerate_corpus(args.n, cap=args.cap)
    failures = [r for r in result.records if not (r.theorem_consistent and r.corollary_consistent)]
    lines = [
        f"n={result.n}: {result.graphs_tested} two-edge-connected labeled graphs",
        f"consistent: {'all' if result.all_consistent else f'{len(failures)} failures'}",
    ]
    _emit(args, result.to_json(), lines)
    return 0 if result.all_consistent else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphdivisors",
        description="Divisor theory on finite graphs: reduced divisors, rank, "
                    "harmonic actions, and Galois-point classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named family graph")
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("rank", help="rank of a divisor")
    _add_common(p, divisor=True, cap=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("reduce", help="reduced form of a divisor at a base vertex")
    _add_common(p, divisor=True, cap=True)
    p.add_argument("--base", help="base vertex (default: first vertex)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("equiv", help="decide linear equivalence of two divisors")
    _add_common(p, divisor=True)
    p.add_argument("--divisor2", help="second divisor (same syntax as --divisor)")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("linsys", help="complete linear system of a divisor")
    _add_common(p, divisor=True, cap=True)
    p.set_defaults(func=_cmd_linsys)

    p = sub.add_parser("aut", help="full automorphism group")
    _add_common(p)
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("subgroups", help="all subgroups of a given order")
    _add_common(p)
    p.add_argument("--order", type=int, help="subgroup order")
    p.set_defaults(func=_cmd_subgroups)

    p = sub.add_parser("quotient", help="quotient graph by a subgroup")
    _add_common(p)
    p.add_argument("--subgroup", help="JSON list of vertex mappings (generators); default: full group")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("harmonic", help="test whether a subgroup acts harmonically")
    _add_common(p)
    p.add_argument("--subgroup", help="JSON list of vertex mappings (generators); default: full group")
    p.add_argument("--mode", choices=("criterion", "definition"), default="criterion")
    p.set_defaults(func=_cmd_harmonic)

    p = sub.add_parser("galois", help="Galois-point certificate for one vertex")
    _add_common(p, divisor=True, cap=True)
    p.add_argument("--vertex", help="vertex to test")
    p.set_defaults(func=_cmd_galois)

    p = sub.add_parser("classify", help="Galois-point classification of all vertices")
    _add_common(p, divisor=True, cap=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify-theorem", help="completeness vs. two-galois-points equivalence")
    _add_common(p, cap=True)
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("rr-check", help="rank identity check for a divisor")
    _add_common(p, divisor=True, cap=True)
    p.set_defaults(func=_cmd_rr_check)

    p = sub.add_parser("corpus", help="sweep all labeled 2-edge-connected graphs on n vertices")
    p.add_argument("--n", type=int, required=True, help="number of vertices (3..6)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cap", type=_cap, default=None)
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliUsageError, GraphDivisorsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
