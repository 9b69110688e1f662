"""Command-line front end.

A command's handler only computes: from the graph (None for `corpus`)
and the parsed arguments it returns its JSON payload, an iterable of
its text lines and whether its check passed.  `main` alone loads the
graph, writes stdout and sets the exit status: 0 for a computed answer
or a passing check, 1 when a consistency check fails mathematically
(verify-theorem, rr-check, classify, corpus), 2 for usage or input
errors.  A usage error is a `ValueError`, as the library's bad values
are; `main` prints it, a `GraphDivisorsError` or running out of memory
as one `error:` line on stderr.  Run as a program, it ends by SIGPIPE
when its stdout pipe is closed.  The symmetry limits are read and
checked in `symmetry` alone: `harmonic --mode definition` without
`--subgroup` takes its group from `symmetry._definition_group`, drawn
only up to one element past the definition-mode cap.  The enumeration
cap is read and checked in `divisors` alone; `reduce` takes none, since
its self-check is Dhar's linear-time burning test.

`--format json` prints exactly what `json.dumps(payload, indent=2)`
would: two-space indent, non-ASCII and control characters escaped, keys
in insertion order.  The payloads hold only dicts with str keys, lists,
tuples, str, int, bool and None, so one recursive function (`_dumps`)
produces those bytes without the pure-Python encoder that `indent`
forces on `json.dumps`; the golden digests in the tests pin them.

A call builds only the format it prints.  The long list of `aut`,
`subgroups`, `linsys` and `corpus` stands in its payload as a function,
which the writer calls with its depth, so `--format text` never builds
it; the text lines of `aut`, `subgroups` and `linsys` are an iterator
that `main` reads, so `--format json` never formats them.  The records
of `corpus` (11,968 at n = 6) are joined by `_corpus_graphs` from one
piece per edge pair and one per verdict row, as
`json.dumps(enumerate_corpus(n).to_json(), indent=2)` would write them.

An argv made only of a command name and exact `--flag value` pairs is
read straight from `_COMMANDS` by `_read_plain`, with no parser built.
Every other argv goes to the full parser of `build_parser`, which
prints help, usage lines and errors with their exit codes: help flags,
abbreviated flags, `--flag=value`, a repeated flag, a value starting
with `-`, and any argv that `_read_plain` would not take whole.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from itertools import chain, combinations
from json.encoder import encode_basestring_ascii as _escape

from .corpus import CorpusResult, enumerate_corpus
from .divisors import (
    Divisor,
    is_q_reduced,
    linear_system,
    linearly_equivalent,
    q_reduce_with_witness,
    rank,
)
from .errors import GraphDivisorsError
from .galois import classify_galois_points, is_galois_point, riemann_roch_check, verify_theorem
from .graphs import Graph, _labels, generate, parse_family
from .symmetry import (Subgroup, _definition_group, acts_harmonically, automorphism_group, quotient_graph,
                       subgroups_of_order)

USAGE_ERROR = 2


def _cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _load_graph(args) -> Graph:
    if bool(args.family) == bool(args.graph):
        raise ValueError("exactly one of --family or --graph is required")
    if args.family:
        return generate(parse_family(args.family))
    try:
        with open(args.graph, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"--graph: cannot read {args.graph!r}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"--graph: invalid JSON in {args.graph!r}: {exc}") from None
    return Graph.from_json(obj)


def _parse_divisor(g: Graph, text: str | None, flag: str = "--divisor") -> Divisor:
    if text is None:
        raise ValueError(f"{flag} is required for this command")
    if text == "all-ones":
        return Divisor.all_ones(g)
    if text == "zero":
        return Divisor.zero(g)
    return Divisor.from_json(g, _json_option(text, flag, dict, "object of vertex coefficients"))


def _parse_subgroup(g: Graph, text: str | None) -> Subgroup:
    if text is None:
        return automorphism_group(g)
    return Subgroup.from_generators(g, _json_option(text, "--subgroup", list, "list of vertex mappings"))


def _json_option(text: str, flag: str, kind: type, expected: str):
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{flag}: invalid JSON ({exc})") from None
    if not isinstance(obj, kind):
        raise ValueError(f"{flag}: expected a JSON {expected}")
    return obj


_LITERALS = {None: "null", True: "true", False: "false"}


def _dumps(value, depth: int = 0) -> str:
    """`json.dumps(value, indent=2)`, written at nesting depth `depth`,
    for dicts with str keys, lists, tuples, str, int, bool and None, one
    case per type and no state kept between values; any other type, or
    a key that is not str, raises TypeError (`_escape` takes only str).
    A value may also be a function of its depth that returns its text
    there: the long list of `aut`, `subgroups`, `linsys` and `corpus`,
    which `--format text` thus never builds.  Each container's text is
    formatted whole, not concatenated piece by piece, so a long one is
    copied once; its pieces come from a generator, so `join` frees
    their list before the copy.
    """
    if isinstance(value, str):
        return _escape(value)
    if value is None or isinstance(value, bool):
        return _LITERALS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        texts = (_escape(k) + ": " + _dumps(v, depth + 1) for k, v in value.items())
        shape = "{%s%s%s}"
    elif isinstance(value, (list, tuple)):
        texts = (_dumps(v, depth + 1) for v in value)
        shape = "[%s%s%s]"
    elif callable(value):
        return value(depth)
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    if not value:
        return shape % ("", "", "")
    pad = "\n" + "  " * (depth + 1)
    return shape % (pad, ("," + pad).join(texts), pad[:-2])


def _corpus_graphs(result: CorpusResult, depth: int) -> str:
    """What `_dumps` writes at `depth` for the list of the records'
    `to_json()`, assembled from text: one piece per edge pair and one
    per distinct verdict row, so that a record costs one join and never
    becomes a dict or list.  A sweep has at least one record (the
    complete graph), and a record at least three edges."""
    # The line breaks of the list, of each record, of a record's keys
    # and of its edges.
    at_list, at_record, at_key, at_edge = ("\n" + "  " * d for d in range(depth, depth + 4))
    pair_text = {pair: _dumps(pair, depth + 3) for pair in combinations(_labels(result.n), 2)}
    head = "{" + at_key + '"edges": [' + at_edge
    edge_sep = "," + at_edge
    tails: dict[tuple, str] = {}
    texts = []
    for r in result.records:
        # A record's verdict row is its fields after its edges.
        row = r[1:]
        tail = tails.get(row)
        if tail is None:
            tail = tails[row] = at_key + "]" + "".join(
                ["," + at_key + _escape(k) + ": " + _dumps(v) for k, v in zip(r._fields[1:], row)]
            ) + at_record + "}"
        texts.append(head + edge_sep.join(map(pair_text.__getitem__, r.edges)) + tail)
    return "[%s%s%s]" % (at_record, ("," + at_record).join(texts), at_list)


def _cmd_gen(g: Graph, args) -> tuple:
    return g.to_json(), [
        "vertices: " + " ".join(g.vertices),
        "edges: " + " ".join(f"{u}-{v}" for u, v in g.edges),
    ], True


def _cmd_rank(g: Graph, args) -> tuple:
    r = rank(g, _parse_divisor(g, args.divisor), args.cap)
    return {"rank": r}, [str(r)], True


def _cmd_reduce(g: Graph, args) -> tuple:
    d = _parse_divisor(g, args.divisor)
    base = args.base if args.base is not None else g.vertices[0]
    reduced, witness = q_reduce_with_witness(g, d, base)
    payload = {
        "base": base,
        "divisor": d.to_json(),
        "reduced": reduced.to_json(),
        "witness": witness.as_dict(),
        "is_reduced": is_q_reduced(g, reduced, base),
    }
    return payload, [str(reduced)], True


def _cmd_equiv(g: Graph, args) -> tuple:
    d1 = _parse_divisor(g, args.divisor)
    d2 = _parse_divisor(g, args.divisor2, flag="--divisor2")
    eq = linearly_equivalent(g, d1, d2)
    return {"equivalent": eq}, ["true" if eq else "false"], True


def _cmd_linsys(g: Graph, args) -> tuple:
    d = _parse_divisor(g, args.divisor)
    members = sorted(linear_system(g, d, args.cap), key=lambda e: e.coeffs)
    payload = {"degree": d.degree, "count": len(members),
               "divisors": lambda depth: _dumps([e.to_json() for e in members], depth)}
    return payload, map(str, members) if members else ["(empty)"], True


def _cmd_aut(g: Graph, args) -> tuple:
    elements = automorphism_group(g).elements
    payload = {"order": len(elements),
               "elements": lambda depth: _dumps([a.mapping() for a in elements], depth)}
    return payload, chain([f"order {len(elements)}"], (a.cycle_notation() for a in elements)), True


def _cmd_subgroups(g: Graph, args) -> tuple:
    if args.order is None:
        raise ValueError("--order is required for this command")
    subs = [s.elements for s in subgroups_of_order(automorphism_group(g), args.order)]
    payload = {"order": args.order, "count": len(subs),
               "subgroups": lambda depth: _dumps([[a.mapping() for a in s] for s in subs], depth)}
    lines = chain([f"{len(subs)} subgroup(s) of order {args.order}"],
                  ("  {" + ", ".join(a.cycle_notation() for a in s) + "}" for s in subs))
    return payload, lines, True


def _cmd_quotient(g: Graph, args) -> tuple:
    q = quotient_graph(g, _parse_subgroup(g, args.subgroup))
    lines = ["vertices: " + " ".join(q.vertices)]
    for c in q.edge_classes:
        lines.append(f"class {c.key}: {c.endpoints[0]}-{c.endpoints[1]} "
                     f"({' '.join(f'{u}-{v}' for u, v in c.members)})")
    return q.to_json(), lines, True


def _cmd_harmonic(g: Graph, args) -> tuple:
    definition = args.subgroup is None and args.mode == "definition"
    h = _definition_group(g) if definition else _parse_subgroup(g, args.subgroup)
    result = acts_harmonically(g, h, args.mode)
    payload = {"harmonic": result, "mode": args.mode, "order": h.order}
    return payload, ["true" if result else "false"], True


def _cmd_galois(g: Graph, args) -> tuple:
    d = _parse_divisor(g, args.divisor or "all-ones")
    if args.vertex is None:
        raise ValueError("--vertex is required for this command")
    cert = is_galois_point(g, d, args.vertex, args.cap)
    if cert.verdict:
        lines = [f"{cert.vertex}: galois point",
                 f"  subgroup order {cert.subgroup.order}, quotient vertices {cert.quotient_vertex_count}",
                 f"  E1 = {cert.e1}",
                 f"  E2 = {cert.e2}"]
    else:
        lines = [f"{cert.vertex}: not a galois point ({cert.reason.describe()})"]
    return cert.to_json(), lines, True


def _cmd_classify(g: Graph, args) -> tuple:
    report = classify_galois_points(g, _parse_divisor(g, args.divisor or "all-ones"), args.cap)
    lines = [f"rank {report.rank}, galois points: {report.galois_count}"]
    lines += [f"  {c.vertex}: galois" if c.verdict else f"  {c.vertex}: no ({c.reason.describe()})"
              for c in report.certificates]
    lines.append("corollary consistent" if report.corollary_consistent else "COROLLARY VIOLATED")
    return report.to_json(), lines, report.corollary_consistent


def _cmd_verify_theorem(g: Graph, args) -> tuple:
    check = verify_theorem(g, args.cap)
    lines = [
        f"complete: {'yes' if check.is_complete else 'no'}",
        f"rank-2 with two galois points: {'yes' if check.has_two_galois else 'no'}",
        f"equivalence holds: {'yes' if check.equivalence_holds else 'no'}",
    ]
    if check.is_complete:
        lines.append(f"all vertices galois: {'yes' if check.all_vertices_galois else 'NO'}")
    return check.to_json(), lines, check.consistent


def _cmd_rr_check(g: Graph, args) -> tuple:
    check = riemann_roch_check(g, _parse_divisor(g, args.divisor), args.cap)
    lines = [
        f"rank(D) = {check.rank}, rank(K-D) = {check.canonical_rank}",
        f"lhs {check.lhs} vs rhs {check.rhs} (deg {check.degree}, genus {check.genus})",
        "identity holds" if check.holds else "IDENTITY VIOLATED",
    ]
    return check.to_json(), lines, check.holds


def _cmd_corpus(g: None, args) -> tuple:
    result = enumerate_corpus(args.n, cap=args.cap)
    failures = [r for r in result.records if not (r.theorem_consistent and r.corollary_consistent)]
    lines = [
        f"n={result.n}: {result.graphs_tested} two-edge-connected labeled graphs",
        f"consistent: {'all' if result.all_consistent else f'{len(failures)} failures'}",
    ]
    payload = {"n": result.n, "graphs_tested": result.graphs_tested,
               "all_consistent": result.all_consistent,
               "graphs": lambda depth: _corpus_graphs(result, depth)}
    return payload, lines, result.all_consistent


_FAMILY = ("--family", {"help": "inline family spec, e.g. complete:5, wheel:6, cycle:4, house4"})
_GRAPH = ("--graph", {"help": "path to a graph JSON file"})
_DIVISOR = ("--divisor", {"default": None, "help": "inline divisor JSON, or 'all-ones' or 'zero'"})
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_CAP = ("--cap", {"type": _cap, "default": None, "help": "enumeration cap override"})
_SUBGROUP = ("--subgroup", {"help": "JSON list of vertex mappings (generators); default: full group"})


def _graph_options(*extra, divisor: bool = False, cap: bool = False) -> tuple:
    """The options of a command on one graph, in help order."""
    return ((_FAMILY, _GRAPH) + ((_DIVISOR,) if divisor else ()) + (_FORMAT,)
            + ((_CAP,) if cap else ()) + extra)


# name -> (help, handler(g, args) -> (payload, iterable of text lines, passed),
#          options as (flag, add_argument keywords))
_COMMANDS = {
    "gen": ("emit a named family graph", _cmd_gen, _graph_options()),
    "rank": ("rank of a divisor", _cmd_rank, _graph_options(divisor=True, cap=True)),
    "reduce": ("reduced form of a divisor at a base vertex", _cmd_reduce,
               _graph_options(("--base", {"help": "base vertex (default: first vertex)"}), divisor=True)),
    "equiv": ("decide linear equivalence of two divisors", _cmd_equiv,
              _graph_options(("--divisor2", {"help": "second divisor (same syntax as --divisor)"}),
                             divisor=True)),
    "linsys": ("complete linear system of a divisor", _cmd_linsys, _graph_options(divisor=True, cap=True)),
    "aut": ("full automorphism group", _cmd_aut, _graph_options()),
    "subgroups": ("all subgroups of a given order", _cmd_subgroups,
                  _graph_options(("--order", {"type": int, "help": "subgroup order"}))),
    "quotient": ("quotient graph by a subgroup", _cmd_quotient, _graph_options(_SUBGROUP)),
    "harmonic": ("test whether a subgroup acts harmonically", _cmd_harmonic,
                 _graph_options(_SUBGROUP, ("--mode", {"choices": ("criterion", "definition"),
                                                       "default": "criterion"}))),
    "galois": ("Galois-point certificate for one vertex", _cmd_galois,
               _graph_options(("--vertex", {"help": "vertex to test"}), divisor=True, cap=True)),
    "classify": ("Galois-point classification of all vertices", _cmd_classify,
                 _graph_options(divisor=True, cap=True)),
    "verify-theorem": ("completeness vs. two-galois-points equivalence", _cmd_verify_theorem,
                       _graph_options(cap=True)),
    "rr-check": ("rank identity check for a divisor", _cmd_rr_check, _graph_options(divisor=True, cap=True)),
    "corpus": ("sweep all labeled 2-edge-connected graphs on n vertices", _cmd_corpus, (
        ("--n", {"type": int, "required": True, "help": "number of vertices (3..6)"}),
        _FORMAT,
        ("--cap", {"type": _cap, "default": None}),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command."""
    parser = argparse.ArgumentParser(
        prog="graphdivisors",
        description="Divisor theory on finite graphs: reduced divisors, rank, "
                    "harmonic actions, and Galois-point classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def _read_plain(argv: list[str]) -> argparse.Namespace | None:
    """The arguments of a command name followed by `--flag value` pairs,
    read from `_COMMANDS` as the full parser reads them, or None where
    the full parser must read argv itself.

    It declines unless every flag is exactly one of the command's and
    comes once (so an abbreviation, `--flag=value`, `-h` or `--help`
    declines), no value starts with `-`, every value passes its
    option's `type` and lies in its `choices`, and every required
    option is given.  An option left out takes its `default`; argparse
    would run a str default through `type`, and no option has both.
    """
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    options = dict(_COMMANDS[argv[0]][2])
    values = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        keywords = options.get(flag)
        if keywords is None or flag in values or text.startswith("-"):
            return None
        value = text
        if "type" in keywords:
            try:
                value = keywords["type"](text)
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[flag] = value
    for flag, keywords in options.items():
        if flag not in values:
            if keywords.get("required"):
                return None
            values[flag] = keywords.get("default")
    return argparse.Namespace(command=argv[0],
                              **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    _, handler, options = _COMMANDS[args.command]
    try:
        g = _load_graph(args) if _FAMILY in options else None
        payload, text_lines, passed = handler(g, args)
        if args.format == "json":
            print(_dumps(payload))
        else:
            for line in text_lines:
                print(line)
    except (GraphDivisorsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return USAGE_ERROR
    return 0 if passed else 1


def console_main() -> None:
    # Here and not in `main`, which tests and benchmarks call in-process.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    console_main()
