"""Command-line front end.

A command's handler only computes: from the graph (None for `corpus`)
and the parsed arguments it returns its JSON payload, its text lines
and whether its check passed.  `main` alone loads the graph, writes
stdout and sets the exit status: 0 for a computed answer or a passing
check, 1 when a consistency check fails mathematically (verify-theorem,
rr-check, classify, corpus), 2 for usage or input errors.  Run as a
program, it ends by SIGPIPE when its stdout pipe is closed.

`--format json` prints exactly what `json.dumps(payload, indent=2)`
would: two-space indent, non-ASCII and control characters escaped, keys
in insertion order.  The payloads hold only dicts with str keys, lists,
tuples, str, int, bool and None, so a private writer (`_dumps`) produces
those bytes without the pure-Python encoder that `indent` forces on
`json.dumps`; the golden digests in the tests pin them.  The records of
`corpus` (11,968 at n = 6) are the one exception: its payload holds a
function in their place, which the writer calls with its depth, and
`_corpus_graphs` joins their text from one piece per edge pair and one
per verdict row, as `json.dumps(enumerate_corpus(n).to_json(),
indent=2)` would write them.  `--format text` never calls it.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from itertools import combinations
from json.encoder import encode_basestring_ascii as _escape
from operator import attrgetter

from .corpus import CorpusResult, enumerate_corpus
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
from .graphs import Graph, _labels, generate, parse_family
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
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliUsageError(f"--graph: invalid JSON in {args.graph!r}: {exc}") from None
    return Graph.from_json(obj)


def _parse_divisor(g: Graph, text: str | None, flag: str = "--divisor") -> Divisor:
    if text is None:
        raise CliUsageError(f"{flag} is required for this command")
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
        raise CliUsageError(f"{flag}: invalid JSON ({exc})") from None
    if not isinstance(obj, kind):
        raise CliUsageError(f"{flag}: expected a JSON {expected}")
    return obj


class CliUsageError(Exception):
    pass


_LITERALS = {None: "null", True: "true", False: "false"}


class _Depth:
    """The whitespace of one nesting depth of the indented JSON, and the
    text already written there: each dict key's line prefix (newline,
    indent, key and `": "`), and each list of strings whole, written by
    one join and filed by its items.  A graph's vertex and edge lists
    and a quotient's orbits take that path; without it `gen`, `classify`
    and `quotient` payloads are written up to a fifth slower.  A corpus's
    records bypass `_encode`: `_corpus_graphs` joins them from text
    pieces cut with the same whitespace and key prefixes."""

    __slots__ = ("depth", "open", "sep", "close", "keys", "strings", "_inner")

    def __init__(self, depth: int):
        pad = "\n" + "  " * (depth + 1)
        self.depth = depth
        self.open = pad
        self.sep = "," + pad
        self.close = "\n" + "  " * depth
        self.keys: dict[str, str] = {}
        self.strings: dict[tuple[str, ...], str] = {}
        self._inner = None

    @property
    def inner(self) -> "_Depth":
        if self._inner is None:
            self._inner = _Depth(self.depth + 1)
        return self._inner

    def key(self, k: str) -> str:
        prefix = self.keys.get(k)
        if prefix is None:
            prefix = self.keys[k] = self.open + _escape(k) + ": "
        return prefix


def _dumps(payload) -> str:
    """`json.dumps(payload, indent=2)` for dicts with str keys, lists,
    tuples, str, int, bool and None; any other type raises TypeError.
    A value may also be a function of its `_Depth` that returns its text
    there (`_corpus_graphs`)."""
    return _encode(payload, _Depth(0))


def _encode(value, at: _Depth) -> str:
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = at.keys
        items = []
        for k, v in value.items():
            prefix = keys.get(k) if type(k) is str else None
            if prefix is None:
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {k.__class__.__name__}")
                # `at.key(k)`, inlined: the call would cost small
                # payloads 3-4%, since each new key misses once per call.
                prefix = keys[k] = at.open + _escape(k) + ": "
            t = type(v)
            if t is str:
                items.append(prefix + _escape(v))
            elif t is int:
                items.append(prefix + int.__repr__(v))
            elif t is bool or v is None:
                items.append(prefix + _LITERALS[v])
            else:
                items.append(prefix + _encode(v, at.inner))
        return "{" + ",".join(items) + at.close + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if type(value[0]) is str:
            # Only lists of str are filed, and no item of another JSON
            # type equals a str, so a hit is a list of the same strings.
            try:
                key = tuple(value)
                text = at.strings.get(key)
                if text is None:
                    text = at.strings[key] = "[" + at.open + at.sep.join(map(_escape, value)) + at.close + "]"
                return text
            except TypeError:  # an item is unhashable or not a str
                pass
        inner = at.inner
        return "[" + at.open + at.sep.join([_encode(v, inner) for v in value]) + at.close + "]"
    if value is None or isinstance(value, bool):
        return _LITERALS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if callable(value):
        return value(at)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


# A corpus record's fields after its edges, named as in `to_json()`.
_VERDICTS = ("rank", "galois_count", "theorem_consistent", "corollary_consistent")


def _corpus_graphs(result: CorpusResult, at: _Depth) -> str:
    """What `_encode` writes at depth `at` for the list of the records'
    `to_json()`, assembled from text: one piece per edge pair and one
    per distinct verdict row, so that a record costs one join and never
    becomes a dict or list.  A sweep has at least one record (the
    complete graph), and a record at least three edges."""
    record = at.inner
    edges = record.inner
    pair_text = {pair: _encode(pair, edges.inner) for pair in combinations(_labels(result.n), 2)}
    head = "{" + record.key("edges") + "[" + edges.open
    verdicts = attrgetter(*_VERDICTS)
    tails: dict[tuple, str] = {}
    texts = []
    for r in result.records:
        row = verdicts(r)
        tail = tails.get(row)
        if tail is None:
            tail = tails[row] = edges.close + "]" + "".join(
                ["," + record.key(k) + _encode(v, record) for k, v in zip(_VERDICTS, row)]
            ) + record.close + "}"
        texts.append(head + edges.sep.join(map(pair_text.__getitem__, r.edges)) + tail)
    return "[" + at.open + at.sep.join(texts) + at.close + "]"


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
    return payload, [str(reduced)], True


def _cmd_equiv(g: Graph, args) -> tuple:
    d1 = _parse_divisor(g, args.divisor)
    d2 = _parse_divisor(g, args.divisor2, flag="--divisor2")
    eq = linearly_equivalent(g, d1, d2)
    return {"equivalent": eq}, ["true" if eq else "false"], True


def _cmd_linsys(g: Graph, args) -> tuple:
    d = _parse_divisor(g, args.divisor)
    members = sorted(linear_system(g, d, args.cap), key=lambda e: e.coeffs)
    payload = {"degree": d.degree, "count": len(members), "divisors": [e.to_json() for e in members]}
    return payload, [str(e) for e in members] or ["(empty)"], True


def _cmd_aut(g: Graph, args) -> tuple:
    full = automorphism_group(g)
    lines = [f"order {full.order}"] + [a.cycle_notation() for a in full.elements]
    return {"order": full.order, "elements": full.to_json()}, lines, True


def _cmd_subgroups(g: Graph, args) -> tuple:
    if args.order is None:
        raise CliUsageError("--order is required for this command")
    subs = subgroups_of_order(automorphism_group(g), args.order)
    payload = {"order": args.order, "count": len(subs), "subgroups": [s.to_json() for s in subs]}
    lines = [f"{len(subs)} subgroup(s) of order {args.order}"]
    lines += ["  {" + ", ".join(a.cycle_notation() for a in s.elements) + "}" for s in subs]
    return payload, lines, True


def _cmd_quotient(g: Graph, args) -> tuple:
    q = quotient_graph(g, _parse_subgroup(g, args.subgroup))
    lines = ["vertices: " + " ".join(q.vertices)]
    for c in q.edge_classes:
        lines.append(f"class {c.key}: {c.endpoints[0]}-{c.endpoints[1]} "
                     f"({' '.join(f'{u}-{v}' for u, v in c.members)})")
    return q.to_json(), lines, True


def _cmd_harmonic(g: Graph, args) -> tuple:
    h = _parse_subgroup(g, args.subgroup)
    result = acts_harmonically(g, h, args.mode)
    payload = {"harmonic": result, "mode": args.mode, "order": h.order}
    return payload, ["true" if result else "false"], True


def _cmd_galois(g: Graph, args) -> tuple:
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
               "graphs": lambda at: _corpus_graphs(result, at)}
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


# name -> (help, handler(g, args) -> (payload, text lines, passed),
#          options as (flag, add_argument keywords))
_COMMANDS = {
    "gen": ("emit a named family graph", _cmd_gen, _graph_options()),
    "rank": ("rank of a divisor", _cmd_rank, _graph_options(divisor=True, cap=True)),
    "reduce": ("reduced form of a divisor at a base vertex", _cmd_reduce,
               _graph_options(("--base", {"help": "base vertex (default: first vertex)"}),
                              divisor=True, cap=True)),
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser of every command, or, given a command name,
    one that knows only that command and reads the same arguments."""
    parser = argparse.ArgumentParser(
        prog="graphdivisors",
        description="Divisor theory on finite graphs: reduced divisors, rank, "
                    "harmonic actions, and Galois-point classification.",
    )
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        chosen = _COMMANDS
    else:
        # The usage line of an error still lists every command.
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
        chosen = {command: _COMMANDS[command]}
    for name, (help_text, _, options) in chosen.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    _, handler, options = _COMMANDS[args.command]
    try:
        g = _load_graph(args) if _FAMILY in options else None
        payload, text_lines, passed = handler(g, args)
        if args.format == "json":
            print(_dumps(payload))
        else:
            for line in text_lines:
                print(line)
    except (CliUsageError, GraphDivisorsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0 if passed else 1


def console_main() -> None:
    # Here and not in `main`, which tests and benchmarks call in-process.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    console_main()
