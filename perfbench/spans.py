"""In-memory call spans around the library's public functions.

A `Tracer` replaces a function at every module attribute that refers to
it, so a call made through `galois.rank` is traced as well as one made
through `divisors.rank`.  Each call records a span (name, start, end,
parent span, whether it raised); `restore` puts the originals back.
Nothing inside the library changes: the spans sit at its call
boundaries.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    error: bool = False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest properly, so children of one
    parent never overlap and their durations simply add up.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """`fn` recording a span per call; `observe(counters, args, result)`
        runs after each call that returns."""
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def patch_everywhere(self, name: str, fn: Callable, modules, observe=None) -> None:
        """Replace `fn` at every attribute of `modules` that is `fn`."""
        traced = self.wrap(name, fn, observe)
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is fn]:
                self._set(module, attr, traced)

    def patch_attribute(self, name: str, owner, attr: str, observe=None) -> None:
        self._set(owner, attr, self.wrap(name, getattr(owner, attr), observe))

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, self_s and errors; plus the counters."""
        per_name: dict[str, dict] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = per_name.setdefault(span.name, {"calls": 0, "self_s": 0.0, "errors": 0})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["errors"] += span.error
        return {"functions": per_name, "counters": dict(self.counters)}

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, error."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.error]) + "\n")


def _observe_linear_system(counters, args, result) -> None:
    g, d = args[0], args[1]
    counters["divisors.linear_system.members"] += len(result)
    if d.degree >= 0:
        n = len(g.vertices)
        counters["divisors.linear_system.candidates"] += comb(d.degree + n - 1, n - 1)


def _observe_q_reduce(counters, args, result) -> None:
    counters["divisors.q_reduce.chips"] += sum(abs(c) for c in args[1].coeffs)


def _observe_subgroups(counters, args, result) -> None:
    counters["symmetry.subgroups_of_order.subgroups"] += len(result)


def _observe_harmonic(counters, args, result) -> None:
    counters["symmetry.acts_harmonically.accepted"] += bool(result)


def _observe_classify(counters, args, result) -> None:
    for cert in result.certificates:
        counters["galois.verdicts." + ("positive" if cert.verdict else cert.reason.tag)] += 1


def _observe_corpus(counters, args, result) -> None:
    counters["corpus.graphs_tested"] += result.graphs_tested


# (span name, module, function, observer).  q_reduce is traced through
# q_reduce_with_witness, which q_reduce itself calls.
LIBRARY_FUNCTIONS = (
    ("divisors.rank", "divisors", "rank", None),
    ("divisors.linear_system", "divisors", "linear_system", _observe_linear_system),
    ("divisors.q_reduce", "divisors", "q_reduce_with_witness", _observe_q_reduce),
    ("divisors.linearly_equivalent", "divisors", "linearly_equivalent", None),
    ("symmetry.automorphism_group", "symmetry", "automorphism_group", None),
    ("symmetry.subgroups_of_order", "symmetry", "subgroups_of_order", _observe_subgroups),
    ("symmetry.acts_harmonically", "symmetry", "acts_harmonically", _observe_harmonic),
    ("galois.classify_galois_points", "galois", "classify_galois_points", _observe_classify),
    ("galois.is_galois_point", "galois", "is_galois_point", None),
    ("galois.riemann_roch_check", "galois", "riemann_roch_check", None),
    ("corpus.enumerate_corpus", "corpus", "enumerate_corpus", _observe_corpus),
    ("graphs.is_two_edge_connected", "graphs", "is_two_edge_connected", None),
    ("cli.main", "cli", "main", None),
)


def trace_library(tracer: Tracer, gd) -> None:
    """Trace the public functions of the imported `graphdivisors` package."""
    modules = [gd, gd.graphs, gd.divisors, gd.symmetry, gd.galois, gd.corpus, gd.cli]
    for name, module, attr, observe in LIBRARY_FUNCTIONS:
        tracer.patch_everywhere(name, getattr(getattr(gd, module), attr), modules, observe)
    # Graph construction is traced on the class, so every caller sees it.
    tracer.patch_attribute("graphs.build", gd.graphs.Graph, "__init__")
