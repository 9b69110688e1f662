"""The benchmark's workloads: how a run is split into worker tasks, what
each worker builds before timing starts (its cases), and the output
check of each case, which runs after timing stops.

The amount of work is a function of `--seconds` and `--seed` only.  It is
sized from nominal costs (the *_S constants) set so that a run at the
seed commit lasts about `--seconds` on a busy 2-core Xeon host; every
commit runs the same work, so a faster commit finishes sooner.  Only
inputs generated here reach the library.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

REFERENCE = Path(__file__).resolve().parent / "reference"

# A worker still running this long after its inputs are ready is killed
# and its operations count as failed.  Only complete:9 is expected to
# reach its deadline; the guard deadline only stops a hang.
K9_DEADLINE_S = 10.0
GUARD_DEADLINE_S = 60.0


@dataclass
class Case:
    """One timed operation: `run()` is timed, `check(result)` is not."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    verdicts: Callable[[Any], Counter] = lambda result: Counter()


class Corpus5:
    """One `corpus --n 5 --format json` sweep per fresh worker.

    A second sweep in the same process would only measure the
    `classify_galois_points` cache, so every sweep gets its own process.
    """

    SWEEP_S = 0.75

    def plan(self, seed: int, seconds: float) -> list[dict]:
        sweeps = max(1, round(seconds / self.SWEEP_S))
        return [{"ops": 1, "deadline": GUARD_DEADLINE_S} for _ in range(sweeps)]

    def cases(self, gd, task) -> list[Case]:
        reference = load_reference("corpus5.json")

        def sweep():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = gd.cli.main(["corpus", "--n", "5", "--format", "json"])
            return code, out.getvalue()

        return [Case("corpus:5", sweep, lambda result: check_corpus5(*result, reference))]


def load_reference(name: str) -> dict:
    with open(REFERENCE / name) as fh:
        return json.load(fh)


def rank_galois_histogram(graphs) -> dict[str, int]:
    """Count of graphs per "rank,galois_count"."""
    hist = Counter(f"{g['rank']},{g['galois_count']}" for g in graphs)
    return dict(sorted(hist.items()))


def check_corpus5(code: int, text: str, reference: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    if out.get("graphs_tested") != reference["graphs_tested"]:
        problems.append(f"graphs_tested {out.get('graphs_tested')} != {reference['graphs_tested']}")
    if out.get("all_consistent") is not True:
        problems.append("all_consistent is not true")
    hist = rank_galois_histogram(out.get("graphs", []))
    if hist != reference["rank_galois_histogram"]:
        problems.append(f"(rank, galois_count) histogram {hist} differs from the reference")
    return problems


FAMILY_SPECS = (
    ["house4"]
    + [f"cycle:{n}" for n in range(4, 7)]
    + [f"complete:{n}" for n in range(3, 9)]
    + [f"wheel:{n}" for n in range(5, 11)]
)


class Families:
    """`classify_galois_points` with the all-ones divisor on named
    families, one repetition per fresh worker, plus complete:9 once
    under a deadline."""

    REP_S = 2.5

    def plan(self, seed: int, seconds: float) -> list[dict]:
        reps = max(1, round((seconds - K9_DEADLINE_S) / self.REP_S))
        tasks = [{"specs": FAMILY_SPECS, "ops": len(FAMILY_SPECS), "deadline": GUARD_DEADLINE_S}
                 for _ in range(reps)]
        tasks.append({"specs": ["complete:9"], "ops": 1, "deadline": K9_DEADLINE_S})
        return tasks

    def cases(self, gd, task) -> list[Case]:
        cases = []
        for spec in task["specs"]:
            g = gd.generate(gd.parse_family(spec))
            d = gd.Divisor.all_ones(g)

            def check(report, spec=spec, g=g, d=d):
                problems = check_family(spec, report)
                for cert in report.certificates:
                    problems += [f"{cert.vertex}: {p}" for p in gd.audit_certificate(g, d, cert)]
                return problems

            cases.append(Case(spec, lambda g=g, d=d: gd.classify_galois_points(g, d), check,
                              verdict_counts))
        return cases


def verdict_counts(report) -> Counter:
    return Counter("positive" if c.verdict else c.reason.tag for c in report.certificates)


def check_family(spec: str, report) -> list[str]:
    """The known answers for the all-ones divisor on each family."""
    kind, _, size = spec.partition(":")
    n = int(size) if size else None
    if kind == "complete" and report.galois_count != n:
        return [f"{report.galois_count} Galois points, expected {n}"]
    if kind == "wheel" and report.galois_vertices != ("P1",):
        return [f"Galois points {report.galois_vertices}, expected ('P1',)"]
    if kind == "house4" and report.galois_count != 0:
        return [f"{report.galois_count} Galois points, expected 0"]
    if kind == "cycle" and report.rank != n - 1:
        return [f"rank {report.rank}, expected {n - 1}"]
    return []


class Chipfire:
    """Random 2-edge-connected graphs on 6-9 vertices.  Per graph: one
    divisor with coefficients in [-CHIPS, CHIPS] reduced at every vertex,
    and Riemann-Roch checks on effective divisors of degree genus+2,
    genus+3 and genus+4."""

    PARTS = 12
    GRAPH_S = 0.15
    CHIPS = 2000
    RR_EXTRA_DEGREES = (2, 3, 4)

    @staticmethod
    def _vertices(k: int) -> int:
        return 6 + k % 4

    def plan(self, seed: int, seconds: float) -> list[dict]:
        """The graphs split into PARTS workers, each drawing its own."""
        graphs = max(self.PARTS, round(seconds / self.GRAPH_S))
        tasks = []
        for part in range(self.PARTS):
            count = graphs // self.PARTS + (part < graphs % self.PARTS)
            ops = sum(self._vertices(k) + len(self.RR_EXTRA_DEGREES) for k in range(count))
            tasks.append({"seed": seed, "part": part, "graphs": count, "ops": ops,
                          "deadline": GUARD_DEADLINE_S})
        return tasks

    def cases(self, gd, task) -> list[Case]:
        rng = random.Random(f"chipfire:{task['seed']}:{task['part']}")
        cases = []
        for k in range(task["graphs"]):
            g = random_two_edge_connected(gd, rng, self._vertices(k))
            d = gd.Divisor.from_coeffs(g, [rng.randint(-self.CHIPS, self.CHIPS) for _ in g.vertices])
            for q in g.vertices:
                cases.append(Case("reduce", lambda g=g, d=d, q=q: gd.q_reduce_with_witness(g, d, q),
                                  lambda result, g=g, d=d, q=q: check_reduction(gd, g, d, q, result)))
            for extra in self.RR_EXTRA_DEGREES:
                coeffs = [0] * len(g.vertices)
                for _ in range(gd.genus(g) + extra):
                    coeffs[rng.randrange(len(coeffs))] += 1
                e = gd.Divisor.from_coeffs(g, coeffs)
                cases.append(Case("rr", lambda g=g, e=e: gd.riemann_roch_check(g, e),
                                  check_riemann_roch))
        return cases


def check_reduction(gd, g, d, q, result) -> list[str]:
    reduced, witness = result
    problems = []
    if reduced != d + gd.laplacian_apply(g, witness):
        problems.append("reduced != d + laplacian(witness)")
    if not gd.is_q_reduced(g, reduced, q):
        problems.append(f"{reduced!r} is not {q}-reduced")
    return problems


def check_riemann_roch(result) -> list[str]:
    return [] if result.holds else [f"Riemann-Roch fails: {result.to_json()}"]


def random_two_edge_connected(gd, rng: random.Random, n: int):
    """A uniformly drawn labeled graph on n vertices, redrawn until it is
    connected and bridgeless."""
    labels = [f"v{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    while True:
        edges = [p for p in pairs if rng.random() < 0.5]
        try:
            g = gd.Graph(labels, edges)
        except gd.DisconnectedError:
            continue
        if gd.is_two_edge_connected(g):
            return g


WORKLOADS = {"corpus5": Corpus5(), "families": Families(), "chipfire": Chipfire()}
