"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter

import run
import spans
import workloads
from spans import Span, Tracer, self_times

sys.path.insert(0, str(run.SRC))
import graphdivisors as gd  # noqa: E402
import graphdivisors.cli  # noqa: E402,F401


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] contains b [1, 6] and d [7, 9]; b contains c [2, 5].
    tree = [Span("a", 0.0, 10.0, -1), Span("b", 1.0, 6.0, 0), Span("c", 2.0, 5.0, 1),
            Span("d", 7.0, 9.0, 0)]
    assert self_times(tree) == [3.0, 2.0, 3.0, 2.0]


def test_tracer_records_nesting_and_errors():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda xs: [traced_inner(x) for x in xs])
    outer([1, 2])
    try:
        traced_inner(-1)
    except ValueError:
        pass
    assert [(s.name, s.parent, s.error) for s in tracer.spans] == [
        ("outer", -1, False), ("inner", 0, False), ("inner", 0, False), ("inner", -1, True)]
    summary = tracer.summary()["functions"]
    assert summary["inner"]["calls"] == 3 and summary["inner"]["errors"] == 1
    total = sum(s.end - s.start for s in tracer.spans if s.parent == -1)
    assert abs(summary["outer"]["self_s"] + summary["inner"]["self_s"] - total) < 1e-9


def test_trace_library_wraps_every_lookup_and_restores():
    original, original_init = gd.divisors.rank, gd.graphs.Graph.__init__
    tracer = Tracer()
    spans.trace_library(tracer, gd)
    try:
        assert gd.galois.rank is gd.divisors.rank is gd.rank is not original
        g = gd.generate("house4")
        gd.galois.classify_galois_points.__wrapped__.cache_clear()
        report = gd.classify_galois_points(g, gd.Divisor.all_ones(g))
    finally:
        tracer.restore()
    assert gd.galois.rank is gd.divisors.rank is gd.rank is original
    assert gd.graphs.Graph.__init__ is original_init
    summary = tracer.summary()
    assert summary["functions"]["divisors.rank"]["calls"] > 0
    counted = {k.rsplit(".", 1)[1]: v for k, v in summary["counters"].items()
               if k.startswith("galois.verdicts.")}
    assert counted == dict(workloads.verdict_counts(report))


def test_wrong_corpus_output_is_a_failure():
    reference = workloads.load_reference("corpus5.json")
    hist = reference["rank_galois_histogram"]
    graphs = [{"rank": int(k.split(",")[0]), "galois_count": int(k.split(",")[1])}
              for k, count in hist.items() for _ in range(count)]
    good = json.dumps({"graphs_tested": 253, "all_consistent": True, "graphs": graphs})
    assert workloads.check_corpus5(0, good, reference) == []
    graphs[0] = dict(graphs[0], galois_count=graphs[0]["galois_count"] + 1)
    wrong = json.dumps({"graphs_tested": 253, "all_consistent": True, "graphs": graphs})
    assert workloads.check_corpus5(0, wrong, reference)
    assert workloads.check_corpus5(1, good, reference)


def test_wrong_family_and_reduction_results_are_failures():
    g = gd.generate("wheel:5")
    report = gd.classify_galois_points(g, gd.Divisor.all_ones(g))
    assert workloads.check_family("wheel:5", report) == []
    assert workloads.check_family("complete:5", report)

    d = gd.Divisor(g, {"P1": 7, "P2": -3})
    reduced, witness = gd.q_reduce_with_witness(g, d, "P1")
    assert workloads.check_reduction(gd, g, d, "P1", (reduced, witness)) == []
    shifted = reduced + gd.Divisor.vertex(g, "P2") - gd.Divisor.vertex(g, "P1")
    assert workloads.check_reduction(gd, g, d, "P1", (shifted, witness))


def test_summarize_counts_a_wrong_result_as_failed():
    result = {"timed_s": 0.3, "verdicts": {}, "ops": [
        {"label": "a", "latency_s": 0.1, "raised": False, "problems": []},
        {"label": "b", "latency_s": 0.2, "raised": False, "problems": ["wrong answer"]}]}
    outcome = run.Outcome(ops=2, deadline=5.0, setup_s=0.1, result=result)
    s = run.summarize([{}], [outcome])
    assert (s.attempted, s.failed, s.wrong) == (2, 1, 1)
    assert s.problems == ["b: wrong answer"]


def test_worker_past_deadline_is_killed_and_charged(tmp_path):
    pid_file = tmp_path / "pid"
    script = (
        "import json, os, sys, time\n"
        f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        "print(json.dumps({'ready': time.monotonic(), 'calibration': [0.01]}), flush=True)\n"
        "time.sleep(60)\n"
    )
    started = time.monotonic()
    outcome = run.run_worker([sys.executable, "-c", script], ops=1, deadline=0.5,
                             stop_at=started + 30)
    assert time.monotonic() - started < 10
    assert outcome.timed_out and outcome.setup_s is not None
    try:
        os.kill(int(pid_file.read_text()), 0)
    except ProcessLookupError:
        pass
    else:
        raise AssertionError("the worker is still running")
    s = run.summarize([{}], [outcome])
    assert (s.attempted, s.failed, s.wrong) == (1, 1, 0)
    assert s.wall_s == 0.5


def test_benchmark_json_names_every_metric():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = run.end_to_end_metrics(run.Summary(attempted=1, setups=[0.1], cases={("t", 0): [0.2]}),
                                 1024)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (k, unit) for k, (_, unit) in e2e.items()]
    layer = run.per_layer_metrics({n: Counter() for n in run.TIMED_SPANS}, Counter(), 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (k, unit) for k, (_, unit) in layer.items()]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_plans_depend_only_on_seed_and_seconds():
    for w in workloads.WORKLOADS.values():
        assert w.plan(3, 25) == w.plan(3, 25)
    cf = workloads.WORKLOADS["chipfire"]
    task = cf.plan(3, 2)[0]
    a, b = cf.cases(gd, task), cf.cases(gd, task)
    assert len(a) == task["ops"]
    assert [c.run() for c in a] == [c.run() for c in b]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus5",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
