"""Benchmark runner for graphdivisors.

    python3 perfbench/run.py --workload corpus5|families|chipfire \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
its `src/` directory.  The runner is a closed loop: it starts one worker
process at a time (a fresh interpreter per repetition, see worker.py)
and waits for it before starting the next.  It prints a readable
report, a `{"record": ...}` line with everything measured, and as its
last line the result object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the workload runs once untraced and once traced and the
metrics are the per-layer ones from the traced run, plus the tracing
overhead (traced wall_s minus untraced wall_s).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from spans import LIBRARY_FUNCTIONS
from workloads import WORKLOADS, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

RUN_BUDGET_S = 165.0  # every worker is stopped by then, so a run ends within 180 s
SETUP_LIMIT_S = 30.0  # spawn to "ready"
CHECK_LIMIT_S = 60.0  # "done" to the result line
GRACE_S = 2.0  # SIGTERM to SIGKILL, time for a traced worker to report its spans
# Median duration of the worker's calibration loop on the reference host.
# Times are scaled by CALIBRATION_REF_S / (the worker's own median), so a
# host that runs Python slower for a while does not read as a slower
# library; the unscaled figures are printed and kept in the record too.
CALIBRATION_REF_S = 0.012


@dataclass
class Outcome:
    """What one worker did, as seen by the runner."""

    ops: int
    deadline: float
    setup_s: float | None = None
    timed_out: bool = False
    result: dict | None = None
    elapsed_s: float = 0.0  # ready (or spawn) to exit, used when there is no result
    calibration: list[float] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Host speed during this worker relative to the reference host."""
        if not self.calibration:
            return 1.0
        return CALIBRATION_REF_S / statistics.median(self.calibration)

    @property
    def finished(self) -> bool:
        return not self.timed_out and self.result is not None and "ops" in self.result

    @property
    def charged_s(self) -> float:
        """Timed-phase seconds charged to wall_s."""
        if self.finished:
            return self.result["timed_s"]
        return self.deadline if self.timed_out else self.elapsed_s


def _read_until(fd: int, limit, on_line) -> bool:
    """Read fd until EOF or the monotonic time `limit()`, calling on_line
    for each complete line.  True if EOF was reached."""
    buf = b""
    seen = 0
    while True:
        wait = limit() - time.monotonic()
        if wait <= 0:
            return False
        if not select.select([fd], [], [], wait)[0]:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return True
        buf += chunk
        while (end := buf.find(b"\n", seen)) >= 0:
            on_line(buf[seen:end])
            seen = end + 1


def run_worker(argv: list[str], ops: int, deadline: float, stop_at: float) -> Outcome:
    """Run one worker with a deadline on its timed phase.

    A worker past its deadline (or past `stop_at`) gets SIGTERM, then
    SIGKILL after a grace period, and is always reaped before return.
    """
    out = Outcome(ops=ops, deadline=deadline)
    spawned = time.monotonic()
    if spawned >= stop_at:
        out.timed_out = True
        return out
    marks: dict[str, float] = {}
    limit = [min(spawned + SETUP_LIMIT_S, stop_at)]

    def on_line(line: bytes) -> None:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            return  # not a protocol line
        if "ready" in obj:
            marks["ready"] = obj["ready"]
            out.calibration += obj["calibration"]
            limit[0] = min(time.monotonic() + deadline, stop_at)
        elif "done" in obj:
            limit[0] = min(time.monotonic() + CHECK_LIMIT_S, stop_at + GRACE_S)
        else:
            out.result = obj
            out.calibration += obj.get("calibration", [])

    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=_worker_env())
    try:
        fd = proc.stdout.fileno()
        if not _read_until(fd, lambda: limit[0], on_line):
            out.timed_out = True
            proc.terminate()
            grace_end = time.monotonic() + GRACE_S
            _read_until(fd, lambda: grace_end, on_line)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if "ready" in marks:
        out.setup_s = marks["ready"] - spawned
    out.elapsed_s = time.monotonic() - marks.get("ready", spawned)
    return out


def _worker_env() -> dict:
    env = dict(os.environ)
    # Fixed string hashing, so set iteration order is the same in every run.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, tasks: list[dict], trace: bool, stop_at: float) -> list[Outcome]:
    outcomes = []
    for i, task in enumerate(tasks):
        task = dict(task, workload=workload, src=str(SRC), trace=trace,
                    spans_file=str(SPANS_DIR / f"spans-{workload}-{i}.jsonl"))
        argv = [sys.executable, str(HERE / "worker.py"), json.dumps(task)]
        outcomes.append(run_worker(argv, task["ops"], task["deadline"], stop_at))
    return outcomes


def tail_latency(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when that percentile would not exceed the
    median (fewer than 20 samples)."""
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


@dataclass
class Summary:
    """Totals over one pass of workers.  Times are scaled by each worker's
    host speed; the raw_ fields hold them unscaled."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    setups: list[float] = field(default_factory=list)
    raw_setups: list[float] = field(default_factory=list)
    # latencies of each distinct operation over its repetitions, keyed by
    # (task, index); tasks that are equal are repetitions of each other
    cases: dict[tuple[str, int], list[float]] = field(default_factory=dict)
    speeds: list[float] = field(default_factory=list)
    verdicts: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)
    timed_out: int = 0

    @property
    def latencies(self) -> list[float]:
        return [t for samples in self.cases.values() for t in samples]

    @property
    def op_p50_s(self) -> float:
        """Median over distinct operations of each one's median latency.

        Pooling first would put the median at the edge between two
        families graphs, where it jumps with noise."""
        return statistics.median(statistics.median(v) for v in self.cases.values())


def summarize(tasks: list[dict], outcomes: list[Outcome]) -> Summary:
    """Count every operation that raised, missed its deadline or failed
    its output check as failed; a failed check also makes the run wrong.
    A worker past its deadline is charged the deadline, unscaled, shared
    among its operations."""
    s = Summary()
    for task, o in zip(tasks, outcomes):
        key = json.dumps(task, sort_keys=True)
        s.attempted += o.ops
        speed = o.speed
        s.speeds.append(speed)
        if o.setup_s is not None:
            s.setups.append(o.setup_s * speed)
            s.raw_setups.append(o.setup_s)
        s.raw_wall_s += o.charged_s
        if not o.finished:
            s.wall_s += o.charged_s
            s.failed += o.ops
            s.timed_out += o.timed_out
            for i in range(o.ops):
                s.cases.setdefault((key, i), []).append(o.charged_s / o.ops)
            s.problems.append("deadline reached" if o.timed_out else "worker ended without a result")
            continue
        s.wall_s += o.charged_s * speed
        s.verdicts.update(o.result["verdicts"])
        for i, op in enumerate(o.result["ops"]):
            s.cases.setdefault((key, i), []).append(op["latency_s"] * speed)
            if op["problems"]:
                s.failed += 1
                s.wrong += not op["raised"]
                s.problems += [f"{op['label']}: {p}" for p in op["problems"]]
    return s


def end_to_end_metrics(s: Summary, peak_rss_kib: int) -> dict:
    return {
        "setup_s": (statistics.median(s.setups) if s.setups else 0.0, "s"),
        "wall_s": (s.wall_s, "s"),
        "op_p50_ms": (s.op_p50_s * 1000.0, "ms"),
        "peak_rss_mib": (peak_rss_kib / 1024.0, "MiB"),
        "ok_share": (1.0 - s.failed / s.attempted, "ratio"),
    }


TIMED_SPANS = [name for name, *_ in LIBRARY_FUNCTIONS] + ["graphs.build"]
VERDICTS = ("positive", "RankNotTwo", "Cond1Fail", "Cond2Fail", "NoQualifyingSubgroup")


def trace_totals(outcomes: list[Outcome]) -> tuple[dict, Counter]:
    """Per-span-name calls/self_s/errors and counters summed over workers,
    self_s scaled by each worker's host speed."""
    functions: dict[str, Counter] = {name: Counter() for name in TIMED_SPANS}
    counters: Counter = Counter()
    for o in outcomes:
        trace = (o.result or {}).get("trace")
        if trace is None:
            continue
        for name, entry in trace["functions"].items():
            total = functions[name]
            total["calls"] += entry["calls"]
            total["errors"] += entry["errors"]
            total["self_s"] += entry["self_s"] * o.speed
        counters.update(trace["counters"])
    return functions, counters


def per_layer_metrics(functions: dict, counters: Counter, traced_wall: float,
                      untraced_wall: float) -> dict:
    m = {}
    for name in TIMED_SPANS:
        m[f"{name}.calls"] = (functions[name]["calls"], "count")
        m[f"{name}.self_s"] = (float(functions[name]["self_s"]), "s")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m["divisors.linear_system.members"] = (counters["divisors.linear_system.members"], "count")
    m["divisors.linear_system.yield_ratio"] = (
        ratio(counters["divisors.linear_system.members"],
              counters["divisors.linear_system.candidates"]), "ratio")
    m["divisors.q_reduce.chips_per_s"] = (
        ratio(counters["divisors.q_reduce.chips"], functions["divisors.q_reduce"]["self_s"]), "1/s")
    m["symmetry.subgroups_of_order.subgroups"] = (
        counters["symmetry.subgroups_of_order.subgroups"], "count")
    m["symmetry.acts_harmonically.accept_ratio"] = (
        ratio(counters["symmetry.acts_harmonically.accepted"],
              functions["symmetry.acts_harmonically"]["calls"]), "ratio")
    for v in VERDICTS:
        m[f"galois.verdicts.{v}"] = (counters[f"galois.verdicts.{v}"], "count")
    m["corpus.graphs_tested"] = (counters["corpus.graphs_tested"], "count")
    m["trace.errors"] = (sum(f["errors"] for f in functions.values()), "count")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


def traced_verdicts(counters: Counter) -> Counter:
    return Counter({v: counters[f"galois.verdicts.{v}"] for v in VERDICTS
                    if counters[f"galois.verdicts.{v}"]})


def expected_traced_verdicts(workload: str, untraced: Summary) -> Counter:
    """What the traced run's verdict counters must read.

    corpus5 output carries no per-vertex verdicts, so each sweep must
    reproduce the verdicts recorded at the seed commit; elsewhere the
    untraced run's certificates give them.
    """
    if workload == "corpus5":
        per_sweep = load_reference("corpus5.json")["verdicts"]
        sweeps = untraced.attempted - untraced.failed
        return Counter({v: c * sweeps for v, c in per_sweep.items()})
    return +untraced.verdicts


def run_context() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "cpu": cpu or platform.processor()}


def steal_seconds() -> float | None:
    """Cumulative CPU steal time of the host, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _format(name: str, value, unit: str) -> str:
    return f"  {name:<44} {value:>14.6g} {unit}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphdivisors" / "__init__.py").is_file():
        print(f"error: no graphdivisors sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    tasks = WORKLOADS[args.workload].plan(args.seed, args.seconds)
    started = time.monotonic()
    stop_at = started + RUN_BUDGET_S
    steal_before = steal_seconds()
    untraced = summarize(tasks, run_pass(args.workload, tasks, False, stop_at))
    peak_rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": len(tasks), "context": run_context(),
        "setup_total_s": sum(untraced.setups),
        "fail_share": untraced.failed / untraced.attempted,
        "timed_out_workers": untraced.timed_out,
        "host_speed": statistics.median(untraced.speeds),
        "unscaled": {"setup_s": statistics.median(untraced.raw_setups) if untraced.raw_setups else 0.0,
                     "wall_s": untraced.raw_wall_s},
        "verdicts": dict(untraced.verdicts),
        "problems": untraced.problems[:20],
    }
    e2e = end_to_end_metrics(untraced, peak_rss_kib)
    tail = tail_latency(untraced.latencies)
    record["op_samples"] = len(untraced.latencies)
    record["op_tail_ms"] = None if tail is None else {"percentile": tail[0], "value": tail[1] * 1000.0}
    correct = untraced.wrong == 0
    attempted, failed = untraced.attempted, untraced.failed

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    ctx = record["context"]
    print(f"  context: nproc={ctx['nproc']} python={ctx['python']} cpu={ctx['cpu']!r} "
          f"workers={len(tasks)}")
    print(f"end to end (untraced), times scaled by the host speed "
          f"(median {record['host_speed']:.3f} of the reference):")
    for name, (value, unit) in e2e.items():
        print(_format(name, value, unit))
    for name, value in record["unscaled"].items():
        print(_format(f"{name} unscaled", value, "s"))
    print(_format("fail_share", record["fail_share"], f"ratio ({failed}/{attempted} failed)"))
    if tail is None:
        print(f"  op_tail_ms omitted: {len(untraced.latencies)} samples, "
              "fewer than 20")
    else:
        print(_format("op_tail_ms", tail[1] * 1000.0,
                      f"ms (p{tail[0]:.1f} of {len(untraced.latencies)} samples)"))
    for p in untraced.problems[:5]:
        print(f"  failure: {p}")

    metrics = e2e
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        traced_outcomes = run_pass(args.workload, tasks, True, stop_at)
        traced = summarize(tasks, traced_outcomes)
        functions, counters = trace_totals(traced_outcomes)
        metrics = per_layer_metrics(functions, counters, traced.wall_s, untraced.wall_s)
        expected = expected_traced_verdicts(args.workload, untraced)
        seen = traced_verdicts(counters)
        verdicts_agree = seen == expected and +traced.verdicts == +untraced.verdicts
        correct = correct and traced.wrong == 0 and verdicts_agree
        attempted += traced.attempted
        failed += traced.failed
        record["traced"] = {"fail_share": traced.failed / traced.attempted,
                            "verdicts": dict(seen), "verdicts_agree": verdicts_agree,
                            "errors": {k: v["errors"] for k, v in functions.items() if v["errors"]},
                            "problems": traced.problems[:20]}
        print("per layer (traced):")
        for name, (value, unit) in metrics.items():
            print(_format(name, value, unit))
        print(f"  verdicts agree with the untraced run: {verdicts_agree}")

    steal_after = steal_seconds()
    record["steal_s"] = None if steal_before is None else steal_after - steal_before
    record["run_s"] = time.monotonic() - started
    print(f"  host steal time during the run: {record['steal_s']} s; run took {record['run_s']:.1f} s")
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
