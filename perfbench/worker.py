"""One benchmark worker: build a task's cases, time them, check them.

run.py starts each task as `python3 worker.py <task JSON>` in a fresh
interpreter.  The worker writes three JSON lines to stdout: {"ready": t,
"calibration": [...]} once its inputs are built and {"done": t} when the
timed phase ends, with t read from the system-wide monotonic clock, and
then its result after the output checks.  The deadline covers only the
span from ready to done.  With tracing on, SIGTERM at the deadline ends
the timed phase early so the spans recorded so far are still reported.

The calibration samples time a fixed pure-Python loop just before and
just after the timed phase, a gauge of how fast the host runs Python at
that moment that does not depend on the library.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from collections import Counter


class DeadlineReached(BaseException):
    """Raised by the SIGTERM handler; not an Exception, so no case catches it."""


def _on_sigterm(signum, frame):
    raise DeadlineReached


# The cubic graph on 8 vertices that the calibration loop burns.
_CALIBRATION_GRAPH = ((1, 2, 5), (0, 2, 3), (0, 1, 4), (1, 4, 6), (2, 3, 7), (0, 6, 7),
                      (3, 5, 7), (4, 5, 6))


def calibrate() -> list[float]:
    """Durations of two passes of a fixed loop that spreads fire over a
    small graph: list indexing, small-integer arithmetic and tuple
    building, the kind of work the library does."""
    samples = []
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for rep in range(5000):
            coeffs = [(rep * 7 + v * 3) % 5 for v in range(8)]
            burnt = [False] * 8
            burnt[rep % 8] = True
            threat = [0] * 8
            stack = [rep % 8]
            while stack:
                v = stack.pop()
                for w in _CALIBRATION_GRAPH[v]:
                    if not burnt[w]:
                        threat[w] += 1
                        if coeffs[w] < threat[w]:
                            burnt[w] = True
                            stack.append(w)
            total += burnt.count(True) + len(tuple(coeffs))
        samples.append(time.perf_counter() - start)
    return samples


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    task = json.loads(argv[1])
    sys.path.insert(0, task["src"])
    import graphdivisors as gd
    import graphdivisors.cli  # noqa: F401  (the corpus5 cases call it)
    from spans import Tracer, trace_library
    from workloads import WORKLOADS

    cases = WORKLOADS[task["workload"]].cases(gd, task)
    ready = time.monotonic()
    emit({"ready": ready, "calibration": calibrate()})

    tracer = None
    if task["trace"]:
        tracer = Tracer()
        trace_library(tracer, gd)
        signal.signal(signal.SIGTERM, _on_sigterm)
    runs: list[tuple[float, object, str | None]] = []
    clock = time.perf_counter
    start = clock()
    try:
        for case in cases:
            t = clock()
            try:
                result, error = case.run(), None
            except Exception as exc:  # a failed operation, recorded and counted
                result, error = None, f"{type(exc).__name__}: {exc}"
            runs.append((clock() - t, result, error))
    except DeadlineReached:
        tracer.restore()
        tracer.dump(task["spans_file"])
        emit({"timed_out": True, "trace": tracer.summary()})
        return 0
    timed_s = clock() - start
    if tracer is not None:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        tracer.restore()
    emit({"done": time.monotonic()})
    calibration = calibrate()

    ops = []
    verdicts: Counter = Counter()
    for case, (latency, result, error) in zip(cases, runs):
        if error is not None:
            problems = [error]
        else:
            problems = case.check(result)
            verdicts += case.verdicts(result)
        ops.append({"label": case.label, "latency_s": latency, "raised": error is not None,
                    "problems": problems})
    out = {"timed_s": timed_s, "ops": ops, "verdicts": verdicts, "calibration": calibration}
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.dump(task["spans_file"])
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
