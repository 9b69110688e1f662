"""Paired perfbench runs of a parent revision and the working tree.

    python tools/ab.py --parent REV --workload W --seed S --seconds T \\
        --pairs N --out FILE

Unpacks REV from the local repository with `git archive`, and copies the
working tree's files that a commit would hold (tracked or untracked, not
ignored), into two new directories side by side, so neither side runs
from a different place.  It runs `perfbench/run.py --workload W --seed S
--seconds T --trace 0` in each, one run after another, N pairs.  The parent goes first in even pairs and second in odd
ones.  FILE gets, under the key "W seed S" of its "workloads" (other
keys of an existing FILE are kept): per end-to-end metric of
`BENCHMARK.json`, q1, median and q3 on each side, `pairs`,
`change_wins` (pairs where the change is strictly better),
`median_change_pct` and `parent_iqr`; the raw values of every run; the
host; the PYTHONDONTWRITEBYTECODE setting the runs inherited; and the
commands.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> dict:
    """q1, median and q3 (`statistics.quantiles`' default method, as the
    earlier BENCH files used; one value is all three)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """The per-metric summary of paired runs: parent[i] and change[i]
    are the metrics of pair i, and better[name] is "lower" or "higher"."""
    summary = {}
    for name, direction in better.items():
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        sign = 1 if direction == "lower" else -1
        qp, qc = quartiles(p), quartiles(c)
        pct = None
        if qp["median"]:
            pct = round(100.0 * (qc["median"] - qp["median"]) / qp["median"], 2)
        summary[name] = {
            "parent": qp, "change": qc, "pairs": len(p),
            "change_wins": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
            "median_change_pct": pct, "parent_iqr": qp["q3"] - qp["q1"],
        }
    return summary


def run_once(tree: Path, argv: list[str]) -> dict:
    """One perfbench run in tree: its metrics, correctness and host figures."""
    done = subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"perfbench failed in {tree} (exit {done.returncode}): {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = next(json.loads(line)["record"] for line in lines if line.startswith('{"record"'))
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "context": record["context"],
            "host_speed": record["host_speed"], "steal_s": record["steal_s"]}


def unpack(rev: str, dest: Path) -> str:
    """Extract the tree of rev into dest; return rev's full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def copy_worktree(dest: Path) -> None:
    """Copy into dest the working tree's files that `git add -A` would
    commit."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    run_argv = ["perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", f"{args.seconds:g}", "--trace", "0"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    first = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        sha = unpack(args.parent, trees["parent"])
        copy_worktree(trees["change"])
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            first.append(order[0])
            for side in order:
                runs[side].append(run_once(trees[side], run_argv))
                print(f"pair {i + 1}/{args.pairs} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)

    entry = {
        "parent": sha,
        "host": {**runs["change"][0]["context"], "machine": platform.machine()},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "command": " ".join(["python3", *run_argv]),
        "ab_command": " ".join(["python3", "tools/ab.py", *(sys.argv[1:] if argv is None else argv)]),
        "first": first,
        "summary": summarize([r["metrics"] for r in runs["parent"]],
                             [r["metrics"] for r in runs["change"]], better),
        "runs": {side: [{k: r[k] for k in ("metrics", "correct", "host_speed", "steal_s")}
                        for r in side_runs] for side, side_runs in runs.items()},
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("what", "perfbench paired runs of a parent commit against the working tree, "
                           "written by tools/ab.py; times are perfbench's host-scaled times")
    doc.setdefault("workloads", {})[f"{args.workload} seed {args.seed}"] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
