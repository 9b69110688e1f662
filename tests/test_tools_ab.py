"""`tools/ab.py`, the paired perfbench runner."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

BETTER = {"wall_s": "lower", "ok_share": "higher"}


def runs(walls, oks):
    return [{"wall_s": w, "ok_share": k} for w, k in zip(walls, oks)]


def test_quartiles_use_the_default_method():
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 1.5, "median": 3.0, "q3": 4.5}
    assert ab.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_summary_of_identical_sides_claims_nothing():
    side = runs([1.0, 1.2, 0.9, 1.1], [1.0] * 4)
    summary = ab.summarize(side, side, BETTER)
    for name in BETTER:
        assert summary[name]["change_wins"] == 0
        assert summary[name]["median_change_pct"] == 0.0
        assert summary[name]["pairs"] == 4
    assert summary["wall_s"]["parent_iqr"] == pytest.approx(0.25)


def test_summary_counts_wins_in_each_metric_direction():
    parent = runs([1.0, 1.0, 1.0, 1.0], [0.5, 0.5, 0.5, 0.5])
    change = runs([0.8, 0.9, 1.1, 0.8], [0.5, 0.6, 0.4, 0.7])
    summary = ab.summarize(parent, change, BETTER)
    assert summary["wall_s"]["change_wins"] == 3
    assert summary["wall_s"]["median_change_pct"] == -15.0
    assert summary["ok_share"]["change_wins"] == 2
    assert summary["ok_share"]["parent"] == {"q1": 0.5, "median": 0.5, "q3": 0.5}
    assert summary["ok_share"]["parent_iqr"] == 0.0


def test_summary_of_a_zero_parent_median_has_no_percentage():
    summary = ab.summarize(runs([0.0], [1.0]), runs([1.0], [1.0]), BETTER)
    assert summary["wall_s"]["median_change_pct"] is None
    assert summary["wall_s"]["change_wins"] == 0


def in_a_git_checkout():
    if shutil.which("git") is None:
        return False
    done = subprocess.run(["git", "rev-parse", "--verify", "HEAD^{commit}"], cwd=ROOT,
                          capture_output=True)
    return done.returncode == 0


@pytest.mark.skipif(not in_a_git_checkout(), reason="needs the repository's git history")
def test_one_corpus5_pair_against_head(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"workloads": {"kept": {}}}))
    argv = ["--parent", "HEAD", "--workload", "corpus5", "--seed", "1", "--seconds", "0.5",
            "--pairs", "1", "--out", str(out)]
    assert ab.main(argv) == 0
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == {"kept", "corpus5 seed 1"}
    entry = doc["workloads"]["corpus5 seed 1"]
    assert entry["first"] == ["parent"]
    assert entry["command"] == ("python3 perfbench/run.py --workload corpus5 --seed 1 "
                                "--seconds 0.5 --trace 0")
    assert set(entry["summary"]) == {"setup_s", "wall_s", "op_p50_ms", "peak_rss_mib", "ok_share"}
    for side in ("parent", "change"):
        (run,) = entry["runs"][side]
        assert run["correct"] is True and run["metrics"]["ok_share"] == 1.0
    assert entry["summary"]["wall_s"]["pairs"] == 1
