"""`cli.main` answers every argv with exit 0, 1 or 2 and no traceback.

Each example is a real command on a tiny family or on a `--graph` file,
with random flags and values: divisor and subgroup JSON, unknown
vertices, caps including 0 and negatives, malformed and oversized graph
files.  An exit 2 leaves exactly one stderr line that holds `error:`.
The example count comes from the hypothesis profile: tier-1 draws a
few dozen, and the `ci` profile of `conftest.py` draws about 2,000.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphdivisors import generate
from graphdivisors.cli import _COMMANDS, main


def mostly(good, bad):
    """Values drawn from `good` about three times in four, else from `bad`."""
    return st.sampled_from([good, good, good, bad]).flatmap(lambda values: values)


FAMILY = mostly(st.sampled_from(["house4", "cycle:3", "cycle:5", "complete:3", "complete:4", "complete:5",
                                 "wheel:5", "wheel:6"]),
                st.sampled_from(["cycle:2", "wheel:x", "torus:3", "house4:2", "complete:317",
                                 "cycle:10000000000000000000000", ""]))

GOOD_GRAPH_FILES = {
    "k4.json": json.dumps(generate("complete:4").to_json()),
    "house4.json": json.dumps(generate("house4").to_json()),
}
BAD_GRAPH_FILES = {
    "path.json": json.dumps({"vertices": ["P1", "P2", "P3"], "edges": [["P1", "P2"], ["P2", "P3"]]}),
    "point.json": json.dumps({"vertices": ["P1"], "edges": []}),
    "disconnected.json": json.dumps({"vertices": ["P1", "P2", "P3"], "edges": [["P1", "P2"]]}),
    "duplicate.json": json.dumps({"vertices": ["P1", "P2"], "edges": [["P1", "P2"], ["P2", "P1"]]}),
    "loop.json": json.dumps({"vertices": ["P1", "P2"], "edges": [["P1", "P1"]]}),
    "unknown.json": json.dumps({"vertices": ["P1", "P2"], "edges": [["P1", "P9"]]}),
    "labels.json": json.dumps({"vertices": [1, 2], "edges": [[1, 2]]}),
    "list.json": "[]",
    "keys.json": "{}",
    "truncated.json": '{"vertices": ["P1"',
    "huge.json": json.dumps({"vertices": [f"v{i}" for i in range(50_001)], "edges": []}),
}

LABELS = ["P1", "P2", "P3", "P4"]
VERTEX = mostly(st.sampled_from(LABELS + ["P5"]), st.sampled_from(["P9", "", "a\nb", "1"]))
DIVISOR = mostly(
    st.one_of(st.sampled_from(["all-ones", "zero"]),
              st.dictionaries(st.sampled_from(LABELS), st.integers(-3, 4), max_size=4).map(json.dumps)),
    st.sampled_from(["{", "[]", "null", '"P1"', "1", "", '{"P9": 1}', '{"": 1}', '{"a\\nb": 1}',
                     '{"P1": 1.5}', '{"P1": "1"}', '{"P1": true}', '{"P1": null}', '{"P1": [1]}',
                     '{"P1": 10000000000000000000000, "P2": -5}']),
)
SUBGROUP = mostly(
    st.lists(st.permutations(LABELS).map(lambda images: json.dumps(dict(zip(LABELS, images)))),
             max_size=2).map(lambda gens: f"[{', '.join(gens)}]"),
    st.sampled_from(["{", "null", "[{}]", '["P1"]', '[{"P1": 1}]', '[{"P1": "P9"}]', '[{"P1": "P1", "P2": "P1"}]']),
)
INTEGER = mostly(st.integers(-3, 30).map(str), st.sampled_from(["x", "", "1e3", "10000000000000000000000"]))
VALUES = {
    "--divisor": DIVISOR,
    "--divisor2": DIVISOR,
    "--subgroup": SUBGROUP,
    "--base": VERTEX,
    "--vertex": VERTEX,
    "--cap": INTEGER,
    "--order": INTEGER,
    "--n": mostly(st.sampled_from(["3", "4", "5"]), st.sampled_from(["-1", "0", "2", "7", "x"])),
    "--format": mostly(st.sampled_from(["text", "json"]), st.just("xml")),
    "--mode": mostly(st.sampled_from(["criterion", "definition"]), st.just("x")),
}
STRAY_FLAGS = sorted(VALUES) + ["--bogus"]


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    """The paths of the graph files, written once, mostly good ones; a
    bad one may also be a missing file, a directory or not UTF-8."""
    folder = tmp_path_factory.mktemp("graphs")
    for name, text in {**GOOD_GRAPH_FILES, **BAD_GRAPH_FILES}.items():
        (folder / name).write_text(text, encoding="utf-8")
    (folder / "latin1.json").write_bytes(b"\xff\xfe")
    return mostly(st.sampled_from([str(folder / name) for name in GOOD_GRAPH_FILES]),
                  st.sampled_from([str(folder / name) for name in BAD_GRAPH_FILES]
                                  + [str(folder / "latin1.json"), str(folder / "missing.json"), str(folder)]))


def run(argv):
    """(exit code, stderr) of `main(argv)`; argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@given(st.data())
def test_main_exits_cleanly_on_any_argv(graph_file, data):
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    options = [flag for flag, _ in _COMMANDS[command][2]]
    argv = [command]
    # Mostly exactly one graph source, for a command that takes one.
    source = "none"
    if "--family" in options:
        source = data.draw(mostly(st.sampled_from(["family", "graph"]), st.sampled_from(["none", "both"])))
    if source in ("family", "both"):
        argv += ["--family", data.draw(FAMILY)]
    if source in ("graph", "both"):
        argv += ["--graph", data.draw(graph_file)]
    flags = data.draw(st.lists(st.sampled_from([flag for flag in options if flag in VALUES]), unique=True))
    if data.draw(st.integers(0, 7)) == 0:  # now and then a flag the command may not take
        flags.append(data.draw(st.sampled_from(STRAY_FLAGS)))
    for flag in flags:
        argv += [flag, data.draw(VALUES.get(flag, st.just("1")))]
    code, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
