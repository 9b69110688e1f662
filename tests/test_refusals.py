"""Every limit in the package refuses in one shape.

Each row is an argv that one refusal answers: `main` exits 2 with one
stderr line "error: <what> needs <required> <unit> (cap <cap>)", and the
error raised in process keeps the two printed numbers as `required` and
`cap`, with required > cap.  An `ast` check asserts that every call of
either cap error in `src` passes the four parts of that message, so a
refusal added later takes the shape by construction.
"""

import ast
import json
import pickle
import re
from pathlib import Path

import pytest

import graphdivisors.symmetry
from graphdivisors.cli import main
from graphdivisors.errors import EnumerationCapExceededError, SizeCapExceededError, _CapExceededError

SHAPE = re.compile(r"^error: .+ needs (\d+) .+ \(cap (\d+)\)$")
PACKAGE = Path(graphdivisors.symmetry.__file__).parent

# S5 from a swap and a 5-cycle.
S5 = json.dumps([{"P1": "P2", "P2": "P1", "P3": "P3", "P4": "P4", "P5": "P5"},
                 {"P1": "P2", "P2": "P3", "P3": "P4", "P4": "P5", "P5": "P1"}])
HUGE_FILES = {
    "vertices.json": {"vertices": [f"v{i}" for i in range(50_001)], "edges": []},
    "edges.json": {"vertices": ["v0", "v1", "v2"], "edges": [["v0", "v1"]] * 50_001},
}

# id: (argv, symmetry limits to set, error class, message)
ROWS = {
    "rank probe": ("rank --family complete:5 --divisor all-ones --cap 20".split(), {},
                   EnumerationCapExceededError, "rank probe at degree 3 needs 55 effective divisors (cap 20)"),
    "linear system": ("linsys --family cycle:5 --divisor all-ones --cap 5".split(), {},
                      EnumerationCapExceededError,
                      "linear system of degree 5 on 5 vertices needs 126 effective divisors (cap 5)"),
    # The 55-probe table passes the cap; the witness search's linear
    # system of degree 4, C(8, 4) = 70 divisors, does not.
    "witness search": ("classify --family complete:5 --cap 60".split(), {}, EnumerationCapExceededError,
                       "linear system of degree 4 on 5 vertices needs 70 effective divisors (cap 60)"),
    "automorphism search": ("classify --family complete:11".split(), {}, SizeCapExceededError,
                            "automorphism search needs 11 vertices (cap 10)"),
    "subgroup generation": ("quotient --family complete:5 --subgroup".split() + [S5],
                            {"DEFAULT_AUTOMORPHISM_VERTEX_CAP": 4}, SizeCapExceededError,
                            "subgroup generation needs 25 elements (cap 24)"),
    "definition mode, drawn": ("harmonic --family complete:5 --mode definition".split(), {},
                               SizeCapExceededError, "definition mode needs 49 group elements (cap 48)"),
    "definition mode, given": ("harmonic --family complete:5 --mode definition --subgroup".split() + [S5], {},
                               SizeCapExceededError, "definition mode needs 120 group elements (cap 48)"),
    "corpus sweep": ("corpus --n 7".split(), {}, SizeCapExceededError, "corpus sweep needs 7 vertices (cap 6)"),
    "graph family": ("gen --family cycle:50001".split(), {}, SizeCapExceededError,
                     "graph family cycle:50001 needs 50001 edges (cap 50000)"),
    "graph JSON vertices": ("rank --graph vertices.json --divisor zero".split(), {}, SizeCapExceededError,
                            "graph JSON needs 50001 vertices (cap 50000)"),
    "graph JSON edges": ("rank --graph edges.json --divisor zero".split(), {}, SizeCapExceededError,
                         "graph JSON needs 50001 edges (cap 50000)"),
}


@pytest.fixture
def raised(monkeypatch):
    """Every cap error built while the test runs."""
    raised = []
    init = _CapExceededError.__init__

    def recorded(self, *args):
        init(self, *args)
        raised.append(self)

    monkeypatch.setattr(_CapExceededError, "__init__", recorded)
    return raised


@pytest.mark.parametrize("argv, limits, error, message", list(ROWS.values()), ids=list(ROWS))
def test_refusal_has_the_one_shape(capsys, tmp_path, monkeypatch, raised, argv, limits, error, message):
    for name, value in limits.items():
        monkeypatch.setattr(graphdivisors.symmetry, name, value)
    for name, obj in HUGE_FILES.items():
        if name in argv:
            (tmp_path / name).write_text(json.dumps(obj))
            argv = [str(tmp_path / name) if text == name else text for text in argv]
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"error: {message}\n")
    shape = SHAPE.match(f"error: {message}")
    assert shape
    required, cap = map(int, shape.groups())
    [exc] = raised
    assert type(exc) is error and str(exc) == message
    assert (exc.required, exc.cap) == (required, cap) and required > cap


@pytest.mark.parametrize("error", [EnumerationCapExceededError, SizeCapExceededError])
def test_a_pickled_refusal_keeps_its_message_and_numbers(error):
    exc = pickle.loads(pickle.dumps(error("corpus sweep", 7, "vertices", 6)))
    assert type(exc) is error and str(exc) == "corpus sweep needs 7 vertices (cap 6)"
    assert (exc.required, exc.cap) == (7, 6)


def test_every_cap_error_is_built_from_four_parts():
    calls = [node for path in sorted(PACKAGE.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
             in ("EnumerationCapExceededError", "SizeCapExceededError", "_CapExceededError")]
    assert len(calls) >= 9
    for call in calls:
        assert len(call.args) == 4 and not call.keywords, ast.unparse(call)
