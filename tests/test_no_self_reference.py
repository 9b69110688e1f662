"""No function nested in another refers to itself through its closure.

A nested function that names itself keeps itself alive through its own
closure cell.  That is a reference cycle: a recursive generator built
this way and dropped before it runs out, or before it starts, is left
for the cyclic garbage collector instead of being freed by reference
counting.  A recursive nested function takes itself as a parameter
instead, as in `def extend(extend, ...)`.  This test reads every module
with `ast` instead of running it.
"""

import ast
from pathlib import Path

import pytest

import graphdivisors

PACKAGE = Path(graphdivisors.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parameters(fn):
    a = fn.args
    named = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
    return {x.arg for x in named}


def self_referencing_closures(node, outer=""):
    """The dotted names of the functions nested in a function under the
    ast node that name themselves without taking themselves as a
    parameter."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, FUNCTIONS):
            yield from self_referencing_closures(child, outer)
            continue
        name = f"{outer}.{child.name}" if outer else child.name
        if outer and child.name not in _parameters(child) and any(
                isinstance(x, ast.Name) and x.id == child.name
                for stmt in child.body for x in ast.walk(stmt)):
            yield name
        yield from self_referencing_closures(child, name)


def test_the_guard_tells_a_closure_from_a_parameter():
    source = (
        "def top():\n"
        "    top()\n"
        "    def walk(i):\n"
        "        yield from walk(i + 1)\n"
        "    def step(step, i):\n"
        "        yield from step(step, i + 1)\n"
    )
    assert list(self_referencing_closures(ast.parse(source))) == ["top.walk"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_nested_function_names_itself(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = list(self_referencing_closures(tree))
    assert found == [], f"{path.name}: {found} refer to themselves through a closure"
