"""The automorphisms of a graph are enumerated by one backtracking
search, `symmetry._automorphisms`, and every bound or prune on them
lives in it.

The search is the only code in `symmetry.py` that builds adjacency bit
masks, and it holds every left shift in the module, so a second
enumerator beside it would show up as a second function that shifts.
This test reads the module with `ast` instead of running it.
"""

import ast
from pathlib import Path

import graphdivisors

SYMMETRY = Path(graphdivisors.__file__).parent / "symmetry.py"


def functions_shifting(tree):
    """The top-level names of the functions and methods under the ast
    node tree whose bodies, nested functions included, shift left."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            owners = [(f"{node.name}.{f.name}", f) for f in node.body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif node in tree.body and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owners = [(node.name, node)]
        else:
            continue
        for name, fn in owners:
            if any(isinstance(x, (ast.BinOp, ast.AugAssign)) and isinstance(x.op, ast.LShift)
                   for x in ast.walk(fn)):
                found.add(name)
    return found


def test_the_guard_finds_readers_in_nested_functions_and_methods():
    source = (
        "def outer(g):\n"
        "    def inner():\n"
        "        return [sum(1 << j for j in a) for a in g._adj]\n"
        "    return inner\n"
        "def other(g):\n"
        "    return g._adj\n"
        "class C:\n"
        "    def method(self, g, mask):\n"
        "        mask <<= 1\n"
        "        return mask\n"
    )
    assert functions_shifting(ast.parse(source)) == {"outer", "C.method"}


def test_one_function_reads_the_adjacency_masks():
    tree = ast.parse(SYMMETRY.read_text(encoding="utf-8"), filename=str(SYMMETRY))
    assert functions_shifting(tree) == {"_automorphisms"}
