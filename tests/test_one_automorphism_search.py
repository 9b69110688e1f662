"""The automorphisms of a graph are enumerated by one backtracking
search, `symmetry._automorphisms`, and every bound or prune on them
lives in it.

The search is the only code in `symmetry.py` that reads a graph's
adjacency bit masks, `_adj_masks`, so a second enumerator beside it
would show up as a second reader.  This test reads the module with
`ast` instead of running it.
"""

import ast
from pathlib import Path

import graphdivisors

SYMMETRY = Path(graphdivisors.__file__).parent / "symmetry.py"


def functions_reading(tree, attribute):
    """The top-level names of the functions and methods under the ast
    node tree whose bodies, nested functions included, read `attribute`
    of some object."""
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
            if any(isinstance(x, ast.Attribute) and x.attr == attribute for x in ast.walk(fn)):
                found.add(name)
    return found


def test_the_guard_finds_readers_in_nested_functions_and_methods():
    source = (
        "def outer(g):\n"
        "    def inner():\n"
        "        return g._adj_masks\n"
        "    return inner\n"
        "def other(g):\n"
        "    return g._adj\n"
        "class C:\n"
        "    def method(self, g):\n"
        "        return g._adj_masks\n"
    )
    assert functions_reading(ast.parse(source), "_adj_masks") == {"outer", "C.method"}


def test_one_function_reads_the_adjacency_masks():
    tree = ast.parse(SYMMETRY.read_text(encoding="utf-8"), filename=str(SYMMETRY))
    assert functions_reading(tree, "_adj_masks") == {"_automorphisms"}
