"""The CLI reads its graph, writes stdout and sets its exit status in
one place, `cli.main`; each command's handler only computes and returns
its payload, its text lines and whether its check passed.

A handler that loaded its own graph or printed its own result would show
up here as a second function calling `_load_graph` or writing to stdout.
This test reads the module with `ast` instead of running it.
"""

import ast
from pathlib import Path

import graphdivisors.cli

CLI = Path(graphdivisors.cli.__file__)


def _writes_stdout(node) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "stdout":
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
        target = next((k.value for k in node.keywords if k.arg == "file"), None)
        return not (isinstance(target, ast.Attribute) and target.attr == "stderr")
    return False


def _loads_graph(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_load_graph"


def functions_doing_io(tree):
    """The top-level names of the functions and methods under the ast
    node tree whose bodies, nested functions included, call `_load_graph`
    or write to stdout: a `print` not sent to `sys.stderr`, or any use
    of a `stdout` attribute."""
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
            if any(_writes_stdout(x) or _loads_graph(x) for x in ast.walk(fn)):
                found.add(name)
    return found


def test_the_guard_finds_loads_and_stdout_writes():
    source = (
        "def loads(args):\n"
        "    def inner():\n"
        "        return _load_graph(args)\n"
        "    return inner\n"
        "def prints(lines):\n"
        "    for line in lines:\n"
        "        print(line)\n"
        "def to_stdout(text):\n"
        "    print(text, file=sys.stdout)\n"
        "def writes(text):\n"
        "    sys.stdout.write(text)\n"
        "def notes(text):\n"
        "    print(text, file=sys.stderr)\n"
        "class C:\n"
        "    def method(self, text):\n"
        "        print(text)\n"
    )
    found = functions_doing_io(ast.parse(source))
    assert found == {"loads", "prints", "to_stdout", "writes", "C.method"}


def test_only_main_loads_the_graph_and_writes_stdout():
    tree = ast.parse(CLI.read_text(encoding="utf-8"), filename=str(CLI))
    assert functions_doing_io(tree) == {"main"}
