"""Which automorphisms and subgroups the witness search may use is
decided in `symmetry` alone.

`galois` reaches the symmetry internals through two private names only:
`_harmonic_subgroups`, the one entry point for the harmonic subgroups
of an order, and `_vertex_orbits`.  This test reads the imports of
`galois.py` instead of running it.
"""

import ast
from pathlib import Path

import graphdivisors

GALOIS = Path(graphdivisors.__file__).parent / "galois.py"
ALLOWED = {"_harmonic_subgroups", "_vertex_orbits"}


def imported_symmetry_names(path):
    """The names the module at path imports from the symmetry module,
    relatively or absolutely, and the symmetry modules it imports whole."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("symmetry", "graphdivisors.symmetry"):
                yield from (alias.name for alias in node.names)
            elif node.module in (None, "graphdivisors"):
                yield from ("symmetry" for alias in node.names if alias.name == "symmetry")
        elif isinstance(node, ast.Import):
            yield from ("symmetry" for alias in node.names if alias.name == "graphdivisors.symmetry")


def test_galois_imports_only_the_symmetry_entry_points():
    names = set(imported_symmetry_names(GALOIS))
    assert "_harmonic_subgroups" in names
    private = sorted(name for name in names if name.startswith("_") and name not in ALLOWED)
    assert private == [], f"galois.py imports private symmetry names {private}"
    assert "symmetry" not in names, "galois.py imports the symmetry module whole"
