"""Which automorphisms and subgroups the witness search may use is
decided in `symmetry` alone, and the walks over reduced divisors live in
`divisors` alone.

`galois` reaches the symmetry internals through two private names only:
`_harmonic_subgroups`, the one entry point for the harmonic subgroups
of an order, and `_vertex_orbits`.  It reaches the divisor internals
through the probe table, the rank walk, the member walk and two guards;
it neither reduces a divisor nor takes a chip itself.  `cli` reaches
them through `_definition_group` alone, the bounded draw for definition
mode, so the definition-mode cap is read and checked in `symmetry`
only; it imports no private divisor name, so the enumeration cap is
read and checked in `divisors` only.  These tests read the sources of
`galois.py` and `cli.py` instead of running them.
"""

import ast
from pathlib import Path

import graphdivisors

GALOIS = Path(graphdivisors.__file__).parent / "galois.py"
CLI = Path(graphdivisors.__file__).parent / "cli.py"
ALLOWED = {"_harmonic_subgroups", "_vertex_orbits"}
DIVISORS_ALLOWED = {"_check_bound", "_members", "_probe_rows", "_rank_walk", "_require_enumerable"}


def imported_names(path, module):
    """The names the module at path imports from the package's `module`,
    relatively or absolutely, and `module` itself where it is imported
    whole."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.module in (module, f"graphdivisors.{module}"):
                yield from (alias.name for alias in node.names)
            elif node.module in (None, "graphdivisors"):
                yield from (module for alias in node.names if alias.name == module)
        elif isinstance(node, ast.Import):
            yield from (module for alias in node.names if alias.name == f"graphdivisors.{module}")


def test_galois_imports_only_the_symmetry_entry_points():
    names = set(imported_names(GALOIS, "symmetry"))
    assert "_harmonic_subgroups" in names
    private = sorted(name for name in names if name.startswith("_") and name not in ALLOWED)
    assert private == [], f"galois.py imports private symmetry names {private}"
    assert "symmetry" not in names, "galois.py imports the symmetry module whole"


def test_galois_imports_only_the_listed_divisor_internals():
    names = set(imported_names(GALOIS, "divisors"))
    private = sorted(name for name in names if name.startswith("_") and name not in DIVISORS_ALLOWED)
    assert private == [], f"galois.py imports private divisor names {private}"
    assert "_probe_rows" in names
    assert "divisors" not in names, "galois.py imports the divisors module whole"


def test_cli_reaches_symmetry_only_through_the_definition_draw():
    names = set(imported_names(CLI, "symmetry"))
    private = sorted(name for name in names if name.startswith("_") and name != "_definition_group")
    assert private == [], f"cli.py imports private symmetry names {private}"
    assert "symmetry" not in names, "cli.py imports the symmetry module whole"
    source = CLI.read_text(encoding="utf-8")
    for name in ("DEFAULT_HARMONIC_DEFINITION_CAP", "_automorphisms"):
        assert name not in source, f"cli.py names {name}"


def test_cli_leaves_the_enumeration_cap_to_divisors():
    names = set(imported_names(CLI, "divisors"))
    private = sorted(name for name in names if name.startswith("_"))
    assert private == [], f"cli.py imports private divisor names {private}"
    assert "divisors" not in names, "cli.py imports the divisors module whole"
    source = CLI.read_text(encoding="utf-8")
    for name in ("_resolve_cap", "DEFAULT_ENUMERATION_CAP"):
        assert name not in source, f"cli.py names {name}"
