"""The runtime stays standard-library only.

Test tools such as hypothesis may be installed next to the package, so
an accidental runtime import of one would still run.  This test reads
the imports of every module instead of running them.
"""

import ast
import sys
from pathlib import Path

import pytest

import graphdivisors

PACKAGE = Path(graphdivisors.__file__).parent


def absolute_imports(path):
    """The top-level module names that the module at path imports absolutely."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    outside = sorted(set(absolute_imports(path)) - sys.stdlib_module_names)
    assert outside == [], f"{path.name} imports {outside}"
