"""Count the lines of each module of a Python package.

    python tools/loc.py [PACKAGE_DIR]

PACKAGE_DIR defaults to `src/graphdivisors`.  For each `.py` file it
prints the total lines and the code lines, then the sums.  Code lines
are the lines left after dropping blank lines, comment-only lines and
docstrings (the string statement that opens a module, class or function
body).  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphdivisors"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else DEFAULT_PACKAGE
    rows = [(path.name, *count(path.read_text())) for path in sorted(package.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len("module"), *(len(r[0]) for r in rows))
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
