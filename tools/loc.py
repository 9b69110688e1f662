"""Count the lines of each module of a Python package.

    python tools/loc.py [PACKAGE_DIR] [--against REV]

PACKAGE_DIR defaults to `src/graphdivisors`.  For each `.py` file it
prints the total lines and the code lines, then the sums.  Code lines
are the lines left after dropping blank lines, comment-only lines and
docstrings (the string statement that opens a module, class or function
body).  With `--against REV` it prints each module's counts at the git
revision REV, in the working tree, and the change; a module missing on
one side counts 0 there.  REV is read from the local repository with
`git ls-tree` and `git show`.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def _git(package: Path, *args: str) -> str:
    """The output of a git command run in the package directory, whose
    paths `git ls-tree` and `git show REV:./name` read relative to it."""
    return subprocess.run(["git", *args], cwd=package, capture_output=True, text=True,
                          encoding="utf-8", check=True).stdout


def counts_at(package: Path, rev: str) -> dict[str, tuple[int, int]]:
    """Module name -> (total lines, code lines) of the package at REV."""
    names = _git(package, "ls-tree", "--name-only", rev, "--", ".").splitlines()
    return {name: count(_git(package, "show", f"{rev}:./{name}")) for name in names if name.endswith(".py")}


def _table(rows: list[tuple], groups: tuple[str, ...] = ()) -> None:
    """Print the rows under a module column and a (lines, code) pair of
    columns per group, each group's label (at most 14 characters) over
    its pair."""
    width = max(len("module"), *(len(r[0]) for r in rows))
    if groups:
        print(" " * width + "".join(f"  {label[:14]:>14}" for label in groups))
    print(f"{'module':<{width}}" + f"  {'lines':>6}  {'code':>6}" * max(1, len(groups)))
    for name, *cells in rows:
        print(f"{name:<{width}}" + "".join(f"  {c:>6}" for c in cells))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Count the lines of each module of a package.")
    parser.add_argument("package", nargs="?", type=Path, default=DEFAULT_PACKAGE)
    parser.add_argument("--against", metavar="REV", help="also count the package at git revision REV")
    args = parser.parse_args(argv)
    now = {path.name: count(path.read_text(encoding="utf-8")) for path in sorted(args.package.glob("*.py"))}
    if args.against is None:
        rows = [(name, *c) for name, c in now.items()]
        rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
        _table(rows)
        return 0
    try:
        then = counts_at(args.package, args.against)
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"error: cannot read {args.against!r}: {getattr(exc, 'stderr', None) or exc}".rstrip(),
              file=sys.stderr)
        return 2
    rows = []
    for name in sorted(then.keys() | now.keys()):
        (l0, c0), (l1, c1) = then.get(name, (0, 0)), now.get(name, (0, 0))
        rows.append((name, l0, c0, l1, c1, l1 - l0, c1 - c0))
    rows.append(("total", *(sum(r[k] for r in rows) for k in range(1, 7))))
    rows = [(*r[:5], f"{r[5]:+d}", f"{r[6]:+d}") for r in rows]
    _table(rows, (args.against, "now", "change"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
