"""`tools/loc.py`, the line counter of the package's modules."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps the line


class A:
    """Class docstring."""

    # a comment line
    def f(self):
        """Function docstring."""
        text = """a string that is
not a docstring"""
        return (text,
                os.sep)
'''


def test_counts_a_known_snippet():
    # Code: the import, `class A:`, `def f`, the two lines of `text` and
    # the two lines of the return.
    assert loc.count(SNIPPET) == (16, 7)


def test_prints_each_module_and_the_sum(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module   lines    code",
        "a.py        16       7",
        "b.py         2       1",
        "total       18       8",
    ]
