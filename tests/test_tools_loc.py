"""`tools/loc.py`, the line counter of the package's modules."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

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


def git(cwd, *args):
    # A fixed identity and no signing, whatever the user's git config says.
    subprocess.run(["git", "-c", "user.name=loc", "-c", "user.email=loc@example.com",
                    "-c", "commit.gpgsign=false", *args], cwd=cwd, check=True, capture_output=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_against_a_revision(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(SNIPPET)
    (package / "gone.py").write_text("x = 1\ny = 2\n")
    (package / "notes.txt").write_text("not a module\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "first")
    (package / "a.py").write_text(SNIPPET + "z = 3\n")
    (package / "gone.py").unlink()
    (package / "new.py").write_text("# a comment\nw = 4\n")
    assert loc.main([str(package), "--against", "HEAD"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "                   HEAD             now          change",
        "module    lines    code   lines    code   lines    code",
        "a.py         16       7      17       8      +1      +1",
        "gone.py       2       2       0       0      -2      -2",
        "new.py        0       0       2       1      +2      +1",
        "total        18       9      19       9      +1      +0",
    ]


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_against_an_unknown_revision(tmp_path, capsys):
    git(tmp_path, "init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    assert loc.main([str(tmp_path), "--against", "no-such-rev"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: cannot read 'no-such-rev': fatal:")
