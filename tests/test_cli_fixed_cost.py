"""The fixed cost of one CLI call: the JSON writer and the parser.

`--format json` is written by a private writer, not by `json.dumps(...,
indent=2)`, whose `indent` forces the pure-Python encoder.  The writer
must give exactly the same string; `json.dumps` stays here as its
oracle.  `main` builds only the subparser of the command it is given,
and must read every argv as the full parser does.  Work is counted
(parsers made, encoder entered), not timed.
"""

import argparse
import importlib
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphdivisors.cli
from graphdivisors.cli import _COMMANDS, _dumps, build_parser, main

TRICKY_TEXT = st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é", " ", "😀",
                               "1", "true", "null", ""])
TEXT = st.one_of(st.text(), TRICKY_TEXT)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-(10 ** 60), max_value=10 ** 60),
    TEXT,
)
# Siblings from a small alphabet where True == 1 and False == 0, so a
# value-keyed memo that ignored types would mix them up.
LOOKALIKES = st.lists(st.lists(st.sampled_from(["1", 1, True, "0", 0, False, "true", None, "a"]),
                               max_size=3), max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(SCALARS, LOOKALIKES),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=100)
@given(JSON_VALUES)
def test_writer_equals_json_dumps_indent_2(value):
    assert _dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5,
    Fraction(1, 2),
    {1: "a"},
    {"a", "b"},
    {"edges": [["P1", "P2"], ["P1", 0.5]]},
    ["P1", {"P2"}],
], ids=["float", "Fraction", "int key", "set", "nested float", "nested set"])
def test_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        _dumps(value)


@pytest.fixture
def parsers_made(monkeypatch):
    """The `ArgumentParser` objects created while the test runs."""
    made = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return made


def test_corpus_call_builds_one_subparser_and_no_python_encoder(parsers_made, monkeypatch, capsys):
    def python_encoder(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was entered")

    monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
    assert main(["corpus", "--n", "5", "--format", "json"]) == 0
    assert len(parsers_made) == 2
    assert json.loads(capsys.readouterr().out)["graphs_tested"] == 253


def test_corpus_text_writes_no_json(monkeypatch, capsys):
    def assembler(*args):
        raise AssertionError("the corpus JSON was assembled")

    monkeypatch.setattr(graphdivisors.cli, "_corpus_graphs", assembler)
    assert main(["corpus", "--n", "5", "--format", "text"]) == 0
    assert capsys.readouterr().out == "n=5: 253 two-edge-connected labeled graphs\nconsistent: all\n"


def test_import_builds_no_parser(parsers_made):
    importlib.reload(graphdivisors.cli)
    assert parsers_made == []


VALID_ARGV = {
    "gen": "gen --family complete:4 --format json",
    "rank": "rank --family complete:4 --divisor all-ones --cap 3",
    "reduce": "reduce --family wheel:5 --divisor all-ones --base P2",
    "equiv": "equiv --family cycle:4 --divisor all-ones --divisor2 zero",
    "linsys": "linsys --graph g.json --divisor zero --cap 0 --format json",
    "aut": "aut --family house4",
    "subgroups": "subgroups --family complete:4 --order 3",
    "quotient": "quotient --family complete:4 --subgroup []",
    "harmonic": "harmonic --family complete:4 --mode definition",
    "galois": "galois --family complete:5 --vertex P1",
    "classify": "classify --family wheel:6 --format json --cap 20",
    "verify-theorem": "verify-theorem --family complete:4 --cap 5",
    "rr-check": "rr-check --family cycle:5 --divisor all-ones",
    "corpus": "corpus --n 4 --cap 10 --format json",
}


def test_every_command_has_a_valid_argv():
    assert sorted(VALID_ARGV) == sorted(_COMMANDS)


@pytest.mark.parametrize("command", sorted(VALID_ARGV))
def test_one_command_parser_reads_as_the_full_parser(command):
    argv = VALID_ARGV[command].split()
    assert build_parser(command).parse_args(argv) == build_parser().parse_args(argv)


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["graphdivisors", "rank", "--family", "complete:4",
                                      "--divisor", "all-ones"])
    assert main() == 0
    assert capsys.readouterr().out == "2\n"
