import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import graphdivisors.cli

from graphdivisors import Divisor, GaloisCertificate, Graph, generate, is_galois_point
from graphdivisors.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestQueryCommands:
    def test_rank_complete4_all_ones(self, capsys):
        code, out, _ = run(capsys, "rank", "--family", "complete:4", "--divisor", "all-ones")
        assert code == 0
        assert out.strip() == "2"

    def test_rank_of_the_zero_divisor(self, capsys):
        code, out, _ = run(capsys, "rank", "--family", "complete:4", "--divisor", "zero")
        assert code == 0
        assert out == "0\n"

    def test_rank_negative_degree(self, capsys):
        code, out, _ = run(capsys, "rank", "--family", "complete:4", "--divisor", '{"P1": -1}')
        assert code == 0
        assert out.strip() == "-1"

    def test_reduce_text_and_json(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--family", "wheel:5", "--divisor", "all-ones", "--base", "P2"
        )
        assert code == 0
        assert out.strip() == "4·P2 + 1·P4"
        code, out, _ = run(
            capsys, "reduce", "--family", "wheel:5", "--divisor", "all-ones",
            "--base", "P2", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["reduced"] == {"P2": 4, "P4": 1}
        assert payload["is_reduced"] is True
        g = generate("wheel:5")
        d = Divisor.from_json(g, payload["divisor"])
        w = payload["witness"]
        # witness reproduces the reduction
        from graphdivisors import VertexFunction, laplacian_apply

        assert d + laplacian_apply(g, VertexFunction(g, w)) == Divisor.from_json(g, payload["reduced"])

    def test_reduce_hundred_million_chips(self, capsys):
        code, out, err = run(
            capsys, "reduce", "--family", "cycle:3", "--divisor", '{"P2": 100000000}', "--base", "P1"
        )
        assert code == 0
        assert "Traceback" not in err
        assert out.strip() == "99999999·P1 + 1·P2"

    def test_reduce_self_check_within_cap(self, capsys):
        code, out, err = run(capsys, "reduce", "--family", "cycle:6", "--divisor", "all-ones",
                             "--format", "json")
        assert code == 0 and err == ""
        assert json.loads(out)["is_reduced"] is True

    def test_reduce_self_check_skipped_past_cap(self, capsys):
        # 2^23 subsets exceed the default cap: the check is skipped, not run.
        argv = ("reduce", "--family", "cycle:24", "--divisor", "all-ones")
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["is_reduced"] is None
        assert err == "note: is_reduced not checked: the subset check needs 8388608 subsets (cap 5000000)\n"
        code, out, err = run(capsys, *argv)
        assert code == 0 and out == "23·P1 + 1·P13\n"
        assert err.startswith("note: ") and err.count("\n") == 1
        code, out, err = run(capsys, "reduce", "--family", "cycle:6", "--divisor", "all-ones",
                             "--cap", "31", "--format", "json")
        assert code == 0 and json.loads(out)["is_reduced"] is None and "(cap 31)" in err

    def test_reduce_reads_the_one_enumeration_cap(self, capsys, monkeypatch):
        # The limit has one name, in `divisors`, read at the call.
        assert not hasattr(graphdivisors, "DEFAULT_ENUMERATION_CAP")
        monkeypatch.setattr(graphdivisors.divisors, "DEFAULT_ENUMERATION_CAP", 31)
        code, out, err = run(capsys, "reduce", "--family", "cycle:6", "--divisor", "all-ones",
                             "--format", "json")
        assert code == 0 and json.loads(out)["is_reduced"] is None
        assert err == "note: is_reduced not checked: the subset check needs 32 subsets (cap 31)\n"

    def test_rank_two_thousand_chips_on_one_vertex(self, capsys, tmp_path):
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"vertices": ["P1"], "edges": []}))
        code, out, err = run(capsys, "rank", "--graph", str(path), "--divisor", '{"P1": 2000}')
        assert code == 0
        assert "Traceback" not in err
        assert out.strip() == "2000"

    def test_equiv(self, capsys):
        code, out, _ = run(
            capsys, "equiv", "--family", "complete:4",
            "--divisor", "all-ones", "--divisor2", '{"P1": 4}',
        )
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(
            capsys, "equiv", "--family", "complete:4",
            "--divisor", '{"P1": 1}', "--divisor2", '{"P2": 1}',
        )
        assert code == 0 and out.strip() == "false"

    def test_linsys(self, capsys):
        code, out, _ = run(
            capsys, "linsys", "--family", "complete:4",
            "--divisor", '{"P2": 1, "P3": 1, "P4": 1}', "--format", "json",
        )
        payload = json.loads(out)
        assert payload["count"] == 2
        assert {"P1": 3} in payload["divisors"]

    def test_linsys_refusal_word_for_word(self, capsys):
        code, out, err = run(capsys, "linsys", "--family", "complete:4", "--divisor", '{"P1": 10}',
                             "--cap", "5")
        assert code == 2 and out == ""
        assert err == "error: linear system of degree 10 on 4 vertices needs 286 effective divisors (cap 5)\n"

    def test_linsys_on_twelve_hundred_vertices(self, capsys):
        # The default cap admits these 1,200 candidates; the walk keeps
        # its own stack instead of taking one call frame per vertex.
        code, out, err = run(capsys, "linsys", "--family", "wheel:1200", "--divisor", '{"P1": 1}')
        assert code == 0
        assert "Traceback" not in err
        assert out.strip() == "1·P1"

    def test_gen_round_trips(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "--family", "house4", "--format", "json")
        assert code == 0
        g = Graph.from_json(json.loads(out))
        assert g == generate("house4")
        # feed the emitted file back through --graph
        path = tmp_path / "g.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "rank", "--graph", str(path), "--divisor", "all-ones")
        assert code == 0 and out2.strip() == "2"

    def test_aut_and_subgroups(self, capsys):
        code, out, _ = run(capsys, "aut", "--family", "house4", "--format", "json")
        payload = json.loads(out)
        assert payload["order"] == 4
        code, out, _ = run(
            capsys, "subgroups", "--family", "complete:4", "--order", "3", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["count"] == 4

    def test_quotient_and_harmonic(self, capsys):
        rot = json.dumps([{"P1": "P1", "P2": "P3", "P3": "P4", "P4": "P2"}])
        code, out, _ = run(
            capsys, "quotient", "--family", "complete:4", "--subgroup", rot, "--format", "json"
        )
        payload = json.loads(out)
        assert payload["vertices"] == ["P1", "P2"]
        assert len(payload["edge_classes"]) == 1
        code, out, _ = run(
            capsys, "harmonic", "--family", "complete:4", "--subgroup", rot, "--mode", "definition"
        )
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "harmonic", "--family", "house4")
        assert code == 0 and out.strip() == "false"

    def test_galois_certificate_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "galois", "--family", "complete:4", "--vertex", "P1", "--format", "json"
        )
        assert code == 0
        g = generate("complete:4")
        cert = GaloisCertificate.from_json(g, json.loads(out))
        assert cert == is_galois_point(g, Divisor.all_ones(g), "P1")


class TestCheckCommands:
    def test_classify_wheel5_json(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--family", "wheel:5", "--divisor", "all-ones",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["galois_count"] == 1
        assert payload["galois_vertices"] == ["P1"]
        verdicts = {c["vertex"]: c["verdict"] for c in payload["certificates"]}
        assert verdicts == {"P1": True, "P2": False, "P3": False, "P4": False, "P5": False}

    def test_classify_text_names_each_failing_condition(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "complete:4",
                           "--divisor", '{"P1":1,"P2":1,"P3":1,"P4":2}')
        assert code == 0
        assert out.splitlines() == [
            "rank 2, galois points: 0",
            "  P1: no (rank after removing P1 and P4 is 1, not 0)",
            "  P2: no (rank after removing P2 and P4 is 1, not 0)",
            "  P3: no (rank after removing P3 and P4 is 1, not 0)",
            "  P4: no (rank after removing P4 is 2, not 1)",
            "corollary consistent",
        ]

    def test_verify_theorem_exit_codes(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--family", "complete:5")
        assert code == 0
        code, out, _ = run(capsys, "verify-theorem", "--family", "house4")
        assert code == 0  # equivalence holds (both sides false)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_verify_theorem_one_vertex_is_bad_input(self, capsys, tmp_path, fmt):
        # K1 lies outside the characterization (n >= 3): exit 2, not a failed check.
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"vertices": ["a"], "edges": []}))
        code, out, err = run(capsys, "verify-theorem", "--graph", str(path), "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: the theorem check needs n >= 3 vertices, got 1\n"

    def test_rr_check(self, capsys):
        code, out, _ = run(
            capsys, "rr-check", "--family", "house4", "--divisor", "all-ones", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "holds": True, "rank": 2, "canonical_rank": -1,
            "lhs": 3, "rhs": 3, "degree": 4, "genus": 2,
        }

    def test_corpus_n4(self, capsys):
        code, out, _ = run(capsys, "corpus", "--n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["graphs_tested"] == 10
        assert payload["all_consistent"] is True


class TestFailedChecksExitOne:
    """Exit status 1 means a mathematical check failed.  The library's
    checks all pass on real graphs, so each is swapped for one that
    reports a failure: a real result with its verdict turned over."""

    @staticmethod
    def failing(monkeypatch, name, **changes):
        real = getattr(graphdivisors.cli, name)

        def fake(*args, **kwargs):
            return real(*args, **kwargs)._replace(**changes)

        monkeypatch.setattr(graphdivisors.cli, name, fake)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_classify(self, capsys, monkeypatch, fmt):
        self.failing(monkeypatch, "classify_galois_points", corollary_consistent=False)
        code, out, err = run(capsys, "classify", "--family", "wheel:5", "--format", fmt)
        assert code == 1 and err == ""
        if fmt == "json":
            assert json.loads(out)["corollary_consistent"] is False
        else:
            assert out.splitlines()[-1] == "COROLLARY VIOLATED"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_verify_theorem(self, capsys, monkeypatch, fmt):
        self.failing(monkeypatch, "verify_theorem", equivalence_holds=False)
        code, out, err = run(capsys, "verify-theorem", "--family", "house4", "--format", fmt)
        assert code == 1 and err == ""
        if fmt == "json":
            assert json.loads(out)["equivalence_holds"] is False
        else:
            assert "equivalence holds: no" in out.splitlines()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rr_check(self, capsys, monkeypatch, fmt):
        self.failing(monkeypatch, "riemann_roch_check", holds=False)
        code, out, err = run(capsys, "rr-check", "--family", "house4", "--divisor", "all-ones",
                             "--format", fmt)
        assert code == 1 and err == ""
        if fmt == "json":
            assert json.loads(out)["holds"] is False
        else:
            assert out.splitlines()[-1] == "IDENTITY VIOLATED"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_corpus(self, capsys, monkeypatch, fmt):
        real = graphdivisors.cli.enumerate_corpus

        def fake(*args, **kwargs):
            result = real(*args, **kwargs)
            first = result.records[0]._replace(theorem_consistent=False)
            return result._replace(records=(first, *result.records[1:]), all_consistent=False)

        monkeypatch.setattr(graphdivisors.cli, "enumerate_corpus", fake)
        code, out, err = run(capsys, "corpus", "--n", "4", "--format", fmt)
        assert code == 1 and err == ""
        if fmt == "json":
            payload = json.loads(out)
            assert payload["all_consistent"] is False
            assert [g["theorem_consistent"] for g in payload["graphs"]].count(False) == 1
        else:
            assert out.splitlines()[-1] == "consistent: 1 failures"


def test_closed_stdout_pipe_ends_the_program_by_sigpipe():
    # As `... | head -1` does: read one line, then close the pipe.  The
    # output of corpus --n 6 is far larger than a pipe's buffer.
    src = str(Path(graphdivisors.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "graphdivisors.cli", "corpus", "--n", "6", "--format", "json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    assert first == b"{\n"
    assert proc.returncode == -signal.SIGPIPE
    assert err == b""


class TestCorpusApi:
    def test_parameter_validation(self):
        from graphdivisors import ParameterOutOfRangeError, SizeCapExceededError, enumerate_corpus

        with pytest.raises(SizeCapExceededError):
            enumerate_corpus(7)
        with pytest.raises(ParameterOutOfRangeError):
            enumerate_corpus(2)
        with pytest.raises(TypeError):
            enumerate_corpus(4, filter="planar")

    def test_n3_only_triangle(self):
        from graphdivisors import enumerate_corpus

        result = enumerate_corpus(3)
        assert result.graphs_tested == 1
        record = result.records[0]
        assert record.rank == 2
        assert record.galois_count == 3  # the triangle is complete
        assert result.all_consistent


class TestUsageErrors:
    def test_missing_input_source(self, capsys):
        code, _, err = run(capsys, "rank", "--divisor", "all-ones")
        assert code == 2
        assert "--family" in err and "--graph" in err

    def test_both_input_sources(self, capsys):
        code, _, err = run(
            capsys, "rank", "--family", "complete:4", "--graph", "x.json",
            "--divisor", "all-ones",
        )
        assert code == 2

    def test_bad_family(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "moebius:5")
        assert code == 2
        assert "moebius" in err

    def test_bad_divisor_json(self, capsys):
        code, _, err = run(capsys, "rank", "--family", "complete:4", "--divisor", "{oops")
        assert code == 2
        assert "--divisor" in err

    def test_unknown_vertex_in_divisor(self, capsys):
        code, _, err = run(capsys, "rank", "--family", "complete:4", "--divisor", '{"Q1": 1}')
        assert code == 2
        assert "Q1" in err

    def test_missing_divisor(self, capsys):
        code, _, err = run(capsys, "rank", "--family", "complete:4")
        assert code == 2

    def test_family_out_of_range(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "wheel:3")
        assert code == 2

    def test_corpus_cap(self, capsys):
        code, _, err = run(capsys, "corpus", "--n", "7")
        assert code == 2
        assert "6" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("content, problem", [
        ("{}", "'vertices'"),
        ("[]", "object"),
        ('{"vertices": ["P1", "P2", "P3"]}', "'edges'"),
        ('{"vertices": "P1", "edges": []}', "'vertices' must be a list"),
        ('{"vertices": ["P1", "P2"], "edges": {"P1": "P2"}}', "'edges' must be a list"),
        ('{"vertices": ["P1", "P2"], "edges": ["P1P2"]}', "'P1P2'"),
        ('{"vertices": ["P1", "P2"], "edges": [["P1"]]}', "two endpoints"),
        ('{"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3], [3, 1]]}', "vertex label 1"),
    ])
    def test_malformed_graph_file(self, capsys, tmp_path, content, problem):
        path = tmp_path / "g.json"
        path.write_text(content)
        for argv in (("classify",), ("galois", "--vertex", "1")):
            code, out, err = run(capsys, *argv, "--graph", str(path))
            assert code == 2
            assert err.startswith("error: ") and problem in err
            assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("flag", ["--divisor", "--divisor2", "--subgroup", "--graph"])
    def test_deeply_nested_json_is_invalid_input(self, capsys, tmp_path, flag):
        deep = "[" * 100_000 + "]" * 100_000
        path = tmp_path / "deep.json"
        path.write_text(deep)
        argv = {
            "--divisor": ("rank", "--family", "complete:4", "--divisor", deep),
            "--divisor2": ("equiv", "--family", "complete:4", "--divisor", "all-ones", "--divisor2", deep),
            "--subgroup": ("quotient", "--family", "complete:4", "--subgroup", deep),
            "--graph": ("gen", "--graph", str(path)),
        }[flag]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}: invalid JSON") and err.count("\n") == 1

    def test_graph_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff" + '{"vertices": ["P\u00e9"], "edges": []}'.encode("latin-1"))
        code, out, err = run(capsys, "gen", "--graph", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: --graph: cannot read {str(path)!r}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1 and err.count("error:") == 1 and "Traceback" not in err

    def test_graph_file_is_read_as_utf8_whatever_the_locale(self, tmp_path):
        # Under the C locale, without UTF-8 mode, Python's default file
        # encoding is ASCII; the JSON writer escapes non-ASCII output.
        path = tmp_path / "utf8.json"
        path.write_bytes('{"vertices": ["P\u00e9"], "edges": []}'.encode("utf-8"))
        src = str(Path(graphdivisors.__file__).parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "graphdivisors.cli", "gen", "--graph", str(path), "--format", "json"]
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(proc.stdout)["vertices"] == ["P\u00e9"]

    @pytest.mark.parametrize("argv, problem", [
        ("galois --family complete:4", "--vertex is required"),
        ("subgroups --family complete:4", "--order is required"),
        ("subgroups --family complete:4 --order 0", "must be positive, got 0"),
        ("rank --graph {missing} --divisor all-ones", "--graph: cannot read"),
        ("rank --family complete:4 --divisor [1]", "--divisor: expected a JSON object"),
        ("quotient --family complete:4 --subgroup {{}}", "--subgroup: expected a JSON list"),
        ("harmonic --family complete:4 --subgroup {{}}", "--subgroup: expected a JSON list"),
    ])
    def test_one_error_line(self, capsys, tmp_path, argv, problem):
        code, out, err = run(capsys, *argv.format(missing=tmp_path / "missing.json").split())
        assert code == 2 and out == ""
        assert err.startswith("error: ") and problem in err
        assert err.count("\n") == 1 and err.count("error:") == 1

    def test_non_integer_cap_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--family", "complete:4", "--divisor", "all-ones", "--cap", "x"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines()[-1].endswith("argument --cap: invalid int value: 'x'")

    def test_negative_cap_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--family", "cycle:4", "--divisor", '{"P1": -3}', "--cap", "-5"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "error: argument --cap: must be nonnegative, got -5" in out.err
        with pytest.raises(SystemExit) as exc:
            main(["corpus", "--n", "4", "--cap", "-1"])
        assert exc.value.code == 2

    def test_zero_cap_accepted(self, capsys):
        code, out, _ = run(capsys, "rank", "--family", "cycle:4", "--divisor", '{"P1": -3}',
                           "--cap", "0")
        assert code == 0 and out.strip() == "-1"

    @pytest.mark.parametrize("subgroup", [
        "[1]",
        "[null]",
        '["x"]',
        "[[0, 1, 2, 3]]",
        '[{"P1": ["P2"], "P2": "P1", "P3": "P3", "P4": "P4"}]',
    ])
    def test_subgroup_item_not_a_vertex_mapping(self, capsys, subgroup):
        for command in ("quotient", "harmonic"):
            code, out, err = run(capsys, command, "--family", "complete:4", "--subgroup", subgroup)
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err and out == ""

    def test_subgroup_past_the_generation_cap(self, capsys, monkeypatch):
        # S5 from a swap and a 5-cycle, with the cap lowered to 4! elements.
        monkeypatch.setattr(graphdivisors.symmetry, "DEFAULT_AUTOMORPHISM_VERTEX_CAP", 4)
        vertices = [f"P{i}" for i in range(1, 6)]
        swap = {"P1": "P2", "P2": "P1", "P3": "P3", "P4": "P4", "P5": "P5"}
        cycle = dict(zip(vertices, vertices[1:] + vertices[:1]))
        for command in ("quotient", "harmonic"):
            code, out, err = run(capsys, command, "--family", "complete:5",
                                 "--subgroup", json.dumps([swap, cycle]))
            assert code == 2 and out == ""
            assert err == "error: subgroup generation is capped at 24 elements (4!), the generators give more\n"

    @pytest.mark.parametrize("command", ["gen", "equiv", "aut", "subgroups --order 3", "quotient", "harmonic"])
    def test_cap_only_on_commands_that_use_it(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(command.split() + ["--family", "complete:4", "--cap", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap 1" in capsys.readouterr().err


class TestHarmonicDefinitionCap:
    """Without `--subgroup`, definition mode draws the full group only
    up to one element past its cap, so it refuses before listing a
    large group.  Work is counted (elements drawn), not timed."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        """The automorphisms that every search started in the test yields."""
        drawn = []
        automorphisms = graphdivisors.symmetry._automorphisms

        def counting(*args, **kwargs):
            search = automorphisms(*args, **kwargs)

            def counted(*a, **kw):
                for x in search(*a, **kw):
                    drawn.append(x)
                    yield x

            return counted

        monkeypatch.setattr(graphdivisors.symmetry, "_automorphisms", counting)
        return drawn

    def test_refused_after_at_most_cap_plus_one_elements(self, capsys, drawn):
        code, out, err = run(capsys, "harmonic", "--family", "complete:9", "--mode", "definition")
        assert code == 2 and out == ""
        assert err == "error: definition mode enumerates all subgroups; group order is larger than the cap 48\n"
        assert len(drawn) <= 49

    def test_cap_is_read_at_the_call(self, capsys, drawn, monkeypatch):
        monkeypatch.setattr(graphdivisors.symmetry, "DEFAULT_HARMONIC_DEFINITION_CAP", 10)
        code, out, err = run(capsys, "harmonic", "--family", "complete:4", "--mode", "definition")
        assert code == 2 and out == ""
        assert err == "error: definition mode enumerates all subgroups; group order is larger than the cap 10\n"
        assert len(drawn) <= 11

    def test_vertex_cap_refuses_first(self, capsys, drawn):
        code, out, err = run(capsys, "harmonic", "--family", "complete:11", "--mode", "definition")
        assert code == 2 and out == ""
        assert err == "error: automorphism search is capped at 10 vertices, graph has 11\n"
        assert drawn == []

    # sha256 over the exit code, stdout and stderr, recorded while
    # definition mode still listed the whole group first.
    @pytest.mark.parametrize("family, fmt, digest", [
        ("complete:4", "text", "6750eee97616dd45312924a05db178c7f3169ccb5f38b72ed39bcc3f780711d7"),
        ("complete:4", "json", "6910c89a3cc52e5b3e8744bb43703d00410b84afd3db0584c326cf723f1e1044"),
        ("house4", "text", "6750eee97616dd45312924a05db178c7f3169ccb5f38b72ed39bcc3f780711d7"),
        ("house4", "json", "cad9d2382494b47330dcb4c87fdf9155c18d905ff5bea628f8381c59215d8dab"),
    ])
    def test_output_under_the_cap_unchanged(self, capsys, family, fmt, digest):
        code, out, err = run(capsys, "harmonic", "--family", family, "--mode", "definition", "--format", fmt)
        assert hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest() == digest

    def test_subgroup_input_unchanged(self, capsys, drawn):
        # S5 from a swap and a 5-cycle: closed from its generators, then
        # refused by `acts_harmonically` with its order, no search drawn.
        vertices = [f"P{i}" for i in range(1, 6)]
        swap = {"P1": "P2", "P2": "P1", "P3": "P3", "P4": "P4", "P5": "P5"}
        cycle = dict(zip(vertices, vertices[1:] + vertices[:1]))
        code, out, err = run(capsys, "harmonic", "--family", "complete:5", "--mode", "definition",
                             "--subgroup", json.dumps([swap, cycle]))
        assert code == 2 and out == ""
        assert err == "error: definition mode enumerates all subgroups; group order 120 exceeds the cap 48\n"
        rot = json.dumps([{"P1": "P1", "P2": "P3", "P3": "P4", "P4": "P2"}])
        code, out, err = run(capsys, "harmonic", "--family", "complete:4", "--mode", "definition",
                             "--subgroup", rot, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"harmonic": True, "mode": "definition", "order": 3}
        assert drawn == []


class TestFamilySizeCap:
    """A family member or `--graph` file past `graphs.MAX_FAMILY_SIZE`
    vertices or edges is refused before any graph is built:
    `Graph.__init__` calls are counted, not timed."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        init = Graph.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Graph, "__init__", counted)
        return built

    def test_huge_cycle_is_refused_unbuilt(self, capsys, built):
        size = "10000000000000000000000"
        code, out, err = run(capsys, "gen", "--family", f"cycle:{size}")
        assert (code, out, len(built)) == (2, "", 0)
        assert err == (f"error: graph family is capped at 50000 vertices and edges, "
                       f"cycle:{size} has {size} vertices and {size} edges\n")
        assert run(capsys, "gen", "--family", "cycle:4")[0] == 0 and len(built) == 1

    @pytest.mark.parametrize("vertices, edges", [(50_001, 0), (3, 50_001)])
    def test_huge_graph_file_is_refused_unbuilt(self, capsys, built, tmp_path, vertices, edges):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"vertices": [f"v{i}" for i in range(vertices)],
                                    "edges": [["v0", "v1"]] * edges}))
        assert run(capsys, "rank", "--graph", str(path), "--divisor", "zero") == (
            2, "", f"error: graph JSON is capped at 50000 vertices and edges, "
                   f"it has {vertices} vertices and {edges} edges\n")
        assert built == []

    def test_graph_file_at_the_cap_is_built(self, capsys, built, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(generate("cycle:50000").to_json()))
        built.clear()
        assert run(capsys, "rank", "--graph", str(path), "--divisor", "zero") == (0, "0\n", "")
        assert len(built) == 1


class TestOutOfMemory:
    """Running out of memory ends the command with one error line and
    exit 2, not a traceback.  The failure is simulated: building a graph
    too large for memory could end the whole process first."""

    def test_family_too_large_for_memory(self, capsys, monkeypatch):
        def no_memory(family):
            raise MemoryError

        monkeypatch.setattr(graphdivisors.cli, "generate", no_memory)
        assert run(capsys, "gen", "--family", "complete:100000") == (2, "", "error: out of memory\n")

    def test_lines_already_printed_stay(self, capsys, monkeypatch):
        class Element:
            def __init__(self, text):
                self.text = text

            def cycle_notation(self):
                if self.text is None:
                    raise MemoryError
                return self.text

        group = type("Group", (), {"elements": [Element("()"), Element(None)]})
        monkeypatch.setattr(graphdivisors.cli, "automorphism_group", lambda g: group)
        assert run(capsys, "aut", "--family", "complete:3") == (2, "order 2\n()\n", "error: out of memory\n")
