import json

import pytest

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

    def test_verify_theorem_exit_codes(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--family", "complete:5")
        assert code == 0
        code, out, _ = run(capsys, "verify-theorem", "--family", "house4")
        assert code == 0  # equivalence holds (both sides false)

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


class TestCorpusApi:
    def test_parameter_validation(self):
        from graphdivisors import ParameterOutOfRangeError, SizeCapExceededError, enumerate_corpus

        with pytest.raises(SizeCapExceededError):
            enumerate_corpus(7)
        with pytest.raises(ParameterOutOfRangeError):
            enumerate_corpus(2)
        with pytest.raises(ValueError):
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

    @pytest.mark.parametrize("command", ["gen", "equiv", "aut", "subgroups --order 3", "quotient", "harmonic"])
    def test_cap_only_on_commands_that_use_it(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(command.split() + ["--family", "complete:4", "--cap", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap 1" in capsys.readouterr().err
