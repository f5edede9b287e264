import itertools
import json
import time
from fractions import Fraction

import pytest

from wdglab import PartialBooleanFunction, PartialFunctionSpec, and_family_table, build_wdg
from wdglab.cli import main
from wdglab.documents import (
    parse_wdg_document,
    serialize_function_table,
    serialize_target,
    serialize_wdg,
)

F = Fraction
NESTED = "JSON arrays and objects are nested too deeply"


@pytest.fixture
def six_vertex_file(tmp_path, six_vertex_example):
    path = tmp_path / "six_vertex.json"
    path.write_text(serialize_wdg(six_vertex_example))
    return str(path)


@pytest.fixture
def pair_files(tmp_path, pair_left, pair_right):
    a = tmp_path / "left.json"
    b = tmp_path / "right.json"
    a.write_text(serialize_wdg(pair_left))
    b.write_text(serialize_wdg(pair_right))
    return str(a), str(b)


class TestEval:
    def test_maximum_witness(self, six_vertex_file, capsys):
        assert main(["eval", six_vertex_file, "-++-+"]) == 0
        assert capsys.readouterr().out == "g = 1/2\nf = 1\n"

    def test_minimum_witness(self, six_vertex_file, capsys):
        assert main(["eval", six_vertex_file, "--++-"]) == 0
        assert capsys.readouterr().out == "g = -1/2\nf = 0\n"

    def test_wrong_length_exits_2(self, six_vertex_file, capsys):
        assert main(["eval", six_vertex_file, "+++"]) == 2

    def test_bad_character_exits_2(self, six_vertex_file):
        assert main(["eval", six_vertex_file, "++++x"]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["eval", str(tmp_path / "none.json"), "+"]) == 2

    def test_malformed_document_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["eval", str(path), "+"]) == 2


class TestReport:
    def test_json_report(self, six_vertex_file, capsys):
        assert main(["report", six_vertex_file]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["delta"] == "1"
        assert document["l1_norm"] == "1/2"
        assert document["epsilon_bound"] == "1/4"

    def test_plain_report(self, six_vertex_file, capsys):
        assert main(["report", six_vertex_file, "--plain"]) == 0
        assert "delta=1" in capsys.readouterr().out.split()


class TestScanSpeed:
    """Exact reports of fixed graphs within a wall-clock budget: a Python-int
    walk of the 2**22 cube takes several seconds."""

    PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099)

    def _report(self, tmp_path, capsys, wdg):
        path = tmp_path / "graph.json"
        path.write_text(serialize_wdg(wdg))
        start = time.perf_counter()
        assert main(["report", str(path)]) == 0
        elapsed = time.perf_counter() - start
        return json.loads(capsys.readouterr().out), elapsed

    def test_int64_graph_of_22_variables(self, tmp_path, capsys):
        d = 23
        edges = [
            (i, (i + s) % d, F((7 * i + 3 * s) % 17 - 8, 1 + (i + s) % 5))
            for s in (1, 2, 5, 8)
            for i in range(d)
        ]
        document, elapsed = self._report(tmp_path, capsys, build_wdg(d, edges, F(1, 2)))
        assert document["delta"] == "1282/5"
        assert document["argmax"] == "--+++--+++-----+-+-+++"
        assert document["argmin"] == "++++-+---+-+--++--+++-"
        assert elapsed < 2

    def test_graph_past_int64_of_16_variables(self, tmp_path, capsys):
        d = 17
        edges = [
            (i, (i + s) % d, F((-1) ** i * (7919 * i * s % 10**9 + 1), self.PRIMES[(i + s) % 6]))
            for s in (1, 3, 4)
            for i in range(d)
        ]
        document, elapsed = self._report(tmp_path, capsys, build_wdg(d, edges, F(1, 2)))
        assert document["delta"] == (
            "10265597799476272434426853907772537840/1000292032458727685153601621373570283"
        )
        assert document["argmax"] == "+++--+-++++--+-+"
        assert document["argmin"] == "++++--+-++++--+-"
        assert elapsed < 2


class TestHugeInputs:
    """Inputs whose exact expansion would take minutes are refused at once."""

    def _graph_file(self, tmp_path, dimension, edges, name="graph.json"):
        path = tmp_path / name
        path.write_text(
            json.dumps(
                {"format_version": 1, "dimension": dimension, "shift": "0", "edges": edges}
            )
        )
        return str(path)

    def _run(self, argv, capsys):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        return code, capsys.readouterr(), elapsed

    @pytest.mark.parametrize("weight", ["1e999999999", "1e-999999999"])
    def test_huge_exponent_weight_exits_2(self, tmp_path, capsys, weight):
        path = self._graph_file(tmp_path, 2, [{"u": 0, "v": 1, "w": weight}])
        code, captured, elapsed = self._run(["report", path], capsys)
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert elapsed < 1

    @pytest.mark.parametrize("command", [["report"], ["eval", "+"]])
    def test_too_many_digits_weight_exits_2(self, tmp_path, capsys, command):
        path = self._graph_file(tmp_path, 2, [{"u": 0, "v": 1, "w": "1e4300"}])
        code, captured, elapsed = self._run([command[0], path, *command[1:]], capsys)
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: w has a numerator or denominator of over 1000 digits\n"
        assert elapsed < 1

    @pytest.mark.parametrize(
        "weight",
        ["1e3", "3/4", "-0.25", "1e999", pytest.param("1/" + "9" * 1000, id="1/(10**1000-1)")],
    )
    def test_modest_weights_parse(self, tmp_path, capsys, weight):
        path = self._graph_file(tmp_path, 2, [{"u": 0, "v": 1, "w": weight}])
        code, captured, _ = self._run(["report", path], capsys)
        assert code == 0
        assert json.loads(captured.out)["exact"] is True

    @pytest.mark.parametrize("command", [["report"], ["eval", "+++++"]])
    def test_huge_common_denominator_exits_2(self, tmp_path, capsys, command):
        # each weight passes the per-value cap, but their lcm has 4500 digits
        edges = [
            {"u": 0, "v": j, "w": f"1/{10**900 + k}"}
            for j, k in enumerate((1, 3, 7, 9, 13), start=1)
        ]
        path = self._graph_file(tmp_path, 6, edges)
        code, captured, elapsed = self._run([command[0], path, *command[1:]], capsys)
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: the weights and shift have a common denominator of over 1000 digits\n"
        )
        assert elapsed < 1

    def test_many_modest_denominators_parse(self, tmp_path, capsys):
        primes = [p for p in range(10**6, 10**6 + 200) if all(p % q for q in range(2, 1001))]
        edges = [{"u": 0, "v": j, "w": f"{j}/{p}"} for j, p in enumerate(primes[:12], start=1)]
        path = self._graph_file(tmp_path, 13, edges)
        code, captured, _ = self._run(["report", path], capsys)
        assert code == 0
        assert json.loads(captured.out)["exact"] is True

    @pytest.mark.parametrize(
        "edge",
        [
            {"u": 0, "v": 1, "w": "x" * 200_000},
            {"u": 0, "v": 1, "w": "1", "note": "x" * 200_000},
            {"u": 0, "v": 1, "w": ["1"] * 50_000},
        ],
        ids=["huge-weight", "huge-extra-key", "huge-list-weight"],
    )
    def test_error_line_stays_short(self, tmp_path, capsys, edge):
        path = self._graph_file(tmp_path, 2, [edge])
        code, captured, _ = self._run(["report", path], capsys)
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert len(captured.err) < 200

    def test_huge_exponent_epsilon_exits_2(self, tmp_path, capsys):
        spec = PartialFunctionSpec(dimension=3, points=(((1, 1), 1),), epsilon=0)
        path = tmp_path / "t.json"
        path.write_text(serialize_target(spec))
        argv = ["optimize", "maximize_l1", str(path), "--epsilon", "1e999999999"]
        code, captured, elapsed = self._run(argv, capsys)
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert elapsed < 1

    def _one_weight_files(self, tmp_path):
        # each parses, but their composites have denominators of 1200 digits
        return [
            self._graph_file(tmp_path, 2, [{"u": 0, "v": 1, "w": f"1/{10**600 + k}"}], name)
            for k, name in ((1, "a.json"), (3, "b.json"))
        ]

    @pytest.mark.parametrize("mode", ["and", "or"])
    def test_unwritable_composite_exits_3(self, tmp_path, capsys, mode):
        a, b = self._one_weight_files(tmp_path)
        out = tmp_path / "out.json"
        code, captured, _ = self._run(["compose", mode, a, b, str(out)], capsys)
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: the graph cannot be written as a document: ")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_unwritable_stage_exits_3(self, tmp_path, capsys):
        a, _ = self._one_weight_files(tmp_path)
        out_dir = tmp_path / "stages"
        code, captured, _ = self._run(["iterate", "or", a, "2", str(out_dir)], capsys)
        assert code == 3
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        # stage 1 could be written, but nothing is written once a stage cannot
        assert not out_dir.exists()

    @pytest.mark.parametrize("budget", [[], ["--entry-budget", str(10**100)]])
    def test_budget_error_stays_short(self, tmp_path, capsys, budget):
        path = self._graph_file(tmp_path, 10**30, [])
        out_dir = str(tmp_path / "stages")
        code, captured, _ = self._run(["iterate", "and", path, "2", out_dir, *budget], capsys)
        assert code == 3
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert len(captured.err.rstrip("\n")) <= 120

    @pytest.mark.parametrize("shift, depth", [("1/2", "100000000"), ("1", "20000")])
    def test_one_vertex_iterate_exits_3(self, tmp_path, capsys, shift, depth):
        path = tmp_path / "d1.json"
        path.write_text(serialize_wdg(build_wdg(1, [], shift=F(shift))))
        out_dir = tmp_path / "stages"
        code, captured, elapsed = self._run(
            ["iterate", "and", str(path), depth, str(out_dir)], capsys
        )
        assert code == 3
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert not out_dir.exists()
        assert elapsed < 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 200_000, NESTED),
            ('{"a":' * 100_000 + "1" + "}" * 100_000, NESTED),
            ('{"format_version": ' + "9" * 5000 + "}", "a JSON integer has over 4300 digits"),
        ],
        ids=["open-arrays", "nested-objects", "5000-digit-integer"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["report"],
            ["eval", "{}", "+"],
            ["compose", "and", "{}", "{}", "out.json"],
            ["iterate", "or", "{}", "2", "stages"],
            ["optimize", "maximize_l1"],
            ["certificate"],
        ],
        ids=["report", "eval", "compose", "iterate", "optimize", "certificate"],
    )
    def test_undecodable_document_exits_2(self, tmp_path, capsys, command, text, message):
        # graph, target and function-table documents all refuse it in the parser
        path = tmp_path / "doc.json"
        path.write_text(text)
        argv = [str(path) if token == "{}" else token for token in command]
        if "{}" not in command:
            argv.append(str(path))
        code, captured, elapsed = self._run(argv, capsys)
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert elapsed < 1

    def test_empty_graph_of_huge_dimension(self, tmp_path, capsys):
        path = self._graph_file(tmp_path, 1_000_000, [])
        code, captured, elapsed = self._run(["report", path], capsys)
        assert code == 0
        document = json.loads(captured.out)
        assert document["exact"] is False
        assert document["epsilon_bound"] == "0"
        assert elapsed < 1


class TestCompose:
    def test_and_golden(self, pair_files, tmp_path, capsys):
        out = tmp_path / "and.json"
        assert main(["compose", "and", *pair_files, str(out)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines == ["predicted_l1 = 1", "actual_l1 = 1"]
        composed = parse_wdg_document(out.read_text())
        assert composed.dimension == 9

    def test_or_golden(self, pair_files, tmp_path, capsys):
        out = tmp_path / "or.json"
        assert main(["compose", "or", *pair_files, str(out)]) == 0
        assert "predicted_l1 = 5/6" in capsys.readouterr().out

    def test_budget_exits_3(self, pair_files, tmp_path):
        out = tmp_path / "never.json"
        code = main(["compose", "and", *pair_files, str(out), "--entry-budget", "10"])
        assert code == 3
        assert not out.exists()


class TestIterate:
    def test_l1_table(self, pair_files, tmp_path, capsys):
        out_dir = tmp_path / "stages"
        assert main(["iterate", "and", pair_files[1], "3", str(out_dir)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines == [
            "stage 1: l1 = 2/3",
            "stage 2: l1 = 4/3",
            "stage 3: l1 = 56/27",
        ]
        for i in (1, 2, 3):
            assert (out_dir / f"stage_{i}.json").exists()

    def test_budget_exits_3(self, pair_files, tmp_path):
        code = main(
            ["iterate", "and", pair_files[1], "4", str(tmp_path / "x"), "--entry-budget", "100"]
        )
        assert code == 3


class TestOptimize:
    @pytest.fixture
    def target_file(self, tmp_path):
        spec = PartialFunctionSpec(
            dimension=6,
            points=(((-1, 1, 1, -1, 1), 1), ((-1, -1, 1, 1, -1), 0)),
            epsilon=0,
        )
        path = tmp_path / "target.json"
        path.write_text(serialize_target(spec))
        return str(path)

    def test_maximize_summary(self, target_file, tmp_path, capsys):
        out = tmp_path / "found.json"
        code = main(
            [
                "optimize",
                "maximize_l1",
                target_file,
                "--budget",
                "800",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["feasible"] is True
        assert summary["verified"] is True
        num, _, den = summary["objective"].partition("/")
        assert F(int(num), int(den or 1)) >= F(1, 2)
        assert parse_wdg_document(out.read_text()).dimension == 6

    def test_byte_identical_runs(self, target_file, capsys):
        assert main(["optimize", "maximize_l1", target_file, "--budget", "600"]) == 0
        first = capsys.readouterr().out
        assert main(["optimize", "maximize_l1", target_file, "--budget", "600"]) == 0
        assert capsys.readouterr().out == first

    def test_infeasible_exits_3(self, tmp_path, capsys):
        text = json.dumps(
            {
                "format_version": 1,
                "dimension": 3,
                "epsilon": "0",
                "points": [
                    {"input": "++", "value": 1},
                    {"input": "++", "value": 0},
                ],
            }
        )
        path = tmp_path / "impossible.json"
        path.write_text(text)
        assert main(["optimize", "maximize_l1", str(path), "--budget", "50"]) == 3

    def test_epsilon_override(self, tmp_path, capsys):
        spec = PartialFunctionSpec(dimension=3, points=(((1, 1), 1),), epsilon=0)
        path = tmp_path / "t.json"
        path.write_text(serialize_target(spec))
        code = main(
            ["optimize", "minimize_delta", str(path), "--budget", "300", "--epsilon", "1/4"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_float_point_value_exits_2(self, tmp_path, capsys):
        text = json.dumps(
            {
                "format_version": 1,
                "dimension": 3,
                "epsilon": "0",
                "points": [{"input": "++", "value": 1.0}],
            }
        )
        path = tmp_path / "float.json"
        path.write_text(text)
        assert main(["optimize", "maximize_l1", str(path), "--budget", "50"]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize(
        "option",
        [
            ["--epsilon", "1/0"],
            ["--epsilon", "x"],
            ["--budget", "-5"],
            ["--budget", "many"],
            ["--chains", "0"],
            ["--seed", "-1"],
        ],
    )
    def test_bad_option_exits_2(self, target_file, capsys, option):
        assert main(["optimize", "maximize_l1", target_file, *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert option[0] in captured.err


class TestCertificate:
    def test_and_family(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text(serialize_function_table(and_family_table(3)))
        assert main(["certificate", str(path)]) == 0
        assert capsys.readouterr().out == "c0 = 1\nc1 = 3\nc = 3\n"

    def test_large_table_exits_3(self, tmp_path, capsys):
        # 1024 points of arity 16: 2**36 worst-case steps, refused before the search
        points = itertools.islice(itertools.product((-1, 1), repeat=16), 1024)
        table = PartialBooleanFunction(arity=16, table={x: sum(x) % 4 // 2 for x in points})
        path = tmp_path / "table.json"
        path.write_text(serialize_function_table(table))
        start = time.perf_counter()
        assert main(["certificate", str(path)]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


class TestCsopOrder:
    def test_golden(self, capsys):
        assert main(["csop-order", "--dims", "3,3", "--total", "6"]) == 0
        assert capsys.readouterr().out == "3\n"

    def test_incomplete_exits_2(self):
        assert main(["csop-order", "--dims", "3,2", "--total", "6"]) == 2

    def test_bad_dims_exits_2(self):
        assert main(["csop-order", "--dims", "3,x", "--total", "6"]) == 2
