import numpy as np
import pytest

from rasqp.bench import MACHINE_HEADER, TRACE_HEADER, parse_machine_rows
from rasqp.cli import main
from rasqp.generators import gen_medium
from rasqp.model import QpProblem
from rasqp.problem_io import ProblemFile, save_problem

TWO_BY_TWO = "n 2\ndense\n4 1\n1 3\ng\n-1 -2\n"


def one_line_error(capsys) -> str:
    """The single stderr line of a rejected input, after checking stdout is empty."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("rasqp: error: ")
    return captured.err


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "small.txt"
    path.write_text(TWO_BY_TWO)
    return str(path)


@pytest.fixture
def cycling_file(tmp_path):
    # Instance on which the full-exchange method cycles (see test_solvers).
    problem = gen_medium(30, 0.5, 1e12, seed=6)
    path = tmp_path / "cycling.txt"
    save_problem(ProblemFile(problem, {}), path)
    return str(path)


class TestSolve:
    def test_report(self, problem_file, capsys):
        assert main(["solve", problem_file]) == 0
        out = capsys.readouterr().out
        assert "status: Optimal" in out
        assert "objective: -0.68181818181818" in out
        assert "solves:" in out
        assert "stationarity:" in out
        assert "x: " in out  # small problems print the solution

    @pytest.mark.parametrize("solver", ["ras", "generic", "kr", "fletcher"])
    def test_every_solver(self, problem_file, capsys, solver):
        assert main(["solve", problem_file, "--solver", solver]) == 0
        assert "status: Optimal" in capsys.readouterr().out

    def test_machine_line(self, problem_file, capsys):
        assert main(["solve", problem_file, "--machine"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        fields = out[0].split(",")
        assert fields[0] == "Optimal"
        assert float(fields[1]) == pytest.approx(-15.0 / 22.0)
        assert int(fields[2]) >= 1
        assert float(fields[4]) <= 1e-10  # stationarity
        assert float(fields[5]) == 0.0  # primal violation

    def test_seed_changes_nothing_observable_here(self, problem_file, capsys):
        main(["solve", problem_file, "--machine", "--seed", "0"])
        first = capsys.readouterr().out
        main(["solve", problem_file, "--machine", "--seed", "0"])
        assert capsys.readouterr().out == first

    def test_nonconvergent_run_exits_2(self, cycling_file, capsys):
        assert main(["solve", cycling_file, "--solver", "kr"]) == 2
        assert "status: CycleDetected" in capsys.readouterr().out

    def test_max_solves_flag(self, problem_file, capsys):
        assert main(["solve", problem_file, "--max-solves", "1"]) == 2
        assert "IterationCapReached" in capsys.readouterr().out

    def test_max_solves_reaches_every_capped_solver(self, problem_file, capsys):
        # kr stops after its one allowed solve; fletcher has no cap to set.
        assert main(["solve", problem_file, "--solver", "kr", "--max-solves", "1",
                     "--machine"]) == 2
        fields = capsys.readouterr().out.strip().split(",")
        assert fields[0] == "CycleDetected"
        assert int(fields[2]) == 1
        assert main(["solve", problem_file, "--solver", "fletcher", "--max-solves", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["rasqp: error: fletcher takes only tol, not max_solves"]

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.txt")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("n 2\ndense\n1 0\n")
        assert main(["solve", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_dense_file_short_of_its_n(self, tmp_path, capsys):
        # Nothing of size n * n is allocated before the rows are read.
        path = tmp_path / "huge.txt"
        path.write_text("n 1000000\ndense\n1 2\n")
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"rasqp: error: {path}: line 3: matrix row has 2 entries, expected 1000000"]

    def test_not_positive_definite_file(self, tmp_path, capsys):
        path = tmp_path / "npd.txt"
        path.write_text("n 2\ndense\n1 0\n0 -1\ng\n0 0\n")
        assert main(["solve", str(path)]) == 1
        assert "not positive definite" in capsys.readouterr().err

    def test_non_finite_file(self, tmp_path, capsys):
        path = tmp_path / "nan.txt"
        path.write_text("n 2\ndense\nnan 0\n0 1\ng\n1 -1\n")
        assert main(["solve", str(path)]) == 1
        assert "NaN or infinite" in capsys.readouterr().err



class TestUsageErrors:
    def test_unknown_solver(self, problem_file, capsys):
        assert main(["solve", problem_file, "--solver", "simplex"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_family_axis_mismatch(self, capsys):
        code = main(["bench", "--family", "easy", "--n", "10",
                     "--epsilon", "0.01", "--cond", "1e4"])
        assert code == 1
        assert "does not apply" in capsys.readouterr().err

    def test_missing_family_axis(self, capsys):
        assert main(["bench", "--family", "medium", "--n", "10",
                     "--cond", "1e4"]) == 1
        assert "requires" in capsys.readouterr().err

    def test_bad_number_list(self, capsys):
        assert main(["bench", "--family", "easy", "--n", "ten",
                     "--epsilon", "0.01"]) == 1

    def test_bad_bench_solver(self, capsys):
        assert main(["bench", "--family", "easy", "--n", "10",
                     "--epsilon", "0.01", "--solvers", "ras,newton"]) == 1
        assert one_line_error(capsys) == ("rasqp: error: unknown solver 'newton'; "
                                          "expected one of ('ras', 'generic', 'kr', 'fletcher')\n")

    def test_trace_wrong_axis(self, capsys):
        assert main(["trace", "--family", "hard", "--n", "20",
                     "--cond", "1e4", "--epsilon", "0.1"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["trace", "--family", "hard", "--n", "1", "--cond", "1e4"],
         "n must be an integer >= 2, not 1"),
        (["trace", "--family", "hard", "--n", "10", "--cond", "0.5"],
         "argument --cond: cond must be a number in [1, inf), not 0.5"),
        (["trace", "--family", "hard", "--n", "10", "--cond", "1e4", "--tol", "-1"],
         "argument --tol: tol must be a number in [0, inf), not -1.0"),
        (["bench", "--family", "hard", "--n", "10", "--cond", "1e4", "--trials", "0"],
         "argument --trials: trials must be an integer >= 1, not 0"),
        *((["bench", "--family", "hard", "--n", "10", "--cond", "1e4", "--trials", "2",
            "--solvers", "ras", "--time-limit", limit],
           f"argument --time-limit: time_limit_per_trial must be a number in (0, inf], "
           f"not {float(limit)!r}")
          for limit in ("-1", "0", "nan")),
        *((["bench", "--family", "hard", "--n", "10", "--cond", f"1e4,{cond}", "--trials", "1",
            "--solvers", "ras"], f"argument --cond: cond must be a number in [1, inf), "
                                 f"not {float(cond)!r}")
          for cond in ("0.5", "inf", "nan")),
        (["bench", "--family", "easy", "--n", "10", "--epsilon", "nan", "--trials", "1",
          "--solvers", "ras"],
         "argument --epsilon: epsilon must be a number in (0, inf), not nan"),
        (["bench", "--family", "medium", "--n", "10", "--cond", "10", "--density", "0.5,0",
          "--trials", "1", "--solvers", "ras"],
         "argument --density: density must be a number in (0, 1], not 0.0"),
        (["trace", "--family", "hard", "--n", "20", "--cond", "inf"],
         "argument --cond: cond must be a number in [1, inf), not inf"),
        (["trace", "--family", "medium", "--n", "20", "--cond", "10", "--density", "1.5"],
         "argument --density: density must be a number in (0, 1], not 1.5"),
        (["trace", "--family", "easy", "--n", "20", "--epsilon", "0"],
         "argument --epsilon: epsilon must be a number in (0, inf), not 0.0"),
        (["bench", "--family", "hard", "--n", "10", "--cond", "1e4", "--seed", "-1"],
         "argument --seed: seed must be an integer >= 0, not -1"),
    ], ids=["trace-n", "trace-cond", "trace-tol", "bench-trials",
            "bench-time-limit-negative", "bench-time-limit-zero", "bench-time-limit-nan",
            "bench-cond-below-one", "bench-cond-inf", "bench-cond-nan", "bench-epsilon-nan",
            "bench-density-zero", "trace-cond-inf", "trace-density-above-one",
            "trace-epsilon-zero", "bench-seed"])
    def test_bad_value_is_a_one_line_usage_error(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rasqp: error: {message}\n"

    @pytest.mark.parametrize("solver", ["ras", "generic", "kr"])
    @pytest.mark.parametrize("max_solves", ["0", "-3"])
    def test_solve_max_solves_below_one(self, problem_file, capsys, solver, max_solves):
        assert main(["solve", problem_file, "--solver", solver,
                     "--max-solves", max_solves]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"rasqp: error: argument --max-solves: max_solves must be an integer >= 1, "
            f"not {max_solves}"]

    @pytest.mark.parametrize("argv, message", [
        (["--max-solves", "0"],
         "argument --max-solves: max_solves must be an integer >= 1, not 0"),
        (["--solver", "fletcher", "--max-solves", "1"], "fletcher takes only tol, not max_solves"),
    ], ids=["below-one", "fletcher"])
    def test_solve_max_solves_is_checked_before_the_file_is_read(self, problem_file, argv,
                                                                 message, monkeypatch, capsys):
        def load_problem(path):
            raise AssertionError("the problem file was read")

        monkeypatch.setattr("rasqp.cli.load_problem", load_problem)
        assert main(["solve", problem_file, *argv]) == 1
        assert one_line_error(capsys) == f"rasqp: error: {message}\n"

    def test_solve_negative_tol(self, problem_file, capsys):
        assert main(["solve", problem_file, "--tol", "-1"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "argument --tol: tol must be a number in [0, inf), not -1.0" in err

    def test_non_numeric_tol(self, problem_file, capsys):
        assert main(["solve", problem_file, "--tol", "tiny"]) == 1
        assert "argument --tol: invalid float value: 'tiny'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["solve", "{file}"],
        ["bench", "--family", "hard", "--n", "10", "--cond", "1e4", "--trials", "1",
         "--solvers", "ras"],
        ["trace", "--family", "hard", "--n", "10", "--cond", "1e4"],
    ], ids=["solve", "bench", "trace"])
    def test_negative_seed(self, problem_file, command, capsys):
        argv = [a.format(file=problem_file) for a in command] + ["--seed", "-1"]
        assert main(argv) == 1
        assert "--seed" in one_line_error(capsys)

    @pytest.mark.parametrize("flag, value", [
        ("--n", ","), ("--cond", ","), ("--solvers", ","),
    ])
    def test_empty_bench_list(self, flag, value, capsys):
        args = {"--n": "10", "--cond": "1e4", "--solvers": "ras", flag: value}
        argv = ["bench", "--family", "hard", "--trials", "1"]
        assert main(argv + [a for item in args.items() for a in item]) == 1
        assert flag in one_line_error(capsys)

    def test_solve_directory(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == 1
        assert f"cannot read {tmp_path}" in one_line_error(capsys)

    def test_bench_unwritable_output_fails_before_any_trial(self, tmp_path, capsys,
                                                            monkeypatch):
        def run_plan(plan):
            raise AssertionError("run_plan ran although --output cannot be written")

        monkeypatch.setattr("rasqp.cli.run_plan", run_plan)
        assert main(["bench", "--family", "hard", "--n", "10", "--cond", "1e4",
                     "--trials", "1", "--solvers", "ras",
                     "--output", str(tmp_path / "missing" / "x.csv")]) == 1
        assert "missing" in one_line_error(capsys)

    def test_trace_unwritable_output(self, tmp_path, capsys, monkeypatch):
        def generate(spec):
            raise AssertionError("generate ran although --output cannot be written")

        monkeypatch.setattr("rasqp.cli.generate", generate)
        assert main(["trace", "--family", "hard", "--n", "10", "--cond", "1e4",
                     "--output", str(tmp_path / "missing" / "t.csv")]) == 1
        assert "missing" in one_line_error(capsys)


class TestBench:
    def test_grid_with_output_file(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        code = main([
            "bench", "--family", "easy", "--n", "10,14", "--epsilon", "0.01",
            "--solvers", "ras,kr", "--trials", "2", "--output", str(out_csv),
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].startswith("family")
        assert table.count("\n") == 5  # header + 2 n * 2 solvers
        rows = parse_machine_rows(out_csv.read_text())
        assert len(rows) == 8  # 2 n * 2 solvers * 2 trials
        assert {r.status for r in rows} == {"Optimal"}
        assert {r.n for r in rows} == {10, 14}

    def test_machine_rows_on_stdout(self, capsys):
        code = main(["bench", "--family", "hard", "--n", "12", "--cond", "1e2",
                     "--solvers", "ras", "--trials", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert MACHINE_HEADER in out
        machine = out[out.index(MACHINE_HEADER):]
        assert len(parse_machine_rows(machine)) == 1

    def test_medium_grid(self, tmp_path):
        out_csv = tmp_path / "rows.csv"
        code = main([
            "bench", "--family", "medium", "--n", "20", "--density", "0.5",
            "--cond", "1e2,1e4", "--solvers", "kr", "--trials", "2",
            "--output", str(out_csv),
        ])
        assert code == 0
        rows = parse_machine_rows(out_csv.read_text())
        assert {r.cond for r in rows} == {1e2, 1e4}


class TestTrace:
    def test_trace_to_stdout(self, capsys):
        code = main(["trace", "--family", "hard", "--n", "30",
                     "--cond", "1e4", "--solver", "ras"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) >= 2
        assert lines[1].startswith("ras,1,")
        assert lines[-1].split(",")[3] == "0"  # final row: nothing infeasible

    def test_trace_to_file(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["trace", "--family", "easy", "--n", "25",
                     "--epsilon", "0.1", "--solver", "fletcher",
                     "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().splitlines()[0] == TRACE_HEADER

    def test_nonconvergent_trace_exits_2_but_emits(self, capsys):
        code = main(["trace", "--family", "medium", "--n", "30",
                     "--density", "0.5", "--cond", "1e12", "--seed", "6",
                     "--solver", "kr"])
        assert code == 2
        assert capsys.readouterr().out.splitlines()[0] == TRACE_HEADER

    def test_deterministic(self, capsys):
        argv = ["trace", "--family", "medium", "--n", "40", "--density", "0.3",
                "--cond", "1e6", "--solver", "ras", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        strip = lambda text: [  # noqa: E731
            ln.split(",")[:2] + ln.split(",")[3:] for ln in text.splitlines()
        ]
        assert strip(first) == strip(second)  # identical apart from elapsed_s


class TestConsoleScript:
    def test_entry_point_is_importable(self):
        from rasqp.cli import main as entry

        assert callable(entry)
