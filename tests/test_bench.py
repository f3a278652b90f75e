import dataclasses
import math

import numpy as np
import pytest

import rasqp.bench
from rasqp.bench import (
    MACHINE_HEADER,
    TRACE_HEADER,
    BenchmarkPlan,
    TrialRow,
    default_tol,
    emit_table,
    parse_machine_rows,
    run_plan,
    solver_seed_for_trial,
    trace_to_csv,
)
from rasqp.generators import GeneratorSpec
from rasqp.model import QpProblem, Status
from rasqp.solvers import RasConfig, ras_solve

EASY = GeneratorSpec("easy", 15, seed=0, epsilon=1e-2)
CYCLING = GeneratorSpec("medium", 30, seed=0, density=0.5, cond=1e12)


def tiny_plan(**overrides):
    kwargs = dict(
        cells=((EASY, "ras", {}), (EASY, "kr", {})),
        trials=3,
        base_seed=0,
        time_limit_per_trial=300.0,
    )
    kwargs.update(overrides)
    return BenchmarkPlan(**kwargs)


class TestHelpers:
    def test_default_tol(self):
        assert default_tol("easy") == 1e-8
        assert default_tol("medium") == 1e-10
        assert default_tol("hard") == 1e-10

    def test_solver_seed_for_trial(self):
        seeds = [solver_seed_for_trial(t) for t in range(50)]
        assert seeds == [solver_seed_for_trial(t) for t in range(50)]
        assert all(0 <= s < 2**32 for s in seeds)
        # Derived seeds never collide with the raw trial index, so a solver
        # cannot replay the generator's stream.
        assert all(s != t for t, s in enumerate(seeds))
        assert len(set(seeds)) == len(seeds)


class TestTrialRow:
    def test_csv_round_trip(self):
        row = TrialRow(
            family="hard", n=500, density=None, cond=1e14, epsilon=None,
            solver="ras", trial=3, time_s=0.125, solves=47, avgI=210.5,
            status="Optimal",
        )
        assert TrialRow.from_csv(row.to_csv()) == row

    def test_none_fields_serialize_empty(self):
        row = TrialRow(
            family="easy", n=10, density=None, cond=None, epsilon=1.0,
            solver="kr", trial=0, time_s=0.5, solves=3, avgI=1.0,
            status="Optimal",
        )
        parts = row.to_csv().split(",")
        assert parts[2] == "" and parts[3] == ""
        assert TrialRow.from_csv(row.to_csv()) == row

    def test_full_float_precision(self):
        row = TrialRow(
            family="easy", n=10, density=None, cond=None, epsilon=0.1,
            solver="ras", trial=0, time_s=1.0 / 3.0, solves=5,
            avgI=2.0 / 7.0, status="Optimal",
        )
        back = TrialRow.from_csv(row.to_csv())
        assert back.time_s == row.time_s
        assert back.avgI == row.avgI

    def test_field_count_checked(self):
        with pytest.raises(ValueError):
            TrialRow.from_csv("easy,10,,,1.0,kr,0,0.5,3")


class TestRunPlan:
    def test_small_grid(self):
        records = run_plan(tiny_plan())
        assert len(records) == 2
        for record in records:
            assert record.error is None
            assert len(record.rows) == 3
            assert all(r.status == "Optimal" for r in record.rows)
            assert record.fail_count == 0
            assert record.solve_mean == pytest.approx(
                np.mean([r.solves for r in record.rows])
            )
            assert record.avgI_mean == pytest.approx(
                np.mean([r.avgI for r in record.rows])
            )
            assert math.isfinite(record.time_mean)

    def test_deterministic_apart_from_wall_time(self):
        rows_a = [r for rec in run_plan(tiny_plan()) for r in rec.rows]
        rows_b = [r for rec in run_plan(tiny_plan()) for r in rec.rows]
        for a, b in zip(rows_a, rows_b):
            assert (a.family, a.n, a.solver, a.trial) == (b.family, b.n, b.solver, b.trial)
            assert a.solves == b.solves
            assert a.avgI == b.avgI
            assert a.status == b.status

    def test_timeout_marks_failures_and_empties_means(self):
        records = run_plan(tiny_plan(time_limit_per_trial=1e-9))
        for record in records:
            assert all(r.status == "Timeout" for r in record.rows)
            assert record.fail_count == 3
            assert math.isnan(record.solve_mean)
            assert math.isnan(record.time_mean)

    def test_full_exchange_failures_excluded_from_means(self):
        # base_seed 6 generates the instance on which the full-exchange
        # method cycles; its one trial fails and leaves no mean.
        records = run_plan(
            BenchmarkPlan(cells=((CYCLING, "kr", {}), (CYCLING, "ras", {})),
                          trials=1, base_seed=6)
        )
        kr, ras = records
        assert kr.rows[0].status == Status.CYCLE_DETECTED.value
        assert kr.fail_count == 1
        assert math.isnan(kr.solve_mean)
        assert ras.rows[0].status == Status.OPTIMAL.value
        assert ras.fail_count == 0
        assert math.isfinite(ras.solve_mean)

    def test_generator_error_marks_cell_and_continues(self):
        bad = GeneratorSpec("easy", 10, seed=0, epsilon=-1.0)
        records = run_plan(
            BenchmarkPlan(cells=((bad, "ras", {}), (EASY, "ras", {})), trials=1)
        )
        assert records[0].error is not None
        assert "ValueError" in records[0].error
        assert records[1].error is None
        assert records[1].rows[0].status == "Optimal"

    def test_probs_option_reaches_the_solver(self):
        ones = (1.0,) * 6
        records = run_plan(
            BenchmarkPlan(
                cells=((EASY, "ras", {"probs": ones}), (EASY, "kr", {})), trials=3
            )
        )
        # With certainty probabilities the randomized method degenerates to
        # the full exchange, so the per-trial solve counts coincide.
        for a, b in zip(records[0].rows, records[1].rows):
            assert a.solves == b.solves

    def test_unknown_solver_marks_cell(self):
        records = run_plan(tiny_plan(cells=((EASY, "newton", {}),)))
        assert records[0].error is not None
        assert "newton" in records[0].error

    def test_each_problem_generated_once(self, monkeypatch):
        other = GeneratorSpec("hard", 12, seed=0, cond=1e6)
        cells = ((EASY, "ras", {}), (other, "ras", {}), (EASY, "kr", {}),
                 (EASY, "generic", {}), (other, "fletcher", {}))
        # Reference: every cell in a plan of its own, so nothing is shared.
        reference = [run_plan(tiny_plan(cells=(cell,)))[0] for cell in cells]
        calls = []
        original = rasqp.bench.generate
        monkeypatch.setattr(rasqp.bench, "generate",
                            lambda spec: calls.append(spec) or original(spec))
        records = run_plan(tiny_plan(cells=cells))
        assert len(calls) == len(set(calls)) == 2 * 3  # two specs, three seeds
        for got, want in zip(records, reference, strict=True):
            assert (got.spec, got.solver, got.error) == (want.spec, want.solver, want.error)
            assert [dataclasses.replace(r, time_s=0.0) for r in got.rows] == [
                dataclasses.replace(r, time_s=0.0) for r in want.rows]
            assert (got.solve_mean, got.avgI_mean, got.fail_count) == (
                want.solve_mean, want.avgI_mean, want.fail_count)

    def test_generator_error_marks_every_cell_of_its_spec(self):
        bad = GeneratorSpec("easy", 10, seed=0, epsilon=-1.0)
        records = run_plan(tiny_plan(
            cells=((bad, "ras", {}), (EASY, "ras", {}), (bad, "kr", {}))))
        assert "ValueError" in records[0].error
        assert records[0].error == records[2].error
        assert records[1].error is None and len(records[1].rows) == 3

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            tiny_plan(trials=0)

    @pytest.mark.parametrize("limit", [-1.0, 0.0, math.nan])
    def test_time_limit_validated(self, limit):
        with pytest.raises(ValueError, match="time_limit_per_trial"):
            tiny_plan(time_limit_per_trial=limit)


class TestEmitTable:
    def test_round_trip_and_header(self):
        records = run_plan(tiny_plan())
        human, machine = emit_table(records)
        assert human.splitlines()[0].split() == [
            "family", "n", "density", "cond", "epsilon",
            "solver", "time", "solve", "avgI", "fail",
        ]
        assert "easy" in human and "ras" in human and "kr" in human
        assert machine.splitlines()[0] == MACHINE_HEADER
        parsed = parse_machine_rows(machine)
        assert parsed == [r for rec in records for r in rec.rows]

    def test_errored_cell_rendered(self):
        bad = GeneratorSpec("easy", 10, seed=0, epsilon=-1.0)
        records = run_plan(BenchmarkPlan(cells=((bad, "ras", {}),), trials=1))
        human, machine = emit_table(records)
        assert "error: ValueError" in human
        assert machine.strip() == MACHINE_HEADER  # no data rows

    def test_missing_axes_render_as_dash(self):
        human, _ = emit_table(run_plan(tiny_plan()))
        line = human.splitlines()[1]
        assert "-" in line  # easy family has no density or cond

    def test_parse_rejects_missing_header(self):
        with pytest.raises(ValueError):
            parse_machine_rows("no,header,here\n")


class TestTraces:
    def test_trace_rows_and_csv(self):
        problem = QpProblem(np.array([[4.0, 1.0], [1.0, 3.0]]), [-1.0, -2.0])
        result = ras_solve(problem, RasConfig(seed=0))
        csv = trace_to_csv(result, "ras")
        lines = csv.splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == result.solves + 1
        for line, row in zip(lines[1:], result.trace):
            solver, it, elapsed, infeasible, size = line.split(",")
            assert solver == "ras"
            assert int(it) == row.iteration
            assert elapsed == repr(row.elapsed_s)  # full precision
            assert int(infeasible) == row.n_im + row.n_am
            assert int(size) == row.subsystem_size
        assert lines[1].startswith("ras,1,")
        # The optimal final row reports zero infeasible indexes.
        assert lines[-1].split(",")[3] == "0"
