"""Command-line interface: ``rasqp solve | bench | trace``.

Exit codes: 0 — the requested run ended optimally (``bench`` always exits 0
once the plan ran; failed trials are data, not errors); 2 — the solver
stopped on an iteration cap, a detected cycle, or a numerical failure;
1 — unusable input (bad flags or flag values, malformed problem file,
non-PD matrix).

Every random choice flows from ``--seed`` (default 0); nothing is seeded
from entropy, so equal invocations produce equal outputs apart from
wall-clock columns.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from .bench import (
    SOLVER_NAMES,
    BenchmarkPlan,
    build_solver,
    default_tol,
    emit_table,
    run_plan,
    solver_seed_for_trial,
    trace_to_csv,
)
from .generators import GeneratorSpec, generate
from .model import Status, kkt_residual
from .problem_io import load_problem

__all__ = ["main", "cmd_solve", "cmd_bench", "cmd_trace"]


class _UsageError(Exception):
    """Flag/argument problem; rendered to stderr and mapped to exit 1."""


class _Parser(argparse.ArgumentParser):
    # The exit-code contract reserves 2 for solver non-convergence, so
    # argparse's default SystemExit(2) on bad flags is replaced.
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _tolerance(text: str) -> float:
    """argparse type of ``--tol``: a number >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number, got {text!r}") from None
    if not value >= 0.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="rasqp", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a problem file")
    ps.add_argument("path", help="problem file (see rasqp.problem_io)")
    ps.add_argument("--solver", default="ras", choices=SOLVER_NAMES)
    ps.add_argument("--seed", type=int, default=0,
                    help="RNG seed for randomized solvers (default 0)")
    ps.add_argument("--tol", type=_tolerance, default=1e-10,
                    help="dual violation tolerance (default 1e-10)")
    ps.add_argument("--max-solves", type=int, default=10_000,
                    help="cap for the randomized solvers")
    ps.add_argument("--machine", action="store_true",
                    help="print one machine-readable CSV line instead of the report")

    pb = sub.add_parser("bench", help="run a benchmark grid")
    pb.add_argument("--family", required=True, choices=("easy", "medium", "hard"))
    pb.add_argument("--n", required=True, help="comma-separated dimensions")
    pb.add_argument("--cond", help="comma-separated condition numbers (medium, hard)")
    pb.add_argument("--density", help="comma-separated densities (medium)")
    pb.add_argument("--epsilon", help="comma-separated regularizations (easy)")
    pb.add_argument("--solvers", default="ras,kr",
                    help=f"comma-separated subset of {','.join(SOLVER_NAMES)}")
    pb.add_argument("--trials", type=int, default=10)
    pb.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    pb.add_argument("--tol", type=_tolerance, default=None,
                    help="override the per-family tolerance")
    pb.add_argument("--time-limit", type=float, default=300.0,
                    help="per-trial wall-clock limit in seconds")
    pb.add_argument("--output", default=None,
                    help="write the machine CSV here (default: after the table on stdout)")

    pt = sub.add_parser("trace", help="run one traced solve on a generated problem")
    pt.add_argument("--family", required=True, choices=("easy", "medium", "hard"))
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--cond", type=float, default=None)
    pt.add_argument("--density", type=float, default=None)
    pt.add_argument("--epsilon", type=float, default=None)
    pt.add_argument("--solver", default="ras", choices=SOLVER_NAMES)
    pt.add_argument("--seed", type=int, default=0,
                    help="generator seed; the solver seed is derived from it "
                         "exactly as in bench trials (default 0)")
    pt.add_argument("--tol", type=_tolerance, default=None,
                    help="override the per-family tolerance")
    pt.add_argument("--output", default=None,
                    help="write the trace CSV here (default stdout)")
    return parser


def _float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise _UsageError(f"rasqp: error: {flag} expects comma-separated numbers, got {text!r}")


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise _UsageError(f"rasqp: error: {flag} expects comma-separated integers, got {text!r}")


def _given_axes(args) -> dict:
    """The generator axes given on the command line, by GeneratorSpec field name."""
    return {name: getattr(args, name) for name in ("epsilon", "density", "cond")
            if getattr(args, name) is not None}


def _family_specs(args, ns: list[int]) -> list[GeneratorSpec]:
    """Cross the n-list with every axis given; GeneratorSpec checks they fit the family."""
    axes = {name: _float_list(text, f"--{name}") for name, text in _given_axes(args).items()}
    try:
        return [GeneratorSpec(args.family, n, seed=0, **dict(zip(axes, values)))
                for n in ns for values in itertools.product(*axes.values())]
    except ValueError as exc:
        raise _UsageError(f"rasqp: error: {exc}")


def cmd_solve(args) -> int:
    try:
        loaded = load_problem(args.path)
    except FileNotFoundError:
        print(f"rasqp: cannot read {args.path}", file=sys.stderr)
        return 1
    except ValueError as exc:  # malformed file, non-finite, asymmetric or non-PD matrix
        print(f"rasqp: {args.path}: {exc}", file=sys.stderr)
        return 1
    problem = loaded.problem
    options = {"max_solves": args.max_solves} if args.solver in ("ras", "generic") else {}
    try:
        solve = build_solver(args.solver, options, args.tol, args.seed)
    except ValueError as exc:  # an out-of-range option such as --max-solves 0
        raise _UsageError(f"rasqp: error: {exc}")
    result = solve(problem)
    stat, primal, dual, comp = kkt_residual(problem, result.point)
    if args.machine:
        print(
            f"{result.status.value},{result.objective!r},{result.solves},"
            f"{result.avg_subsystem_size!r},{stat!r},{primal!r},{dual!r},{comp!r}"
        )
    else:
        print(f"status: {result.status.value}")
        print(f"objective: {result.objective!r}")
        print(f"solves: {result.solves}")
        print(f"avgI: {result.avg_subsystem_size!r}")
        print(f"stationarity: {stat:.3e}")
        print(f"primal violation: {primal:.3e}")
        print(f"dual violation: {dual:.3e}")
        print(f"complementarity: {comp:.3e}")
        if problem.n <= 20:
            print("x:", " ".join(repr(float(v)) for v in result.point.x))
    return 0 if result.status is Status.OPTIMAL else 2


def cmd_bench(args) -> int:
    ns = _int_list(args.n, "--n")
    specs = _family_specs(args, ns)
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    for s in solvers:
        if s not in SOLVER_NAMES:
            raise _UsageError(f"rasqp: error: unknown solver {s!r}")
    options = {} if args.tol is None else {"tol": args.tol}
    cells = tuple((spec, solver, options) for spec in specs for solver in solvers)
    try:
        plan = BenchmarkPlan(
            cells=cells,
            trials=args.trials,
            base_seed=args.seed,
            time_limit_per_trial=args.time_limit,
        )
    except ValueError as exc:
        raise _UsageError(f"rasqp: error: {exc}")
    records = run_plan(plan)
    human, machine = emit_table(records)
    print(human, end="")
    if args.output is None:
        print()
        print(machine, end="")
    else:
        Path(args.output).write_text(machine)
    return 0


def cmd_trace(args) -> int:
    fam = args.family
    try:  # the spec checks the axes fit the family, the generator their values
        problem = generate(GeneratorSpec(fam, args.n, seed=args.seed, **_given_axes(args)))
    except ValueError as exc:
        raise _UsageError(f"rasqp: error: {exc}")
    tol = args.tol if args.tol is not None else default_tol(fam)
    result = build_solver(args.solver, {}, tol, solver_seed_for_trial(args.seed))(problem)
    csv = trace_to_csv(result, args.solver)
    if args.output is None:
        print(csv, end="")
    else:
        Path(args.output).write_text(csv)
    return 0 if result.status is Status.OPTIMAL else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_trace(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
