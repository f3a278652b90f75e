"""Command-line interface: ``rasqp solve | bench | trace``.

Exit codes: 0 — the requested run ended optimally (``bench`` always exits 0
once the plan ran; failed trials are data, not errors); 2 — the solver
stopped on an iteration cap, a detected cycle, or a numerical failure;
1 — unusable input (bad flags or values such as a negative ``--seed`` or an
empty list; an unreadable, malformed or non-PD problem file; an unwritable
``--output``), which ``main`` reports as one stderr line ``rasqp: error: ...``.

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


class _Parser(argparse.ArgumentParser):
    # The exit-code contract reserves 2 for solver non-convergence, so
    # argparse's default SystemExit(2) on bad flags is replaced.
    def error(self, message):
        raise ValueError(message)


def _at_least(low, kind):
    """argparse type: a ``kind`` (int or float) value >= ``low``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"expects {noun}, got {text!r}") from None
        if not value >= low:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
        return value
    return parse


def _list_of(kind):
    """argparse type: a comma-separated list of at least one ``kind`` value."""
    def parse(text: str) -> list:
        values = [kind(v.strip()) for v in text.split(",") if v.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"expects at least one value, got {text!r}")
        return values
    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse: "invalid <name> value"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="rasqp", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a problem file")
    ps.add_argument("path", help="problem file (see rasqp.problem_io)")
    ps.add_argument("--solver", default="ras", choices=SOLVER_NAMES)
    ps.add_argument("--seed", type=_at_least(0, int), default=0,
                    help="RNG seed for randomized solvers (default 0)")
    ps.add_argument("--tol", type=_at_least(0, float), default=1e-10,
                    help="dual violation tolerance (default 1e-10)")
    ps.add_argument("--max-solves", type=int, default=None,
                    help="cap on subsystem solves (default: the solver's own)")
    ps.add_argument("--machine", action="store_true",
                    help="print one machine-readable CSV line instead of the report")

    pb = sub.add_parser("bench", help="run a benchmark grid")
    pb.add_argument("--family", required=True, choices=("easy", "medium", "hard"))
    floats = _list_of(float)
    pb.add_argument("--n", type=_list_of(int), required=True, help="comma-separated dimensions")
    pb.add_argument("--cond", type=floats, help="comma-separated condition numbers (medium, hard)")
    pb.add_argument("--density", type=floats, help="comma-separated densities (medium)")
    pb.add_argument("--epsilon", type=floats, help="comma-separated regularizations (easy)")
    pb.add_argument("--solvers", type=_list_of(str), default="ras,kr",
                    help=f"comma-separated subset of {','.join(SOLVER_NAMES)}")
    pb.add_argument("--trials", type=int, default=10)
    pb.add_argument("--seed", type=_at_least(0, int), default=0, help="base seed (default 0)")
    pb.add_argument("--tol", type=_at_least(0, float), default=None,
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
    pt.add_argument("--seed", type=_at_least(0, int), default=0,
                    help="generator seed; the solver seed is derived from it "
                         "exactly as in bench trials (default 0)")
    pt.add_argument("--tol", type=_at_least(0, float), default=None,
                    help="override the per-family tolerance")
    pt.add_argument("--output", default=None,
                    help="write the trace CSV here (default stdout)")
    return parser


def _given_axes(args) -> dict:
    """The generator axes given on the command line, by GeneratorSpec field name."""
    return {name: getattr(args, name) for name in ("epsilon", "density", "cond")
            if getattr(args, name) is not None}


def cmd_solve(args) -> int:
    try:
        problem = load_problem(args.path).problem
    except OSError as exc:
        raise OSError(f"cannot read {args.path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # malformed file, non-finite, asymmetric or non-PD matrix
        raise ValueError(f"{args.path}: {exc}") from None
    options = {} if args.max_solves is None else {"max_solves": args.max_solves}
    result = build_solver(args.solver, options, args.tol, args.seed)(problem)
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
    axes = _given_axes(args)  # crossed with the n-list; GeneratorSpec checks they fit the family
    specs = [GeneratorSpec(args.family, n, seed=0, **dict(zip(axes, values)))
             for n in args.n for values in itertools.product(*axes.values())]
    for s in args.solvers:
        if s not in SOLVER_NAMES:
            raise ValueError(f"unknown solver {s!r}")
    options = {} if args.tol is None else {"tol": args.tol}
    cells = tuple((spec, solver, options) for spec in specs for solver in args.solvers)
    plan = BenchmarkPlan(
        cells=cells,
        trials=args.trials,
        base_seed=args.seed,
        time_limit_per_trial=args.time_limit,
    )
    if args.output is not None:
        Path(args.output).write_text("")  # an unwritable path fails before any trial
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
    # the spec checks the axes fit the family, the generator their values
    problem = generate(GeneratorSpec(fam, args.n, seed=args.seed, **_given_axes(args)))
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
    # Every boundary rejects a bad value with ValueError, and a path that cannot be
    # read or written raises OSError; any other exception is a fault: a traceback.
    except (ValueError, OSError) as exc:
        print(f"rasqp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
