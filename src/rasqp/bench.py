"""Benchmark harness: solver x generator grids, aggregation, tables, traces.

A plan is a list of cells, each pairing a :class:`GeneratorSpec` template
with a solver name; every cell is run for a number of trials.  Trial t of a
cell regenerates the problem with seed ``base_seed + t`` and runs the solver
with an RNG seed derived (not equal!) from the trial seed — the hard-family
generator draws g as its first uniforms, so a solver seeded identically
would replay the very same uniforms in its first exchange, correlating the
random method with the data it is solving.

Aggregation follows the reporting conventions of the original experiments:
the full-exchange method (kr) is averaged over its successful trials only,
every other solver over all completed trials; ``fail_count`` counts trials
that ended in CycleDetected, IterationCapReached, or over the time limit.
"""

from __future__ import annotations

import dataclasses
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .engine import ChangeProbabilities
from .generators import GeneratorSpec, generate
from .model import SolveResult, Status
from .solvers import (
    GenericRasConfig,
    KrConfig,
    RasConfig,
    fletcher_solve,
    generic_ras_solve,
    kr_solve,
    ras_solve,
)

__all__ = [
    "BenchmarkPlan",
    "BenchmarkRecord",
    "TrialRow",
    "run_plan",
    "emit_table",
    "parse_machine_rows",
    "build_solver",
    "trace_to_csv",
    "solver_seed_for_trial",
    "default_tol",
    "SOLVER_NAMES",
    "MACHINE_HEADER",
    "TRACE_HEADER",
]

SOLVER_NAMES = ("ras", "generic", "kr", "fletcher")

MACHINE_HEADER = "family,n,density,cond,epsilon,solver,trial,time_s,solves,avgI,status"
TRACE_HEADER = "solver,iter,elapsed_s,infeasible,inactive_size"

#: Trial statuses that count as failures in the aggregated tables.
_FAIL_STATUSES = (Status.CYCLE_DETECTED.value, Status.ITERATION_CAP.value, "Timeout")


def default_tol(family: str) -> float:
    """Dual-violation tolerance used for each family unless overridden."""
    return 1e-8 if family == "easy" else 1e-10


def solver_seed_for_trial(trial_seed: int) -> int:
    """Solver RNG seed derived from (and decorrelated from) the generator seed."""
    return int(np.random.SeedSequence([trial_seed, 1]).generate_state(1)[0])


@dataclass(frozen=True)
class BenchmarkPlan:
    """A grid of (generator template, solver name, solver options) cells.

    The ``seed`` field of each template is a placeholder: trial t replaces it
    with ``base_seed + t``.  ``options`` may carry solver keywords (``tol``,
    ``max_solves``, ``probs`` as a 6-tuple, ``sigma``); ``tol`` defaults to
    the family tolerance.  ``time_limit_per_trial`` (in seconds) must be
    > 0; a trial that ran longer is recorded as ``Timeout``.
    """

    cells: tuple
    trials: int = 10
    base_seed: int = 0
    time_limit_per_trial: float = 300.0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.time_limit_per_trial > 0:  # also rejects NaN
            raise ValueError("time_limit_per_trial must be > 0")


@dataclass(frozen=True)
class TrialRow:
    """One raw benchmark measurement, exactly one machine CSV line."""

    family: str
    n: int
    density: float | None
    cond: float | None
    epsilon: float | None
    solver: str
    trial: int
    time_s: float
    solves: int
    avgI: float
    status: str

    def to_csv(self) -> str:
        return ",".join(_CSV_CODECS[f.type][0](getattr(self, f.name))
                        for f in dataclasses.fields(self))

    @staticmethod
    def from_csv(line: str) -> "TrialRow":
        parts = line.split(",")
        fields = dataclasses.fields(TrialRow)
        if len(parts) != len(fields):
            raise ValueError(f"expected {len(fields)} fields, got {len(parts)}: {line!r}")
        return TrialRow(*(_CSV_CODECS[f.type][1](p) for f, p in zip(fields, parts)))


#: Annotated field type -> (write, parse); floats keep full precision, None is "".
_CSV_CODECS = {
    "str": (str, str),
    "int": (str, int),
    "float": (lambda v: repr(float(v)), float),
    "float | None": (lambda v: "" if v is None else repr(float(v)),
                     lambda s: None if s == "" else float(s)),
}


@dataclass
class BenchmarkRecord:
    """Aggregated metrics for one cell."""

    spec: GeneratorSpec
    solver: str
    time_mean: float = math.nan
    solve_mean: float = math.nan
    avgI_mean: float = math.nan
    fail_count: int = 0
    rows: list[TrialRow] = field(default_factory=list)
    error: str | None = None


def build_solver(name: str, options: dict, tol: float, seed: int):
    """A one-argument callable running solver ``name`` on a problem.

    ``options`` are solver keywords as in :class:`BenchmarkPlan`; ``seed``
    seeds the randomized solvers.
    """
    opts = dict(options)
    opts.pop("tol", None)
    if name == "ras":
        probs = opts.pop("probs", None)
        cfg = RasConfig(
            probs=ChangeProbabilities(*probs) if probs is not None else ChangeProbabilities(),
            tol=tol,
            seed=seed,
            **opts,
        )
        return lambda problem: ras_solve(problem, cfg)
    if name == "generic":
        cfg = GenericRasConfig(tol=tol, seed=seed, **opts)
        return lambda problem: generic_ras_solve(problem, cfg)
    if name == "kr":
        cfg = KrConfig(tol=tol, **opts)
        return lambda problem: kr_solve(problem, cfg)
    if name == "fletcher":
        if opts:
            raise ValueError(f"fletcher takes only tol, not {', '.join(sorted(opts))}")
        return lambda problem: fletcher_solve(problem, tol=tol)
    raise ValueError(f"unknown solver {name!r}; expected one of {SOLVER_NAMES}")


def run_plan(plan: BenchmarkPlan) -> list[BenchmarkRecord]:
    """Run every cell for ``plan.trials`` trials and aggregate.

    Trials run sequentially (cells and trials are independent, so the record
    contents besides wall time are invariant to any scheduling).  Cells that
    share a generator spec run trial by trial together, so each (spec, seed)
    problem is generated once per plan and only one is held at a time.  A
    trial whose wall time exceeds the limit is recorded with status
    "Timeout", counted as a failure and excluded from the means; the limit
    is enforced after the fact since the solvers are single-threaded.  A
    generator error marks every cell of its spec as errored, and a solver
    error its own cell, without aborting the rest of the plan.
    """
    records = [BenchmarkRecord(spec=spec, solver=name) for spec, name, _ in plan.cells]
    by_spec: dict[GeneratorSpec, list] = {}
    for record, (spec, name, options) in zip(records, plan.cells):
        by_spec.setdefault(dataclasses.replace(spec, seed=0), []).append((record, options))
    for spec, cells in by_spec.items():
        for t in range(plan.trials):
            try:
                problem = generate(dataclasses.replace(spec, seed=plan.base_seed + t))
            except Exception as exc:  # generator failure: mark and move on
                for record, _ in cells:
                    record.error = f"{type(exc).__name__}: {exc}"
                break
            cells = [cell for cell in cells if _run_trial(plan, problem, t, *cell)]
    for record in records:
        if record.error is None:
            _aggregate(record)
    return records


def _run_trial(plan, problem, t, record, options) -> bool:
    """Run trial t of a cell; on a config or solver error mark it and return False."""
    spec = record.spec
    try:
        tol = float(options.get("tol", default_tol(spec.family)))
        run = build_solver(record.solver, options, tol, solver_seed_for_trial(plan.base_seed + t))
        t0 = time.perf_counter()
        result = run(problem)
        elapsed = time.perf_counter() - t0
    except Exception as exc:
        record.error = f"{type(exc).__name__}: {exc}"
        return False
    status = "Timeout" if elapsed > plan.time_limit_per_trial else result.status.value
    record.rows.append(TrialRow(
        family=spec.family, n=spec.n, density=spec.density, cond=spec.cond,
        epsilon=spec.epsilon, solver=record.solver, trial=t, time_s=elapsed,
        solves=result.solves, avgI=result.avg_subsystem_size, status=status))
    return True


def _aggregate(record: BenchmarkRecord) -> None:
    record.fail_count = sum(1 for r in record.rows if r.status in _FAIL_STATUSES)
    if record.solver == "kr":
        included = [r for r in record.rows if r.status == Status.OPTIMAL.value]
    else:
        excluded = ("Timeout", Status.NUMERICAL_FAILURE.value)
        included = [r for r in record.rows if r.status not in excluded]
    if included:
        record.time_mean = sum(r.time_s for r in included) / len(included)
        record.solve_mean = sum(r.solves for r in included) / len(included)
        record.avgI_mean = sum(r.avgI for r in included) / len(included)
    else:
        record.time_mean = record.solve_mean = record.avgI_mean = math.nan


def emit_table(records) -> tuple[str, str]:
    """Render records as (human table, machine CSV).

    The human table shows one line per cell with time to 3 significant
    digits and solve/avgI to one decimal; the machine CSV has one line per
    trial with full-precision floats, reparsable by
    :func:`parse_machine_rows`.
    """
    human = io.StringIO()
    human.write(
        f"{'family':<8}{'n':>7}{'density':>9}{'cond':>10}{'epsilon':>10}"
        f"{'solver':>10}{'time':>10}{'solve':>8}{'avgI':>9}{'fail':>6}\n"
    )
    for rec in records:
        spec = rec.spec
        if rec.error is not None:
            human.write(
                f"{spec.family:<8}{spec.n:>7}{_axis(spec.density):>9}"
                f"{_axis(spec.cond):>10}{_axis(spec.epsilon):>10}{rec.solver:>10}"
                f"  error: {rec.error}\n"
            )
            continue
        human.write(
            f"{spec.family:<8}{spec.n:>7}{_axis(spec.density):>9}"
            f"{_axis(spec.cond):>10}{_axis(spec.epsilon):>10}{rec.solver:>10}"
            f"{rec.time_mean:>10.3g}{rec.solve_mean:>8.1f}{rec.avgI_mean:>9.1f}"
            f"{rec.fail_count:>6}\n"
        )
    machine_lines = [MACHINE_HEADER]
    for rec in records:
        machine_lines.extend(row.to_csv() for row in rec.rows)
    return human.getvalue(), "\n".join(machine_lines) + "\n"


def _axis(value) -> str:
    return "-" if value is None else f"{value:.2e}"


def parse_machine_rows(text: str) -> list[TrialRow]:
    """Parse the machine CSV produced by :func:`emit_table` back into rows."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != MACHINE_HEADER:
        raise ValueError("missing machine CSV header")
    return [TrialRow.from_csv(ln) for ln in lines[1:]]


def trace_to_csv(result: SolveResult, solver: str) -> str:
    """Render a run's per-solve trace as delimiter-separated values for plotting.

    One row per counted solve: iteration, elapsed seconds (full precision),
    infeasible count and |I|.
    """
    lines = [TRACE_HEADER]
    lines.extend(
        f"{solver},{row.iteration},{row.elapsed_s!r},{row.infeasible},{row.subsystem_size}"
        for row in result.trace
    )
    return "\n".join(lines) + "\n"
