"""The benchmark's four workloads.

A workload's ``setup(seed)`` generates every problem its operations need from
the workload seed and returns an op factory: ``make_op(k)`` is timed
operation k, the same call on the same input for a given seed, so a traced
pass can replay an untraced one op for op.  Each op carries the check that
certifies its result; a failed check is counted, never dropped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import rasqp.bench
import rasqp.generators
import rasqp.solvers
from rasqp.generators import GeneratorSpec
from rasqp.model import Status, kkt_residual, stationarity_tol

#: Two optimal points of one instance must agree to this share of max|x|.
#: The minimizer is unique; runs ending on the same inactive set agree bit
#: for bit, and this leaves room for a final set that differs only by an
#: index whose multiplier is within tol of zero.
X_AGREEMENT_RTOL = 1e-6


@dataclass(frozen=True)
class Outcome:
    """(status, solves) of each solver run in one op, and its first failed check."""

    runs: tuple[tuple[str, int], ...]
    error: str | None = None


@dataclass(frozen=True)
class Op:
    """One timed operation: the library call and the check of its result."""

    call: Callable[[], object]
    check: Callable[[object], Outcome]

    def run(self) -> tuple[float, Outcome]:
        """Time the call, then check its result outside the timed region."""
        t0 = time.perf_counter()
        try:
            result = self.call()
        except Exception as exc:  # a failed op is counted, and the run goes on
            return time.perf_counter() - t0, Outcome((), f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        return elapsed, self.check(result)


def derived_seed(*words: int) -> int:
    """A seed decorrelated from its inputs, so nearby ops draw unrelated streams."""
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


@dataclass(frozen=True)
class SolverWorkload:
    """Each op is one solver call on a problem generated in set-up.

    ``instances`` pairs each problem spec with the solvers run on it in turn:
    op k runs on instance ``i = k % len(instances)`` with the solver at
    ``k // len(instances)`` in that instance's cycle.  ``ras`` gets a seed
    derived from (workload seed, k).  Solvers are looked up on
    ``rasqp.solvers`` at call time so the traced run's wrappers see them.
    """

    name: str
    instances: tuple[tuple[GeneratorSpec, tuple[str, ...]], ...]
    tol: float

    def setup(self, seed: int) -> Callable[[int], Op]:
        problems = [
            rasqp.generators.generate(replace(spec, seed=derived_seed(seed, i)))
            for i, (spec, _) in enumerate(self.instances)
        ]
        references: dict[int, np.ndarray] = {}

        def make_op(k: int) -> Op:
            i = k % len(problems)
            problem = problems[i]
            solvers = self.instances[i][1]
            if solvers[k // len(problems) % len(solvers)] == "kr":
                cfg = rasqp.solvers.KrConfig(tol=self.tol)
                call = lambda: rasqp.solvers.kr_solve(problem, cfg)  # noqa: E731
            else:
                cfg = rasqp.solvers.RasConfig(tol=self.tol, seed=derived_seed(seed, 1, k))
                call = lambda: rasqp.solvers.ras_solve(problem, cfg)  # noqa: E731
            return Op(call, lambda result: self._check(problem, references, i, result))

        return make_op

    def _check(self, problem, references, i, result) -> Outcome:
        runs = ((result.status.value, result.solves),)
        if result.status is not Status.OPTIMAL:
            return Outcome(runs, f"status {result.status.value}")
        stationarity, primal, dual, comp = kkt_residual(problem, result.point)
        if (stationarity > stationarity_tol(problem) or primal != 0.0
                or dual > self.tol or comp != 0.0):
            return Outcome(runs, f"KKT certificate failed: stationarity {stationarity:.3g}, "
                                 f"primal {primal:.3g}, dual {dual:.3g}, comp {comp:.3g}")
        x = result.point.x
        ref = references.setdefault(i, x)
        if np.abs(x - ref).max() > X_AGREEMENT_RTOL * np.abs(ref).max():
            return Outcome(runs, f"x differs from another optimal run on instance {i}")
        return Outcome(runs)


@dataclass(frozen=True)
class PlanWorkload:
    """Each op is one ``rasqp.bench.run_plan`` call: one trial of each solver
    cell on a shared spec, whose problem ``run_plan`` generates itself from a
    base seed derived from (workload seed, k)."""

    name: str
    spec: GeneratorSpec
    solvers: tuple[str, ...]

    def setup(self, seed: int) -> Callable[[int], Op]:
        cells = tuple((self.spec, solver, {}) for solver in self.solvers)

        def make_op(k: int) -> Op:
            plan = rasqp.bench.BenchmarkPlan(cells=cells, trials=1,
                                             base_seed=derived_seed(seed, k))
            return Op(lambda: rasqp.bench.run_plan(plan), _check_records)

        return make_op


def _check_records(records) -> Outcome:
    runs = tuple((row.status, row.solves) for rec in records for row in rec.rows)
    for rec in records:
        if rec.error is not None:
            return Outcome(runs, f"{rec.solver} cell error: {rec.error}")
    for status, _ in runs:
        if status != Status.OPTIMAL.value:
            return Outcome(runs, f"trial status {status}")
    return Outcome(runs)


def _hard(n: int, cond: float) -> GeneratorSpec:
    return GeneratorSpec("hard", n, seed=0, cond=cond)


def _easy(n: int, epsilon: float) -> GeneratorSpec:
    return GeneratorSpec("easy", n, seed=0, epsilon=epsilon)


RAS = ("ras",)

# Sizes keep at least ~100 timed ops in a 25 s run (the p90 needs ten
# samples beyond it) while each family still takes its intended path:
# hard-dense factors |I| ~ 370 dense blocks, sparse-mixed |I| > 1024 blocks
# through SuperLU.  The instance counts keep each seed's mix of instances,
# and so the medians, steady.  Where op times form separate clusters (cond
# 1e10 vs 1e14, eps 1 vs 1e-10), the mix is uneven on purpose: an even
# split puts the median in the gap between two clusters, where it jumps.
# kr runs on the eps=1 instances only: on eps=1e-10 its full exchange
# occasionally cycles (about one instance in 270), which is the method's
# documented behaviour, not a failure of the code under test.
WORKLOADS = {
    wl.name: wl
    for wl in (
        SolverWorkload("hard-dense", tuple((_hard(800, c), RAS)
                                           for c in (1e10, 1e10, 1e10, 1e14) * 3), tol=1e-10),
        SolverWorkload("small-many", tuple((_hard(100, 1e10), RAS) for _ in range(20)),
                       tol=1e-10),
        SolverWorkload("sparse-mixed", ((_easy(3000, 1.0), ("ras", "ras", "kr")),
                                        (_easy(3000, 1.0), ("ras", "ras", "kr")),
                                        (_easy(3000, 1e-10), RAS)) * 4, tol=1e-8),
        PlanWorkload("plan-grid", GeneratorSpec("medium", 300, seed=0, density=0.03, cond=1e10),
                     ("ras", "generic", "fletcher")),
    )
}
