"""Active-set solvers for nonnegativity-constrained strictly convex QPs.

Four methods share the same metric semantics (``solves`` = number of reduced
KKT subsystem solves, each a fresh or an updated factorization,
``avg_subsystem_size`` = mean |I| over them):

* :func:`generic_ras_solve` — randomized exchange with probabilities bounded
  away from 0 and 1 by a constant sigma; the simplest convergent scheme.
* :func:`ras_solve` — randomized exchange with six origin-dependent
  probabilities and a resampling rule for empty exchanges; the method of
  interest.
* :func:`kr_solve` — deterministic full exchange of all infeasible indexes;
  fast on easy problems but can cycle on ill-conditioned ones.
* :func:`fletcher_solve` — classical primal-feasible method moving one index
  at a time; finitely convergent, used as a deterministic baseline.

The first three share one loop and differ only in their selection rule and
in what an empty selection does: ``ras`` redraws without a solve, ``generic``
re-solves (and counts it), and ``kr`` never draws, exchanging everything.

:func:`brute_force_solve` enumerates all 2^n partitions as a correctness
oracle for the others.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .engine import (
    EXCHANGED,
    FROZEN,
    ChangeProbabilities,
    categorize,
    classify,
    next_sets,
    select_exchange_generic,
    select_exchange_ras,
)
from .model import KktPoint, QpProblem, SolveResult, Status, TraceRow, objective
from .subsystem import FactorizationError, _UpdatedCholesky, embed_point, solve_subsystem

__all__ = [
    "GenericRasConfig",
    "RasConfig",
    "KrConfig",
    "generic_ras_solve",
    "ras_solve",
    "kr_solve",
    "fletcher_solve",
    "brute_force_solve",
    "DimensionTooLargeError",
    "NoKktPointError",
]

@dataclass(kw_only=True)
class _ExchangeConfig:
    """Options every exchange solver takes: the dual tolerance, the starting
    active set (``None`` means every index), the cap on subsystem solves and
    whether to record each inactive set.  Keyword-only, like its subclasses."""

    tol: float = 1e-10
    initial_A: object = None
    max_solves: int = 10_000
    record_sets: bool = False

    def __post_init__(self):
        if self.max_solves < 1:
            raise ValueError("max_solves must be >= 1")


@dataclass(kw_only=True)
class GenericRasConfig(_ExchangeConfig):
    """Configuration for :func:`generic_ras_solve`.

    ``probability_rule`` is called as ``rule(point, Im, Am)`` with the
    current iterate (a :class:`~rasqp.model.KktPoint`) and the ascending
    infeasible indexes of I and of A; it returns the exchange probabilities
    for Im and for Am (scalars or one per index), each in [sigma, 1-sigma].
    ``None`` means the constant rule 0.5.  ``sigma`` must lie in (0, 0.5].
    """

    sigma: float = 0.5
    probability_rule: Callable[[KktPoint, np.ndarray, np.ndarray], tuple] | None = None
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.sigma <= 0.5:  # also rejects nan
            raise ValueError("sigma must lie in (0, 0.5]")


@dataclass(kw_only=True)
class RasConfig(_ExchangeConfig):
    """Configuration for :func:`ras_solve` (defaults are the tuned probabilities)."""

    probs: ChangeProbabilities = field(default_factory=ChangeProbabilities)
    seed: int = 0


@dataclass(kw_only=True)
class KrConfig(_ExchangeConfig):
    """Configuration for :func:`kr_solve`; its solve cap defaults to 200."""

    max_solves: int = 200


class DimensionTooLargeError(ValueError):
    """brute_force_solve refuses n > 20 (2^n subsystem solves)."""


class NoKktPointError(RuntimeError):
    """No partition satisfied the KKT conditions; impossible for valid input."""


def _initial_sets(n: int, initial_A):
    """The inactive mask and the sorted (I, A) for a starting active set."""
    A = np.arange(n) if initial_A is None else np.asarray(initial_A).ravel()
    if len(A) and A.dtype.kind not in "iu":
        raise ValueError(f"initial_A must hold integer indexes, not {A.dtype}")
    if len(A) and (A.min() < 0 or A.max() >= n):
        raise ValueError("initial_A index out of range")
    inactive = np.ones(n, dtype=bool)
    inactive[A.astype(np.int64)] = False
    return inactive, np.flatnonzero(inactive), np.flatnonzero(~inactive)


class _RunRecorder:
    """Accumulates the per-solve metrics every solver reports."""

    def __init__(self, record_sets: bool):
        self.t0 = time.perf_counter()
        self.solves = 0
        self.size_total = 0
        self.trace: list[TraceRow] = []
        self.sets: list[np.ndarray] | None = [] if record_sets else None

    def note(self, I: np.ndarray, n_im: int, n_am: int) -> None:
        """Count one solve on inactive set ``I`` with ``n_im``/``n_am`` infeasible."""
        self.solves += 1
        self.size_total += len(I)
        self.trace.append(
            TraceRow(
                iteration=self.solves,
                n_im=int(n_im),
                n_am=int(n_am),
                subsystem_size=len(I),
                elapsed_s=time.perf_counter() - self.t0,
            )
        )
        if self.sets is not None:
            self.sets.append(I)

    def result(self, problem: QpProblem, point: KktPoint, status: Status,
               **extra) -> SolveResult:
        return SolveResult(
            point=point,
            status=status,
            solves=self.solves,
            avg_subsystem_size=self.size_total / self.solves if self.solves else 0.0,
            trace=tuple(self.trace),
            objective=objective(problem, point.x),
            inactive_sets=tuple(self.sets) if self.sets is not None else None,
            **extra,
        )


def _exchange_loop(problem: QpProblem, cfg: _ExchangeConfig, select,
                   cap_status: Status = Status.ITERATION_CAP,
                   detect_cycles: bool = False) -> SolveResult:
    """The iteration shared by the exchange solvers.

    The state is the ``inactive`` mask; I and A are its two index arrays.
    Each round solves the subsystem for (I, A) and classifies the result.  It
    stops with ``Optimal`` when nothing is infeasible and with ``cap_status``
    after ``cfg.max_solves`` solves; otherwise it moves the indexes that
    ``select(point, infeasible, inactive)`` returns to the other side, or
    stops with ``IterationCapReached`` when that is ``None``.  With
    ``detect_cycles`` an active set met before stops the run with
    ``CycleDetected`` instead of being solved again.
    """
    n = problem.n
    inactive, I, A = _initial_sets(n, cfg.initial_A)
    rec = _RunRecorder(cfg.record_sets)
    point = KktPoint(x=np.zeros(n), s=np.zeros(n))  # returned if the first solve fails
    visited = set() if detect_cycles else None
    while True:
        if visited is not None:
            key = inactive.tobytes()
            if key in visited:
                return rec.result(problem, point, Status.CYCLE_DETECTED)
            visited.add(key)
        try:
            sol = solve_subsystem(problem, I, A)
        except FactorizationError:
            return rec.result(problem, point, Status.NUMERICAL_FAILURE)
        point = embed_point(n, I, A, sol)
        infeasible = classify(point, inactive, cfg.tol)
        n_inf = np.count_nonzero(infeasible)
        n_im = np.count_nonzero(infeasible & inactive)
        rec.note(I, n_im, n_inf - n_im)
        if n_inf == 0:
            return rec.result(problem, point, Status.OPTIMAL)
        if rec.solves >= cfg.max_solves:
            return rec.result(problem, point, cap_status)
        chosen = select(point, infeasible, inactive)
        if chosen is None:
            return rec.result(problem, point, Status.ITERATION_CAP)
        inactive, I, A = next_sets(inactive, chosen)


def generic_ras_solve(problem: QpProblem, cfg: GenericRasConfig) -> SolveResult:
    """Randomized active-set iteration with sigma-bounded exchange probabilities.

    Each round solves the subsystem for the current partition, stops when
    nothing is infeasible, and otherwise exchanges a random subset of the
    infeasible indexes.  An unlucky empty exchange simply re-solves the same
    subsystem (and is counted).  Terminates with probability 1; ``max_solves``
    turns astronomically unlucky runs into ``IterationCapReached``.
    """
    rng = np.random.default_rng(cfg.seed)
    rule = cfg.probability_rule or (lambda point, Im, Am: (0.5, 0.5))

    def select(point, infeasible, inactive):
        cand = infeasible.nonzero()[0]
        on_I = inactive[cand]
        Im, Am = cand[on_I], cand[~on_I]
        return select_exchange_generic(Im, Am, *rule(point, Im, Am), cfg.sigma, rng)

    return _exchange_loop(problem, cfg, select)


def ras_solve(problem: QpProblem, cfg: RasConfig) -> SolveResult:
    """Randomized active-set iteration with per-origin exchange probabilities.

    Every currently infeasible index falls into one of six categories
    according to its origin label and side (see :mod:`rasqp.engine`), and is
    exchanged with that category's probability.  Every index starts out
    labelled frozen.  When a draw selects nothing, no subsystem is re-solved:
    the infeasible indexes are relabelled frozen, the feasible ones feasible,
    and the draw is repeated — capped at 10*n redraws before giving up with
    ``IterationCapReached``.
    """
    n = problem.n
    rng = np.random.default_rng(cfg.seed)
    origin = np.full(n, FROZEN, dtype=np.int8)

    def select(point, infeasible, inactive):
        nonlocal origin
        for _ in range(10 * n + 1):
            chosen = select_exchange_ras(*categorize(infeasible, inactive, origin),
                                         cfg.probs, rng)
            origin = infeasible.astype(np.int8)  # FROZEN (1) where infeasible, else FEASIBLE (0)
            origin[chosen] = EXCHANGED
            if len(chosen):
                return chosen
        return None

    return _exchange_loop(problem, cfg, select)


def kr_solve(problem: QpProblem, cfg: KrConfig) -> SolveResult:
    """Deterministic full-exchange iteration: every infeasible index changes sides.

    Stops with ``Optimal`` when nothing is infeasible and with
    ``CycleDetected`` either after ``max_solves`` solves or as soon as an
    active set repeats (detected via a set of visited masks, which yields
    the same fail verdict as running out the cap, only sooner).
    """
    return _exchange_loop(problem, cfg, lambda _, infeasible, __: np.flatnonzero(infeasible),
                          Status.CYCLE_DETECTED, detect_cycles=True)


def fletcher_solve(
    problem: QpProblem,
    tol: float = 1e-10,
    initial_A=None,
    *,
    record_iterates: bool = False,
    record_sets: bool = False,
) -> SolveResult:
    """Primal-feasible active-set method moving one index per solve.

    Each pass solves for the target x_I* = -Q[I,I]^{-1} g[I].  If some
    x_i* < 0, it steps from the current (feasible) x_I toward the target
    until the first coordinate hits zero: that blocking index, the one with
    the smallest ratio x_i / (x_i - x_i*) among x_i* < 0 (ties by smallest
    index), moves to A pinned at exactly 0, with round-off negatives
    clamped.  Otherwise it accepts the target and stops as optimal if
    min s_A >= -tol, or else moves the most negative s_j (ties by smallest
    index) into I.

    Since I gains or loses exactly one index per solve, the run keeps the
    Cholesky factor of Q[I,I] between solves: each solve appends one row
    to the factor or deletes one row and column from it, in O(|I|^2), where
    a fresh solve would gather Q[I,I] and factor it in O(|I|^3).  A new
    pivot that is not positive in floating point refactors afresh, and a
    sparse Q[I,I] above :data:`~rasqp.subsystem.DENSE_THRESHOLD` goes
    through SuperLU as in the other solvers.  The working sets are those of
    refactoring every solve; x agrees to round-off.

    Every iterate is exactly nonnegative and the objective never increases;
    the run terminates finitely.  ``objective_history`` records the objective
    at the start (0 at x = 0) and after each acceptance, where it is read
    from the Q x the solve formed for s, as 0.5 x'(Qx) + g'x, the same
    expression as :func:`~rasqp.model.objective`; after a SuperLU solve it
    is evaluated afresh.  ``record_iterates`` also stores every iterate x
    and ``record_sets`` every inactive set, as in the exchange solvers.  The
    cap of 10*n^2 solves is purely defensive.
    """
    if not tol >= 0.0:  # also rejects nan
        raise ValueError("tol must be >= 0")
    n = problem.n
    inactive, I, A = _initial_sets(n, initial_A)
    x = np.zeros(n)
    rec = _RunRecorder(record_sets)
    factor = _UpdatedCholesky()
    obj_hist = [0.0]  # the objective at x = 0
    iter_hist = [x.copy()] if record_iterates else None

    def stop(status: Status, s: np.ndarray) -> SolveResult:
        return rec.result(problem, KktPoint(x=x, s=s), status, objective_history=tuple(obj_hist),
                          iterate_history=tuple(iter_hist) if record_iterates else None)

    while True:
        try:
            sol = solve_subsystem(problem, I, A, factor=factor)
        except FactorizationError:
            return stop(Status.NUMERICAL_FAILURE, np.zeros(n))
        blocking = sol.x_I < 0.0
        n_am = np.count_nonzero(sol.s_A < -tol)
        rec.note(I, np.count_nonzero(blocking), n_am)
        if rec.solves >= 10 * n * n:
            return stop(Status.ITERATION_CAP, embed_point(n, I, A, sol).s)
        if blocking.any():  # step to the blocking index
            current = x[I]
            ratios = current[blocking] / (current[blocking] - sol.x_I[blocking])
            k = int(np.argmin(ratios))  # first minimum = smallest blocking index
            x[I] = np.maximum(current + ratios[k] * (sol.x_I - current), 0.0)
            moved = I[blocking][k]
            x[moved] = 0.0
        else:  # accept the target; release the most negative s_j, ties by index
            x[I] = sol.x_I
            qx = factor.qx  # Q x, formed by this solve unless SuperLU ran
            obj_hist.append(objective(problem, x) if qx is None
                            else float(0.5 * (x @ qx) + problem.g @ x))
            moved = A[int(np.argmin(sol.s_A))] if n_am else None
        if record_iterates:
            iter_hist.append(x.copy())
        if moved is None:
            return stop(Status.OPTIMAL, embed_point(n, I, A, sol).s)
        inactive, I, A = next_sets(inactive, moved)


def brute_force_solve(problem: QpProblem, tol: float = 1e-10) -> KktPoint:
    """Enumerate all 2^n inactive sets and return the best KKT point.

    A partition qualifies when x_I >= 0 (zeros allowed) and s_A >= -tol; the
    qualifying point with the lowest objective is returned.  Subsystems are
    solved by LU with partial pivoting (``np.linalg.solve``) — deliberately a
    different code path from the Cholesky kernel the solvers use, so the two
    routes cross-check each other.  Enforces n <= 20.
    """
    n = problem.n
    if n > 20:
        raise DimensionTooLargeError(f"n = {n} exceeds the brute-force limit of 20")
    Q = problem.dense_q()
    g = problem.g
    all_ix = np.arange(n, dtype=np.int64)
    best = None
    best_obj = np.inf
    for mask in range(1 << n):
        I = all_ix[[(mask >> i) & 1 == 1 for i in range(n)]]
        A = all_ix[[(mask >> i) & 1 == 0 for i in range(n)]]
        if len(I):
            x_I = np.linalg.solve(Q[np.ix_(I, I)], -g[I])
            if x_I.min() < 0.0:
                continue
        else:
            x_I = np.empty(0)
        s_A = Q[np.ix_(A, I)] @ x_I + g[A] if len(A) else np.empty(0)
        if len(s_A) and s_A.min() < -tol:
            continue
        x = np.zeros(n)
        x[I] = x_I
        obj = objective(problem, x)
        if obj < best_obj:
            s = np.zeros(n)
            s[A] = s_A
            best = KktPoint(x=x, s=s)
            best_obj = obj
    if best is None:
        raise NoKktPointError("no partition satisfied the KKT conditions")
    return best
