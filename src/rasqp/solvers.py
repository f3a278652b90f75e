"""Active-set solvers for nonnegativity-constrained strictly convex QPs.

Four methods share the same metric semantics (``solves`` = number of reduced
KKT subsystem solves, each a fresh or an updated factorization,
``avg_subsystem_size`` = mean |I| over them):

* :func:`generic_ras_solve` — randomized exchange of each infeasible index
  with probability 1/2; the simplest convergent scheme.
* :func:`ras_solve` — randomized exchange with six origin-dependent
  probabilities and a resampling rule for empty exchanges; the method of
  interest.
* :func:`kr_solve` — deterministic full exchange of all infeasible indexes;
  fast on easy problems but can cycle on ill-conditioned ones.
* :func:`fletcher_solve` — classical primal-feasible method moving one index
  at a time; finitely convergent, used as a deterministic baseline.

All four share one loop and differ only in their selection rule, which
returns either the indexes to exchange or the status that ends the run.
Every run leaves the loop by its one exit: the loop stops it as ``Optimal``,
at the solve cap or on a failed factorization, ``ras``'s selection when its
redraws run out (an empty draw is redrawn without a solve), and ``kr``'s
when the exchange would return to an active set already solved.  ``generic``
re-solves after an empty draw (and counts it); ``kr`` never draws.

:func:`brute_force_solve` enumerates all 2^n partitions as a correctness
oracle for the others.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

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
from .model import (KktPoint, QpProblem, SolveResult, Status, TraceRow, _require_int,
                    _require_real, objective)
from .subsystem import (
    FactorizationError,
    _FreshCholesky,
    _indexes,
    _UpdatedCholesky,
    embed_point,
    solve_subsystem,
)

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
    """Options every exchange solver takes: the dual tolerance (the rule of
    :func:`~rasqp.engine.classify`), the starting active set (``None`` means
    every index), the cap on subsystem solves (an integer >= 1) and whether
    to record each inactive set.  Keyword-only, like its subclasses."""

    tol: float = 1e-10
    initial_A: object = None
    max_solves: int = 10_000
    record_sets: bool = False

    def __post_init__(self):
        _require_int(self.max_solves, "max_solves", 1)
        _require_real(self.tol)


@dataclass(kw_only=True)
class GenericRasConfig(_ExchangeConfig):
    """Configuration for :func:`generic_ras_solve`; ``seed`` must be an
    integer >= 0."""

    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        _require_int(self.seed, "seed")


@dataclass(kw_only=True)
class RasConfig(_ExchangeConfig):
    """Configuration for :func:`ras_solve` (defaults are the tuned probabilities);
    ``probs`` must be a ChangeProbabilities and ``seed`` an integer >= 0."""

    probs: ChangeProbabilities = field(default_factory=ChangeProbabilities)
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.probs, ChangeProbabilities):
            raise ValueError(f"probs must be a ChangeProbabilities, not {self.probs!r}")
        _require_int(self.seed, "seed")


@dataclass(kw_only=True)
class KrConfig(_ExchangeConfig):
    """Configuration for :func:`kr_solve`; its solve cap defaults to 200."""

    max_solves: int = 200


class DimensionTooLargeError(ValueError):
    """brute_force_solve refuses n > 20 (2^n subsystem solves)."""


class NoKktPointError(RuntimeError):
    """No partition satisfied the KKT conditions; impossible for valid input."""


def _exchange_loop(problem: QpProblem, cfg: _ExchangeConfig, select,
                   cap_status: Status = Status.ITERATION_CAP,
                   factor=_FreshCholesky) -> SolveResult:
    """The iteration shared by all four solvers.

    The state is the ``inactive`` mask; I and A are its two index arrays.
    They partition {0..n-1} by construction once ``cfg.initial_A`` is
    checked here, the loop's only check of its sets: every solve passes
    ``solve_subsystem`` the kernel the run keeps, ``factor`` (a fresh
    factorization per solve by default, fletcher's updated factor
    otherwise), and that call does not check the partition again.  Each
    round solves the subsystem for (I, A), classifies the result and
    appends one row.  It stops with ``Optimal`` when nothing is infeasible,
    with ``cap_status`` after ``cfg.max_solves`` solves and with
    ``NumericalFailure`` when a solve fails; otherwise ``select(point,
    infeasible, inactive)`` returns the indexes to move to the other side
    or the :class:`Status` that ends the run.  Every stop sets ``status``
    and leaves the loop by its one exit, which builds the result.
    """
    n = problem.n
    A = (np.arange(n) if cfg.initial_A is None
         else _indexes(np.ravel(cfg.initial_A), "initial_A", n))
    inactive = np.ones(n, dtype=bool)
    inactive[A] = False
    I, A = np.flatnonzero(inactive), np.flatnonzero(~inactive)
    t0 = time.perf_counter()
    rows = []  # (n_im, n_am, |I|, elapsed_s) per solve, made TraceRows at the end
    sets = [] if cfg.record_sets else None
    point = KktPoint(x=np.zeros(n), s=np.zeros(n))  # returned if the first solve fails
    while True:
        try:
            x_I, s_A = solve_subsystem(problem, I, A, factor=factor)
        except FactorizationError:
            status = Status.NUMERICAL_FAILURE
            break
        point = embed_point(n, I, A, x_I, s_A)
        infeasible = classify(point, inactive, cfg.tol)
        n_inf = np.count_nonzero(infeasible)
        n_im = np.count_nonzero(infeasible & inactive)
        rows.append((n_im, n_inf - n_im, len(I), time.perf_counter() - t0))
        if sets is not None:
            sets.append(I)
        chosen = (Status.OPTIMAL if n_inf == 0
                  else cap_status if len(rows) >= cfg.max_solves
                  else select(point, infeasible, inactive))
        if isinstance(chosen, Status):
            status = chosen
            break
        inactive, I, A = next_sets(inactive, chosen)
    return SolveResult(
        point=point,
        status=status,
        trace=tuple(TraceRow(k, int(n_im), int(n_am), size, elapsed)
                    for k, (n_im, n_am, size, elapsed) in enumerate(rows, 1)),
        objective=objective(problem, point.x),
        inactive_sets=tuple(sets) if sets is not None else None,
    )


def generic_ras_solve(problem: QpProblem, cfg: GenericRasConfig) -> SolveResult:
    """Randomized active-set iteration with exchange probability 1/2.

    Each round solves the subsystem for the current partition, stops when
    nothing is infeasible, and otherwise exchanges each infeasible index
    with probability 1/2, one uniform per index over Im, then Am.  An
    unlucky empty exchange simply re-solves the same subsystem (and is
    counted).  The method terminates with probability 1 for any exchange
    probabilities in [sigma, 1 - sigma] with sigma > 0; this solver fixes
    them at 1/2.  ``max_solves`` turns astronomically unlucky runs into
    ``IterationCapReached``.
    """
    rng = np.random.default_rng(cfg.seed)

    def select(point, infeasible, inactive):
        return select_exchange_generic((infeasible & inactive).nonzero()[0],
                                       (infeasible & ~inactive).nonzero()[0], rng)

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
    p = np.array(cfg.probs.as_tuple(), dtype=np.float64)  # indexed by category
    origin = np.full(n, FROZEN, dtype=np.int8)

    def select(point, infeasible, inactive):
        nonlocal origin
        for _ in range(10 * n + 1):
            chosen = select_exchange_ras(*categorize(infeasible, inactive, origin), p, rng)
            origin = infeasible.astype(np.int8)  # FROZEN (1) where infeasible, else FEASIBLE (0)
            origin[chosen] = EXCHANGED
            if len(chosen):
                return chosen
        return Status.ITERATION_CAP

    return _exchange_loop(problem, cfg, select)


def kr_solve(problem: QpProblem, cfg: KrConfig) -> SolveResult:
    """Deterministic full-exchange iteration: every infeasible index changes sides.

    Stops with ``Optimal`` when nothing is infeasible and with
    ``CycleDetected`` either after ``max_solves`` solves or as soon as the
    exchange would lead back to an active set already solved.  The
    selection remembers every solved mask, so a cycle stops the run before
    the move, with the point of its last solve; that is the same fail
    verdict as running out the cap, only sooner.
    """
    visited = set()

    def select(point, infeasible, inactive):
        visited.add(inactive.tobytes())
        if (inactive ^ infeasible).tobytes() in visited:
            return Status.CYCLE_DETECTED
        return np.flatnonzero(infeasible)

    return _exchange_loop(problem, cfg, select, Status.CYCLE_DETECTED)


def fletcher_solve(
    problem: QpProblem,
    tol: float = 1e-10,
    initial_A=None,
    *,
    record_iterates: bool = False,
    record_sets: bool = False,
) -> SolveResult:
    """Primal-feasible active-set method moving one index per solve.

    Each solve on the shared loop gives the target x_I* = -Q[I,I]^{-1} g[I].
    If some x_i* < 0, the selection steps from the current (feasible) x
    toward the target until the first coordinate hits zero: that blocking
    index, the smallest ratio x_i / (x_i - x_i*) among x_i* < 0 (ties by
    smallest index), moves to A pinned at exactly 0, round-off negatives
    clamped.  Otherwise it accepts the target and stops as optimal if the
    loop's :func:`~rasqp.engine.classify` finds A feasible, or else moves the
    most negative s_j (ties by index) into I; ``n_im`` counts x_i* <= 0.

    Since I gains or loses exactly one index per solve, the run keeps the
    Cholesky factor of Q[I,I] between solves: each solve appends one row
    to the factor or deletes one row and column from it, in O(|I|^2), where
    a fresh solve would gather Q[I,I] and factor it in O(|I|^3).  A new
    pivot that is not positive in floating point refactors afresh, and a
    sparse Q[I,I] above :data:`~rasqp.subsystem.DENSE_THRESHOLD` goes to
    the sparse kernels (a band Cholesky or SuperLU) as in the other
    solvers.  The sets match refactoring every solve; x agrees to round-off.

    Every iterate is exactly nonnegative and the objective never increases;
    the run terminates finitely.  ``objective_history`` records the objective
    at the start (0 at x = 0) and after each acceptance, read from the Q x
    the solve formed for s as 0.5 x'(Qx) + g'x, the expression of
    :func:`~rasqp.model.objective` (afresh after a sparse kernel).
    ``record_iterates`` also stores every iterate x and ``record_sets``
    every inactive set.  The cap of 10*n^2 solves is purely defensive; a
    run stopped by it or by a failed factorization reports its last
    feasible x and that x's objective, with its last solve's s.
    """
    n = problem.n
    cfg = _ExchangeConfig(tol=tol, initial_A=initial_A, max_solves=10 * n * n,
                          record_sets=record_sets)
    factor = _UpdatedCholesky()
    x = np.zeros(n)  # the feasible iterate, zero off I
    obj_hist = [0.0]  # the objective at x = 0
    iter_hist = [x.copy()] if record_iterates else None

    def select(point, infeasible, inactive):
        blocking = point.x < 0.0
        if blocking.any():  # step to the blocking index
            ratios = x[blocking] / (x[blocking] - point.x[blocking])
            k = int(np.argmin(ratios))  # first minimum = smallest blocking index
            np.maximum(x + ratios[k] * (point.x - x), 0.0, out=x)
            moved = np.flatnonzero(blocking)[k]
            x[moved] = 0.0
        else:  # accept the target; release the most negative s_j, ties by index
            if not (infeasible & ~inactive).any():  # optimal, with an exact zero in x_I
                return Status.OPTIMAL  # accepted below, as when the loop stops
            moved = np.argmin(point.s)
            x[:] = point.x
            qx = factor.qx  # Q x, formed by this solve unless a sparse kernel ran
            obj_hist.append(objective(problem, x) if qx is None
                            else float(0.5 * (x @ qx) + problem.g @ x))
        if record_iterates:
            iter_hist.append(x.copy())
        return moved

    result = _exchange_loop(problem, cfg, select, factor=factor)
    if result.status is Status.OPTIMAL:  # the final acceptance, the same x and Q x
        obj_hist.append(result.objective)
        if record_iterates:
            iter_hist.append(result.point.x.copy())
    else:  # the last solve's x may be infeasible; report the iterate
        result = replace(result, point=KktPoint(x=x, s=result.point.s),
                         objective=objective(problem, x))
    return replace(result, objective_history=tuple(obj_hist),
                   iterate_history=tuple(iter_hist) if record_iterates else None)


def brute_force_solve(problem: QpProblem, tol: float = 1e-10) -> KktPoint:
    """Enumerate all 2^n inactive sets and return the best KKT point.

    A partition qualifies when x_I >= 0 (zeros allowed) and s_A >= -tol; the
    qualifying point with the lowest objective is returned.  Subsystems are
    solved by LU with partial pivoting (``np.linalg.solve``) — deliberately a
    different code path from the Cholesky kernel the solvers use, so the two
    routes cross-check each other.  Enforces n <= 20.
    """
    _require_real(tol)
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
