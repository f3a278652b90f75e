"""Core problem and result types shared by every solver.

The problem of interest is

    minimize   0.5 * x'Qx + g'x
    subject to x >= 0

with Q symmetric positive definite, so the minimizer is unique and is
characterized by the KKT system

    Qx + g - s = 0,    x >= 0,    s >= 0,    x's = 0.

Everything downstream (subsystem solves, active-set bookkeeping, the
benchmark harness) works in terms of :class:`QpProblem`, :class:`KktPoint`
and :class:`SolveResult`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf

__all__ = [
    "QpProblem",
    "KktPoint",
    "Status",
    "TraceRow",
    "SolveResult",
    "NotSymmetricError",
    "NotPositiveDefiniteError",
    "objective",
    "kkt_residual",
    "validate_problem",
    "stationarity_tol",
]

#: Relative asymmetry beyond which a matrix is rejected instead of symmetrized.
SYMMETRY_RTOL = 1e-12

# Above this magnitude Q + Q' overflows for a symmetric pair (or a diagonal
# entry); up to it, |Q_ij + Q_ji| <= the largest double, so the sum is finite.
_SYMMETRIZE_MAX = np.finfo(np.float64).max / 2


class NotSymmetricError(ValueError):
    """Raised when a matrix is too far from symmetric to be repaired."""


class NotPositiveDefiniteError(ValueError):
    """Raised when the Cholesky factorization of Q fails.

    Attributes
    ----------
    pivot : int
        1-based order of the leading minor that is not positive definite
        (the LAPACK ``info`` value from ``dpotrf``).
    """

    def __init__(self, pivot: int):
        self.pivot = int(pivot)
        super().__init__(f"matrix is not positive definite (leading minor {self.pivot})")


def _symmetrize(Q):
    """Return (Q + Q')/2 of a dense or sparse Q, raising ValueError when an
    entry is too large for the sum to stay finite and NotSymmetricError when
    the input is too skew."""
    scale = abs(Q).max()
    if scale > _SYMMETRIZE_MAX:
        raise ValueError(f"Q has an entry of magnitude {scale:.3e}; (Q + Q')/2 would "
                         f"overflow above {_SYMMETRIZE_MAX:.3e}")
    asym = abs(Q - Q.T).max()
    if asym > SYMMETRY_RTOL * max(scale, 1e-300):
        raise NotSymmetricError(
            f"matrix asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.0e} * max|Q| = "
            f"{SYMMETRY_RTOL * scale:.3e}"
        )
    return (Q + Q.T) * 0.5


def _require_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} has a NaN or infinite entry")


class QpProblem:
    """Immutable container for one QP instance.

    Parameters
    ----------
    Q : (n, n) array_like or scipy sparse
        Symmetric positive definite matrix.  Nearly symmetric inputs
        (asymmetry up to ``1e-12 * max|Q|``, e.g. generator round-off) are
        symmetrized on construction; anything worse raises
        :class:`NotSymmetricError`.  Positive definiteness is *not* checked
        here; call :func:`validate_problem` when needed.
    g : (n,) array_like
        Linear term.

    A NaN or infinite entry in Q (dense, or stored sparse) or g raises
    ``ValueError``, and so does an entry of Q above half the largest double
    in magnitude, for which (Q + Q')/2 would overflow.

    Dense inputs are stored as read-only ``float64`` arrays, sparse inputs in
    CSC form.  Instances are treated as immutable and may be shared across
    threads.  The private ``_rcm_rank`` caches a fill-reducing order of a
    sparse Q, computed by :mod:`rasqp.subsystem` on first use; it is a
    function of Q alone, so caching it changes no observable value.
    """

    __slots__ = ("n", "Q", "g", "is_sparse", "_rcm_rank")

    def __init__(self, Q, g):
        g = np.asarray(g, dtype=np.float64).reshape(-1)
        n = g.shape[0]
        if n < 1:
            raise ValueError("g must have length >= 1")
        _require_finite(g, "g")
        if sp.issparse(Q):
            Q = sp.csc_array(Q, dtype=np.float64)
            if Q.shape != (n, n):
                raise ValueError(f"Q has shape {Q.shape}, expected ({n}, {n})")
            _require_finite(Q.data, "Q")
            Q = sp.csc_array(_symmetrize(Q))
            Q.sort_indices()
            self.is_sparse = True
        else:
            Q = np.asarray(Q, dtype=np.float64)
            if Q.shape != (n, n):
                raise ValueError(f"Q has shape {Q.shape}, expected ({n}, {n})")
            _require_finite(Q, "Q")
            Q = np.ascontiguousarray(_symmetrize(Q))
            Q.setflags(write=False)
            self.is_sparse = False
        g = g.copy()
        g.setflags(write=False)
        self.n = n
        self.Q = Q
        self.g = g
        self._rcm_rank = None

    def dense_q(self) -> np.ndarray:
        """Q as a dense ndarray (a copy when stored sparse)."""
        return self.Q.toarray() if self.is_sparse else np.asarray(self.Q)

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return f"QpProblem(n={self.n}, {kind})"


@dataclass(frozen=True)
class KktPoint:
    """A primal/dual pair (x, s), both of length n.

    Points produced by a subsystem solve have structural complementarity:
    ``x[A] == 0`` and ``s[I] == 0`` exactly for the partition that produced
    them, hence ``x's == 0`` without cancellation.
    """

    x: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        if self.x.shape != self.s.shape:
            raise ValueError("x and s must have the same length")


class Status(str, enum.Enum):
    """Terminal state of a solver run."""

    OPTIMAL = "Optimal"
    ITERATION_CAP = "IterationCapReached"
    CYCLE_DETECTED = "CycleDetected"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass(frozen=True)
class TraceRow:
    """One per-subsystem-solve record.

    ``elapsed_s`` is wall-clock time since the run started and is the only
    field exempt from determinism guarantees.
    """

    iteration: int
    n_im: int
    n_am: int
    subsystem_size: int
    elapsed_s: float

    @property
    def infeasible(self) -> int:
        return self.n_im + self.n_am


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run.

    ``solves`` counts linear subsystem solves, the unit all benchmarks use;
    ``avg_subsystem_size`` is the arithmetic mean of |I| over exactly those
    solves.  ``trace`` has one row per counted solve.  The optional history
    fields are populated only when a solver is asked to record them.
    """

    point: KktPoint
    status: Status
    solves: int
    avg_subsystem_size: float
    trace: tuple[TraceRow, ...]
    objective: float
    inactive_sets: tuple[np.ndarray, ...] | None = None
    objective_history: tuple[float, ...] | None = None
    iterate_history: tuple[np.ndarray, ...] | None = None


def stationarity_tol(problem: QpProblem) -> float:
    """Scale-relative tolerance on ||Qx + g - s||_inf, namely 1e-8 * (1 + ||g||_inf).

    Active-set iterates satisfy the stationarity equations by construction,
    so this tolerance only matters for the residual checker and the
    brute-force oracle.
    """
    return 1e-8 * (1.0 + float(np.abs(problem.g).max()))


def objective(problem: QpProblem, x) -> float:
    """Evaluate 0.5 * x'Qx + g'x."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != problem.n:
        raise ValueError(f"x has length {x.shape[0]}, expected {problem.n}")
    qx = problem.Q @ x
    return float(0.5 * (x @ qx) + problem.g @ x)


def kkt_residual(problem: QpProblem, point: KktPoint):
    """Measure how far a point is from satisfying the KKT system.

    Returns
    -------
    (stationarity, primal_viol, dual_viol, comp_viol)
        ``stationarity``: max-norm of Qx + g - s.
        ``primal_viol``: max(0, -min(x)), violation of x >= 0.
        ``dual_viol``: max(0, -min(s)), violation of s >= 0.
        ``comp_viol``: |x's|.

    A point passes the optimality check when stationarity is at most
    :func:`stationarity_tol`, primal_viol == 0, dual_viol <= tol and
    comp_viol == 0 (structural for subsystem-produced points), where tol is
    the solver's dual tolerance.
    """
    x, s = point.x, point.s
    if x.shape[0] != problem.n:
        raise ValueError(f"point has length {x.shape[0]}, expected {problem.n}")
    r = problem.Q @ x + problem.g - s
    stationarity = float(np.abs(r).max())
    primal_viol = float(max(0.0, -x.min()))
    dual_viol = float(max(0.0, -s.min()))
    comp_viol = float(abs(x @ s))
    return stationarity, primal_viol, dual_viol, comp_viol


def validate_problem(problem: QpProblem) -> None:
    """Check storage-level symmetry and positive definiteness of Q.

    Raises :class:`NotSymmetricError` or :class:`NotPositiveDefiniteError`
    (carrying the 1-based failing leading minor).  Factorizes a dense copy of
    Q, so intended for setup-time validation, not inner loops.
    """
    Q = problem.dense_q()
    if not np.array_equal(Q, Q.T):
        raise NotSymmetricError("Q is not symmetric at storage level")
    # Lower-triangular Cholesky attempt; info > 0 is the failing minor.
    # The explicit copy keeps the in-place factorization away from the
    # problem's own (dense-stored) array.
    work = np.array(Q, dtype=np.float64, order="F", copy=True)
    _, info = dpotrf(work, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(info)
    if info < 0:
        raise ValueError(f"illegal value passed to dpotrf (argument {-info})")
