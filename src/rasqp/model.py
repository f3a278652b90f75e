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
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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

# The number types a real-valued option may have: classify checks its tol on
# every solve, and isinstance against numbers.Real costs several times as much.
_REALS = (int, float, np.integer, np.floating)


class NotSymmetricError(ValueError):
    """Raised when a matrix is too far from symmetric to be repaired."""


class NotPositiveDefiniteError(ValueError):
    """Raised when Q is not positive definite (see :func:`validate_problem`).

    Attributes
    ----------
    pivot : int
        The 1-based elimination step whose pivot is not positive, in the
        order :func:`validate_problem` eliminates Q: the natural order for a
        dense Q, the problem's elimination order for a sparse one: its own
        when no wider than RCM's (reverse Cuthill-McKee), RCM's otherwise.
        It is the ``pivot`` of the :class:`~rasqp.subsystem.FactorizationError`
        the factor raised, which :mod:`rasqp.subsystem` defines per kernel.
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


def _real_array(values, name: str, convert=np.asarray):
    """``convert(values, dtype=float64)``, raising ValueError naming the field
    for a complex input or a NaN or infinite entry (stored, when sparse)."""
    if np.iscomplexobj(values):  # the cast would drop the imaginary part
        raise ValueError(f"{name} must be real, not complex")
    values = convert(values, dtype=np.float64)
    if not np.isfinite(values.data if sp.issparse(values) else values).all():
        raise ValueError(f"{name} has a NaN or infinite entry")
    return values


def _require_int(value, name: str, low: int = 0) -> None:
    """Raise ValueError naming the field unless ``value`` is an integer >= ``low``;
    a NumPy integer is one, a ``bool`` or a whole float is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")


def _require_real(value, name: str = "tol", low=0.0, high=np.inf, ends: str = "[)") -> None:
    """Raise ValueError naming the field unless ``value`` is a number in the
    interval from ``low`` to ``high``, each end closed ("[", "]") or open
    ("(", ")") as ``ends`` says; the defaults are the dual tolerance's range.
    A NumPy number is one; a ``bool``, a string or ``None`` is not, and NaN
    fails every comparison.  A value strictly inside costs two comparisons."""
    if isinstance(value, bool) or not isinstance(value, _REALS) or not (low < value < high
            or value == low and ends[0] == "[" or value == high and ends[1] == "]"):
        raise ValueError(f"{name} must be a number in {ends[0]}{low:g}, {high:g}{ends[1]}, "
                         f"not {value!r}")


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

    A complex Q or g, and a NaN or infinite entry in Q (dense, or stored
    sparse) or g, raise ``ValueError``, and so does an entry of Q above half
    the largest double in magnitude, for which (Q + Q')/2 would overflow.

    Dense inputs are stored as read-only ``float64`` arrays, sparse inputs in
    CSC form.  Instances are treated as immutable and may be shared across
    threads.  The one private slot ``_elimination`` caches the elimination
    order of a sparse Q, its own when no wider than RCM's (reverse
    Cuthill-McKee), RCM's otherwise, with Q in that order: Q itself, or a
    copy only when RCM's order wins (see
    :func:`rasqp.subsystem._elimination_order`).  It is computed on first
    use by a solve of a sparse block of more than 1024 rows or by
    :func:`validate_problem`; it is a function of Q alone, so caching it
    changes no observable value.
    """

    __slots__ = ("n", "Q", "g", "is_sparse", "_elimination")

    def __init__(self, Q, g):
        g = _real_array(g, "g")
        if g.ndim != 1 or g.size < 1:
            raise ValueError(f"g must be 1-D with length >= 1, not of shape {g.shape}")
        n = g.shape[0]
        self.is_sparse = sp.issparse(Q)
        Q = _real_array(Q, "Q", sp.csc_array if self.is_sparse else np.asarray)
        if Q.shape != (n, n):
            raise ValueError(f"Q has shape {Q.shape}, expected ({n}, {n})")
        if self.is_sparse:
            Q = sp.csc_array(_symmetrize(Q))
            Q.sort_indices()
        else:
            Q = np.ascontiguousarray(_symmetrize(Q))
            Q.setflags(write=False)
        g = g.copy()
        g.setflags(write=False)
        self.n = n
        self.Q = Q
        self.g = g
        self._elimination = None

    def dense_q(self) -> np.ndarray:
        """Q as a dense ndarray (a copy when stored sparse)."""
        return self.Q.toarray() if self.is_sparse else np.asarray(self.Q)

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return f"QpProblem(n={self.n}, {kind})"


@dataclass(frozen=True)
class KktPoint:
    """A primal/dual pair (x, s), both 1-D arrays of length n.

    Points produced by a subsystem solve have structural complementarity:
    ``x[A] == 0`` and ``s[I] == 0`` exactly for the partition that produced
    them, hence ``x's == 0`` without cancellation.
    """

    x: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        # An attribute test, not a conversion: the loop builds one per solve.
        for name, v in (("x", self.x), ("s", self.s)):
            ndim = getattr(v, "ndim", None)
            if ndim != 1:
                what = f"a {type(v).__name__}" if ndim is None else f"of shape {v.shape}"
                raise ValueError(f"{name} must be a 1-D array, not {what}")
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

    ``trace`` has one row per linear subsystem solve, the unit all
    benchmarks use.  ``solves`` and ``avg_subsystem_size`` (the mean |I|,
    0.0 for no solve) are read from it, so they cannot disagree with it.
    ``inactive_sets`` and ``iterate_history`` are populated only when a
    solver is asked to record them; ``objective_history`` is always
    populated by ``fletcher_solve`` and never by the exchange solvers.
    """

    point: KktPoint
    status: Status
    trace: tuple[TraceRow, ...]
    objective: float
    inactive_sets: tuple[np.ndarray, ...] | None = None
    objective_history: tuple[float, ...] | None = None
    iterate_history: tuple[np.ndarray, ...] | None = None

    @property
    def solves(self) -> int:
        return len(self.trace)

    @property
    def avg_subsystem_size(self) -> float:
        return sum(row.subsystem_size for row in self.trace) / self.solves if self.trace else 0.0


def stationarity_tol(problem: QpProblem) -> float:
    """Scale-relative tolerance on ||Qx + g - s||_inf, namely 1e-8 * (1 + ||g||_inf).

    Active-set iterates satisfy the stationarity equations by construction,
    so this tolerance only matters where a result's certificate is checked
    against :func:`kkt_residual`: the benchmark's certificate check and the
    tests.
    """
    return 1e-8 * (1.0 + float(np.abs(problem.g).max()))


def objective(problem: QpProblem, x) -> float:
    """Evaluate 0.5 * x'Qx + g'x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({problem.n},)")
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
    """Check that Q is positive definite.

    Raises :class:`NotPositiveDefiniteError` (carrying the 1-based failing
    pivot).  Symmetry is :class:`QpProblem`'s to keep: it stores (Q + Q')/2,
    which is exactly symmetric because floating-point addition commutes.  A
    symmetric matrix is positive definite iff every pivot of its elimination
    on the diagonal is positive, so Q is factorized once, by the kernels of
    :mod:`rasqp.subsystem`: a dense Q by Cholesky on a copy, a sparse Q,
    never densified, in the problem's elimination order (cached): its own
    when no wider than RCM's (reverse Cuthill-McKee), RCM's otherwise.  A
    sparse Q is factorized, whatever n, by the kernels of a sparse block of
    more than 1024 rows, as the block of every index.  Q is rejected at the
    step the factor names.  Intended for setup-time validation, not inner
    loops.
    """
    # Imported here: subsystem imports this module.
    from .subsystem import FactorizationError, _cholesky, _factor_sparse

    try:
        if problem.is_sparse:
            _factor_sparse(problem, np.arange(problem.n))  # Q in its elimination order
        else:
            _cholesky(problem.Q.copy(order="F"), clean=0)
    except FactorizationError as exc:
        raise NotPositiveDefiniteError(exc.pivot) from exc
