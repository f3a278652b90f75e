"""Reduced KKT subsystem solves.

For a partition of {0..n-1} into an inactive set I and an active set A, the
candidate point fixes x_A = 0 and solves

    Q[I,I] x_I = -g[I],        s_A = Q[A,I] x_I + g[A],

with s_I = 0.  Q[I,I] is a principal submatrix of a positive definite matrix,
hence positive definite, and is factorized fresh on every call (no rank-one
updating); the per-call cost is exactly what the benchmark ``solve`` metric
counts.  I and A are taken in the order given, and x_I and s_A follow that
order.  They are checked to partition {0..n-1} with one O(n) coverage mask,
which rejects an overlap, a missing index and an index out of range.

Each solve gathers Q once, in one of three ways.

* Dense Q: the row block Q[I,:], one contiguous copy of |I| rows.  Q[I,I]
  is its columns I and s_A is the full product x_I Q[I,:] read at the
  positions A.  That relies on Q being exactly symmetric in floating point,
  which :class:`~rasqp.model.QpProblem` guarantees by storing (Q + Q')/2:
  row i of Q equals column i bit for bit.
* Sparse Q with |I| <= :data:`DENSE_THRESHOLD`: the stored entries of the
  columns I are scattered straight into a dense Fortran-ordered Q[I,I]
  through a position map of I, and s_A is (Q x)[A] + g[A] with x zero on A.
* Sparse Q with a larger I: SuperLU on the CSC block.  SciPy ships no sparse
  Cholesky, and letting SuperLU compute a COLAMD ordering for every block
  costs more than the factorization itself.  Instead the whole of Q is
  ordered once per problem by reverse Cuthill-McKee (cached on the problem)
  and each block takes I in that order.  For a symmetric positive definite
  matrix, the Cholesky fill of a principal submatrix under the induced order
  lies inside the fill of the whole matrix restricted to I, so restricting
  the order never adds fill.  Q[I,I] is positive definite, so Gaussian
  elimination on its diagonal is stable without pivoting: SuperLU runs in
  symmetric mode with the natural column order and a diagonal pivot
  threshold of 0, so it keeps the given order and pivots on the diagonal.
  The block reaches SuperLU in CSC with sorted indexes, so SuperLU has
  nothing to sort: the column slice Q[:, J] is converted to CSR, whose
  rows J are Q[J,J] row by row with sorted column indexes.  Read as CSC,
  those arrays are Q[J,J]', which equals Q[J,J] bit for bit because Q is
  exactly symmetric.

The densified Q[I,I] is a temporary, so the Cholesky factorizes it in
place, handed whichever of the block and its transpose (the same matrix, by
symmetry) is in Fortran order, so LAPACK works on it without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .model import KktPoint, QpProblem

__all__ = [
    "SubsystemSolution",
    "FactorizationError",
    "solve_subsystem",
    "embed_point",
    "DENSE_THRESHOLD",
]

#: Sparse-stored Q[I,I] blocks up to this size are densified before
#: factorization; larger blocks go through SuperLU in the problem's reverse
#: Cuthill-McKee order, since SciPy ships no sparse Cholesky.
DENSE_THRESHOLD = 1024


class FactorizationError(RuntimeError):
    """The subsystem matrix could not be factorized (numerically indefinite)."""


@dataclass(frozen=True)
class SubsystemSolution:
    """Values on I and A for one subsystem solve: x_I and s_A."""

    x_I: np.ndarray
    s_A: np.ndarray


def _check_partition(n: int, I: np.ndarray, A: np.ndarray) -> None:
    if len(I) + len(A) != n:
        raise ValueError("I and A must partition {0..n-1}")
    both = np.concatenate((I, A))
    if both.min() < 0 or both.max() >= n:
        raise ValueError("index out of range")
    covered = np.zeros(n, dtype=bool)
    covered[both] = True
    if not covered.all():  # n indexes in range cover {0..n-1} only without repeats
        raise ValueError("I and A must partition {0..n-1}")


def solve_subsystem(problem: QpProblem, I, A) -> SubsystemSolution:
    """Solve Q[I,I] x_I = -g[I] by Cholesky and back out s_A.

    ``I`` and ``A`` must partition {0..n-1}, in any order; x_I and s_A
    follow the order of I and A as passed.  With I empty the solution is
    x_I = [] and s_A = g.  A sparse Q[I,I] larger than
    :data:`DENSE_THRESHOLD` (read at call time) goes through SuperLU
    instead; the first such solve orders Q and stores the order on the
    problem.  No counters are touched here — callers count solves.

    Raises :class:`FactorizationError` when the factorization fails or x_I
    or s_A comes out non-finite (an overflow on a nearly singular Q[I,I]);
    neither can happen in exact arithmetic for a positive definite Q.
    """
    I = np.asarray(I, dtype=np.int64)
    A = np.asarray(A, dtype=np.int64)
    _check_partition(problem.n, I, A)
    g = problem.g
    if len(I) == 0:
        return SubsystemSolution(np.empty(0), g[A].copy())

    Q = problem.Q
    if not problem.is_sparse:
        rows = np.take(Q, I, axis=0)  # Q[I,:]; by symmetry also Q[:,I]'
        x_I = _dense_solve(np.take(rows, I, axis=1), g[I])
        s_A = (x_I @ rows)[A] + g[A] if len(A) else np.empty(0)
    elif len(I) <= DENSE_THRESHOLD:
        x_I = _dense_solve(_csc_block(Q, I), g[I])
        x = np.zeros(problem.n)
        x[I] = x_I
        s_A = (Q @ x)[A] + g[A]
    else:
        order = np.argsort(_rcm_rank(problem)[I])
        J = I[order]  # I in the problem's fill-reducing order
        cols = Q[:, J]  # csc column slice, reused for both Q[J,J] and s_A
        r = cols.tocsr()[J]  # Q[J,J] row by row, indexes sorted; by symmetry its CSC
        y = _sparse_solve(sp.csc_array((r.data, r.indices, r.indptr), shape=r.shape), g[J])
        x_I = np.empty_like(y)
        x_I[order] = y
        s_A = (cols @ y)[A] + g[A] if len(A) else np.empty(0)
    return SubsystemSolution(x_I, _finite(s_A))


def _csc_block(Q, I: np.ndarray) -> np.ndarray:
    """Dense Fortran-ordered Q[I,I], scattered from the CSC arrays of the columns I."""
    m = len(I)
    pos = np.full(Q.shape[0], -1, dtype=np.int64)  # row index -> position in I
    pos[I] = np.arange(m)
    start = Q.indptr[I]
    lens = Q.indptr[I + 1] - start
    # Every stored entry of the columns I, column after column.
    k = np.arange(lens.sum()) + np.repeat(start - (np.cumsum(lens) - lens), lens)
    rows = pos[Q.indices[k]]
    keep = rows >= 0
    block = np.zeros(m * m)
    block[rows[keep] + np.repeat(np.arange(0, m * m, m), lens)[keep]] = Q.data[k[keep]]
    return block.reshape((m, m), order="F")


def _rcm_rank(problem: QpProblem) -> np.ndarray:
    """Each index's position in a reverse Cuthill-McKee order of Q, computed once."""
    rank = problem._rcm_rank
    if rank is None:
        # Imported on first use, so a run that never reaches SuperLU does
        # not load csgraph (about 1 MB of resident memory).
        from scipy.sparse import csgraph

        perm = csgraph.reverse_cuthill_mckee(problem.Q, symmetric_mode=True)
        rank = np.empty(problem.n, dtype=np.int64)
        rank[perm] = np.arange(problem.n)
        problem._rcm_rank = rank
    return rank


def _dense_solve(qii: np.ndarray, g_I: np.ndarray) -> np.ndarray:
    """Factorize the symmetric temporary ``qii`` in place and solve."""
    fortran = qii if qii.flags.f_contiguous else qii.T  # the same matrix
    try:
        c = sla.cho_factor(fortran, lower=True, overwrite_a=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise FactorizationError(str(exc)) from exc
    return _finite(sla.cho_solve(c, -g_I, check_finite=False))


def _sparse_solve(qii, g_I: np.ndarray) -> np.ndarray:
    """Factorize the CSC block ``qii`` in its given order, without pivoting, and solve."""
    try:
        lu = spla.splu(qii, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise FactorizationError(str(exc)) from exc
    return _finite(lu.solve(-g_I))


def _finite(v: np.ndarray) -> np.ndarray:
    if not np.isfinite(v).all():
        raise FactorizationError("the subsystem solve produced non-finite values")
    return v


def embed_point(n: int, I, A, sol: SubsystemSolution) -> KktPoint:
    """Scatter a subsystem solution into full-length vectors.

    x gets x_I on I and exact zeros on A; s gets s_A on A and exact zeros on
    I, so x's = 0 structurally.  x_I and s_A are read in the order of I and
    A as passed, the order :func:`solve_subsystem` returned them in.
    """
    I = np.asarray(I, dtype=np.int64)
    A = np.asarray(A, dtype=np.int64)
    if len(sol.x_I) != len(I) or len(sol.s_A) != len(A):
        raise ValueError("solution does not match the partition sizes")
    x = np.zeros(n)
    s = np.zeros(n)
    x[I] = sol.x_I
    s[A] = sol.s_A
    return KktPoint(x=x, s=s)
