"""Reduced KKT subsystem solves.

For a partition of {0..n-1} into an inactive set I and an active set A, the
candidate point fixes x_A = 0 and solves

    Q[I,I] x_I = -g[I],        s_A = Q[A,I] x_I + g[A],

with s_I = 0.  Q[I,I] is a principal submatrix of a positive definite matrix,
hence positive definite.  One call is one subsystem solve, the unit the
solvers' and the benchmark's ``solves`` count, whether Q[I,I] was factorized
afresh or its factor was updated.  I and A are taken in the order given, and
x_I and s_A follow that order.  They must hold integers (an empty list of any
dtype is empty), and are checked to partition {0..n-1} with one O(n) count of
each index, which rejects an overlap, a missing index and an index out of
range.

Without a ``factor`` argument each solve factorizes Q[I,I] afresh and
gathers Q once, in one of three ways.

* Dense Q: the row block Q[I,:], one contiguous copy of |I| rows.  Q[I,I]
  is its columns I and s_A is the full product x_I Q[I,:] + g read at the
  positions A.  That relies on Q being exactly symmetric in floating point,
  which :class:`~rasqp.model.QpProblem` guarantees by storing (Q + Q')/2:
  row i of Q equals column i bit for bit.
* Sparse Q with |I| <= :data:`DENSE_THRESHOLD`: the stored entries of the
  columns I are scattered straight into a dense Fortran-ordered Q[I,I]
  through a position map of I, and s_A is (Q x + g)[A] with x zero on A.
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

A solver that moves one index per solve passes a factor it keeps between
calls instead (``fletcher_solve`` does).  The factor holds the Cholesky
factor L of Q[I,I], with I in the order its indexes joined, and nothing
else of Q.  When I gains one index j, L gains the row
(L^{-1} Q[I,j], sqrt(Q[j,j] - |L^{-1} Q[I,j]|^2)); when I loses the index
at position p, L loses row and column p and its trailing block takes the
rank-one update with the old column below the diagonal, as the QR of that
block's transpose with the column appended as a row (Gill, Golub, Murray &
Saunders, "Methods for modifying matrix factorizations", Math. Comp. 28,
1974).  That costs O(|I|^2) instead of a gather and an O(|I|^3) factor;
s is then Q x + g with x zero off I, for a dense Q as for a sparse one,
and the factor keeps that Q x, from which the caller reads x'Qx.
Any other change of I, a new pivot that is not positive in floating point
and a sparse Q[I,I] above :data:`DENSE_THRESHOLD` (which keeps SuperLU)
fall back to the fresh path, so the factor needs no option to switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .model import KktPoint, QpProblem

__all__ = [
    "SubsystemSolution",
    "FactorizationError",
    "solve_subsystem",
    "embed_point",
    "DENSE_THRESHOLD",
]

_potrf, _potrs, _trtrs = sla.get_lapack_funcs(("potrf", "potrs", "trtrs"), dtype=np.float64)

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


def _indexes(v) -> np.ndarray:
    """``v`` as an int64 index array, rejecting a nonempty one of another kind."""
    v = np.asarray(v)
    if v.size and v.dtype.kind not in "iu":  # a float would truncate, a bool read as 0/1
        raise ValueError(f"I and A must hold integer indexes, not {v.dtype}")
    return v.astype(np.int64, copy=False)


def _check_partition(n: int, I: np.ndarray, A: np.ndarray) -> None:
    if len(I) + len(A) != n:
        raise ValueError("I and A must partition {0..n-1}")
    both = np.concatenate((I, A))
    # Read as unsigned, a negative index is beyond n too, so one max rejects
    # both before bincount sizes its output by the largest index.
    if both.view(np.uint64).max() >= n:
        raise ValueError("index out of range")
    # n indexes in range cover {0..n-1} only without repeats.
    if np.count_nonzero(np.bincount(both, minlength=n)) != n:
        raise ValueError("I and A must partition {0..n-1}")


def solve_subsystem(problem: QpProblem, I, A, *, factor=None) -> SubsystemSolution:
    """Solve Q[I,I] x_I = -g[I] by Cholesky and back out s_A.

    ``I`` and ``A`` must hold integers and partition {0..n-1}, in any order
    (``ValueError`` otherwise); x_I and s_A follow the order of I and A as
    passed.  With I empty the solution is x_I = [] and s_A = g.  A sparse
    Q[I,I] larger than :data:`DENSE_THRESHOLD` (read at call time) goes
    through SuperLU instead; the first such solve orders Q and stores the
    order on the problem.  No counters are touched here — callers count
    solves.

    ``factor``, a private ``_UpdatedCholesky`` the caller keeps between
    calls, is brought to the new I by one append or one delete where that is
    the change, and refactored otherwise; a sparse block above the threshold
    still goes through SuperLU and makes the next solve refactor.

    Raises :class:`FactorizationError` when the factorization fails or x_I
    or s_A comes out non-finite (an overflow on a nearly singular Q[I,I]);
    neither can happen in exact arithmetic for a positive definite Q.
    """
    I = _indexes(I)
    A = _indexes(A)
    _check_partition(problem.n, I, A)
    g = problem.g
    if factor is not None:
        if not problem.is_sparse or len(I) <= DENSE_THRESHOLD:
            x_I, s_A = factor.solve(problem, I, A)
            return SubsystemSolution(x_I, _finite(s_A))
        factor.clear()  # SuperLU below; the next solve refactors
    if len(I) == 0:
        return SubsystemSolution(np.empty(0), g[A].copy())

    Q = problem.Q
    if not problem.is_sparse:
        rows = Q.take(I, axis=0)  # Q[I,:]; by symmetry also Q[:,I]'
        x_I = _dense_solve(rows.take(I, axis=1), g[I])
        s_A = (x_I @ rows + g)[A]
    elif len(I) <= DENSE_THRESHOLD:
        x_I = _dense_solve(_csc_block(Q, I), g[I])
        x = np.zeros(problem.n)
        x[I] = x_I
        s_A = (Q @ x + g)[A]
    else:
        order = np.argsort(_rcm_rank(problem)[I])
        J = I[order]  # I in the problem's fill-reducing order
        cols = Q[:, J].tocsr()  # the columns J row by row, reused for Q[J,J] and s_A
        r = cols[J]  # Q[J,J] row by row, indexes sorted; by symmetry its CSC
        y = _sparse_solve(sp.csc_array((r.data, r.indices, r.indptr), shape=r.shape), g[J])
        x_I = np.empty_like(y)
        x_I[order] = y
        s_A = (cols @ y + g)[A]
    return SubsystemSolution(x_I, _finite(s_A))


class _UpdatedCholesky:
    """The Cholesky factor of Q[I,I] for one problem, kept in step with a
    one-index change of I (see the module docstring).

    ``L`` is the factor of Q[order,order], with ``order`` the indexes of I
    in the order they joined; it is contiguous and in Fortran order, with
    its upper triangle exactly zero.  ``pos`` maps an index to its place in
    ``order`` (-1 off it, ``None`` while there is no factor).  Nothing else
    of Q is kept: an append reads row j of a dense Q or column j of a sparse
    one (the same vector, by symmetry), and s is Q x + g with x zero off I,
    as on the fresh sparse path.  LAPACK is called directly, since at these
    sizes SciPy's wrappers cost about as much as the update.

    ``qx`` is the product Q x of the last solve, with x zero off I, so a
    caller can read x'Qx without a second product; it is ``None`` before
    the first solve and after ``clear``.
    """

    def __init__(self):
        self.pos = None  # no factor until the first solve
        self.qx = None

    def clear(self) -> None:
        """Forget the factor and its product, so the next solve refactors."""
        self.pos = None
        self.qx = None

    def solve(self, problem: QpProblem, I: np.ndarray, A: np.ndarray):
        """x_I and s_A for a partition (I, A), in the order they are given."""
        if not self._update(problem, I):
            self._refactor(problem, I)
        g = problem.g
        if len(self.order) == 0:
            self.qx = np.zeros(problem.n)  # x = 0
            return np.empty(0), g[A].copy()
        y = _finite(_potrs(self.L, -g[self.order], lower=1)[0])
        x = np.zeros(problem.n)
        x[self.order] = y
        self.qx = problem.Q @ x
        return y[self.pos[I]], (self.qx + g)[A]

    def _update(self, problem: QpProblem, I: np.ndarray) -> bool:
        """Bring the factor to I by one append or one delete, if that is the change."""
        if self.pos is None:
            return False
        m = len(self.order)
        if len(I) == m + 1:
            new = I[self.pos[I] < 0]
            return len(new) == 1 and self._append(problem, int(new[0]))
        if len(I) == m - 1:
            kept = self.pos[I]
            if (kept >= 0).all():
                gone = np.ones(m, dtype=bool)
                gone[kept] = False
                self._delete(int(np.flatnonzero(gone)[0]))
                return True
        return False

    def _refactor(self, problem: QpProblem, I: np.ndarray) -> None:
        m = len(I)
        self.pos = None  # no factor until this one succeeds
        L = np.zeros((0, 0), order="F")
        if m:
            # A symmetric C-ordered Q[I,I] read in Fortran order is itself.
            Q = problem.Q
            block = _csc_block(Q, I) if problem.is_sparse else Q[I[:, None], I].T
            L, info = _potrf(block, lower=1, clean=1, overwrite_a=1)
            if info != 0:
                raise FactorizationError(f"Cholesky factorization failed (potrf info {info})")
        self.L = L
        self.order = I.copy()
        self.pos = np.full(problem.n, -1, dtype=np.int64)
        self.pos[I] = np.arange(m)

    def _append(self, problem: QpProblem, j: int) -> bool:
        m = len(self.order)
        Q = problem.Q
        if problem.is_sparse:  # column j, which is row j by symmetry
            row = np.zeros(problem.n)
            span = slice(Q.indptr[j], Q.indptr[j + 1])
            row[Q.indices[span]] = Q.data[span]
        else:
            row = Q[j]
        l = _trtrs(self.L, row[self.order], lower=1)[0] if m else np.empty(0)
        d2 = row[j] - l @ l
        if not 0.0 < d2 < np.inf:  # not positive in floating point, or nan
            return False
        L = np.zeros((m + 1, m + 1), order="F")
        L[:m, :m] = self.L
        L[m, :m] = l
        L[m, m] = np.sqrt(d2)
        self.L = L
        self.order = np.concatenate((self.order, [j]))
        self.pos[j] = m
        return True

    def _delete(self, p: int) -> None:
        L = self.L
        m = len(L)
        k = m - p - 1  # size of the trailing block
        out = np.zeros((m - 1, m - 1), order="F")
        out[:p, :p] = L[:p, :p]
        out[p:, :p] = L[p + 1:, :p]
        if k:
            # L22 L22' + l l' = R'R for the R of the QR of [L22'; l'].
            _, R = sla.qr_insert(np.eye(k), L[p + 1:, p + 1:].T, L[p + 1:, p], k,
                                 which="row", overwrite_qru=True, check_finite=False)
            R = R[:k]
            R[np.diagonal(R) < 0.0] *= -1.0  # qr_insert does not promise a positive diagonal
            out[p:, p:] = R.T
        self.L = out
        self.pos[self.order[p]] = -1
        self.pos[self.order[p + 1:]] -= 1
        self.order = np.delete(self.order, p)


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
    # Imported on first use, like csgraph: a run that never reaches SuperLU
    # does not load scipy.sparse.linalg.  splu is looked up on the module at
    # each call, so a wrapper set on scipy.sparse.linalg.splu sees it.
    import scipy.sparse.linalg as spla

    try:
        lu = spla.splu(qii, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise FactorizationError(str(exc)) from exc
    return _finite(lu.solve(-g_I))


def _finite(v: np.ndarray) -> np.ndarray:
    if np.count_nonzero(np.isfinite(v)) != v.size:
        raise FactorizationError("the subsystem solve produced non-finite values")
    return v


def embed_point(n: int, I, A, sol: SubsystemSolution) -> KktPoint:
    """Scatter a subsystem solution into full-length vectors.

    x gets x_I on I and exact zeros on A; s gets s_A on A and exact zeros on
    I, so x's = 0 structurally.  x_I and s_A are read in the order of I and
    A as passed, the order :func:`solve_subsystem` returned them in.  A
    nonempty I or A that does not hold integers raises ``ValueError``, as in
    :func:`solve_subsystem`.
    """
    I = _indexes(I)
    A = _indexes(A)
    if len(sol.x_I) != len(I) or len(sol.s_A) != len(A):
        raise ValueError("solution does not match the partition sizes")
    x = np.zeros(n)
    s = np.zeros(n)
    x[I] = sol.x_I
    s[A] = sol.s_A
    return KktPoint(x=x, s=s)
