"""Reduced KKT subsystem solves.

For a partition of {0..n-1} into an inactive set I and an active set A, the
candidate point fixes x_A = 0 and solves

    Q[I,I] x_I = -g[I],        s_A = Q[A,I] x_I + g[A],

with s_I = 0.  Q[I,I] is a principal submatrix of a positive definite matrix,
hence positive definite.  One call is one subsystem solve, the unit the
solvers' and the benchmark's ``solves`` count, whether Q[I,I] was factorized
afresh or its factor was updated.  A solve returns the pair (x_I, s_A), and
:func:`embed_point` scatters that pair into a full-length
:class:`~rasqp.model.KktPoint`.  I and A are taken in the order given, and
x_I and s_A follow that order.  They must hold integers (an empty list of any
dtype is empty).  A call without a ``factor`` argument, the public boundary,
checks that they partition {0..n-1} with one O(n) count of each index, which
rejects an overlap, a missing index and an index out of range.  A call with
one passes the kernel a run keeps for all its solves, and that run builds I
and A from its own mask, a partition by construction: the check is skipped.

The fresh kernel, ``_FreshCholesky``, factorizes Q[I,I] afresh on every
solve and gathers Q once, in one of three ways.  A sparse Q is read through
one entry map, whichever way follows: the stored entries of the block's
columns (of their parts on and below the diagonal, for the band below),
column after column, each given its row r in the block (-1 off it) beside
its column c, through a position map of the block's indexes.  The entries
off the block stay in the map until a kernel drops them.

* Dense Q: the row block Q[I,:], one contiguous copy of |I| rows.  Q[I,I]
  is its columns I and s_A is the full product x_I Q[I,:] + g read at the
  positions A.  That relies on Q being exactly symmetric in floating point,
  which :class:`~rasqp.model.QpProblem` guarantees by storing (Q + Q')/2:
  row i of Q equals column i bit for bit.
* Sparse Q with |I| <= 1024: the entries of the columns I are found by
  index arithmetic on Q's CSC arrays, and the map's entries with r >= 0
  are scattered straight into a dense Fortran-ordered Q[I,I]; s_A is
  (Q x + g)[A] with x zero on A.
* Sparse Q with a larger I, a block of more than 1024 rows: the block is
  read from Qe, Q in the problem's elimination order, by the same index
  arithmetic.  That order is chosen once per problem and cached on it with
  Qe: Q's own order when Q's bandwidth in it is no larger than in a reverse
  Cuthill-McKee order (a tie keeps Q's own, and Qe is Q itself), that RCM
  order otherwise (Qe is a copy of Q permuted into it, with sorted
  indexes).  The easy family is a band in its own order, which RCM widens;
  the medium family takes RCM.  The indexes I become their steps J in that
  order, sorted, and Qe[J,J], a principal submatrix in its natural order,
  is factorized on its diagonal (George & Liu, *Computer Solution of Large
  Sparse Positive Definite Systems*, 1981, ch. 4).  For a symmetric
  positive definite matrix, the Cholesky fill of a principal submatrix
  under the induced order lies inside the fill of the whole matrix
  restricted to I, so restricting the order never adds fill.  s is
  Qe x + g with x zero off J, read back in Q's order, so each s_i is summed
  over the columns in the elimination order.  The block is factorized in
  one of two ways, chosen from the block alone: let b be its bandwidth,
  the largest r - c of a stored entry.

  * A full band, whose lower triangle stores at least a tenth of the
    |I|(b + 1) entries of its lower band: the band Cholesky, LAPACK
    ``pbtrf``/``pbtrs`` on the band, O(|I| b^2) work.  Only each column's
    entries on and below its diagonal are read, from where each column's
    lower part starts in Qe's CSC arrays (cached with the order), and
    scattered into LAPACK's lower band storage through one flat index.
    The easy family's blocks are such bands.
  * Any other block: SuperLU on the CSC block, read from its whole
    columns.  SciPy ships no sparse Cholesky, and letting SuperLU compute
    a COLAMD ordering for every block costs more than the factorization
    itself.  Q[I,I] is positive definite, so Gaussian elimination on its
    diagonal is stable without pivoting: SuperLU runs in symmetric mode
    with the natural column order and a diagonal pivot threshold of 0, so
    it keeps the given order and pivots on the diagonal.  Qe's indexes are
    sorted and J is, so the rows of each column of the block already
    ascend: it reaches SuperLU as sorted CSC, with nothing to convert or
    sort.

The densified Q[I,I] is a temporary, so the Cholesky factorizes it in
place, handed whichever of the block and its transpose (the same matrix, by
symmetry) is in Fortran order, so LAPACK works on it without a copy.  The
fresh dense path and the kept factor below both call LAPACK ``potrf`` and
``potrs`` directly, through one binding: on blocks of a few dozen rows,
SciPy's ``cho_factor``/``cho_solve`` wrappers cost more than the LAPACK work
they wrap.

A block is positive definite iff every pivot of its elimination on the
diagonal is positive, and each kernel gives that one verdict itself, at
factor time: it raises :class:`FactorizationError` whose ``pivot`` is the
1-based step whose pivot is not positive.  That step is ``potrf``'s or
``pbtrf``'s ``info``, or SuperLU's first pivot that is moved off the
diagonal or is not positive, or |I| when SuperLU finds the block exactly
singular without naming a step.  So which kernel factors a block, a choice
of speed alone, never decides whether a run goes on.  A solve whose
full-length s = Q x + g comes out non-finite raises it too, with ``pivot``
``None``.  On the fresh sparse paths that one check also catches a
non-finite x_I, since after a successful factor Q[i,i] > 0 and x_i Q[i,i]
is a term of s_i.  The fresh dense path and the kept factor below check x_I
on its own first, because their product may be with a dense Q, which NumPy
would warn about (inf * 0 is invalid).
:func:`~rasqp.model.validate_problem` factors the whole of Q with the same
kernels, a sparse Q through ``_factor_sparse`` on every step of the
problem's elimination order, which hands a kernel the band or block a
solve of all of Q would, and reports the same step.

A solver that moves one index per solve keeps an ``_UpdatedCholesky``
instead (``fletcher_solve`` does).  The factor holds the Cholesky
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
Any other change of I and a new pivot that is not positive in floating
point refactor Q[I,I], and a sparse Q[I,I] of more than 1024 rows goes
to the fresh kernel, which keeps the sparse kernels, so the factor needs no
option to switch.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .model import KktPoint, QpProblem

__all__ = [
    "FactorizationError",
    "solve_subsystem",
    "embed_point",
]

_potrf, _potrs, _trtrs, _pbtrf, _pbtrs = sla.get_lapack_funcs(
    ("potrf", "potrs", "trtrs", "pbtrf", "pbtrs"), dtype=np.float64)

# Sparse-stored Q[I,I] blocks of at most this many rows are densified before
# factorization; larger blocks are factorized in the problem's elimination
# order, its own when no wider than RCM's (reverse Cuthill-McKee), by a band
# Cholesky or by SuperLU, since SciPy ships no sparse Cholesky.  Read at call
# time.
_DENSE_MAX = 1024

# A sparse block takes the band Cholesky when its lower triangle stores at
# least this share of the entries of its lower band, SuperLU otherwise, so
# the band storage never exceeds ten times the entries stored.  Holey bands,
# such as the medium family's at ~2%, keep SuperLU, which skips the holes.
# Read at call time.
_BAND_FILL = 0.1


class FactorizationError(RuntimeError):
    """The subsystem matrix is not positive definite in floating point.

    ``pivot`` is the 1-based elimination step whose pivot is not positive,
    or ``None`` when no step is named (a solve that came out non-finite).
    """

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


def _indexes(v, n: int | None = None) -> np.ndarray:
    """``v`` as int64 indexes, rejecting a nonempty I or A of another kind
    and, given ``n``, an index outside [0, n)."""
    v = np.asarray(v)
    if v.size and v.dtype.kind not in "iu":  # a float would truncate, a bool read as 0/1
        raise ValueError(f"I and A must hold integer indexes, not {v.dtype}")
    v = v.astype(np.int64, copy=False)
    if n is not None and v.size and v.view(np.uint64).max() >= n:  # a negative reads as huge
        raise ValueError("I and A index out of range")
    return v


def _check_partition(n: int, I: np.ndarray, A: np.ndarray) -> None:
    if len(I) + len(A) != n:
        raise ValueError("I and A must partition {0..n-1}")
    both = _indexes(np.concatenate((I, A)), n)  # in range before bincount sizes by it
    # n indexes in range cover {0..n-1} only without repeats.
    if np.count_nonzero(np.bincount(both, minlength=n)) != n:
        raise ValueError("I and A must partition {0..n-1}")


def solve_subsystem(problem: QpProblem, I, A, *, factor=None) -> tuple[np.ndarray, np.ndarray]:
    """Solve Q[I,I] x_I = -g[I] by Cholesky and back out s_A; return (x_I, s_A).

    ``I`` and ``A`` must hold integers (``ValueError`` otherwise); x_I and
    s_A follow the order of I and A as passed.  Without a ``factor`` they
    must also partition {0..n-1}, in any order, which is checked here
    (``ValueError`` otherwise).  With I empty the solution is x_I = [] and
    s_A = g.  A sparse Q[I,I] of more than 1024 rows is factorized instead
    in the problem's elimination order, its own when no wider than RCM's
    (reverse Cuthill-McKee), by a band Cholesky when it is a full band in
    that order, and by SuperLU otherwise, read from Q kept in that order;
    the first such solve chooses the order and stores it on the problem,
    with a copy of Q when RCM's order wins.  No counters are touched
    here — callers count solves.

    ``factor`` is the private kernel a run keeps for all its solves:
    ``_FreshCholesky``, which factorizes afresh each time, or an
    ``_UpdatedCholesky``, which is brought to the new I by one append or one
    delete where that is the change and refactored otherwise (a sparse
    block of more than 1024 rows still goes through the sparse kernels and
    makes the next solve refactor).  Its I and A come from the run's own
    mask, a partition by construction, so they are not checked again.

    Raises :class:`FactorizationError` when Q[I,I] is not positive definite
    in floating point, whichever kernel factors it, with ``pivot`` the failed
    step in the kernel's order, or when the solve comes out non-finite (an
    overflow on a nearly singular Q[I,I]), with ``pivot`` ``None``; neither
    can happen in exact arithmetic for a positive definite Q.
    """
    I = _indexes(I)
    A = _indexes(A)
    if factor is None:
        _check_partition(problem.n, I, A)
        factor = _FreshCholesky
    return factor.solve(problem, I, A)


class _FreshCholesky:
    """The kernel that factorizes Q[I,I] afresh on every solve, in one of the
    three ways of the module docstring, and keeps nothing between calls
    (the problem caches its elimination order)."""

    @staticmethod
    def solve(problem: QpProblem, I: np.ndarray, A: np.ndarray):
        """x_I and s_A for a partition (I, A), in the order they are given."""
        g = problem.g
        if len(I) == 0:
            return np.empty(0), g[A].copy()
        Q = problem.Q
        if not problem.is_sparse:
            rows = Q.take(I, axis=0)  # Q[I,:]; by symmetry also Q[:,I]'
            # x_I is checked before the dense product, which NumPy would
            # warn about (inf * 0), and s after it, for an overflow.
            x_I = _finite(_dense_solve(rows.take(I, axis=1), g[I]))
            s = x_I @ rows + g
        elif len(I) <= _DENSE_MAX:
            x_I = _dense_solve(_csc_block(Q, I), g[I])
            x = np.zeros(problem.n)
            x[I] = x_I
            s = Q @ x + g
        else:
            rank, order, Qe, _ = _elimination_order(problem)
            at = rank.take(I)  # I's places in the elimination order
            J = np.sort(at)
            x = np.zeros(problem.n)  # x in the elimination order, zero off J
            x[J] = _factor_sparse(problem, J)(-g.take(order.take(J)))
            x_I = x.take(at)
            s = (Qe @ x).take(rank) + g
        return x_I, _finite(s)[A]


class _UpdatedCholesky:
    """The Cholesky factor of Q[I,I] for one problem, kept in step with a
    one-index change of I (see the module docstring).

    ``L`` is the factor of Q[order,order], with ``order`` the indexes of I
    in the order they joined; it is contiguous and in Fortran order, with
    its upper triangle exactly zero.  ``pos`` maps an index to its place in
    ``order`` (-1 off it, ``None`` while there is no factor).  Nothing else
    of Q is kept: an append reads row j of a dense Q or column j of a sparse
    one (the same vector, by symmetry), and s is Q x + g with x zero off I,
    as on the fresh sparse path.  LAPACK is called directly, as on the
    fresh dense path and for the same reason: at these sizes SciPy's
    wrappers cost about as much as the LAPACK work.

    ``qx`` is the product Q x of the last solve, with x zero off I, so a
    caller can read x'Qx without a second product; it is ``None`` before
    the first solve and after ``clear``.
    """

    def __init__(self):
        self.clear()  # no factor until the first solve

    def clear(self) -> None:
        """Forget the factor and its product, so the next solve refactors."""
        self.pos = None
        self.qx = None

    def solve(self, problem: QpProblem, I: np.ndarray, A: np.ndarray):
        """x_I and s_A for a partition (I, A), in the order they are given."""
        if problem.is_sparse and len(I) > _DENSE_MAX:
            self.clear()  # the sparse kernels; the next solve refactors
            return _FreshCholesky.solve(problem, I, A)
        if not self._update(problem, I):
            self._refactor(problem, I)
        g = problem.g
        if len(self.order) == 0:
            self.qx = np.zeros(problem.n)  # x = 0
            return np.empty(0), g[A].copy()
        y = _finite(_potrs(self.L, -g[self.order], lower=1)[0])  # before Q x, as on the fresh path
        x = np.zeros(problem.n)
        x[self.order] = y
        self.qx = problem.Q @ x
        return y[self.pos[I]], _finite(self.qx + g)[A]

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
            Q = problem.Q  # dense Q[I,I] as on the fresh path; symmetric, so .T is itself
            block = (_csc_block(Q, I) if problem.is_sparse
                     else Q.take(I, axis=0).take(I, axis=1).T)
            L = _cholesky(block, clean=1)
        self.L = L
        self.order = I.copy()
        # int64, as NumPy indexes with: each solve indexes through it, and
        # an int32 map measured about 2% slower on hard n=800.
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
    k, r, c = _column_entries(Q, I, Q.indptr[I])
    keep = np.flatnonzero(r >= 0)  # positions, not the mask, as in _band
    block = np.zeros(m * m)  # Q[r, c] at r + m c, in int64: it may pass int32
    block[c.take(keep) * np.int64(m) + r.take(keep)] = Q.data.take(k.take(keep))
    return block.reshape((m, m), order="F")


def _entry_map(n: int, J: np.ndarray, counts: np.ndarray, rows: np.ndarray):
    """Each stored entry's block row r (-1 off J) and block column c, int32.

    The entries are those of the columns J of an n-row matrix, column after
    column: ``counts[c]`` of them in column J[c], with their rows in Q in
    ``rows``.  Entries off J keep their place, so r and c stay aligned with
    ``rows`` and the caller drops them where it needs to.
    """
    pos = np.full(n, -1, dtype=np.int32)
    pos[J] = np.arange(len(J), dtype=np.int32)
    return pos.take(rows), np.repeat(np.arange(len(J), dtype=np.int32), counts)


def _column_entries(Q, J: np.ndarray, start: np.ndarray):
    """The stored entries of the columns J of the CSC ``Q``, column after
    column, from position ``start[c]`` of column J[c] in its arrays on: each
    entry's position k in those arrays and its entry map (r, c)."""
    lens = Q.indptr[J + 1] - start
    k = np.arange(lens.sum()) + np.repeat(start - (np.cumsum(lens) - lens), lens)
    return (k, *_entry_map(Q.shape[0], J, lens, Q.indices.take(k)))


def _elimination_order(problem: QpProblem):
    """The problem's elimination order, computed once and cached on it:
    Q's own order when its bandwidth is no wider than under reverse
    Cuthill-McKee (a tie keeps Q's own), that order otherwise.  Returns
    (rank, order, Qe, start): each index's step in the order, the index at
    each step, Q in that order (Q itself in its own order, else a CSC copy
    with sorted indexes) and where each column's entries on and below the
    diagonal start in ``Qe.indices``."""
    cached = problem._elimination
    if cached is None:
        # Imported on first use, so a run that never factorizes a sparse
        # block of more than 1024 rows does not load csgraph (about 1 MB of
        # resident memory).
        from scipy.sparse import csgraph

        Q, n = problem.Q, problem.n
        rows = Q.indices
        cols = np.repeat(np.arange(n, dtype=rows.dtype), np.diff(Q.indptr))
        order = csgraph.reverse_cuthill_mckee(Q, symmetric_mode=True)
        rank = np.empty(n, dtype=rows.dtype)
        rank[order] = np.arange(n)
        r, c = rank.take(rows), rank.take(cols)  # each entry's place in RCM's order
        # Q is symmetric, so its largest r - c is its bandwidth.
        if (rows - cols).max(initial=0) <= (r - c).max(initial=0):
            rank = order = np.arange(n)
            r, c, Qe = rows, cols, Q
        else:
            Qe = sp.csc_array((Q.data, r, Q.indptr), shape=Q.shape)[:, order]
            Qe.sort_indices()
        above = np.bincount(c[r < c], minlength=n)  # each column's entries above the diagonal
        start = (Qe.indptr[:-1] + above).astype(Qe.indptr.dtype)
        # rank and order in int64, as NumPy indexes with: a block's steps J,
        # taken through them, index on every solve, and int32 steps
        # measured about 2% slower per easy n=3000 block.
        problem._elimination = cached = (rank.astype(np.int64, copy=False),
                                         order.astype(np.int64, copy=False), Qe, start)
    return cached


def _dense_solve(qii: np.ndarray, g_I: np.ndarray) -> np.ndarray:
    """Factorize the symmetric temporary ``qii`` in place and solve."""
    fortran = qii if qii.flags.f_contiguous else qii.T  # the same matrix
    return _potrs(_cholesky(fortran, clean=0), -g_I, lower=1)[0]


def _cholesky(block: np.ndarray, clean: int) -> np.ndarray:
    """Lower Cholesky factor of a symmetric ``block``, in place when it is in
    Fortran order; ``clean`` zeroes the upper triangle, which ``potrs`` does
    not read."""
    c, info = _potrf(block, lower=1, clean=clean, overwrite_a=1)
    if info:
        raise _failure("potrf", info)
    return c


def _failure(routine: str, info: int) -> Exception:
    """The error for a nonzero LAPACK Cholesky ``info``: > 0 is the 1-based
    step whose pivot is not positive, < 0 an illegal argument."""
    if info < 0:
        return ValueError(f"illegal value passed to d{routine} (argument {-info})")
    return FactorizationError(f"Cholesky factorization failed ({routine} info {info})", info)


def _factor_sparse(problem: QpProblem, J: np.ndarray):
    """Factor the block Qe[J,J] of Q in the problem's elimination order, for
    sorted steps J, eliminated on the diagonal in that order; return its
    solve function: the band Cholesky's when the block is a full band (see
    :func:`_band`), read from the entries of its columns on and below the
    diagonal, SuperLU's otherwise, read from its whole columns.  The choice
    reads the block alone."""
    _, _, Qe, start = _elimination_order(problem)

    def read(start):  # the entry map of the columns J from start on, and their values
        k, r, c = _column_entries(Qe, J, start)
        return r, c, lambda p: Qe.data.take(k.take(p))

    return (_band(len(J), *read(start.take(J)))
            or _superlu(len(J), *read(Qe.indptr.take(J))))  # SuperLU needs both triangles


def _band(m: int, r: np.ndarray, below: np.ndarray, values):
    """The band Cholesky solve function of an m-row block, from its entry
    map (r, c), with c passed as ``below`` and overwritten, and ``values(p)``
    the values of the entries at positions p; ``None`` when the band is
    holey.

    The block's bandwidth b is the largest r - c.  The band is full when its
    lower triangle stores at least ``_BAND_FILL`` of the m(b + 1) entries
    of its lower band; entries with r < c, off the block or above its
    diagonal, are dropped.
    """
    np.subtract(r, below, out=below)  # r - c, negative off the block where r = -1
    b = int(below.max(initial=0))
    lower = below >= 0
    if np.count_nonzero(lower) / (m * (b + 1)) < _BAND_FILL:
        return None
    # Positions, not the mask: indexing by so irregular a mask costs several
    # times more.
    lower = np.flatnonzero(lower)
    below = below.take(lower)
    # LAPACK lower band storage, ab[r-c, c] = Q[r,c], at flat index r-c + c(b+1),
    # in int64: it may pass int32, and NumPy scatters through int64 faster.
    ab = np.zeros(m * (b + 1))
    ab[(r.take(lower) - below) * np.int64(b + 1) + below] = values(lower)
    factor, info = _pbtrf(ab.reshape((b + 1, m), order="F"), lower=1, overwrite_ab=1)
    if info:
        raise _failure("pbtrf", info)
    return lambda rhs: _pbtrs(factor, rhs, lower=1)[0]


def _superlu(m: int, r: np.ndarray, c: np.ndarray, values):
    """SuperLU solve function, factored in the given order and without
    pivoting, of the symmetric m-row block from its entry map (r, c), with
    r = -1 off the block and ascending within each column, and ``values(p)``
    the values of the entries at positions p."""
    # Imported on first use, like csgraph: a run that never reaches SuperLU
    # does not load scipy.sparse.linalg.  splu is looked up on the module at
    # each call, so a wrapper set on scipy.sparse.linalg.splu sees it.
    import scipy.sparse.linalg as spla

    keep = np.flatnonzero(r >= 0)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(c.take(keep), minlength=m), out=indptr[1:])
    # Sorted CSC already, so SuperLU has nothing to convert or sort.
    block = sp.csc_array((values(keep), r.take(keep), indptr), shape=(m, m))
    try:
        lu = spla.splu(block, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # exactly singular; SuperLU names no step
        raise FactorizationError(str(exc), m) from exc
    # A moved pivot or one that is not > 0 (NaN included) fails.
    bad = np.flatnonzero((lu.perm_r != np.arange(m)) | ~(lu.U.diagonal() > 0.0))
    if len(bad):
        step = int(bad[0]) + 1
        raise FactorizationError(f"SuperLU factorization failed (step {step})", step)
    return lu.solve


def _finite(v: np.ndarray) -> np.ndarray:
    """``v``, once every entry is checked to be finite (see the module
    docstring for which vectors a solve checks)."""
    if np.count_nonzero(np.isfinite(v)) != v.size:
        raise FactorizationError("the subsystem solve produced non-finite values")
    return v


def embed_point(n: int, I, A, x_I, s_A) -> KktPoint:
    """Scatter a subsystem solution (x_I, s_A) into full-length vectors.

    x gets x_I on I and exact zeros on A; s gets s_A on A and exact zeros on
    I, so x's = 0 structurally.  x_I and s_A are the pair
    :func:`solve_subsystem` returns, read in the order of I and A as passed.
    A nonempty I or A that does not hold integers, and an x_I or s_A whose
    length differs from that of I or A, raise ``ValueError``.

    I and A must partition {0..n-1}, which is not checked here: the loop's
    I and A come from its mask, and :func:`solve_subsystem` without a
    ``factor`` checks them.  Other sets give a wrong point without an error
    (a negative index wraps around, and an index in both makes x's != 0).
    """
    I = _indexes(I)
    A = _indexes(A)
    if len(x_I) != len(I) or len(s_A) != len(A):
        raise ValueError("solution does not match the partition sizes")
    x = np.zeros(n)
    s = np.zeros(n)
    x[I] = x_I
    s[A] = s_A
    return KktPoint(x=x, s=s)
