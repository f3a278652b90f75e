"""Seeded generators for the three benchmark problem families.

* easy — sparse banded Q = P P' + eps*I with P a band-restricted sparse
  normal matrix; condition number is steered indirectly through eps.
* medium — sparse symmetric matrix with a prescribed logarithmic spectrum,
  built by random Givens rotations of a diagonal matrix until a target
  density is reached (the classical way to manufacture a sparse matrix with
  exact condition number).
* hard — dense Q = O D O' with O a random orthogonal factor and D a
  geometric spectrum from 1 to cond; g uniform on [-0.5, 0.5].

Identical (family, parameters, seed) reproduce the same problem
bit-for-bit on one NumPy build at one BLAS thread count (the hard family's
QR factor depends on both).  Draw order within each generator is fixed and
documented in the respective docstring.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp
from numpy.linalg import lapack_lite

from .model import QpProblem, _require_int, _require_real

__all__ = [
    "GeneratorSpec",
    "DensityUnreachableWarning",
    "gen_easy",
    "gen_medium",
    "gen_hard",
    "generate",
]

#: Bandwidth of the lower-triangular band kept in the easy-family factor.
EASY_BANDWIDTH = 100

#: gen_medium's rotation budget, in rotations per target nonzero; read at call time.
_ROTATION_BUDGET_FACTOR = 20.0


class DensityUnreachableWarning(UserWarning):
    """The rotation budget ran out before the target density was reached."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters identifying one generated problem.

    ``epsilon`` applies to the easy family only, ``density`` to medium only,
    ``cond`` to medium and hard.  The values go through the same range
    check as the generator's arguments, so a bad value fails here, before
    any plan that holds the spec runs; ``seed`` must be an integer >= 0.
    """

    family: str
    n: int
    seed: int
    epsilon: float | None = None
    density: float | None = None
    cond: float | None = None

    def __post_init__(self):
        fam = self.family
        if fam not in _FAMILIES:
            raise ValueError(f"unknown family {fam!r}")
        axes = _FAMILIES[fam][1]
        for name in _AXES:
            value = getattr(self, name)
            if name in axes:
                if value is None:
                    raise ValueError(f"{fam} family requires {name}")
            elif value is not None:
                raise ValueError(f"{name} does not apply to the {fam} family")
        _check_parameters(fam, self.n, self.seed, **{name: getattr(self, name) for name in axes})


def _check_parameters(family: str, n: int, seed: int, **axes) -> None:
    """Raise ValueError naming the first generator parameter out of range.

    n an integer, >= 1 for the easy family and >= 2 otherwise; seed an
    integer >= 0; each of ``axes`` (the family's) a number in its
    :data:`_RANGES` interval.
    """
    _require_int(n, "n", 1 if family == "easy" else 2)
    _require_int(seed, "seed")
    for name, value in axes.items():
        _require_real(value, name, *_RANGES[name])


def generate(spec: GeneratorSpec) -> QpProblem:
    """Dispatch a :class:`GeneratorSpec` to its family generator."""
    generator, axes = _FAMILIES[spec.family]
    return generator(spec.n, *(getattr(spec, name) for name in axes), spec.seed)


def gen_easy(n: int, epsilon: float, seed: int) -> QpProblem:
    """Sparse banded family: Q = P P' + epsilon * I.

    P is the identity plus a sparse lower band: each cell (i, j) with
    0 <= i - j <= 100 (the band covers the whole triangle when n <= 101)
    is kept independently with probability 0.1 and holds a standard normal
    value.  epsilon > 0 guarantees positive definiteness and sets the
    smallest eigenvalue scale.  g is standard normal.  Draw order: one
    uniform per band cell, kept when below 0.1, diagonal by diagonal from
    the main diagonal outward with ascending column inside each; then one
    normal per kept cell in the same order; then g.  Only the band is
    drawn, so generation costs O(n * bandwidth) time and memory.
    """
    _check_parameters("easy", n, seed, epsilon=epsilon)
    rng = np.random.default_rng(seed)
    lengths = n - np.arange(min(EASY_BANDWIDTH, n - 1) + 1)  # diagonal d holds n - d cells
    starts = np.concatenate(([0], np.cumsum(lengths)))
    kept = np.flatnonzero(rng.random(starts[-1]) < 0.1)  # positions in the draw order
    d = np.searchsorted(starts, kept, side="right") - 1
    col = (kept - starts[d]).astype(np.int32)  # int32 indexes, so Q's stay int32
    row = col + d.astype(np.int32)
    diag = np.arange(n, dtype=np.int32)
    P = sp.csr_array(
        (np.concatenate((rng.standard_normal(kept.size), np.ones(n))),
         (np.concatenate((row, diag)), np.concatenate((col, diag)))),
        shape=(n, n),
    )  # a kept diagonal cell sums to v + 1.0
    Q = (P @ P.T).tocsc()
    Q = Q + sp.eye_array(n, format="csc") * epsilon
    g = rng.standard_normal(n)
    return QpProblem(Q, g)


def gen_medium(n: int, density: float, cond: float, seed: int) -> QpProblem:
    """Sparse family with prescribed spectrum and approximate target density.

    Eigenvalues are logarithmically spaced on [1/cond, 1].  Starting from the
    diagonal matrix of that spectrum, random Givens rotations (uniform random
    index pair, angle uniform on [0, 2*pi)) are applied as orthogonal
    similarities — which preserve the spectrum exactly — until the number of
    stored nonzeros reaches ``density * n^2`` or the rotation budget
    ``20 * density * n^2`` is exhausted, in which case a
    :class:`DensityUnreachableWarning` reporting the achieved density is
    issued and the matrix built so far is returned.

    ``cond = 1`` prescribes the identity, which no rotation can change, so
    the identity is returned directly at its natural density (no warning —
    the collapse to a diagonal matrix is the documented behavior, not a
    failure).  g is standard normal; draw order: rotations (pair, then
    angle, per rotation), then g.

    Only the cells the rotations have written are stored, each row as a
    {column: value} dict, so a draw costs memory in proportion to Q's
    nonzeros and time in proportion to the rotations times the row
    lengths: n=3000 at density 0.002 takes about 40 ms and a 2.8 MB
    tracemalloc peak beside Q's 0.23 MB (``demos/02_generators.py``).
    """
    _check_parameters("medium", n, seed, density=density, cond=cond)
    rng = np.random.default_rng(seed)
    if cond == 1.0:
        Q = sp.eye_array(n, format="csc")
        g = rng.standard_normal(n)
        return QpProblem(Q, g)

    spectrum = np.logspace(-np.log10(cond), 0.0, n)
    # Row k of W as {column: value}.  A rotation stores every cell it writes,
    # zero or not, so the stored pattern stays symmetric: the rows that store
    # a cell of column k are the columns stored in row k.
    rows = [{k: v} for k, v in enumerate(spectrum.tolist())]
    nnz = n
    target_nnz = int(round(density * n * n))
    budget = int(round(_ROTATION_BUDGET_FACTOR * target_nnz))
    integers, uniform, array = rng.integers, rng.uniform, np.array
    rotations = 0
    while nnz < target_nnz and rotations < budget:
        i = int(integers(n))
        j = int(integers(n - 1))
        if j >= i:
            j += 1
        theta = uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(theta), np.sin(theta)
        G = array([[c, s], [-s, c]])
        # Two rows change, then two columns, all four only on `keys`, the
        # columns stored in row i or j; once the rows have changed, these are
        # also the rows that store a cell of column i or j.  Every other cell
        # of the four lines is zero before and after.  The pairs go through
        # the same matmuls as a dense W's full lines, which give each element
        # the same bits, and nnz moves by the zeros each pair gains or loses.
        row_i, row_j = rows[i], rows[j]
        keys = list(row_i.keys() | row_j.keys())
        get_i, get_j = row_i.get, row_j.get
        old_i, old_j = [get_i(k, 0.0) for k in keys], [get_j(k, 0.0) for k in keys]
        new_i, new_j = (G @ array((old_i, old_j), np.float64)).tolist()
        nnz += old_i.count(0.0) + old_j.count(0.0) - new_i.count(0.0) - new_j.count(0.0)
        rows[i], rows[j] = dict(zip(keys, new_i)), dict(zip(keys, new_j))
        lines = [rows[r] for r in keys]
        old_i, old_j = [row.get(i, 0.0) for row in lines], [row.get(j, 0.0) for row in lines]
        new_i, new_j = (array((old_i, old_j), np.float64).T @ G.T).T.tolist()
        nnz += old_i.count(0.0) + old_j.count(0.0) - new_i.count(0.0) - new_j.count(0.0)
        for row, a, b in zip(lines, new_i, new_j):
            row[i] = a
            row[j] = b
        rotations += 1
    if nnz < target_nnz:
        warnings.warn(
            f"target density {density:g} unreachable within {budget} rotations; "
            f"achieved {nnz / (n * n):g}",
            DensityUnreachableWarning,
            stacklevel=2,
        )
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    stored = int(indptr[-1])
    W = sp.csr_array(
        (np.fromiter(chain.from_iterable(row.values() for row in rows), np.float64, stored),
         np.fromiter(chain.from_iterable(rows), np.int32, stored), indptr),
        shape=(n, n),
    )
    g = rng.standard_normal(n)
    return QpProblem(W, g)  # which stores (W + W')/2, without W's stored zeros


def gen_hard(n: int, cond: float, seed: int) -> QpProblem:
    """Dense family with geometric spectrum cond^(k/(n-1)), k = 0..n-1.

    Draw order: g uniform on [-0.5, 0.5] first, then the normal matrix whose
    QR factor supplies the random orthogonal basis O; Q = O D O' symmetrized.
    The QR runs in place on one Fortran-ordered copy of the draw, through
    the LAPACK routines ``np.linalg.qr`` calls, and R is never formed, so
    the generator holds at most three n x n arrays (O, O D and Q: 3.85 MB
    at n=400, per ``demos/02_generators.py``) and LAPACK only its workspace.
    O has the bits of ``np.linalg.qr``'s Q; its bits, and so Q's, depend on
    the BLAS build and its thread count.
    """
    _check_parameters("hard", n, seed, cond=cond)
    rng = np.random.default_rng(seed)
    g = rng.uniform(-0.5, 0.5, n)
    O = np.asfortranarray(rng.standard_normal((n, n)))
    # A call of its own, so no view of the Fortran-ordered O outlives the QR
    # and its C-ordered copy frees it.  The product runs on that copy: an
    # F-ordered O changes Q's bits at two BLAS threads.
    _orthogonal_factor(O.T)
    O = np.ascontiguousarray(O)
    d = cond ** (np.arange(n) / (n - 1))
    Q = (O * d) @ O.T
    del O  # QpProblem's checks then run beside Q alone
    return QpProblem(Q, g)


def _orthogonal_factor(a: np.ndarray) -> None:
    """Overwrite the C-contiguous ``a``, read by LAPACK as the column-major
    square matrix a', with the orthogonal factor of its QR decomposition:
    geqrf, then orgqr, each with the workspace ``np.linalg.qr`` gives it."""
    n = a.shape[0]
    tau, work = np.empty(n), np.empty(1)
    for routine, args in ((lapack_lite.dgeqrf, (n, n, a, n, tau)),
                          (lapack_lite.dorgqr, (n, n, n, a, n, tau))):
        routine(*args, work, -1, 0)  # the workspace query
        work = np.empty(max(1, n, int(work[0])))
        info = routine(*args, work, work.size, 0)["info"]
        if info:
            raise np.linalg.LinAlgError(f"{routine.__name__} returned info {info}")


#: family -> (generator, the spec axes it takes, in argument order between n and seed)
_FAMILIES = {
    "easy": (gen_easy, ("epsilon",)),
    "medium": (gen_medium, ("density", "cond")),
    "hard": (gen_hard, ("cond",)),
}
#: spec axis -> the (low, high, ends) interval of model._require_real its values lie in
_RANGES = {"epsilon": (0.0, np.inf, "()"), "density": (0.0, 1.0, "(]"),
           "cond": (1.0, np.inf, "[)")}
#: every spec axis, in the order the family table first names it (the CLI crosses them so)
_AXES = tuple(_RANGES)
