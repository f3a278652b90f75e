"""Seeded generators for the three benchmark problem families.

* easy — sparse banded Q = P P' + eps*I with P a band-restricted sparse
  normal matrix; condition number is steered indirectly through eps.
* medium — sparse symmetric matrix with a prescribed logarithmic spectrum,
  built by random Givens rotations of a diagonal matrix until a target
  density is reached (the classical way to manufacture a sparse matrix with
  exact condition number).
* hard — dense Q = O D O' with O a random orthogonal factor and D a
  geometric spectrum from 1 to cond; g uniform on [-0.5, 0.5].

Identical (family, parameters, seed) always reproduce the same problem
bit-for-bit.  Draw order within each generator is fixed and documented in
the respective docstring.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import QpProblem

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


class DensityUnreachableWarning(UserWarning):
    """The rotation budget ran out before the target density was reached."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters identifying one generated problem.

    ``epsilon`` applies to the easy family only, ``density`` to medium only,
    ``cond`` to medium and hard.
    """

    family: str
    n: int
    seed: int
    epsilon: float | None = None
    density: float | None = None
    cond: float | None = None

    def __post_init__(self):
        fam = self.family
        if fam not in ("easy", "medium", "hard"):
            raise ValueError(f"unknown family {fam!r}")
        need = {"easy": ("epsilon",), "medium": ("density", "cond"), "hard": ("cond",)}
        for name in ("epsilon", "density", "cond"):
            value = getattr(self, name)
            if name in need[fam]:
                if value is None:
                    raise ValueError(f"{fam} family requires {name}")
            elif value is not None:
                raise ValueError(f"{name} does not apply to the {fam} family")


def generate(spec: GeneratorSpec) -> QpProblem:
    """Dispatch a :class:`GeneratorSpec` to its family generator."""
    if spec.family == "easy":
        return gen_easy(spec.n, spec.epsilon, spec.seed)
    if spec.family == "medium":
        return gen_medium(spec.n, spec.density, spec.cond, spec.seed)
    return gen_hard(spec.n, spec.cond, spec.seed)


def gen_easy(n: int, epsilon: float, seed: int) -> QpProblem:
    """Sparse banded family: Q = P P' + epsilon * I.

    P starts as a sparse matrix of ~10% density with standard normal values
    plus the identity, then is restricted to its lower-triangular band of
    bandwidth 100 (kept literal even when n < 100, where the band covers the
    whole triangle).  epsilon > 0 guarantees positive definiteness and sets
    the smallest eigenvalue scale.  g is standard normal.  Draw order:
    sparsity pattern and values of P together, then g.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    rng = np.random.default_rng(seed)
    P = sp.random_array(
        (n, n), density=0.1, format="coo", rng=rng,
        data_sampler=rng.standard_normal,
    ) + sp.eye_array(n, format="coo")
    P = sp.coo_array(P)
    keep = (P.coords[1] <= P.coords[0]) & (P.coords[1] >= P.coords[0] - EASY_BANDWIDTH)
    P = sp.csr_array(
        (P.data[keep], (P.coords[0][keep], P.coords[1][keep])), shape=(n, n)
    )
    Q = (P @ P.T).tocsc()
    Q = Q + sp.eye_array(n, format="csc") * epsilon
    g = rng.standard_normal(n)
    return QpProblem(Q, g)


def gen_medium(n: int, density: float, cond: float, seed: int,
               rotation_budget_factor: float = 20.0) -> QpProblem:
    """Sparse family with prescribed spectrum and approximate target density.

    Eigenvalues are logarithmically spaced on [1/cond, 1].  Starting from the
    diagonal matrix of that spectrum, random Givens rotations (uniform random
    index pair, angle uniform on [0, 2*pi)) are applied as orthogonal
    similarities — which preserve the spectrum exactly — until the number of
    stored nonzeros reaches ``density * n^2`` or the rotation budget
    ``rotation_budget_factor * density * n^2`` is exhausted, in which case a
    :class:`DensityUnreachableWarning` reporting the achieved density is
    issued and the matrix built so far is returned.

    ``cond = 1`` prescribes the identity, which no rotation can change, so
    the identity is returned directly at its natural density (no warning —
    the collapse to a diagonal matrix is the documented behavior, not a
    failure).  g is standard normal; draw order: rotations (pair, then
    angle, per rotation), then g.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    if cond < 1.0:
        raise ValueError("cond must be >= 1")
    rng = np.random.default_rng(seed)
    if cond == 1.0:
        Q = sp.eye_array(n, format="csc")
        g = rng.standard_normal(n)
        return QpProblem(Q, g)

    spectrum = np.logspace(-np.log10(cond), 0.0, n)
    W = np.diag(spectrum)
    nnz = np.count_nonzero(W)
    target_nnz = int(round(density * n * n))
    budget = int(round(rotation_budget_factor * target_nnz))
    rotations = 0
    while nnz < target_nnz and rotations < budget:
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        theta = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(theta), np.sin(theta)
        G = np.array([[c, s], [-s, c]])
        pair = [i, j]
        # Two rows change, then two columns: count what they hold before and after.
        nnz -= np.count_nonzero(W[pair, :])
        W[pair, :] = G @ W[pair, :]
        nnz += np.count_nonzero(W[pair, :]) - np.count_nonzero(W[:, pair])
        W[:, pair] = W[:, pair] @ G.T
        nnz += np.count_nonzero(W[:, pair])
        rotations += 1
    if nnz < target_nnz:
        warnings.warn(
            f"target density {density:g} unreachable within {budget} rotations; "
            f"achieved {nnz / (n * n):g}",
            DensityUnreachableWarning,
            stacklevel=2,
        )
    W = (W + W.T) * 0.5
    Q = sp.csc_array(W)
    g = rng.standard_normal(n)
    return QpProblem(Q, g)


def gen_hard(n: int, cond: float, seed: int) -> QpProblem:
    """Dense family with geometric spectrum cond^(k/(n-1)), k = 0..n-1.

    Draw order: g uniform on [-0.5, 0.5] first, then the normal matrix whose
    QR factor supplies the random orthogonal basis O; Q = O D O' symmetrized.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if cond < 1.0:
        raise ValueError("cond must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.uniform(-0.5, 0.5, n)
    O, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = cond ** (np.arange(n) / (n - 1))
    Q = (O * d) @ O.T
    return QpProblem(Q, g)
