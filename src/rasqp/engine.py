"""Active-set bookkeeping and randomized exchange selection.

After each subsystem solve the infeasible parts of I and A are

    Im = {i in I : x_i <= 0}    Am = {j in A : s_j < -tol}

(a zero-valued inactive variable counts as infeasible; an active variable
with s_j exactly at -tol counts as feasible).  A randomized method then
draws the subsets Imc of Im and Amc of Am that change sides; every other
index stays where it is.

Between iterations each index carries two pieces of state: whether it is in
I or in A (a boolean ``inactive`` mask, which :func:`next_sets` flips), and
an ``int8`` origin label recording what the previous selection did with it:
``FEASIBLE`` (it was feasible), ``FROZEN`` (it was infeasible and kept) or
``EXCHANGED`` (it was infeasible and moved).  An infeasible index's origin
category is its label together with the side it is on now; an index in Im
labelled ``EXCHANGED``, for instance, has just moved in from A (NImc).  The
refined selection rule applies one exchange probability per category.
Before the first selection every index is labelled ``FROZEN``.

Index sets (I, A, the infeasible parts, the six categories and the
selections) are sorted int64 arrays built with O(n) masks and gathers.
Random draws are consumed in a fixed, documented order: one uniform per
element, Im-side categories before Am-side ones, ascending index order
inside each.  Each selection makes one draw of length |Im| + |Am|, which
yields the same numbers as consecutive per-category draws, so every seeded
run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import KktPoint

__all__ = [
    "Partition",
    "Categories",
    "ChangeProbabilities",
    "FEASIBLE",
    "FROZEN",
    "EXCHANGED",
    "classify",
    "categorize",
    "origin_labels",
    "select_exchange_generic",
    "select_exchange_ras",
    "next_sets",
    "exchange_asymmetry_montecarlo",
]

#: Origin labels: what the previous selection did with an index.
FEASIBLE, FROZEN, EXCHANGED = 0, 1, 2


def _as_index_array(ix) -> np.ndarray:
    a = np.asarray(ix, dtype=np.int64)
    return a if a.ndim == 1 else a.reshape(-1)


@dataclass(frozen=True)
class Partition:
    """Current split of {0..n-1} into I/A and their infeasible parts Im/Am."""

    I: np.ndarray
    A: np.ndarray
    Im: np.ndarray
    Am: np.ndarray

    @property
    def n(self) -> int:
        return len(self.I) + len(self.A)

    @property
    def optimal(self) -> bool:
        """True when no index is infeasible, i.e. the partition is optimal."""
        return len(self.Im) == 0 and len(self.Am) == 0


@dataclass(frozen=True)
class Categories:
    """Currently infeasible indexes, classified by their origin label.

    Im splits into NImp0 (were feasible inactive), NImf (were infeasible
    inactive but kept), NImc (were just moved in from A); Am splits into
    NAmp0 / NAmf / NAmc symmetrically, NAmc being indexes just moved out
    of I.
    """

    NImp0: np.ndarray
    NImf: np.ndarray
    NImc: np.ndarray
    NAmp0: np.ndarray
    NAmf: np.ndarray
    NAmc: np.ndarray


@dataclass(frozen=True)
class ChangeProbabilities:
    """Per-category exchange probabilities p1..p6.

    Convergence arguments need every p_i strictly inside (0, 1); p_i = 1 is
    additionally allowed as the degenerate certainty setting under which the
    selection reduces to the full exchange (useful for tests and for
    emulating the full-exchange method).  Defaults are the tuned values.
    """

    p1: float = 0.5
    p2: float = 0.98
    p3: float = 0.98
    p4: float = 0.01
    p5: float = 0.93
    p6: float = 0.94

    def __post_init__(self):
        for name in ("p1", "p2", "p3", "p4", "p5", "p6"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} = {v!r} outside (0, 1]")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.p1, self.p2, self.p3, self.p4, self.p5, self.p6)


def classify(point: KktPoint, I, A, tol: float) -> Partition:
    """Split I by the sign of x (x_i <= 0 infeasible) and A by s_j < -tol."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    I = _as_index_array(I)
    A = _as_index_array(A)
    return Partition(I=I, A=A, Im=I[point.x[I] <= 0.0], Am=A[point.s[A] < -tol])


def categorize(partition: Partition, origin: np.ndarray) -> Categories:
    """Split Im and Am by the origin label of each index.

    ``origin`` holds one label per index (see :func:`origin_labels`).  Every
    index has exactly one label, so the three Im-side categories partition
    Im and the three Am-side ones partition Am.
    """
    Im, Am = partition.Im, partition.Am
    im, am = origin[Im], origin[Am]
    return Categories(
        NImp0=Im[im == FEASIBLE],
        NImf=Im[im == FROZEN],
        NImc=Im[im == EXCHANGED],
        NAmp0=Am[am == FEASIBLE],
        NAmf=Am[am == FROZEN],
        NAmc=Am[am == EXCHANGED],
    )


def origin_labels(partition: Partition, Imc, Amc) -> np.ndarray:
    """Labels after a selection on ``partition`` that exchanged Imc and Amc.

    Feasible indexes become ``FEASIBLE``, the exchanged ones ``EXCHANGED``
    and the infeasible indexes kept in place ``FROZEN``.  An empty selection
    therefore marks every infeasible index as frozen.
    """
    origin = np.full(partition.n, FEASIBLE, dtype=np.int8)
    origin[partition.Im] = FROZEN
    origin[partition.Am] = FROZEN
    origin[Imc] = EXCHANGED
    origin[Amc] = EXCHANGED
    return origin


def select_exchange_generic(partition: Partition, p_Im, p_Am, sigma: float, rng):
    """One-shot random exchange selection with probabilities in [sigma, 1-sigma].

    Returns the exchanged sets (Imc, Amc), subsets of Im and Am in ascending
    order.  One draw covers Im, then Am, each in ascending order.
    """
    if not 0.0 < sigma <= 0.5:
        raise ValueError("sigma must lie in (0, 0.5]")
    Im, Am = partition.Im, partition.Am
    p = np.concatenate([
        np.broadcast_to(np.asarray(p_Im, dtype=np.float64), Im.shape),
        np.broadcast_to(np.asarray(p_Am, dtype=np.float64), Am.shape),
    ])
    if p.size and (p.min() < sigma - 1e-15 or p.max() > 1.0 - sigma + 1e-15):
        raise ValueError(f"probabilities must lie in [{sigma}, {1.0 - sigma}]")
    hit = rng.random(p.size) < p
    return Im[hit[:len(Im)]], Am[hit[len(Im):]]


def select_exchange_ras(cats: Categories, probs: ChangeProbabilities, rng):
    """Category-wise random exchange selection.

    Each origin category is thinned with its own probability; the Im-side
    picks form Imc and the Am-side picks Amc.  Returns (Imc, Amc) in
    ascending order like :func:`select_exchange_generic`.  Draw order is
    NImp0, NImf, NImc, then NAmp0, NAmf, NAmc (each ascending), in one draw.
    """
    groups = (cats.NImp0, cats.NImf, cats.NImc, cats.NAmp0, cats.NAmf, cats.NAmc)
    sizes = [len(g) for g in groups]
    candidates = np.concatenate(groups)
    hit = rng.random(len(candidates)) < np.repeat(probs.as_tuple(), sizes)
    k = sizes[0] + sizes[1] + sizes[2]
    Imc, Amc = candidates[:k][hit[:k]], candidates[k:][hit[k:]]
    Imc.sort()  # each is a fresh copy from the boolean gather
    Amc.sort()
    return Imc, Amc


def next_sets(partition: Partition, Imc, Amc):
    """Apply an exchange: Imc moves from I to A and Amc from A to I.

    Every other index stays on its side.  Raises ``ValueError`` unless
    Imc is a subset of I and Amc a subset of A.  Flips the exchanged entries
    of the ``inactive`` mask and returns the sorted (I_new, A_new).
    """
    inactive = np.zeros(partition.n, dtype=bool)
    inactive[partition.I] = True
    if not inactive[Imc].all() or inactive[Amc].any():
        raise ValueError("Imc must be a subset of I and Amc a subset of A")
    inactive[Imc] = False
    inactive[Amc] = True
    return np.flatnonzero(inactive), np.flatnonzero(~inactive)


def exchange_asymmetry_montecarlo(samples: int, rng: np.random.Generator, *,
                                  diagonal_only: bool = False):
    """Monte Carlo comparison of the two canonical full-exchange transitions.

    Draws random 2x2 problems — entries of Q standard normal,
    rejection-sampled until Q is positive definite (so the off-diagonal
    Q12 stays mean-zero symmetric), g standard bivariate normal — and
    examines, at tol = 0, the two extreme one-step transitions:

    * shrink case: both variables inactive and both infeasible
      (x = -Q^{-1}g <= 0), everything is exchanged out, and the count N1 of
      infeasible indexes at the next iterate (#{i : g_i < 0}) is recorded.
      N1 can only be nonzero when Q12 < 0, so the mean is taken over
      qualifying samples with Q12 < 0.
    * grow case: both variables active and both infeasible (g < 0),
      everything is exchanged in, and N2 = #{i : x_i <= 0} at the next
      iterate is recorded over qualifying samples with Q12 > 0, the branch
      where N2 can be nonzero.

    Returns ``(e_n1, e_n2, stderr)``: the two conditional empirical means
    and a standard error for their difference.  An empty conditioning set
    yields a mean of 0.0; with fewer than two qualifying samples on either
    side the standard error is +inf.  E(N1) < E(N2) strictly unless Q12 is
    identically zero (``diagonal_only=True`` forces Q12 = 0, making both
    means exactly 0).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    sum1 = sum2 = sq1 = sq2 = 0.0
    m1 = m2 = 0
    remaining = samples
    while remaining > 0:
        take = min(remaining, 2_000_000)
        q11, q22, q12 = _draw_pd_entries(take, rng, diagonal_only)
        g = rng.standard_normal((take, 2))
        g1, g2 = g[:, 0], g[:, 1]
        det = q11 * q22 - q12 * q12
        x1 = (-q22 * g1 + q12 * g2) / det
        x2 = (q12 * g1 - q11 * g2) / det

        shrink = (x1 <= 0.0) & (x2 <= 0.0) & (q12 < 0.0)
        n1 = (g1[shrink] < 0.0).astype(np.float64) + (g2[shrink] < 0.0)
        grow = (g1 < 0.0) & (g2 < 0.0) & (q12 > 0.0)
        n2 = (x1[grow] <= 0.0).astype(np.float64) + (x2[grow] <= 0.0)

        sum1 += n1.sum()
        sq1 += (n1 * n1).sum()
        m1 += n1.size
        sum2 += n2.sum()
        sq2 += (n2 * n2).sum()
        m2 += n2.size
        remaining -= take

    e1 = sum1 / m1 if m1 else 0.0
    e2 = sum2 / m2 if m2 else 0.0
    if m1 < 2 or m2 < 2:
        return e1, e2, math.inf
    var1 = max(0.0, sq1 / m1 - e1 * e1)
    var2 = max(0.0, sq2 / m2 - e2 * e2)
    return e1, e2, math.sqrt(var1 / m1 + var2 / m2)


def _draw_pd_entries(count: int, rng: np.random.Generator, diagonal_only: bool):
    """Rejection-sample `count` (Q11, Q22, Q12) triples with Q PD."""
    out = [np.empty(0) for _ in range(3)]
    have = 0
    while have < count:
        # PD acceptance for a 2x2 symmetric Gaussian draw is ~1/8, so
        # oversample accordingly.
        batch = max(4096, int((count - have) * 9))
        a = rng.standard_normal(batch)
        b = rng.standard_normal(batch)
        c = np.zeros(batch) if diagonal_only else rng.standard_normal(batch)
        ok = (a > 0.0) & (b > 0.0) & (a * b - c * c > 0.0)
        out = [np.concatenate([o, v[ok]]) for o, v in zip(out, (a, b, c))]
        have = out[0].size
    return out[0][:count], out[1][:count], out[2][:count]
