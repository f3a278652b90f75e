"""Active-set bookkeeping and randomized exchange selection.

After each subsystem solve the infeasible parts of I and A are

    Im = {i in I : x_i <= 0}    Am = {j in A : s_j < -tol}

(a zero-valued inactive variable counts as infeasible; an active variable
with s_j exactly at -tol counts as feasible).  A randomized method then
draws a subset of Im and Am whose indexes change sides; every other index
stays where it is.

The loop state is two arrays of length n: a boolean ``inactive`` mask (I is
where it is true, A where it is false), which :func:`next_sets` flips, and,
for the refined rule, an ``int8`` origin label recording what the previous
selection did with each index: ``FEASIBLE`` (it was feasible), ``FROZEN``
(it was infeasible and kept) or ``EXCHANGED`` (it was infeasible and moved).
An infeasible index's origin category is its label together with the side
it is on now: the label itself on the I side and the label + 3 on the A
side, giving NImp0, NImf, NImc, NAmp0, NAmf, NAmc as categories 0-5.  An
index in Im labelled ``EXCHANGED``, for instance, has just moved in from A
(NImc).  The refined selection rule applies one exchange probability per
category.  Before the first selection every index is labelled ``FROZEN``.

Random draws are consumed in a fixed, documented order: one uniform per
infeasible index, in the stable sort by (side, label, index), i.e. category
by category from NImp0 to NAmc and ascending inside each; the generic rule
draws over Im, then Am, each ascending.  Each selection makes one draw over
all candidates, which yields the same numbers as consecutive per-category
draws, so every seeded run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import KktPoint

__all__ = [
    "ChangeProbabilities",
    "FEASIBLE",
    "FROZEN",
    "EXCHANGED",
    "classify",
    "categorize",
    "select_exchange_generic",
    "select_exchange_ras",
    "next_sets",
    "exchange_asymmetry_montecarlo",
]

#: Origin labels: what the previous selection did with an index.
FEASIBLE, FROZEN, EXCHANGED = 0, 1, 2


@dataclass(frozen=True)
class ChangeProbabilities:
    """Per-category exchange probabilities p1..p6.

    Convergence arguments need every p_i strictly inside (0, 1); p_i = 1 is
    additionally allowed as the degenerate certainty setting under which the
    selection reduces to the full exchange (useful for tests and for
    emulating the full-exchange method).  Defaults are the tuned values.

    The six values are also kept as one read-only array indexed by category,
    built once here instead of on every draw.  It is not a field, so equality,
    hashing, repr and :func:`dataclasses.replace` see only p1..p6, and a
    pickle holds the six values alone.
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
        by_category = np.array(self.as_tuple(), dtype=np.float64)
        by_category.setflags(write=False)
        object.__setattr__(self, "_by_category", by_category)

    def __getstate__(self):
        state = dict(vars(self))
        del state["_by_category"]
        return state

    def __setstate__(self, state):
        self.__init__(**state)  # validates and rebuilds the array

    def as_tuple(self) -> tuple[float, ...]:
        return (self.p1, self.p2, self.p3, self.p4, self.p5, self.p6)


def classify(point: KktPoint, inactive: np.ndarray, tol: float) -> np.ndarray:
    """The infeasible mask: x_i <= 0 where ``inactive``, s_j < -tol elsewhere."""
    if not tol >= 0:  # also rejects nan, which would pass every s_j
        raise ValueError("tol must be >= 0")
    return np.where(inactive, point.x <= 0.0, point.s < -tol)


def categorize(infeasible: np.ndarray, inactive: np.ndarray, origin: np.ndarray):
    """The infeasible indexes in draw order, with their category 0-5.

    The category is the origin label on the I side and the label + 3 on the
    A side.  A stable sort on it keeps ascending index order inside each
    category, so the result runs NImp0, NImf, NImc, NAmp0, NAmf, NAmc.
    """
    cand = infeasible.nonzero()[0]
    cat = origin[cand] + np.where(inactive[cand], 0, 3)
    order = cat.argsort(kind="stable")
    return cand[order], cat[order]


def select_exchange_generic(Im, Am, p_Im, p_Am, sigma: float, rng) -> np.ndarray:
    """One-shot random exchange selection with probabilities in [sigma, 1-sigma].

    Returns the chosen indexes: the picks from Im, then those from Am, in
    the order of the one draw that covers Im, then Am.
    """
    if not 0.0 < sigma <= 0.5:
        raise ValueError("sigma must lie in (0, 0.5]")
    p = np.concatenate([
        np.broadcast_to(np.asarray(p_Im, dtype=np.float64), Im.shape),
        np.broadcast_to(np.asarray(p_Am, dtype=np.float64), Am.shape),
    ])
    # Written so that a NaN, which fails every comparison, fails the check.
    if p.size and not (p.min() >= sigma - 1e-15 and p.max() <= 1.0 - sigma + 1e-15):
        raise ValueError(f"probabilities must lie in [{sigma}, {1.0 - sigma}]")
    return np.concatenate((Im, Am))[rng.random(p.size) < p]


def select_exchange_ras(cand: np.ndarray, cat: np.ndarray, probs: ChangeProbabilities,
                        rng) -> np.ndarray:
    """Category-wise random exchange selection over :func:`categorize`'s output.

    Each candidate is exchanged with its category's probability, one uniform
    per candidate in the given order.  Returns the chosen indexes in that
    order.
    """
    return cand[rng.random(len(cand)) < probs._by_category[cat]]


def next_sets(inactive: np.ndarray, chosen):
    """Move the ``chosen`` indexes to the other side.

    Flips their entries of the ``inactive`` mask in place and returns
    ``(inactive, I, A)`` with I and A sorted.
    """
    inactive[chosen] = ~inactive[chosen]
    return inactive, inactive.nonzero()[0], (~inactive).nonzero()[0]


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
