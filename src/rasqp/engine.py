"""Active-set bookkeeping and randomized exchange selection.

After each subsystem solve the infeasible parts of I and A are

    Im = {i in I : x_i <= 0}    Am = {j in A : s_j < -tol}

by the rule of :func:`classify`.  A randomized method then draws a subset
of Im and Am whose indexes change sides; every other index stays put.

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

from .model import KktPoint, _require_int, _require_real

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
    """

    p1: float = 0.5
    p2: float = 0.98
    p3: float = 0.98
    p4: float = 0.01
    p5: float = 0.93
    p6: float = 0.94

    def __post_init__(self):
        for name, p in zip(("p1", "p2", "p3", "p4", "p5", "p6"), self.as_tuple()):
            _require_real(p, name, 0.0, 1.0, "(]")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.p1, self.p2, self.p3, self.p4, self.p5, self.p6)


def classify(point: KktPoint, inactive: np.ndarray, tol: float) -> np.ndarray:
    """The infeasible mask: x_i <= 0 where ``inactive``, s_j < -tol elsewhere.

    The one statement of the dual rule: an active index is feasible while
    s_j >= -tol (-tol included), and every iterative solver stops ``Optimal``
    on an empty mask.  ``tol`` must be finite and >= 0 (``ValueError``).
    """
    _require_real(tol)
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


def select_exchange_generic(Im, Am, rng) -> np.ndarray:
    """One-shot random exchange selection with probability 1/2 per index.

    Returns the chosen indexes: the picks from Im, then those from Am, in
    the order of the one draw that covers Im, then Am.
    """
    return np.concatenate((Im, Am))[rng.random(len(Im) + len(Am)) < 0.5]


def select_exchange_ras(cand: np.ndarray, cat: np.ndarray, p: np.ndarray, rng) -> np.ndarray:
    """Category-wise random exchange selection over :func:`categorize`'s output.

    ``p`` holds the six probabilities indexed by category, as
    ``np.array(probs.as_tuple())`` of a :class:`ChangeProbabilities`.  Each
    candidate is exchanged with its category's probability, one uniform per
    candidate in the given order.  Returns the chosen indexes in that order.
    """
    return cand[rng.random(len(cand)) < p[cat]]


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

    After either move at most one index is infeasible: both would need
    x <= 0 and g < 0 with g = -Qx, so x'Qx = -x'g <= 0, impossible for a
    positive definite Q.  N1 and N2 are therefore 0 or 1, and a mean e has
    the exact per-sample variance e(1 - e).  Samples are drawn in rounds
    of a fixed number of candidates, so memory does not grow with
    ``samples``.

    Returns ``(e_n1, e_n2, stderr)``: the two conditional empirical means
    and a standard error for their difference.  An empty conditioning set
    yields a mean of 0.0; with fewer than two qualifying samples on either
    side the standard error is +inf.  E(N1) < E(N2) strictly unless Q12 is
    identically zero (``diagonal_only=True`` forces Q12 = 0, making both
    means exactly 0).  ``samples`` must be an integer >= 1 (a ``bool`` is
    not one); anything else raises ``ValueError``.
    """
    _require_int(samples, "samples", 1)
    m1 = m2 = n1 = n2 = 0
    owed = samples
    while owed > 0:
        # About 1 in 8 candidates is positive definite.
        q11, q22 = rng.standard_normal((2, 65536))
        q12 = np.zeros(65536) if diagonal_only else rng.standard_normal(65536)
        pd = ((q11 > 0.0) & (q22 > 0.0) & (q11 * q22 > q12 * q12)).nonzero()[0][:owed]
        q11, q22, q12 = q11[pd], q22[pd], q12[pd]
        g = rng.standard_normal((2, pd.size))
        det = q11 * q22 - q12 * q12
        x = np.array([q12 * g[1] - q22 * g[0], q12 * g[0] - q11 * g[1]]) / det
        shrink = (x <= 0.0).all(axis=0) & (q12 < 0.0)
        grow = (g < 0.0).all(axis=0) & (q12 > 0.0)
        m1 += np.count_nonzero(shrink)
        n1 += np.count_nonzero(g[:, shrink] < 0.0)
        m2 += np.count_nonzero(grow)
        n2 += np.count_nonzero(x[:, grow] <= 0.0)
        owed -= pd.size

    e1 = n1 / m1 if m1 else 0.0
    e2 = n2 / m2 if m2 else 0.0
    if m1 < 2 or m2 < 2:
        return e1, e2, math.inf
    return e1, e2, math.sqrt(e1 * (1.0 - e1) / m1 + e2 * (1.0 - e2) / m2)
