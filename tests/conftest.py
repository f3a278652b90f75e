"""Shared helpers for the test suite."""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from rasqp import QpProblem, Status, gen_hard, kkt_residual

# Property tests draw the same examples on every run and keep no database of
# past failures to replay, so every Tier-1 run tests the same cases.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
# hypothesis still caches what it parses from the loaded modules under its
# home directory (.hypothesis/ in the working directory by default); one
# temporary directory per session, removed at exit, keeps the tree clean.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-home-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def rand_spd_problem(n: int, rng: np.random.Generator) -> QpProblem:
    """A dense, comfortably conditioned SPD instance: Q = AA' + I."""
    A = rng.standard_normal((n, n))
    return QpProblem(A @ A.T + np.eye(n), rng.standard_normal(n))


def known_answer_problem(n: int, cond: float, seed: int):
    """A hard-family Q with a prescribed non-degenerate solution.

    Q is ``gen_hard(n, cond, seed)``'s.  Each index is free with probability
    1/2; x* is uniform on [0.5, 1.5] on the free indexes and 0 elsewhere,
    s* is uniform on [0.5, 1.5] off them and 0 on them, and g = s* - Q x*,
    so (x*, s*) is the KKT point (Moré & Toraldo, Numer. Math. 55, 1989).
    Returns (problem, x*, free mask).
    """
    Q = gen_hard(n, cond, seed).Q
    rng = np.random.default_rng([seed, n])  # a stream apart from gen_hard's
    free = rng.random(n) < 0.5
    x_star = np.where(free, rng.uniform(0.5, 1.5, n), 0.0)
    s_star = np.where(free, 0.0, rng.uniform(0.5, 1.5, n))
    return QpProblem(Q, s_star - Q @ x_star), x_star, free


def assert_certificate(problem: QpProblem, result, tol: float) -> None:
    """The optimality certificate every Optimal result must carry.

    Stationarity is scale-relative (1e-6 * (1 + ||g||_inf)); x must be
    nonnegative exactly, s may dip to -tol, and complementarity must be a
    structural (exact) zero.

    The bound is kept looser than ``model.stationarity_tol``
    (1e-8 * (1 + ||g||_inf)) on purpose: that rule ignores the size of x.
    On the cycling instance ``gen_medium(30, 0.5, 1e12, 6)``, ``ras`` ends
    Optimal in 11 solves with stationarity 5.74e-8 against a
    ``stationarity_tol`` of 2.51e-8, because max|x| = 6.7e10 puts the
    round-off floor eps * ||Q||_inf * max|x| near 1.9e-5.
    """
    assert result.status is Status.OPTIMAL
    stationarity, primal_viol, dual_viol, comp_viol = kkt_residual(problem, result.point)
    assert stationarity <= 1e-6 * (1.0 + float(np.abs(problem.g).max()))
    assert primal_viol == 0.0
    assert dual_viol <= tol
    assert comp_viol == 0.0
