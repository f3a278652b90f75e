import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph

import rasqp.subsystem
from conftest import rand_spd_problem
from rasqp.generators import gen_easy, gen_medium
from rasqp.model import QpProblem, kkt_residual, stationarity_tol
from rasqp.subsystem import (
    FactorizationError,
    SubsystemSolution,
    embed_point,
    solve_subsystem,
)

Q22 = np.array([[4.0, 1.0], [1.0, 3.0]])
G22 = np.array([-1.0, -2.0])


def random_partition(n: int, rng: np.random.Generator):
    mask = rng.random(n) < 0.5
    ix = np.arange(n)
    return ix[mask], ix[~mask]


class TestSolveSubsystem:
    def test_everything_inactive_matches_linear_solve(self):
        p = QpProblem(Q22, G22)
        sol = solve_subsystem(p, [0, 1], [])
        np.testing.assert_allclose(sol.x_I, np.linalg.solve(Q22, -G22), rtol=1e-14)
        assert sol.s_A.size == 0

    def test_everything_active(self):
        p = QpProblem(Q22, G22)
        sol = solve_subsystem(p, [], [0, 1])
        assert sol.x_I.size == 0
        np.testing.assert_array_equal(sol.s_A, G22)

    def test_hand_split(self):
        # I = {0}: x_0 = -g_0 / Q_00 = 1/4; s_1 = Q_10 x_0 + g_1 = -7/4.
        p = QpProblem(Q22, G22)
        sol = solve_subsystem(p, [0], [1])
        np.testing.assert_allclose(sol.x_I, [0.25], rtol=1e-15)
        np.testing.assert_allclose(sol.s_A, [-1.75], rtol=1e-15)

    def test_rejects_non_partitions(self):
        p = QpProblem(Q22, G22)
        with pytest.raises(ValueError):
            solve_subsystem(p, [0], [0, 1])  # overlap
        with pytest.raises(ValueError):
            solve_subsystem(p, [0], [])  # missing index
        with pytest.raises(ValueError):
            solve_subsystem(p, [0, 2], [1])  # out of range

    def test_rejects_repeats_and_negative_indexes(self):
        p = QpProblem(Q22, G22)
        with pytest.raises(ValueError):
            solve_subsystem(p, [0, 0], [])  # right count, index 1 missing
        with pytest.raises(ValueError):
            solve_subsystem(p, [-1], [1])  # would wrap around to index 1

    def test_input_order_is_irrelevant(self):
        rng = np.random.default_rng(3)
        p = rand_spd_problem(9, rng)
        I, A = random_partition(9, rng)
        base = solve_subsystem(p, I, A)
        shuffled = solve_subsystem(p, rng.permutation(I), rng.permutation(A))
        np.testing.assert_array_equal(base.x_I, shuffled.x_I)
        np.testing.assert_array_equal(base.s_A, shuffled.s_A)

    @pytest.mark.parametrize("split", ["random", "A empty", "I empty"])
    def test_dense_matches_direct_gathers(self, split):
        # The solver gathers one row block Q[I,:]; the reference gathers
        # Q[I,I] and Q[A,I] directly.  The factor sees the same matrix, so
        # x_I is bit-identical; s_A only sums in another order.
        rng = np.random.default_rng(29)
        n = 150
        p = rand_spd_problem(n, rng)
        I, A = {"random": random_partition(n, rng),
                "A empty": (np.arange(n), np.arange(0)),
                "I empty": (np.arange(0), np.arange(n))}[split]
        sol = solve_subsystem(p, rng.permutation(I), rng.permutation(A))
        Q, g = p.Q, p.g
        if len(I):
            x_ref = sla.cho_solve(sla.cho_factor(Q[np.ix_(I, I)], lower=True), -g[I])
        else:
            x_ref = np.empty(0)
        np.testing.assert_array_equal(sol.x_I, x_ref)
        Q_AI = Q[np.ix_(A, I)]
        rounding = 4 * n * np.finfo(float).eps * (np.abs(Q_AI) @ np.abs(x_ref) + np.abs(g[A]))
        assert sol.s_A.shape == A.shape
        assert np.all(np.abs(sol.s_A - (Q_AI @ x_ref + g[A])) <= rounding)

    def test_sparse_and_dense_storage_agree(self):
        rng = np.random.default_rng(7)
        for n in (5, 12, 30):
            dense = rand_spd_problem(n, rng)
            sparse = QpProblem(sp.csc_array(dense.Q), dense.g)
            for _ in range(5):
                I, A = random_partition(n, rng)
                a = solve_subsystem(dense, I, A)
                b = solve_subsystem(sparse, I, A)
                np.testing.assert_allclose(a.x_I, b.x_I, rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(a.s_A, b.s_A, rtol=1e-12, atol=1e-14)

    def test_sparse_lu_path_agrees_with_cholesky(self, monkeypatch):
        # With the threshold at 0 every nonempty block goes through SuperLU,
        # in the problem's reverse Cuthill-McKee order.  The reference is the
        # dense Cholesky of Q[I,I] in sorted order, on a dense pattern, the
        # banded easy family and an unstructured medium matrix.
        rng = np.random.default_rng(11)
        dense = rand_spd_problem(20, rng)
        problems = (QpProblem(sp.csc_array(dense.Q), dense.g),
                    gen_easy(150, 1.0, seed=2),
                    gen_medium(150, 0.05, 1e4, seed=2))
        splu = rasqp.subsystem.spla.splu
        rcm = scipy.sparse.csgraph.reverse_cuthill_mckee
        lu_calls, rcm_calls = [], []

        def counted_splu(*args, **kwargs):
            lu_calls.append(args[0].shape)
            return splu(*args, **kwargs)

        def counted_rcm(*args, **kwargs):
            rcm_calls.append(args[0].shape)
            return rcm(*args, **kwargs)

        monkeypatch.setattr(rasqp.subsystem.spla, "splu", counted_splu)
        monkeypatch.setattr(scipy.sparse.csgraph, "reverse_cuthill_mckee", counted_rcm)
        monkeypatch.setattr(rasqp.subsystem, "DENSE_THRESHOLD", 0)
        for p in problems:
            n, Q, g = p.n, p.Q.toarray(), p.g
            for _ in range(3):
                I, A = random_partition(n, rng)
                lu_calls.clear()
                lu = solve_subsystem(p, rng.permutation(I), rng.permutation(A))
                assert lu_calls == [(len(I), len(I))]  # the threshold is read at call time
                chol = sla.cho_solve(sla.cho_factor(Q[np.ix_(I, I)], lower=True), -g[I])
                np.testing.assert_allclose(lu.x_I, chol, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(lu.s_A, Q[np.ix_(A, I)] @ chol + g[A],
                                           rtol=1e-10, atol=1e-12)
            assert rcm_calls == [(n, n)]  # one ordering per problem
            rcm_calls.clear()
            np.testing.assert_array_equal(np.sort(p._rcm_rank), np.arange(n))

    def test_sparse_densified_path_matches_direct_cholesky(self):
        # A small sparse block is scattered into a dense Q[I,I]: the factor
        # sees the same matrix as a direct gather, so x_I is bit-identical.
        rng = np.random.default_rng(31)
        p = gen_medium(150, 0.05, 1e6, seed=4)
        n, Q, g = p.n, p.Q.toarray(), p.g
        for I, A in (random_partition(n, rng), (np.arange(n), np.arange(0))):
            sol = solve_subsystem(p, rng.permutation(I), rng.permutation(A))
            x_ref = sla.cho_solve(sla.cho_factor(Q[np.ix_(I, I)], lower=True), -g[I])
            np.testing.assert_array_equal(sol.x_I, x_ref)
            Q_AI = Q[np.ix_(A, I)]
            rounding = 4 * n * np.finfo(float).eps * (np.abs(Q_AI) @ np.abs(x_ref) + np.abs(g[A]))
            assert sol.s_A.shape == A.shape
            assert np.all(np.abs(sol.s_A - (Q_AI @ x_ref + g[A])) <= rounding)
        assert p._rcm_rank is None  # only the SuperLU branch orders Q

    def test_stationarity_holds_for_any_partition(self):
        # The first two KKT equations hold by construction for every split,
        # feasible or not, and complementarity is a structural zero.
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            p = rand_spd_problem(n, rng)
            I, A = random_partition(n, rng)
            point = embed_point(n, I, A, solve_subsystem(p, I, A))
            stationarity, _, _, comp = kkt_residual(p, point)
            assert stationarity <= stationarity_tol(p)
            assert comp == 0.0

    def test_factorization_error_on_indefinite_block(self):
        p = QpProblem(np.diag([1.0, -1.0]), [0.0, 0.0])
        with pytest.raises(FactorizationError):
            solve_subsystem(p, [1], [0])


class TestEmbedPoint:
    def test_scatter(self):
        sol = SubsystemSolution(x_I=np.array([2.0, 3.0]), s_A=np.array([-1.0]))
        point = embed_point(3, [0, 2], [1], sol)
        np.testing.assert_array_equal(point.x, [2.0, 0.0, 3.0])
        np.testing.assert_array_equal(point.s, [0.0, -1.0, 0.0])

    def test_structural_zeros(self):
        rng = np.random.default_rng(23)
        p = rand_spd_problem(10, rng)
        I, A = random_partition(10, rng)
        point = embed_point(10, I, A, solve_subsystem(p, I, A))
        assert np.all(point.x[A] == 0.0)
        assert np.all(point.s[I] == 0.0)
        assert point.x @ point.s == 0.0

    def test_size_mismatch(self):
        sol = SubsystemSolution(x_I=np.array([1.0]), s_A=np.empty(0))
        with pytest.raises(ValueError):
            embed_point(3, [0, 1], [2], sol)
