import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg

import rasqp.solvers
import rasqp.subsystem
from conftest import rand_spd_problem
from rasqp.generators import gen_easy, gen_medium
from rasqp.model import QpProblem, Status, kkt_residual, stationarity_tol
from rasqp.solvers import fletcher_solve
from rasqp.subsystem import (
    FactorizationError,
    _UpdatedCholesky,
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
        x_I, s_A = solve_subsystem(p, [0, 1], [])
        np.testing.assert_allclose(x_I, np.linalg.solve(Q22, -G22), rtol=1e-14)
        assert s_A.size == 0

    def test_everything_active(self):
        p = QpProblem(Q22, G22)
        x_I, s_A = solve_subsystem(p, [], [0, 1])
        assert x_I.size == 0
        np.testing.assert_array_equal(s_A, G22)

    def test_hand_split(self):
        # I = {0}: x_0 = -g_0 / Q_00 = 1/4; s_1 = Q_10 x_0 + g_1 = -7/4.
        p = QpProblem(Q22, G22)
        x_I, s_A = solve_subsystem(p, [0], [1])
        np.testing.assert_allclose(x_I, [0.25], rtol=1e-15)
        np.testing.assert_allclose(s_A, [-1.75], rtol=1e-15)

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

    @pytest.mark.parametrize("I, A, match", [
        ([0, 1, 3], [], "out of range"),  # A empty
        ([], [3, 0, 1], "out of range"),  # I empty
        ([1, 1, 1], [], "partition"),
        ([], [2, 0, 0], "partition"),
        ([0], [-3, 1], "out of range"),  # would wrap around to index 0
        ([0, 2**62], [1], "out of range"),  # rejected before anything is sized by it
    ])
    def test_rejects_one_sided_and_far_out_indexes(self, I, A, match):
        p = QpProblem(np.eye(3), np.ones(3))
        with pytest.raises(ValueError, match=match):
            solve_subsystem(p, I, A)

    @pytest.mark.parametrize("I, A", [([0], []), ([], [0])])
    def test_a_single_index_partitions_either_way(self, I, A):
        p = QpProblem([[4.0]], [-2.0])
        point = embed_point(1, I, A, *solve_subsystem(p, I, A))
        np.testing.assert_array_equal((point.x, point.s), ([0.5], [0.0]) if I else ([0.0], [-2.0]))
        for bad_I, bad_A in (([0], [0]), ([1], []), ([], [-1]), ([], [])):
            with pytest.raises(ValueError):
                solve_subsystem(p, bad_I, bad_A)

    @pytest.mark.parametrize("I, A", [
        ([0.7], [1]),  # a float would be truncated to I = [0]
        ([0], [1.0]),
        ([True], [False]),  # a mask would read as I = [1], A = [0]
        (np.array([0, 1], dtype=np.float64), []),
    ])
    def test_rejects_non_integer_indexes(self, I, A):
        p = QpProblem(Q22, G22)
        with pytest.raises(ValueError, match="integer indexes"):
            solve_subsystem(p, I, A)
        with pytest.raises(ValueError, match="integer indexes"):
            embed_point(2, I, A, np.zeros(len(I)), np.zeros(len(A)))

    def test_accepts_empty_and_any_integer_dtype(self):
        # An empty list is float64 to NumPy; it still means no indexes.
        p = QpProblem(Q22, G22)
        want = solve_subsystem(p, np.array([0]), np.array([1]))
        for I, A in (([0], [1]), (np.array([0], dtype=np.uint8), np.array([1], dtype=np.int32))):
            got = solve_subsystem(p, I, A)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        for I, A in (([], [0, 1]), ([0, 1], [])):
            point = embed_point(2, I, A, *solve_subsystem(p, I, A))
            assert point.x.shape == point.s.shape == (2,)

    def test_permuted_input_permutes_the_output(self):
        # x_I and s_A follow the order of I and A as passed.  Permuting A
        # alone leaves the factor untouched, so s_A is permuted exactly;
        # permuting I factors a permuted Q[I,I], which only rounds
        # differently: x_I within the componentwise bound of a backward
        # stable solve, s_A within the file's bound plus Q[A,I] times that.
        rng = np.random.default_rng(3)
        n = 9
        p = rand_spd_problem(n, rng)
        I, A = random_partition(n, rng)
        pi, pa = rng.permutation(len(I)), rng.permutation(len(A))
        base = solve_subsystem(p, I, A)
        only_a = solve_subsystem(p, I, A[pa])
        np.testing.assert_array_equal(only_a[0], base[0])
        np.testing.assert_array_equal(only_a[1], base[1][pa])

        both = solve_subsystem(p, I[pi], A[pa])
        Q, g, eps = p.Q, p.g, np.finfo(float).eps
        Q_II, Q_AI, x = Q[np.ix_(I, I)], Q[np.ix_(A, I)], base[0]
        x_bound = 4 * n * eps * (np.abs(np.linalg.inv(Q_II))
                                 @ (np.abs(Q_II) @ np.abs(x) + np.abs(g[I])))
        s_bound = (4 * n * eps * (np.abs(Q_AI) @ np.abs(x) + np.abs(g[A]))
                   + np.abs(Q_AI) @ x_bound)
        assert np.all(np.abs(both[0] - x[pi]) <= x_bound[pi])
        assert np.all(np.abs(both[1] - base[1][pa]) <= s_bound[pa])
        # Either call embeds to the same point, within the same bounds.
        a = embed_point(n, I, A, *base)
        b = embed_point(n, I[pi], A[pa], *both)
        assert np.all(np.abs(a.x[I] - b.x[I]) <= x_bound) and np.all(b.x[A] == 0.0)
        assert np.all(np.abs(a.s[A] - b.s[A]) <= s_bound) and np.all(b.s[I] == 0.0)

    @pytest.mark.parametrize("split", ["random", "A empty", "I empty"])
    def test_dense_matches_direct_gathers(self, split):
        # The solver gathers one row block Q[I,:]; the reference gathers
        # Q[I,I] and Q[A,I] directly, in the same (shuffled) order.  The
        # factor sees the same matrix, so x_I is bit-identical; s_A only sums
        # in another order.
        rng = np.random.default_rng(29)
        n = 150
        p = rand_spd_problem(n, rng)
        I, A = {"random": random_partition(n, rng),
                "A empty": (np.arange(n), np.arange(0)),
                "I empty": (np.arange(0), np.arange(n))}[split]
        I, A = rng.permutation(I), rng.permutation(A)
        x_I, s_A = solve_subsystem(p, I, A)
        Q, g = p.Q, p.g
        if len(I):
            x_ref = sla.cho_solve(sla.cho_factor(Q[np.ix_(I, I)], lower=True), -g[I])
        else:
            x_ref = np.empty(0)
        np.testing.assert_array_equal(x_I, x_ref)
        Q_AI = Q[np.ix_(A, I)]
        rounding = 4 * n * np.finfo(float).eps * (np.abs(Q_AI) @ np.abs(x_ref) + np.abs(g[A]))
        assert s_A.shape == A.shape
        assert np.all(np.abs(s_A - (Q_AI @ x_ref + g[A])) <= rounding)

    def test_sparse_and_dense_storage_agree(self):
        rng = np.random.default_rng(7)
        for n in (5, 12, 30):
            dense = rand_spd_problem(n, rng)
            sparse = QpProblem(sp.csc_array(dense.Q), dense.g)
            for _ in range(5):
                I, A = random_partition(n, rng)
                a = solve_subsystem(dense, I, A)
                b = solve_subsystem(sparse, I, A)
                np.testing.assert_allclose(a[0], b[0], rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(a[1], b[1], rtol=1e-12, atol=1e-14)

    def test_sparse_lu_path_agrees_with_cholesky(self, monkeypatch):
        # With the threshold at 0 every nonempty block goes through SuperLU,
        # in the problem's reverse Cuthill-McKee order.  The reference is the
        # dense Cholesky of Q[I,I] in the (shuffled) order passed, on a dense
        # pattern, the banded easy family and an unstructured medium matrix.
        rng = np.random.default_rng(11)
        dense = rand_spd_problem(20, rng)
        problems = (QpProblem(sp.csc_array(dense.Q), dense.g),
                    gen_easy(150, 1.0, seed=2),
                    gen_medium(150, 0.05, 1e4, seed=2))
        splu = scipy.sparse.linalg.splu
        rcm = scipy.sparse.csgraph.reverse_cuthill_mckee
        lu_calls, rcm_calls = [], []

        def counted_splu(*args, **kwargs):
            lu_calls.append(args[0].shape)
            return splu(*args, **kwargs)

        def counted_rcm(*args, **kwargs):
            rcm_calls.append(args[0].shape)
            return rcm(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counted_splu)
        monkeypatch.setattr(scipy.sparse.csgraph, "reverse_cuthill_mckee", counted_rcm)
        monkeypatch.setattr(rasqp.subsystem, "DENSE_THRESHOLD", 0)
        for p in problems:
            n, Q, g = p.n, p.Q.toarray(), p.g
            for _ in range(3):
                I, A = map(rng.permutation, random_partition(n, rng))
                lu_calls.clear()
                x_I, s_A = solve_subsystem(p, I, A)
                assert lu_calls == [(len(I), len(I))]  # the threshold is read at call time
                chol = sla.cho_solve(sla.cho_factor(Q[np.ix_(I, I)], lower=True), -g[I])
                np.testing.assert_allclose(x_I, chol, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(s_A, Q[np.ix_(A, I)] @ chol + g[A],
                                           rtol=1e-10, atol=1e-12)
            assert rcm_calls == [(n, n)]  # one ordering per problem
            rcm_calls.clear()
            np.testing.assert_array_equal(np.sort(p._rcm_rank), np.arange(n))

    @pytest.mark.parametrize("family", ["easy", "medium"])
    def test_superlu_receives_a_sorted_csc_block(self, family, monkeypatch):
        # The block reaches splu as CSC with sorted indexes, so splu has
        # nothing to convert or sort, and x_I and s_A are bit-identical to
        # the route that hands splu the unsorted row slice Q[:, J][J, :].
        p = (gen_easy(200, 1.0, seed=4) if family == "easy"
             else gen_medium(150, 0.05, 1e4, seed=4))
        rng = np.random.default_rng(5)
        splu = scipy.sparse.linalg.splu
        received = []

        def spy(a, *args, **kwargs):
            received.append((a.format, a.has_canonical_format))
            return splu(a, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        monkeypatch.setattr(rasqp.subsystem, "DENSE_THRESHOLD", 0)
        for _ in range(3):
            I, A = map(rng.permutation, random_partition(p.n, rng))
            received.clear()
            x_I, s_A = solve_subsystem(p, I, A)
            assert received == [("csc", True)]
            order = np.argsort(p._rcm_rank[I])
            J = I[order]
            cols = p.Q[:, J]
            y = splu(cols[J, :], permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True}).solve(-p.g[J])
            x_ref = np.empty_like(y)
            x_ref[order] = y
            np.testing.assert_array_equal(x_I, x_ref)
            np.testing.assert_array_equal(s_A, (cols @ y)[A] + p.g[A])

    def test_sparse_densified_path_matches_direct_cholesky(self):
        # A small sparse block is scattered into a dense Q[I,I]: the factor
        # sees the same matrix as a direct gather in the same (shuffled)
        # order, so x_I is bit-identical.
        rng = np.random.default_rng(31)
        p = gen_medium(150, 0.05, 1e6, seed=4)
        n, Q, g = p.n, p.Q.toarray(), p.g
        for I, A in (random_partition(n, rng), (np.arange(n), np.arange(0))):
            I, A = rng.permutation(I), rng.permutation(A)
            x_I, s_A = solve_subsystem(p, I, A)
            x_ref = sla.cho_solve(sla.cho_factor(Q[np.ix_(I, I)], lower=True), -g[I])
            np.testing.assert_array_equal(x_I, x_ref)
            Q_AI = Q[np.ix_(A, I)]
            rounding = 4 * n * np.finfo(float).eps * (np.abs(Q_AI) @ np.abs(x_ref) + np.abs(g[A]))
            assert s_A.shape == A.shape
            assert np.all(np.abs(s_A - (Q_AI @ x_ref + g[A])) <= rounding)
        assert p._rcm_rank is None  # only the SuperLU branch orders Q

    def test_stationarity_holds_for_any_partition(self):
        # The first two KKT equations hold by construction for every split,
        # feasible or not, and complementarity is a structural zero.
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            p = rand_spd_problem(n, rng)
            I, A = random_partition(n, rng)
            point = embed_point(n, I, A, *solve_subsystem(p, I, A))
            stationarity, _, _, comp = kkt_residual(p, point)
            assert stationarity <= stationarity_tol(p)
            assert comp == 0.0

    def test_factorization_error_on_indefinite_block(self):
        p = QpProblem(np.diag([1.0, -1.0]), [0.0, 0.0])
        with pytest.raises(FactorizationError):
            solve_subsystem(p, [1], [0])


class TestUpdatedCholesky:
    """The factor fletcher keeps between solves gives the fresh answer."""

    @staticmethod
    def well_conditioned(n: int, sparse: bool, rng) -> QpProblem:
        B = rng.standard_normal((n, n))
        if sparse:
            B[rng.random((n, n)) < 0.8] = 0.0
        Q = B @ B.T / n + np.eye(n)
        return QpProblem(sp.csc_array(Q) if sparse else Q, rng.standard_normal(n))

    @staticmethod
    def counted_potrf(monkeypatch) -> list:
        potrf = rasqp.subsystem._potrf
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return potrf(a, *args, **kwargs)

        monkeypatch.setattr(rasqp.subsystem, "_potrf", counted)
        return calls

    @staticmethod
    def assert_fresh_answer(p, I, A, factor):
        got = solve_subsystem(p, I, A, factor=factor)
        ref = solve_subsystem(p, I, A)
        for a, b in zip(got, ref):
            assert a.shape == b.shape
            if len(b):
                assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_appends_and_deletes_match_fresh_solves(self, sparse, monkeypatch):
        # Shrink to an empty I one index at a time, grow back to all of
        # {0..n-1}, then toggle random indexes; I and A come in shuffled
        # order, from the first solve on.  Only the first solve factorizes,
        # every later one updates.
        rng = np.random.default_rng(41)
        n = 30
        p = self.well_conditioned(n, sparse, rng)
        Q = p.dense_q()
        potrf_calls = self.counted_potrf(monkeypatch)
        inactive = rng.random(n) < 0.5
        moves = [*rng.permutation(np.flatnonzero(inactive)), *rng.permutation(n),
                 *rng.integers(0, n, 60)]
        factor = _UpdatedCholesky()
        self.assert_fresh_answer(p, rng.permutation(np.flatnonzero(inactive)),
                                 rng.permutation(np.flatnonzero(~inactive)), factor)
        sizes = []
        for j in moves:
            inactive[j] = not inactive[j]
            I, A = rng.permutation(np.flatnonzero(inactive)), rng.permutation(np.flatnonzero(~inactive))
            self.assert_fresh_answer(p, I, A, factor)
            sizes.append(len(I))
            # The kept L is the Cholesky factor of Q[order,order], with
            # its positive diagonal, not just some square root of it.
            order = factor.order
            np.testing.assert_allclose(factor.L, np.linalg.cholesky(Q[np.ix_(order, order)]),
                                       rtol=0, atol=1e-12)
        assert 0 in sizes and n in sizes
        assert len(potrf_calls) == 1

    def test_nonpositive_pivot_refactors(self, monkeypatch):
        # An append whose new pivot comes out <= 0 in floating point falls
        # back to a fresh factor of Q[I,I].
        rng = np.random.default_rng(43)
        p = self.well_conditioned(12, False, rng)
        potrf_calls = self.counted_potrf(monkeypatch)
        factor = _UpdatedCholesky()
        solve_subsystem(p, np.arange(5), np.arange(5, 12), factor=factor)
        trtrs = rasqp.subsystem._trtrs
        monkeypatch.setattr(rasqp.subsystem, "_trtrs",
                            lambda *args, **kwargs: (1e3 * trtrs(*args, **kwargs)[0], 0))
        self.assert_fresh_answer(p, np.arange(6), np.arange(6, 12), factor)
        assert potrf_calls == [(5, 5), (6, 6)]

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_keeps_the_product_of_the_last_solve(self, sparse, monkeypatch):
        # A refactor, an append, a delete and an empty I each leave Q x of
        # their own x, bit for bit; clear() and a SuperLU solve leave none.
        rng = np.random.default_rng(47)
        n = 12
        p = self.well_conditioned(n, sparse, rng)
        factor = _UpdatedCholesky()
        assert factor.qx is None
        for I in (np.arange(5), np.arange(6), np.arange(1, 6), np.arange(0)):
            A = np.setdiff1d(np.arange(n), I)
            x = embed_point(n, I, A, *solve_subsystem(p, I, A, factor=factor)).x
            np.testing.assert_array_equal(factor.qx, p.Q @ x)
        factor.clear()
        assert factor.qx is None
        if sparse:
            solve_subsystem(p, np.arange(4), np.arange(4, n), factor=factor)
            monkeypatch.setattr(rasqp.subsystem, "DENSE_THRESHOLD", 0)
            solve_subsystem(p, np.arange(5), np.arange(5, n), factor=factor)
            assert factor.qx is None

    def test_indefinite_block_raises_and_the_next_solve_refactors(self):
        p = QpProblem(np.diag([1.0, -1.0, 2.0]), [0.0, 0.0, -1.0])
        factor = _UpdatedCholesky()
        with pytest.raises(FactorizationError):
            solve_subsystem(p, [1, 2], [0], factor=factor)
        self.assert_fresh_answer(p, [0, 2], [1], factor)

    def test_large_sparse_blocks_keep_superlu(self, monkeypatch):
        # Above the threshold a sparse block takes the SuperLU path, the
        # same as without a factor: one splu per nonempty block.
        monkeypatch.setattr(rasqp.subsystem, "DENSE_THRESHOLD", 0)
        splu = scipy.sparse.linalg.splu
        solve = rasqp.solvers.solve_subsystem
        lu_calls, sizes = [], []

        def counted_splu(*args, **kwargs):
            lu_calls.append(args[0].shape)
            return splu(*args, **kwargs)

        def spy(problem, I, A, **kwargs):
            sizes.append(len(I))
            return solve(problem, I, A, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counted_splu)
        monkeypatch.setattr(rasqp.solvers, "solve_subsystem", spy)
        result = fletcher_solve(gen_medium(80, 0.1, 1e6, seed=2))
        assert result.status is Status.OPTIMAL
        assert len(sizes) == result.solves
        assert lu_calls == [(m, m) for m in sizes if m] and lu_calls


class TestEmbedPoint:
    def test_scatter(self):
        point = embed_point(3, [0, 2], [1], np.array([2.0, 3.0]), np.array([-1.0]))
        np.testing.assert_array_equal(point.x, [2.0, 0.0, 3.0])
        np.testing.assert_array_equal(point.s, [0.0, -1.0, 0.0])

    def test_structural_zeros(self):
        rng = np.random.default_rng(23)
        p = rand_spd_problem(10, rng)
        I, A = random_partition(10, rng)
        point = embed_point(10, I, A, *solve_subsystem(p, I, A))
        assert np.all(point.x[A] == 0.0)
        assert np.all(point.s[I] == 0.0)
        assert point.x @ point.s == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            embed_point(3, [0, 1], [2], np.array([1.0]), np.empty(0))
