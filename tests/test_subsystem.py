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
from rasqp.model import (
    NotPositiveDefiniteError,
    QpProblem,
    Status,
    kkt_residual,
    stationarity_tol,
    validate_problem,
)
from rasqp.solvers import fletcher_solve
from rasqp.subsystem import (
    FactorizationError,
    _BandCholesky,
    _dense_solve,
    _factor_sparse,
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


def counted_kernel(monkeypatch, name: str) -> list:
    """Record the first argument's shape on each call of ``rasqp.subsystem.<name>``."""
    kernel = getattr(rasqp.subsystem, name)
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return kernel(a, *args, **kwargs)

    monkeypatch.setattr(rasqp.subsystem, name, counted)
    return calls


def counted_refactors(monkeypatch) -> list:
    """Record |I| on each call of ``_UpdatedCholesky._refactor``: the kept
    factor's own fresh factorizations, not the fresh path's."""
    refactor = _UpdatedCholesky._refactor
    calls = []

    def counted(self, problem, I):
        calls.append(len(I))
        return refactor(self, problem, I)

    monkeypatch.setattr(_UpdatedCholesky, "_refactor", counted)
    return calls


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
        # With the threshold at 0 and the band fill out of reach every
        # nonempty block goes through SuperLU, in the problem's reverse
        # Cuthill-McKee order.  The reference is the
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
        monkeypatch.setattr(rasqp.subsystem, "_BAND_FILL", np.inf)
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
        monkeypatch.setattr(rasqp.subsystem, "_BAND_FILL", np.inf)
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

    def test_validation_factors_q_as_a_superlu_solve_does(self, monkeypatch):
        # validate_problem's verdict stands for the solves only if it runs
        # the elimination they run: the same splu options, and with every
        # index inactive the same block, Q in its RCM order as sorted CSC.
        p = gen_easy(200, 1.0, seed=4)
        splu = scipy.sparse.linalg.splu
        calls = []

        def spy(a, *args, **kwargs):
            calls.append(((a.data.copy(), a.indices.copy(), a.indptr.copy()), args, kwargs))
            assert (a.format, a.has_canonical_format) == ("csc", True)
            return splu(a, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        monkeypatch.setattr(rasqp.subsystem, "DENSE_THRESHOLD", 0)
        monkeypatch.setattr(rasqp.subsystem, "_BAND_FILL", np.inf)
        validate_problem(p)
        solve_subsystem(p, np.arange(p.n), [])
        (validated, v_args, v_kwargs), (solved, s_args, s_kwargs) = calls
        assert (v_args, v_kwargs) == (s_args, s_kwargs)
        assert v_kwargs["permc_spec"] == "NATURAL"  # the options reach splu by keyword
        for a, b in zip(validated, solved):
            np.testing.assert_array_equal(a, b)

    def test_validation_factors_q_as_a_band_solve_does(self, monkeypatch):
        # On the default rule the easy family's Q is a full band, so
        # validation and a solve with every index inactive hand pbtrf the
        # same band of Q in its RCM order.
        p = gen_easy(200, 1.0, seed=4)
        pbtrf = rasqp.subsystem._pbtrf
        calls = []

        def spy(ab, *args, **kwargs):
            calls.append((ab.copy(order="F"), args, kwargs))
            return pbtrf(ab, *args, **kwargs)

        monkeypatch.setattr(rasqp.subsystem, "_pbtrf", spy)
        monkeypatch.setattr(rasqp.subsystem, "DENSE_THRESHOLD", 0)
        validate_problem(p)
        solve_subsystem(p, np.arange(p.n), [])
        (validated, v_args, v_kwargs), (solved, s_args, s_kwargs) = calls
        assert (v_args, v_kwargs) == (s_args, s_kwargs)
        np.testing.assert_array_equal(validated, solved)

    def test_band_and_superlu_verdicts_name_the_same_pivot(self, monkeypatch):
        # A banded Q whose diagonal turns negative part way along: both
        # kernels eliminate in the RCM order on the diagonal, so they stop
        # at the same step.
        n = 40
        diag = np.full(n, 4.0)
        diag[[5, 17, 30]] = -3.0
        p = QpProblem(sp.diags_array([np.ones(n - 2), np.ones(n - 1), diag, np.ones(n - 1),
                                      np.ones(n - 2)], offsets=[-2, -1, 0, 1, 2]).tocsc(),
                      np.zeros(n))
        pbtrf_calls = counted_kernel(monkeypatch, "_pbtrf")
        with pytest.raises(NotPositiveDefiniteError) as band:
            validate_problem(p)
        assert pbtrf_calls == [(3, n)]
        monkeypatch.setattr(rasqp.subsystem, "_BAND_FILL", np.inf)
        with pytest.raises(NotPositiveDefiniteError) as superlu:
            validate_problem(p)
        assert pbtrf_calls == [(3, n)]
        assert band.value.pivot == superlu.value.pivot > 1

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


class TestDenseKernel:
    """The fresh dense path: LAPACK potrf/potrs on the densified block."""

    @pytest.mark.parametrize("m", [1, 2, 45, 300])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_scipy_cholesky_bit_for_bit(self, m, order):
        rng = np.random.default_rng(m)
        B = rng.standard_normal((m, m))
        S = B @ B.T + m * np.eye(m)
        qii = np.array((S + S.T) / 2, order=order)  # exactly symmetric
        g_I = rng.standard_normal(m)
        ref = sla.cho_solve(sla.cho_factor(qii, lower=True), -g_I)  # on a copy of qii
        x_I = _dense_solve(qii, g_I)  # overwrites qii
        assert x_I.dtype == ref.dtype and x_I.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_indefinite_block_names_the_potrf_pivot(self, sparse):
        # The second pivot is -1 - 1/4 < 0 in either order of the indexes,
        # so validation, which orders a sparse Q by reverse Cuthill-McKee,
        # names the same step as a solve in the natural order.
        Q = np.array([[4.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.0, 1.0, 4.0]])
        p = QpProblem(sp.csc_array(Q) if sparse else Q, np.ones(3))
        with pytest.raises(FactorizationError, match=r"\(potrf info 2\)"):
            solve_subsystem(p, np.arange(3), [])
        with pytest.raises(NotPositiveDefiniteError) as verdict:
            validate_problem(p)
        assert verdict.value.pivot == 2


class TestBandCholesky:
    """Sparse blocks above the threshold whose band is full enough."""

    @staticmethod
    def dense_reference(p, I, A):
        Q, g = p.Q.toarray(), p.g
        x_I = sla.cho_solve(sla.cho_factor(Q[np.ix_(I, I)], lower=True), -g[I])
        return x_I, Q[np.ix_(A, I)] @ x_I + g[A]

    def test_easy_blocks_agree_with_dense_cholesky(self, monkeypatch):
        # The easy family's blocks take the band kernel on the default rule,
        # one pbtrf per solve, and x_I and s_A follow the shuffled order of
        # I and A.
        monkeypatch.setattr(rasqp.subsystem, "DENSE_THRESHOLD", 0)
        pbtrf_calls = counted_kernel(monkeypatch, "_pbtrf")
        rng = np.random.default_rng(13)
        for p in (gen_easy(150, 1.0, seed=2), gen_easy(200, 1e-10, seed=3)):
            for _ in range(3):
                I, A = map(rng.permutation, random_partition(p.n, rng))
                pbtrf_calls.clear()
                x_I, s_A = solve_subsystem(p, I, A)
                assert len(pbtrf_calls) == 1 and pbtrf_calls[0][1] == len(I)
                x_ref, s_ref = self.dense_reference(p, I, A)
                np.testing.assert_allclose(x_I, x_ref, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(s_A, s_ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("I", [[1], [4, 0, 2]], ids=["1x1", "bandwidth-0"])
    def test_smallest_bands(self, I, monkeypatch):
        # A 1x1 block and a diagonal one: a band of one row, solved to
        # round-off (the factor divides by sqrt(Q[i,i]) twice).
        monkeypatch.setattr(rasqp.subsystem, "DENSE_THRESHOLD", 0)
        pbtrf_calls = counted_kernel(monkeypatch, "_pbtrf")
        diag = np.array([2.0, 4.0, 8.0, 3.0, 0.5])
        Q = np.diag(diag)
        Q[3, 1] = Q[1, 3] = 1.0  # only off the blocks
        p = QpProblem(sp.csc_array(Q), [-2.0, -4.0, 1.0, 6.0, -1.0])
        I = np.array(I)
        A = np.setdiff1d(np.arange(5), I)
        x_I, s_A = solve_subsystem(p, I, A)
        assert pbtrf_calls == [(1, len(I))]
        np.testing.assert_allclose(x_I, -p.g[I] / diag[I], rtol=4e-16, atol=0)
        np.testing.assert_allclose(s_A, self.dense_reference(p, I, A)[1], rtol=4e-16, atol=0)

    def test_indefinite_band_raises(self, monkeypatch):
        monkeypatch.setattr(rasqp.subsystem, "DENSE_THRESHOLD", 0)
        Q = sp.diags_array([np.ones(9), [4.0, 4.0, 4.0, -1.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0],
                            np.ones(9)], offsets=[-1, 0, 1]).tocsc()
        p = QpProblem(Q, np.ones(10))
        with pytest.raises(FactorizationError, match="pbtrf"):
            solve_subsystem(p, np.arange(10), [])

    def test_rule_keeps_superlu_for_a_holey_band(self):
        # In its RCM order the easy family's Q is a band a quarter full, the
        # medium family's at density 0.002 one with about 2% of its band
        # stored: the first takes the band kernel, the second SuperLU.
        for p, band in ((gen_easy(3000, 1.0, seed=0), True),
                        (gen_medium(3000, 0.002, 1e4, seed=0), False)):
            order = np.argsort(rasqp.subsystem._rcm_rank(p))
            factor = _factor_sparse(p.Q[:, order].tocsr()[order])
            assert isinstance(factor, _BandCholesky) is band
            assert isinstance(factor, scipy.sparse.linalg.SuperLU) is not band


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
        # order, from the first solve on.  Only the first solve refactors,
        # every later one updates (the fresh reference solves factor too,
        # so the factor's refactors are counted, not potrf calls).
        rng = np.random.default_rng(41)
        n = 30
        p = self.well_conditioned(n, sparse, rng)
        Q = p.dense_q()
        refactors = counted_refactors(monkeypatch)
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
        assert len(refactors) == 1

    def test_nonpositive_pivot_refactors(self, monkeypatch):
        # An append whose new pivot comes out <= 0 in floating point falls
        # back to a fresh factor of Q[I,I].
        rng = np.random.default_rng(43)
        p = self.well_conditioned(12, False, rng)
        refactors = counted_refactors(monkeypatch)
        factor = _UpdatedCholesky()
        solve_subsystem(p, np.arange(5), np.arange(5, 12), factor=factor)
        trtrs = rasqp.subsystem._trtrs
        monkeypatch.setattr(rasqp.subsystem, "_trtrs",
                            lambda *args, **kwargs: (1e3 * trtrs(*args, **kwargs)[0], 0))
        self.assert_fresh_answer(p, np.arange(6), np.arange(6, 12), factor)
        assert refactors == [5, 6]

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
        # Above the threshold a sparse block takes the sparse kernels, the
        # same as without a factor: with SuperLU forced, one splu per
        # nonempty block.
        monkeypatch.setattr(rasqp.subsystem, "DENSE_THRESHOLD", 0)
        monkeypatch.setattr(rasqp.subsystem, "_BAND_FILL", np.inf)
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
