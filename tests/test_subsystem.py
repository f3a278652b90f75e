import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg

import rasqp.solvers
import rasqp.subsystem
from conftest import rand_spd_problem
from rasqp.generators import gen_easy, gen_hard, gen_medium
from rasqp.model import (
    NotPositiveDefiniteError,
    QpProblem,
    Status,
    kkt_residual,
    stationarity_tol,
    validate_problem,
)
from rasqp.solvers import (
    GenericRasConfig,
    KrConfig,
    RasConfig,
    fletcher_solve,
    generic_ras_solve,
    kr_solve,
    ras_solve,
)
from rasqp.subsystem import (
    FactorizationError,
    _band,
    _dense_solve,
    _entry_map,
    _factor_sparse,
    _superlu,
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


def counted_splu(monkeypatch) -> list:
    """Record the block's shape on each call of ``scipy.sparse.linalg.splu``."""
    splu = scipy.sparse.linalg.splu
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
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
        # nonempty block goes through SuperLU, in the problem's elimination
        # order.  The reference is the
        # dense Cholesky of Q[I,I] in the (shuffled) order passed, on a dense
        # pattern, the banded easy family and an unstructured medium matrix.
        rng = np.random.default_rng(11)
        dense = rand_spd_problem(20, rng)
        problems = (QpProblem(sp.csc_array(dense.Q), dense.g),
                    gen_easy(150, 1.0, seed=2),
                    gen_medium(150, 0.05, 1e4, seed=2))
        rcm = scipy.sparse.csgraph.reverse_cuthill_mckee
        lu_calls, rcm_calls = counted_splu(monkeypatch), []

        def counted_rcm(*args, **kwargs):
            rcm_calls.append(args[0].shape)
            return rcm(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.csgraph, "reverse_cuthill_mckee", counted_rcm)
        monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", 0)
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
            np.testing.assert_array_equal(np.sort(p._elimination[0]), np.arange(n))

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
        monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", 0)
        monkeypatch.setattr(rasqp.subsystem, "_BAND_FILL", np.inf)
        for _ in range(3):
            I, A = map(rng.permutation, random_partition(p.n, rng))
            received.clear()
            x_I, s_A = solve_subsystem(p, I, A)
            assert received == [("csc", True)]
            order = np.argsort(p._elimination[0][I])
            J = I[order]
            cols = p.Q[:, J]
            y = splu(cols[J, :], permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True}).solve(-p.g[J])
            x_ref = np.empty_like(y)
            x_ref[order] = y
            np.testing.assert_array_equal(x_I, x_ref)
            np.testing.assert_array_equal(s_A, (cols @ y)[A] + p.g[A])

    @pytest.mark.parametrize("epsilon", [1.0, 1e-10])
    def test_band_block_matches_the_row_slice_route(self, epsilon, monkeypatch):
        # The band is read from the columns J of Q in its elimination
        # order, not from the rows J of a CSR slice, and x_I and s_A are
        # bit-identical to that row route: the same band, the same pbtrs,
        # and s summed row by row in J order.
        p = gen_easy(2500, epsilon, seed=6)
        rng = np.random.default_rng(7)
        pbtrf_calls = counted_kernel(monkeypatch, "_pbtrf")
        pbtrf, pbtrs = sla.get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)
        for _ in range(3):
            I, A = random_partition(p.n, rng)
            assert len(I) > rasqp.subsystem._DENSE_MAX
            pbtrf_calls.clear()
            x_I, s_A = solve_subsystem(p, I, A)
            assert len(pbtrf_calls) == 1
            order = np.argsort(p._elimination[0][I])
            J = I[order]
            m = len(J)
            rows = p.Q[:, J].tocsr()  # all n rows of the columns J
            block = rows[J]
            below = np.repeat(np.arange(m), np.diff(block.indptr)) - block.indices
            lower = below >= 0
            ab = np.zeros((below.max() + 1, m), order="F")
            ab[below[lower], block.indices[lower]] = block.data[lower]
            c, info = pbtrf(ab, lower=1)
            assert info == 0
            y = pbtrs(c, -p.g[J], lower=1)[0]
            x_ref = np.empty_like(y)
            x_ref[order] = y
            np.testing.assert_array_equal(x_I, x_ref)
            np.testing.assert_array_equal(s_A, (rows @ y + p.g)[A])

    def test_validation_factors_q_as_a_superlu_solve_does(self, monkeypatch):
        # validate_problem's verdict stands for the solves only if it runs
        # the elimination they run: the same splu options, and with every
        # index inactive the same block, Q in its elimination order as
        # sorted CSC.
        p = gen_easy(200, 1.0, seed=4)
        splu = scipy.sparse.linalg.splu
        calls = []

        def spy(a, *args, **kwargs):
            calls.append(((a.data.copy(), a.indices.copy(), a.indptr.copy()), args, kwargs))
            assert (a.format, a.has_canonical_format) == ("csc", True)
            return splu(a, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", 0)
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
        # same band of Q in its elimination order, its own.
        p = gen_easy(200, 1.0, seed=4)
        pbtrf = rasqp.subsystem._pbtrf
        calls = []

        def spy(ab, *args, **kwargs):
            calls.append((ab.copy(order="F"), args, kwargs))
            return pbtrf(ab, *args, **kwargs)

        monkeypatch.setattr(rasqp.subsystem, "_pbtrf", spy)
        monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", 0)
        validate_problem(p)
        solve_subsystem(p, np.arange(p.n), [])
        (validated, v_args, v_kwargs), (solved, s_args, s_kwargs) = calls
        assert (v_args, v_kwargs) == (s_args, s_kwargs)
        np.testing.assert_array_equal(validated, solved)

    def test_band_and_superlu_verdicts_name_the_same_pivot(self, monkeypatch):
        # A banded Q whose diagonal turns negative part way along: both
        # kernels eliminate in the problem's elimination order on the
        # diagonal, so they stop at the same step.
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
        assert p._elimination is None  # only blocks above the cut order Q

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
        with pytest.raises(FactorizationError) as exc:
            solve_subsystem(p, [1], [0])
        assert exc.value.pivot == 1

    @pytest.mark.parametrize("factor", [None, _UpdatedCholesky], ids=["fresh", "updated"])
    @pytest.mark.parametrize("A", [[], [2]], ids=["A-empty", "A-nonempty"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_non_finite_solve_names_no_pivot(self, sparse, A, factor):
        # Q[I,I] factorizes, but x_0 = 1e10 / 1e-300 overflows to inf; s_A
        # stays finite, so the check must read x_I or the full s = Q x + g.
        Q = np.diag([1e-300, 1.0, 1.0])
        p = QpProblem(sp.csc_array(Q) if sparse else Q, [-1e10, -1.0, -1.0])
        I = [0, 1] if A else [0, 1, 2]
        with pytest.raises(FactorizationError, match="non-finite") as exc:
            solve_subsystem(p, I, A, factor=factor and factor())
        assert exc.value.pivot is None


def counted_partition_checks(monkeypatch) -> list:
    """Record n on each call of ``rasqp.subsystem._check_partition``."""
    check = rasqp.subsystem._check_partition
    calls = []

    def counted(n, I, A):
        calls.append(n)
        return check(n, I, A)

    monkeypatch.setattr(rasqp.subsystem, "_check_partition", counted)
    return calls


class TestPartitionCheck:
    """The partition is checked at the public boundary, not in a run's loop."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("solve", [
        lambda p: ras_solve(p, RasConfig(seed=1)),
        lambda p: generic_ras_solve(p, GenericRasConfig(seed=1)),
        lambda p: kr_solve(p, KrConfig()),
        fletcher_solve,
    ], ids=["ras", "generic", "kr", "fletcher"])
    def test_runs_do_not_check_their_own_sets(self, solve, sparse, monkeypatch):
        p = gen_medium(40, 0.2, 1e4, seed=5) if sparse else gen_hard(30, 1e4, seed=5)
        checks = counted_partition_checks(monkeypatch)
        result = solve(p)
        assert result.status is Status.OPTIMAL and result.solves > 1
        assert checks == []

    def test_every_public_call_checks_once(self, monkeypatch):
        checks = counted_partition_checks(monkeypatch)
        p = QpProblem(Q22, G22)
        solve_subsystem(p, [0], [1])
        solve_subsystem(p, [1, 0], [])
        for I, A in (([0], [0]), ([], [2, 0])):
            with pytest.raises(ValueError):
                solve_subsystem(p, I, A)
        assert checks == [2] * 4
        solve_subsystem(p, [0], [1], factor=_UpdatedCholesky())  # a run's own kernel
        assert checks == [2] * 4

    @pytest.mark.parametrize("kernel, threshold, fill, problem", [
        ("_potrf", 1024, 0.1, lambda: gen_hard(30, 1e4, seed=6)),
        ("_potrf", 1024, 0.1, lambda: gen_medium(40, 0.2, 1e4, seed=6)),
        ("_pbtrf", 0, 0.1, lambda: gen_easy(60, 1.0, seed=6)),
        ("splu", 0, np.inf, lambda: gen_medium(40, 0.2, 1e4, seed=6)),
    ], ids=["dense", "densified-sparse", "band", "superlu"])
    def test_the_loops_kernel_matches_the_public_call(self, kernel, threshold, fill,
                                                      problem, monkeypatch):
        # Every solve of a run, repeated through the public path, gives the
        # same bytes; the named kernel factors every nonempty block.
        p = problem()
        monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", threshold)
        monkeypatch.setattr(rasqp.subsystem, "_BAND_FILL", fill)
        factors = (counted_splu(monkeypatch) if kernel == "splu"
                   else counted_kernel(monkeypatch, kernel))
        solve = rasqp.solvers.solve_subsystem
        solves = []

        def spy(problem, I, A, **kwargs):
            out = solve(problem, I, A, **kwargs)
            solves.append((I, A, kwargs, out))
            return out

        monkeypatch.setattr(rasqp.solvers, "solve_subsystem", spy)
        result = ras_solve(p, RasConfig(seed=2))
        assert result.status is Status.OPTIMAL and len(solves) == result.solves > 1
        assert len(factors) == sum(len(I) > 0 for I, *_ in solves)
        for I, A, kwargs, (x_I, s_A) in solves:
            assert kwargs == {"factor": rasqp.subsystem._FreshCholesky}
            ref = solve_subsystem(p, I, A)
            assert x_I.tobytes() == ref[0].tobytes() and s_A.tobytes() == ref[1].tobytes()


class TestEntryMap:
    @pytest.mark.parametrize("problem", [
        lambda: gen_easy(200, 1.0, seed=3),
        lambda: gen_medium(150, 0.05, 1e4, seed=3),
        lambda: QpProblem(sp.csc_array(rand_spd_problem(100, np.random.default_rng(3)).Q),
                          np.zeros(100)),
    ], ids=["easy", "medium", "dense-pattern"])
    def test_maps_every_stored_entry_of_the_columns_once(self, problem, monkeypatch):
        # With the cut at 64, blocks on both sides of it: the dense scatter
        # maps Q's columns I as passed (shuffled), a larger block the
        # columns J, sorted, of Q in the problem's elimination order, Qe.
        # Either way its values line up with r and c: those in the block,
        # summed so that a repeat shows, rebuild the block exactly, those
        # off it are exactly the entries whose rows lie off J, and c never
        # decreases.  A larger block maps first only the entries on and
        # below each column's diagonal, which rebuild the lower triangle of
        # Qe[J,J] the same way, and then, only when SuperLU factors it, its
        # whole columns.
        p = problem()
        rng = np.random.default_rng(8)
        entry_map, maps = rasqp.subsystem._entry_map, []

        def spy(n, J, counts, rows):
            r, c = entry_map(n, J, counts, rows)
            maps.append((J, r.copy(), c.copy()))  # the band kernel reuses c for r - c
            return r, c

        monkeypatch.setattr(rasqp.subsystem, "_entry_map", spy)
        monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", 64)
        splu_calls = counted_splu(monkeypatch)
        sizes = (1, 40, 64, 65, p.n - 20, p.n)
        # The default rule, then SuperLU forced for every block above the cut.
        for fill in (rasqp.subsystem._BAND_FILL, np.inf):
            monkeypatch.setattr(rasqp.subsystem, "_BAND_FILL", fill)
            for m in sizes:
                I = rng.permutation(p.n)
                maps.clear()
                splu_calls.clear()
                solve_subsystem(p, I[:m], I[m:])
                if m <= 64:
                    assert len(maps) == 1
                    np.testing.assert_array_equal(maps[0][0], I[:m])
                    self.assert_maps_the_columns(p.Q, *maps[0], lower=False)
                else:
                    assert len(maps) == 1 + len(splu_calls)
                    assert len(maps) == 2 or fill != np.inf
                    for (J, r, c), lower in zip(maps, (True, False)):
                        assert len(J) == m and np.all(np.diff(J) > 0)
                        self.assert_maps_the_columns(p._elimination[2], J, r, c, lower)

    @staticmethod
    def assert_maps_the_columns(Q, J, r, c, lower: bool) -> None:
        cols = Q[:, J]
        block = Q[J][:, J].toarray()
        if lower:
            keep = cols.indices >= np.repeat(J, np.diff(cols.indptr))
            cols = sp.csc_array((cols.data[keep], cols.indices[keep],
                                 np.concatenate(([0], np.cumsum(keep)))[cols.indptr]),
                                shape=cols.shape)
            block = np.tril(block)
        assert len(r) == len(c) == cols.nnz
        inside = r >= 0
        rebuilt = np.zeros((len(J), len(J)))
        np.add.at(rebuilt, (r[inside], c[inside]), cols.data[inside])
        np.testing.assert_array_equal(rebuilt, block)
        np.testing.assert_array_equal(inside, np.isin(cols.indices, J))
        assert np.all(np.diff(c) >= 0)


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
        # so validation, which eliminates a sparse Q in the problem's
        # elimination order, names the same step as a solve in the natural
        # order.
        Q = np.array([[4.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.0, 1.0, 4.0]])
        p = QpProblem(sp.csc_array(Q) if sparse else Q, np.ones(3))
        with pytest.raises(FactorizationError, match=r"\(potrf info 2\)") as exc:
            solve_subsystem(p, np.arange(3), [])
        assert exc.value.pivot == 2
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
        monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", 0)
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
        monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", 0)
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
        monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", 0)
        Q = sp.diags_array([np.ones(9), [4.0, 4.0, 4.0, -1.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0],
                            np.ones(9)], offsets=[-1, 0, 1]).tocsc()
        p = QpProblem(Q, np.ones(10))
        pbtrf_calls = counted_kernel(monkeypatch, "_pbtrf")
        with pytest.raises(FactorizationError, match="pbtrf") as exc:
            solve_subsystem(p, np.arange(10), [])
        assert pbtrf_calls == [(2, 10)]
        # Every pivot before index 3's is positive, and its own is
        # -1 - 1/d < 0, so pbtrf stops at index 3's step in the problem's
        # elimination order.
        assert exc.value.pivot == p._elimination[0][3] + 1

    def test_rule_keeps_superlu_for_a_holey_band(self, monkeypatch):
        # In its elimination order the easy family's Q, in its own order,
        # is a band 43% full, the medium family's at density 0.002, in its
        # RCM order, one with about 2% of its band stored: the first takes
        # the band kernel, the second SuperLU.
        pbtrf_calls = counted_kernel(monkeypatch, "_pbtrf")
        splu_calls = counted_splu(monkeypatch)
        for p, band in ((gen_easy(3000, 1.0, seed=0), True),
                        (gen_medium(3000, 0.002, 1e4, seed=0), False)):
            pbtrf_calls.clear()
            splu_calls.clear()
            _factor_sparse(p, np.arange(p.n))  # all of Q in its elimination order
            assert (len(pbtrf_calls), len(splu_calls)) == ((1, 0) if band else (0, 1))


def permuted(p: QpProblem, perm: np.ndarray) -> QpProblem:
    """The problem (P Q P', P g) for the permutation that puts index perm[i] at i."""
    return QpProblem(p.Q[perm][:, perm], p.g[perm])


def column_slice_solve(p: QpProblem, I: np.ndarray):
    """x_I and the full-length s of a block above the cut, by the route that
    read Q[I,I] from the column slice Q[:, J], with J the indexes of I in
    the problem's elimination order: the band Cholesky, or SuperLU on the
    block with its rows sorted, and s summed over the columns J."""
    order = np.argsort(rasqp.subsystem._elimination_order(p)[0][I])
    J = I[order]
    m = len(J)
    cols = p.Q[:, J]
    r, c = _entry_map(p.n, J, np.diff(cols.indptr), cols.indices)
    solve = _band(m, r, c.copy(), cols.data.take)
    if solve is None:
        ascending = np.lexsort((r, c))
        solve = _superlu(m, r[ascending], c[ascending], cols.data[ascending].take)
    y = solve(-p.g[J])
    x_I = np.empty_like(y)
    x_I[order] = y
    return x_I, cols @ y + p.g


class TestEliminationOrder:
    """A sparse problem is eliminated in Q's own order when that is no wider
    than reverse Cuthill-McKee's, in RCM's otherwise, and a large block is
    read straight from Q kept in that order: its lower entries for the
    band, its whole columns for SuperLU."""

    def test_easy_keeps_its_own_order_and_medium_takes_rcm(self):
        for p, own in ((gen_easy(3000, 1.0, seed=0), True),
                       (gen_easy(300, 1e-10, seed=1), True),
                       (gen_medium(3000, 0.002, 1e4, seed=0), False),
                       (gen_medium(150, 0.05, 1e4, seed=2), False)):
            rank, order, Qe, start = rasqp.subsystem._elimination_order(p)
            assert rasqp.subsystem._elimination_order(p) is p._elimination  # cached
            assert (Qe is p.Q) == own
            np.testing.assert_array_equal(order[rank], np.arange(p.n))
            if own:
                np.testing.assert_array_equal(rank, np.arange(p.n))
            else:
                # A copy of Q in RCM's order, with sorted indexes.
                np.testing.assert_array_equal(np.sort(rank), np.arange(p.n))
                assert Qe.has_sorted_indices
                assert (Qe != p.Q[order][:, order]).nnz == 0
            # Each column's entries from start on are those on and below
            # its diagonal.
            rows = Qe.indices
            cols = np.repeat(np.arange(p.n), np.diff(Qe.indptr))
            tail = np.arange(Qe.nnz) >= np.repeat(start, np.diff(Qe.indptr))
            np.testing.assert_array_equal(tail, rows >= cols)

    def test_permuted_easy_takes_rcm_and_the_band_kernel(self, monkeypatch):
        # Stored under a random symmetric permutation, the easy family's Q
        # is wider in its own order than in RCM's, which is then chosen;
        # its blocks are still full bands in that order.
        p = permuted(gen_easy(1500, 1.0, seed=3), np.random.default_rng(4).permutation(1500))
        pbtrf_calls = counted_kernel(monkeypatch, "_pbtrf")
        splu_calls = counted_splu(monkeypatch)
        rng = np.random.default_rng(5)
        for m in (1025, 1300, p.n):
            I = np.sort(rng.permutation(p.n)[:m])
            A = np.setdiff1d(np.arange(p.n), I)
            pbtrf_calls.clear()
            x_I, s_A = solve_subsystem(p, I, A)
            assert p._elimination[2] is not p.Q  # RCM's order, in a copy of Q
            assert len(pbtrf_calls) == 1 and pbtrf_calls[0][1] == m
            x_ref, s_ref = TestBandCholesky.dense_reference(p, I, A)
            np.testing.assert_allclose(x_I, x_ref, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(s_A, s_ref, rtol=1e-10, atol=1e-12)
        assert splu_calls == []

    def test_kr_on_a_permuted_problem_finds_the_permuted_answer(self, monkeypatch):
        # kr's blocks on (P Q P', P g) go through RCM and the band
        # Cholesky, those on (Q, g) through the band in Q's own order: the
        # runs end Optimal at the same point, permuted.
        monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", 64)
        p = gen_easy(400, 1.0, seed=5)
        perm = np.random.default_rng(6).permutation(p.n)
        q = permuted(p, perm)
        pbtrf_calls = counted_kernel(monkeypatch, "_pbtrf")
        splu_calls = counted_splu(monkeypatch)
        ours = kr_solve(p, KrConfig(tol=1e-8))
        theirs = kr_solve(q, KrConfig(tol=1e-8))
        assert ours.status is theirs.status is Status.OPTIMAL
        assert p._elimination[2] is p.Q and q._elimination[2] is not q.Q
        assert len(pbtrf_calls) > 2 and splu_calls == []
        x = ours.point.x[perm]
        assert np.abs(theirs.point.x - x).max() <= 1e-10 * np.abs(x).max()

    @pytest.mark.parametrize("epsilon", [1.0, 1e-10])
    def test_direct_read_matches_the_column_slice(self, epsilon, monkeypatch):
        # A block in Q's own order is factored from the entries on and
        # below each column's diagonal, read straight from Q, and s is
        # Q x + g: bit-identical to factoring the slice Q[:, I], both
        # triangles, and summing s over its columns.  The solve itself
        # never slices Q.
        def refuse(*args):
            raise AssertionError("the solve sliced Q")

        p = gen_easy(1500, epsilon, seed=7)
        rng = np.random.default_rng(8)
        n = p.n
        for m in (1025, 1200, 1400, n):
            I = np.sort(np.concatenate(([0, n - 1], rng.permutation(np.arange(1, n - 1))[:m - 2])))
            A = np.setdiff1d(np.arange(n), I)
            with monkeypatch.context() as patch:
                patch.setattr(sp.csc_array, "__getitem__", refuse)
                x_I, s_A = solve_subsystem(p, I, A)
            assert p._elimination[2] is p.Q
            x_ref, s_ref = column_slice_solve(p, I)
            assert x_I.tobytes() == x_ref.tobytes()
            np.testing.assert_array_equal(s_A, s_ref[A])

    @pytest.mark.parametrize("problem, kernel", [
        (lambda: gen_medium(3000, 0.002, 1e10, 3), "_superlu"),
        (lambda: permuted(gen_easy(3000, 1.0, seed=0), np.random.default_rng(1).permutation(3000)),
         "_band"),
    ], ids=["medium-superlu", "permuted-easy-band"])
    def test_rcm_blocks_match_the_column_slice(self, problem, kernel, monkeypatch):
        # ras's blocks above the cut on problems that take RCM's order,
        # read from the copy of Q in that order: every x_I and s_A is
        # bit-identical to the column slice route's, with s summed over
        # the columns in the same order.
        p = problem()
        solve, blocks = rasqp.solvers.solve_subsystem, []

        def spy(problem, I, A, **kwargs):
            x_I, s_A = solve(problem, I, A, **kwargs)
            if len(I) > rasqp.subsystem._DENSE_MAX:
                blocks.append((I.copy(), A.copy(), x_I, s_A))
            return x_I, s_A

        monkeypatch.setattr(rasqp.solvers, "solve_subsystem", spy)
        pbtrf_calls = counted_kernel(monkeypatch, "_pbtrf")
        splu_calls = counted_splu(monkeypatch)
        assert ras_solve(p, RasConfig(seed=0)).status is Status.OPTIMAL
        assert p._elimination[2] is not p.Q
        assert len(blocks) > 5
        used = {"_band": (len(blocks), 0), "_superlu": (0, len(blocks))}[kernel]
        assert (len(pbtrf_calls), len(splu_calls)) == used
        for I, A, x_I, s_A in blocks:
            x_ref, s_ref = column_slice_solve(p, I)
            assert x_I.tobytes() == x_ref.tobytes()
            assert s_A.tobytes() == s_ref[A].tobytes()

    def test_holey_block_in_own_order_reaches_superlu(self, monkeypatch):
        # A star with its hub in the middle: RCM puts the hub near one end
        # and is wider, so Q keeps its own order, whose band of width n/2
        # is far too holey for the band Cholesky.
        n = 200
        Q = np.diag(np.full(n, float(n)))
        Q[n // 2, :] = Q[:, n // 2] = 1.0
        Q[n // 2, n // 2] = float(n)
        p = QpProblem(sp.csc_array(Q), -np.ones(n))
        monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", 0)
        pbtrf_calls = counted_kernel(monkeypatch, "_pbtrf")
        splu_calls = counted_splu(monkeypatch)
        rng = np.random.default_rng(9)
        for I, A in ((np.arange(n), np.arange(0)), random_partition(n, rng)):
            I = np.union1d(I, [n // 2])
            A = np.setdiff1d(A, [n // 2])
            splu_calls.clear()
            x_I, s_A = solve_subsystem(p, I, A)
            assert splu_calls == [(len(I), len(I))]
            x_ref, s_ref = TestBandCholesky.dense_reference(p, I, A)
            np.testing.assert_allclose(x_I, x_ref, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(s_A, s_ref, rtol=1e-12, atol=1e-14)
        assert p._elimination[2] is p.Q and pbtrf_calls == []


class TestOneVerdict:
    """Every kernel rejects a block that is not positive definite, at the
    step validate_problem names, whichever kernel the rule picks."""

    N = 60
    NEGATIVE = 45  # the index whose diagonal entry is negative

    @classmethod
    def holey_indefinite(cls) -> QpProblem:
        # A path with a hub coupled to every third index: in its RCM order,
        # narrower than its own, the band is wide and about 6% full, so the default rule takes
        # SuperLU.  Every pivot is positive up to the negative diagonal
        # entry's own.
        n = cls.N
        Q = np.diag(np.full(n, 4.0))
        i = np.arange(n - 1)
        Q[i, i + 1] = Q[i + 1, i] = 1.0
        hub = np.arange(3, n, 3)
        Q[0, hub] = Q[hub, 0] = 0.5
        Q[0, 0] = 12.0
        Q[cls.NEGATIVE, cls.NEGATIVE] = -1.0
        return QpProblem(sp.csc_array(Q), -np.ones(n))

    def test_every_kernel_names_the_validated_pivot(self, monkeypatch):
        p = self.holey_indefinite()
        with pytest.raises(NotPositiveDefiniteError) as verdict:
            validate_problem(p)
        pivot = verdict.value.pivot
        rank, rcm, _, _ = p._elimination
        assert pivot == rank[self.NEGATIVE] + 1 > 1
        dense_max, band_fill = rasqp.subsystem._DENSE_MAX, rasqp.subsystem._BAND_FILL
        pbtrf_calls = counted_kernel(monkeypatch, "_pbtrf")
        splu_calls = counted_splu(monkeypatch)
        # The dense kernel, handed I in the RCM order; then the sparse rule
        # as it stands (SuperLU for this holey band), SuperLU forced and
        # the band Cholesky forced (bandwidth 35).
        n = self.N
        for threshold, fill, calls in ((dense_max, band_fill, ([], [])),
                                       (0, band_fill, ([], [(n, n)])),
                                       (0, np.inf, ([], [(n, n)])),
                                       (0, 0.0, ([(36, n)], []))):
            monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", threshold)
            monkeypatch.setattr(rasqp.subsystem, "_BAND_FILL", fill)
            pbtrf_calls.clear()
            splu_calls.clear()
            with pytest.raises(FactorizationError) as exc:
                solve_subsystem(p, rcm, [])
            assert exc.value.pivot == pivot
            assert (pbtrf_calls, splu_calls) == calls
            with pytest.raises(NotPositiveDefiniteError) as again:
                validate_problem(p)
            assert again.value.pivot == pivot

    @pytest.mark.parametrize("solve, solves, failed", [
        (lambda p: ras_solve(p, RasConfig()), 1, 56),
        (lambda p: generic_ras_solve(p, GenericRasConfig()), 5, 57),
        (lambda p: kr_solve(p, KrConfig()), 1, N),
    ], ids=["ras", "generic", "kr"])
    def test_exchange_solvers_stop_on_a_superlu_block(self, solve, solves, failed, monkeypatch):
        # From A = {0..n-1} the first solve is empty; every later block goes
        # to SuperLU, and the first one that holds the negative pivot ends
        # the run without counting.  kr's first exchange makes every index
        # inactive, so its failing block is the whole of Q.
        monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", 0)
        monkeypatch.setattr(rasqp.subsystem, "_BAND_FILL", np.inf)
        splu_calls = counted_splu(monkeypatch)
        result = solve(self.holey_indefinite())
        assert result.status is Status.NUMERICAL_FAILURE
        assert result.solves == solves
        assert len(splu_calls) == result.solves
        assert splu_calls[-1] == (failed, failed)


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
            monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", 0)
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
        monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", 0)
        monkeypatch.setattr(rasqp.subsystem, "_BAND_FILL", np.inf)
        solve = rasqp.solvers.solve_subsystem
        lu_calls, sizes = counted_splu(monkeypatch), []

        def spy(problem, I, A, **kwargs):
            sizes.append(len(I))
            return solve(problem, I, A, **kwargs)

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
