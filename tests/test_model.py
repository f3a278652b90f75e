import numpy as np
import pytest
import scipy.sparse as sp

from rasqp.model import (
    KktPoint,
    NotPositiveDefiniteError,
    NotSymmetricError,
    QpProblem,
    Status,
    TraceRow,
    kkt_residual,
    objective,
    stationarity_tol,
    validate_problem,
)

Q22 = np.array([[4.0, 1.0], [1.0, 3.0]])
G22 = np.array([-1.0, -2.0])
# Interior minimizer of the 2x2 instance: solves Qx = -g.
X22 = np.array([1.0 / 11.0, 7.0 / 11.0])


class TestQpProblem:
    def test_dense_storage(self):
        p = QpProblem([[2, 0], [0, 1]], [1, -1])
        assert p.n == 2
        assert not p.is_sparse
        assert p.Q.dtype == np.float64
        assert p.g.dtype == np.float64
        assert not p.Q.flags.writeable
        assert not p.g.flags.writeable

    def test_sparse_storage_is_csc(self):
        p = QpProblem(sp.coo_array(Q22), G22)
        assert p.is_sparse
        assert p.Q.format == "csc"
        np.testing.assert_array_equal(p.dense_q(), Q22)

    def test_dense_q_is_plain_array(self):
        assert isinstance(QpProblem(Q22, G22).dense_q(), np.ndarray)

    def test_tiny_asymmetry_is_symmetrized(self):
        Q = Q22.copy()
        Q[0, 1] += 1e-14
        p = QpProblem(Q, G22)
        np.testing.assert_array_equal(p.Q, p.Q.T)

    def test_large_asymmetry_rejected(self):
        Q = Q22.copy()
        Q[0, 1] = 2.0
        with pytest.raises(NotSymmetricError):
            QpProblem(Q, G22)

    def test_non_finite_dense_q_rejected(self):
        with pytest.raises(ValueError, match="Q has a NaN"):
            QpProblem([[np.nan, 0.0], [0.0, 1.0]], [1.0, -1.0])

    def test_non_finite_sparse_q_rejected(self):
        Q = sp.csc_array(np.array([[4.0, np.inf], [np.inf, 3.0]]))
        with pytest.raises(ValueError, match="Q has a NaN"):
            QpProblem(Q, G22)

    @pytest.mark.parametrize("store", [np.asarray, sp.csc_array], ids=["dense", "sparse"])
    def test_entries_whose_sum_would_overflow_rejected(self, store):
        # (Q + Q')/2 would store inf where Q_ij + Q_ji exceeds the largest
        # double; half of it is the largest magnitude that stays finite.
        half = np.finfo(np.float64).max / 2
        above = np.nextafter(half, np.inf)
        for Q in ([[1.7e308, 1.0], [1.0, 1.7e308]], [[1.0, 1.7e308], [1.7e308, 1.0]],
                  [[above, 0.0], [0.0, 1.0]], [[1.0, -above], [-above, 1.0]]):
            with pytest.raises(ValueError, match="would overflow"):
                QpProblem(store(np.array(Q)), G22)
        Q = np.array([[half, -half], [-half, half]])
        np.testing.assert_array_equal(QpProblem(store(Q), G22).dense_q(), Q)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_g_rejected(self, bad):
        with pytest.raises(ValueError, match="g has a NaN"):
            QpProblem(Q22, [bad, -1.0])

    def test_large_asymmetry_rejected_sparse(self):
        Q = Q22.copy()
        Q[1, 0] = -1.0
        with pytest.raises(NotSymmetricError):
            QpProblem(sp.csc_array(Q), G22)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            QpProblem(np.eye(3), G22)
        with pytest.raises(ValueError):
            QpProblem(np.ones((2, 3)), G22)

    def test_empty_g_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(np.empty((0, 0)), [])

    def test_inputs_are_copied(self):
        Q = Q22.copy()
        g = G22.copy()
        p = QpProblem(Q, g)
        Q[0, 0] = 99.0
        g[0] = 99.0
        assert p.Q[0, 0] == 4.0
        assert p.g[0] == -1.0


class TestStatus:
    def test_values(self):
        assert Status.OPTIMAL.value == "Optimal"
        assert Status.ITERATION_CAP.value == "IterationCapReached"
        assert Status.CYCLE_DETECTED.value == "CycleDetected"
        assert Status.NUMERICAL_FAILURE.value == "NumericalFailure"


class TestTraceRow:
    def test_infeasible_is_im_plus_am(self):
        row = TraceRow(iteration=1, n_im=3, n_am=4, subsystem_size=7, elapsed_s=0.0)
        assert row.infeasible == 7


class TestKktPoint:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            KktPoint(x=np.zeros(2), s=np.zeros(3))


class TestObjective:
    def test_hand_value(self):
        # 0.5 * [1,1]'Q[1,1] + g'[1,1] = 4.5 - 3 = 1.5
        assert objective(QpProblem(Q22, G22), [1.0, 1.0]) == pytest.approx(1.5, abs=1e-15)

    def test_zero_point(self):
        assert objective(QpProblem(Q22, G22), np.zeros(2)) == 0.0

    def test_length_check(self):
        with pytest.raises(ValueError):
            objective(QpProblem(Q22, G22), np.zeros(3))

    def test_sparse_matches_dense(self):
        x = np.array([0.3, 1.7])
        dense = objective(QpProblem(Q22, G22), x)
        sparse = objective(QpProblem(sp.csc_array(Q22), G22), x)
        assert dense == pytest.approx(sparse, rel=1e-15)


class TestKktResidual:
    def test_at_the_minimizer(self):
        p = QpProblem(Q22, G22)
        point = KktPoint(x=X22, s=np.zeros(2))
        stationarity, primal, dual, comp = kkt_residual(p, point)
        assert stationarity <= 1e-15
        assert primal == 0.0
        assert dual == 0.0
        assert comp == 0.0

    def test_detects_violations(self):
        p = QpProblem(Q22, G22)
        stationarity, primal, dual, comp = kkt_residual(
            p, KktPoint(x=np.array([-1.0, 0.5]), s=np.array([0.0, -2.0]))
        )
        # r = Qx + g - s = [-4.5, 1.5]
        assert stationarity == pytest.approx(4.5)
        assert primal == 1.0
        assert dual == 2.0
        assert comp == pytest.approx(1.0)

    def test_length_check(self):
        with pytest.raises(ValueError):
            kkt_residual(QpProblem(Q22, G22), KktPoint(x=np.zeros(3), s=np.zeros(3)))


class TestStationarityTol:
    def test_scale_relative(self):
        assert stationarity_tol(QpProblem(Q22, G22)) == pytest.approx(3e-8)
        assert stationarity_tol(QpProblem(np.eye(2), [0.0, 0.0])) == pytest.approx(1e-8)


class TestValidateProblem:
    def test_spd_passes(self):
        validate_problem(QpProblem(Q22, G22))
        validate_problem(QpProblem(sp.csc_array(Q22), G22))

    def test_does_not_mutate_the_problem(self):
        p = QpProblem(Q22, G22)
        validate_problem(p)
        np.testing.assert_array_equal(p.Q, Q22)

    def test_indefinite_reports_failing_minor(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            validate_problem(QpProblem(np.diag([1.0, -1.0]), [0.0, 0.0]))
        assert exc.value.pivot == 2

    def test_zero_matrix(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            validate_problem(QpProblem([[0.0]], [0.0]))
        assert exc.value.pivot == 1

    def test_semidefinite_rejected(self):
        Q = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            validate_problem(QpProblem(Q, [0.0, 0.0]))


def _zero_diagonal_first_in_rcm():
    """Q with a zero diagonal at node 5, the node its RCM order takes first.

    Every other diagonal is 4 and every edge 1: 0-1, 1-{2,3,4}, 5-{2,3,4}.
    The order starts from the leaf 0 and reverses the breadth-first sweep,
    so node 5 is eliminated first, on an untouched zero diagonal, and
    SuperLU must pivot off it (the pivot it takes instead is 1 > 0).
    """
    Q = np.diag([4.0, 4.0, 4.0, 4.0, 4.0, 0.0])
    for i, j in [(0, 1), (1, 2), (1, 3), (1, 4), (5, 2), (5, 3), (5, 4)]:
        Q[i, j] = Q[j, i] = 1.0
    return Q


class TestValidateSparse:
    """A sparse Q is eliminated in its RCM order; ``pivot`` counts those steps."""

    @pytest.mark.parametrize("Q, sparse_pivot, dense_pivot", [
        # RCM order (2, 1, 0): pivots 4, 3.75, then -1 - 1/3.75 < 0.
        ([[-1.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]], 3, 1),
        # Exactly singular: SuperLU names no step, so the pivot is n.
        ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 3, 2),
        (_zero_diagonal_first_in_rcm(), 1, 6),
    ], ids=["indefinite", "exactly-singular", "zero-diagonal"])
    def test_rejection_names_the_rcm_step(self, Q, sparse_pivot, dense_pivot):
        Q = np.array(Q)
        g = np.zeros(len(Q))
        with pytest.raises(NotPositiveDefiniteError) as exc:
            validate_problem(QpProblem(sp.csc_array(Q), g))
        assert exc.value.pivot == sparse_pivot
        with pytest.raises(NotPositiveDefiniteError) as exc:
            validate_problem(QpProblem(Q, g))
        assert exc.value.pivot == dense_pivot

    def test_never_densifies(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sparse Q was densified")

        p = QpProblem(sp.csc_array(np.diag([2.0, 3.0, 4.0]) + np.eye(3, k=1) + np.eye(3, k=-1)),
                      np.zeros(3))
        monkeypatch.setattr(sp.csc_array, "toarray", refuse)
        monkeypatch.setattr(sp.csr_array, "toarray", refuse)
        validate_problem(p)
        assert p._rcm_rank is not None  # cached for later SuperLU solves
