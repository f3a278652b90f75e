import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
import scipy.sparse as sp

import rasqp.subsystem

from rasqp.bench import BenchmarkPlan, run_plan
from rasqp.cli import main
from rasqp.engine import ChangeProbabilities, classify
from rasqp.generators import GeneratorSpec, gen_easy, gen_hard, gen_medium
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
from rasqp.solvers import (
    GenericRasConfig,
    KrConfig,
    RasConfig,
    brute_force_solve,
    fletcher_solve,
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
        assert repr(p) == "QpProblem(n=2, dense)"

    def test_sparse_storage_is_csc(self):
        p = QpProblem(sp.coo_array(Q22), G22)
        assert p.is_sparse
        assert p.Q.format == "csc"
        np.testing.assert_array_equal(p.dense_q(), Q22)
        assert repr(QpProblem(sp.eye_array(5), np.ones(5))) == "QpProblem(n=5, sparse)"

    def test_dense_q_is_plain_array(self):
        assert isinstance(QpProblem(Q22, G22).dense_q(), np.ndarray)

    def test_tiny_asymmetry_is_symmetrized(self):
        # (Q + Q')/2 is exactly symmetric, dense or sparse, so
        # validate_problem needs no symmetry test of its own.
        Q = Q22.copy()
        Q[0, 1] += 1e-14
        p = QpProblem(Q, G22)
        np.testing.assert_array_equal(p.Q, p.Q.T)
        p = QpProblem(sp.csc_array(Q), G22)
        assert (p.Q != p.Q.T).nnz == 0

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

    @pytest.mark.parametrize("store", [np.asarray, sp.csc_array], ids=["dense", "sparse"])
    def test_complex_q_rejected(self, store):
        # Cast to float64, [[2, i], [i, 2]] would lose its imaginary part.
        with pytest.raises(ValueError, match="Q must be real"):
            QpProblem(store(np.array([[2.0, 1j], [1j, 2.0]])), [-1.0, -1.0])

    @pytest.mark.parametrize("g", [np.array([-1.0 + 0j, -1.0]), [-1.0, 1j]],
                             ids=["array", "list"])
    def test_complex_g_rejected(self, g):
        with pytest.raises(ValueError, match="g must be real"):
            QpProblem(Q22, g)

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
        # A column g used to be flattened.
        with pytest.raises(ValueError, match=r"^g must be 1-D"):
            QpProblem(np.eye(2), [[1.0], [2.0]])

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
        # An (n, 1) point used to pass here and fail in kkt_residual's matmul;
        # lists raised AttributeError.
        with pytest.raises(ValueError, match=r"^x must be a 1-D array, not of shape \(2, 1\)$"):
            KktPoint(x=np.zeros((2, 1)), s=np.zeros((2, 1)))
        with pytest.raises(ValueError, match=r"^s must be a 1-D array, not of shape \(2, 1\)$"):
            KktPoint(x=np.zeros(2), s=np.zeros((2, 1)))
        with pytest.raises(ValueError, match=r"^x must be a 1-D array, not a list$"):
            KktPoint(x=[1.0, 2.0], s=[0.0, 0.0])


class TestObjective:
    def test_hand_value(self):
        # 0.5 * [1,1]'Q[1,1] + g'[1,1] = 4.5 - 3 = 1.5
        assert objective(QpProblem(Q22, G22), [1.0, 1.0]) == pytest.approx(1.5, abs=1e-15)

    def test_zero_point(self):
        assert objective(QpProblem(Q22, G22), np.zeros(2)) == 0.0

    def test_length_check(self):
        with pytest.raises(ValueError):
            objective(QpProblem(Q22, G22), np.zeros(3))
        # A (2, 2) x used to be flattened to length 4 and accepted.
        with pytest.raises(ValueError, match=r"^x has shape \(2, 2\), expected \(4,\)$"):
            objective(gen_hard(4, 10.0, 1), np.zeros((2, 2)))

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

    Every other diagonal is 4 and every edge 1: 0-2, 2-{1,3,4}, 5-{1,3,4}.
    Its own bandwidth, 4 (edge 5-1), is wider than RCM's, 3, so RCM's order
    is the one eliminated.  That order starts from the leaf 0 and reverses
    the breadth-first sweep, so node 5 is eliminated first, on an untouched
    zero diagonal, and SuperLU must pivot off it (the pivot it takes
    instead is 1 > 0).
    """
    Q = np.diag([4.0, 4.0, 4.0, 4.0, 4.0, 0.0])
    for i, j in [(0, 2), (2, 1), (2, 3), (2, 4), (5, 1), (5, 3), (5, 4)]:
        Q[i, j] = Q[j, i] = 1.0
    return Q


class TestValidateSparse:
    """A sparse Q is eliminated in the problem's elimination order: its own
    when no wider than RCM's, RCM's otherwise; ``pivot`` counts those steps.

    Each Q here is a full band in that order, so by default the band
    Cholesky validates it; SuperLU is then forced for its own verdict.
    """

    @pytest.mark.parametrize("Q, band_pivot, superlu_pivot, dense_pivot", [
        # The path 0-2-1: its own bandwidth, 2, is wider than RCM's, 1.
        # RCM order (1, 2, 0): pivots 4, 3.75, then -1 - 1/3.75 < 0.
        ([[-1.0, 0.0, 1.0], [0.0, 4.0, 1.0], [1.0, 1.0, 4.0]], 3, 3, 1),
        # The path 0-1-2 keeps its own order, as wide as RCM's: pivot -1.
        ([[-1.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]], 1, 1, 1),
        # Exactly singular: the band names the zero pivot's step; SuperLU
        # names no step, so its pivot is n.
        ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 2, 3, 2),
        (_zero_diagonal_first_in_rcm(), 1, 1, 6),
    ], ids=["indefinite", "indefinite-own-order", "exactly-singular", "zero-diagonal"])
    def test_rejection_names_the_rcm_step(self, Q, band_pivot, superlu_pivot, dense_pivot,
                                          monkeypatch):
        Q = np.array(Q)
        g = np.zeros(len(Q))
        with pytest.raises(NotPositiveDefiniteError) as exc:
            validate_problem(QpProblem(sp.csc_array(Q), g))
        assert exc.value.pivot == band_pivot
        with monkeypatch.context() as m:
            m.setattr(rasqp.subsystem, "_BAND_FILL", np.inf)  # SuperLU
            with pytest.raises(NotPositiveDefiniteError) as exc:
                validate_problem(QpProblem(sp.csc_array(Q), g))
        assert exc.value.pivot == superlu_pivot
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
        assert p._elimination is not None  # cached for later sparse solves


# Every integer option checked by model._require_int: (builder, field, lowest
# value).  GeneratorSpec's seed and exchange_asymmetry_montecarlo's samples
# have their own parametrized tests in test_generators and test_engine.
INTEGER_OPTIONS = {
    "RasConfig.seed": (lambda v: RasConfig(seed=v), "seed", 0),
    "GenericRasConfig.seed": (lambda v: GenericRasConfig(seed=v), "seed", 0),
    "RasConfig.max_solves": (lambda v: RasConfig(max_solves=v), "max_solves", 1),
    "GenericRasConfig.max_solves": (lambda v: GenericRasConfig(max_solves=v), "max_solves", 1),
    "KrConfig.max_solves": (lambda v: KrConfig(max_solves=v), "max_solves", 1),
    "BenchmarkPlan.trials": (lambda v: BenchmarkPlan(cells=(), trials=v), "trials", 1),
    "BenchmarkPlan.base_seed": (lambda v: BenchmarkPlan(cells=(), base_seed=v), "base_seed", 0),
    "GeneratorSpec.n-easy": (lambda v: GeneratorSpec("easy", v, seed=0, epsilon=1.0), "n", 1),
    "GeneratorSpec.n-hard": (lambda v: GeneratorSpec("hard", v, seed=0, cond=10.0), "n", 2),
    "gen_easy.n": (lambda v: gen_easy(v, 1.0, 0), "n", 1),
    "gen_medium.n": (lambda v: gen_medium(v, 0.5, 10.0, 0), "n", 2),
    "gen_hard.n": (lambda v: gen_hard(v, 10.0, 0), "n", 2),
    "gen_easy.seed": (lambda v: gen_easy(5, 1.0, v), "seed", 0),
    "gen_medium.seed": (lambda v: gen_medium(5, 0.5, 10.0, v), "seed", 0),
    "gen_hard.seed": (lambda v: gen_hard(5, 10.0, v), "seed", 0),
}


@pytest.mark.parametrize("option", INTEGER_OPTIONS)
def test_integer_options_share_one_rule(option):
    # A bool is an Integral, so True used to run as 1 (a seed, a cap, a size).
    build, field, low = INTEGER_OPTIONS[option]
    for value in (True, False, 2.5, low - 1):
        message = f"{field} must be an integer >= {low}, not {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(value)
    build(np.int64(low))


def _spec(family, field, **axes):
    """A GeneratorSpec row: None there means the axis was not given."""
    return (lambda v: GeneratorSpec(family, 5, seed=0, **axes, **{field: v}),
            field, RANGES[field], f"{family} family requires {field}")


RANGES = {"tol": "[0, inf)", "epsilon": "(0, inf)", "density": "(0, 1]", "cond": "[1, inf)"}

# Every real-valued option checked by model._require_real, at each library
# boundary: (builder, field, the interval as the message writes it and, where
# None is not a value but the field's absence, the message None gives).
REAL_OPTIONS = {
    "RasConfig.tol": (lambda v: RasConfig(tol=v), "tol", RANGES["tol"]),
    "GenericRasConfig.tol": (lambda v: GenericRasConfig(tol=v), "tol", RANGES["tol"]),
    "KrConfig.tol": (lambda v: KrConfig(tol=v), "tol", RANGES["tol"]),
    "fletcher_solve.tol": (lambda v: fletcher_solve(QpProblem(Q22, G22), tol=v), "tol",
                           RANGES["tol"]),
    "brute_force_solve.tol": (lambda v: brute_force_solve(QpProblem(Q22, G22), tol=v), "tol",
                              RANGES["tol"]),
    "classify.tol": (lambda v: classify(KktPoint(x=np.zeros(2), s=np.array([0.0, -1.0])),
                                        np.array([True, False]), v), "tol", RANGES["tol"]),
    **{f"ChangeProbabilities.{p}": (lambda v, p=p: ChangeProbabilities(**{p: v}), p, "(0, 1]")
       for p in ("p1", "p2", "p3", "p4", "p5", "p6")},
    "GeneratorSpec.epsilon": _spec("easy", "epsilon"),
    "GeneratorSpec.density": _spec("medium", "density", cond=10.0),
    "GeneratorSpec.cond-medium": _spec("medium", "cond", density=0.5),
    "GeneratorSpec.cond-hard": _spec("hard", "cond"),
    "gen_easy.epsilon": (lambda v: gen_easy(5, v, 0), "epsilon", RANGES["epsilon"]),
    "gen_medium.density": (lambda v: gen_medium(5, v, 10.0, 0), "density", RANGES["density"]),
    "gen_medium.cond": (lambda v: gen_medium(5, 0.5, v, 0), "cond", RANGES["cond"]),
    "gen_hard.cond": (lambda v: gen_hard(5, v, 0), "cond", RANGES["cond"]),
    "BenchmarkPlan.time_limit_per_trial": (
        lambda v: BenchmarkPlan(cells=(), time_limit_per_trial=v), "time_limit_per_trial",
        "(0, inf]"),
}


@pytest.mark.parametrize("option", REAL_OPTIONS)
def test_real_options_share_one_rule(option):
    # A bool used to run as 0 or 1, a string or None raised TypeError, and
    # each range had its own wording, most without the value.
    build, field, interval, *none_message = REAL_OPTIONS[option]
    low, high = (float(end) for end in interval[1:-1].split(", "))
    outside = [end if bracket in "()" else math.nextafter(end, toward)
               for end, bracket, toward in ((low, interval[0], -math.inf),
                                            (high, interval[-1], math.inf))
               if bracket in "()" or math.isfinite(end)]
    for value in (True, False, "0.5", None, math.nan, *outside):
        message = f"{field} must be a number in {interval}, not {value!r}"
        if value is None and none_message:
            message = none_message[0]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(value)
    build(np.float64(low + 1.0 if high == math.inf else (low + high) / 2))


def _library(call):
    """A library boundary: the message of the ValueError ``call(value)`` raises,
    or None when it accepts the value."""
    def check(value, path):
        try:
            call(value)
        except ValueError as exc:
            return str(exc)
        return None
    return check


def _plan_cell(value, path):
    """A plan cell's ``tol`` option: the message of the ValueError the plan raises
    when it is built, or None when the plan takes the value and its trial runs."""
    spec = GeneratorSpec("hard", 5, seed=0, cond=10.0)
    try:
        plan = BenchmarkPlan(cells=((spec, "ras", {"tol": value}),), trials=1)
    except ValueError as exc:
        return str(exc)
    [record] = run_plan(plan)
    assert record.error is None
    return None


def _command(*argv):
    """A command's ``--tol``: None on exit 0; on exit 1 its one stderr line,
    after ``rasqp: error: argument --tol: ``."""
    def check(value, path):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([a.format(file=path) for a in argv] + ["--tol", str(value)])
        if code == 0:
            return None
        assert (code, out.getvalue()) == (1, "")
        [line] = err.getvalue().splitlines()
        prefix = "rasqp: error: argument --tol: "
        assert line.startswith(prefix)
        return line.removeprefix(prefix)
    return check


# Every place a dual tolerance enters, all checked by model._require_real.
TOL_BOUNDARIES = {
    "RasConfig": _library(lambda v: RasConfig(tol=v)),
    "GenericRasConfig": _library(lambda v: GenericRasConfig(tol=v)),
    "KrConfig": _library(lambda v: KrConfig(tol=v)),
    "fletcher_solve": _library(lambda v: fletcher_solve(QpProblem(Q22, G22), tol=v)),
    "brute_force_solve": _library(lambda v: brute_force_solve(QpProblem(Q22, G22), tol=v)),
    "classify": _library(lambda v: classify(KktPoint(x=np.zeros(2), s=np.array([0.0, -1.0])),
                                            np.array([True, False]), v)),
    "plan cell": _plan_cell,
    "rasqp solve": _command("solve", "{file}"),
    "rasqp bench": _command("bench", "--family", "hard", "--n", "5", "--cond", "10",
                            "--trials", "1", "--solvers", "ras"),
    "rasqp trace": _command("trace", "--family", "hard", "--n", "5", "--cond", "10"),
}


@pytest.mark.parametrize("boundary", TOL_BOUNDARIES)
def test_tol_boundaries_share_one_rule(boundary, tmp_path):
    # An infinite tol would pass every s_j, so a run would stop Optimal at x = 0.
    path = tmp_path / "small.txt"
    path.write_text("n 2\ndense\n4 1\n1 3\ng\n-1 -2\n")
    check = TOL_BOUNDARIES[boundary]
    for value in (math.inf, math.nan, -1, True, "1e-8", None):
        if not boundary.startswith("rasqp"):
            message = f"tol must be a number in [0, inf), not {value!r}"
        elif value == "1e-8":  # the command line reads its text as a float
            message = None
        elif value is True or value is None:
            message = f"invalid float value: '{value}'"
        else:
            message = f"tol must be a number in [0, inf), not {float(value)!r}"
        assert check(value, path) == message, value
    for value in (0, np.float64(1e-8)):
        assert check(value, path) is None
