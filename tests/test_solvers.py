import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

import rasqp.solvers
import rasqp.subsystem
from conftest import assert_certificate, rand_spd_problem
from rasqp.engine import ChangeProbabilities
from rasqp.generators import gen_hard, gen_medium
from rasqp.model import QpProblem, Status, objective
from rasqp.solvers import (
    DimensionTooLargeError,
    GenericRasConfig,
    KrConfig,
    RasConfig,
    brute_force_solve,
    fletcher_solve,
    generic_ras_solve,
    kr_solve,
    ras_solve,
)
from rasqp.subsystem import SubsystemSolution

Q22 = np.array([[4.0, 1.0], [1.0, 3.0]])
G22 = np.array([-1.0, -2.0])
X22 = np.array([1.0 / 11.0, 7.0 / 11.0])  # interior minimizer, Qx = -g

# A medium-family instance on which the full-exchange method provably
# revisits an active set (found by scanning seeds; deterministic).
CYCLING = dict(n=30, density=0.5, cond=1e12, seed=6)


def all_solver_runs(problem, seed=0, tol=1e-10):
    return {
        "ras": ras_solve(problem, RasConfig(seed=seed, tol=tol)),
        "generic": generic_ras_solve(problem, GenericRasConfig(seed=seed, tol=tol)),
        "kr": kr_solve(problem, KrConfig(tol=tol)),
        "fletcher": fletcher_solve(problem, tol=tol),
    }


class TestKnownSolutions:
    def test_interior_minimizer(self):
        problem = QpProblem(Q22, G22)
        for name, result in all_solver_runs(problem).items():
            assert result.status is Status.OPTIMAL, name
            np.testing.assert_allclose(result.point.x, X22, atol=1e-12)
            assert_certificate(problem, result, tol=1e-10)
        np.testing.assert_allclose(brute_force_solve(problem).x, X22, atol=1e-12)

    def test_active_bound(self):
        # Q = I, g = (1, -1): x* = (0, 1) with s* = (1, 0).
        problem = QpProblem(np.eye(2), [1.0, -1.0])
        for name, result in all_solver_runs(problem).items():
            assert result.status is Status.OPTIMAL, name
            np.testing.assert_array_equal(result.point.x, [0.0, 1.0])
            np.testing.assert_array_equal(result.point.s, [1.0, 0.0])

    def test_all_active(self):
        # g >= 0 makes x = 0 optimal; one solve from the default start.
        problem = QpProblem(Q22, [1.0, 2.0])
        for name, result in all_solver_runs(problem).items():
            assert result.status is Status.OPTIMAL, name
            np.testing.assert_array_equal(result.point.x, [0.0, 0.0])
            assert result.solves == 1, name

    def test_objective_value(self):
        result = ras_solve(QpProblem(Q22, G22), RasConfig())
        # At an interior minimizer f = 0.5 g'x = -15/22.
        assert result.objective == pytest.approx(-15.0 / 22.0, rel=1e-12)


class TestOracleEquivalence:
    def test_small_battery_matches_brute_force(self):
        rng = np.random.default_rng(101)
        for k in range(30):
            n = int(rng.integers(2, 11))
            problem = rand_spd_problem(n, rng)
            best = brute_force_solve(problem)
            for name, result in all_solver_runs(problem, seed=k).items():
                assert result.status is Status.OPTIMAL, name
                np.testing.assert_allclose(
                    result.point.x, best.x, atol=1e-10, err_msg=name
                )
                assert_certificate(problem, result, tol=1e-10)

    def test_optimal_beats_random_feasible_points(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            problem = rand_spd_problem(6, rng)
            star = fletcher_solve(problem)
            assert star.status is Status.OPTIMAL
            for _ in range(50):
                y = rng.random(6) * 2.0
                assert star.objective <= objective(problem, y) + 1e-9


class TestMetricBookkeeping:
    def test_trace_matches_solve_counts(self):
        result = ras_solve(QpProblem(Q22, G22), RasConfig(seed=3))
        assert len(result.trace) == result.solves
        assert [row.iteration for row in result.trace] == list(
            range(1, result.solves + 1)
        )
        sizes = [row.subsystem_size for row in result.trace]
        assert result.avg_subsystem_size == pytest.approx(np.mean(sizes))
        assert all(
            b.elapsed_s >= a.elapsed_s for a, b in zip(result.trace, result.trace[1:])
        )

    def test_fletcher_trace_rows(self):
        # From A = {0, 1}: s_A = g, both negative; release index 1 (x_1 = 2/3,
        # s_0 = 2/3 - 1 < 0); release index 0 and reach the interior point.
        result = fletcher_solve(QpProblem(Q22, G22))
        assert [(r.iteration, r.n_im, r.n_am, r.subsystem_size) for r in result.trace] == [
            (1, 0, 2, 0), (2, 0, 1, 1), (3, 0, 0, 2)]
        assert (result.solves, result.avg_subsystem_size) == (3, 1.0)

    def test_trace_counts_are_python_ints(self):
        for name, result in all_solver_runs(QpProblem(Q22, G22)).items():
            assert all(type(v) is int for row in result.trace for v in (row.n_im, row.n_am)), name

    def test_default_start_is_everything_active(self):
        result = ras_solve(QpProblem(Q22, G22), RasConfig(seed=0))
        assert result.trace[0].subsystem_size == 0

    def test_initial_inactive_start(self):
        # Starting from A = {} on an interior problem finishes in one solve.
        result = ras_solve(QpProblem(Q22, G22), RasConfig(initial_A=[]))
        assert result.status is Status.OPTIMAL
        assert result.solves == 1
        assert result.trace[0].subsystem_size == 2

    def test_initial_a_out_of_range(self):
        with pytest.raises(ValueError):
            ras_solve(QpProblem(Q22, G22), RasConfig(initial_A=[5]))

    @pytest.mark.parametrize("initial_A", [
        np.array([True, False]),  # a mask would read as the indexes {1, 0}
        np.array([1.7, 0.2]),  # floats would be truncated to {1, 0}
    ])
    @pytest.mark.parametrize("solve", [
        lambda p, a: ras_solve(p, RasConfig(initial_A=a)),
        lambda p, a: generic_ras_solve(p, GenericRasConfig(initial_A=a)),
        lambda p, a: kr_solve(p, KrConfig(initial_A=a)),
        lambda p, a: fletcher_solve(p, initial_A=a),
    ], ids=["ras", "generic", "kr", "fletcher"])
    def test_initial_a_must_hold_integer_indexes(self, solve, initial_A):
        with pytest.raises(ValueError, match="integer indexes"):
            solve(QpProblem(Q22, G22), initial_A)

    def test_initial_a_accepts_integer_and_empty_arrays(self):
        for initial_A in (np.array([1], dtype=np.uint8), np.array([1, 1]), np.array([])):
            assert fletcher_solve(QpProblem(Q22, G22), initial_A=initial_A).status is (
                Status.OPTIMAL)

    def test_trace_counts_match_an_independent_solve(self):
        problem = gen_hard(30, 1e6, seed=4)
        tol = 1e-10
        result = ras_solve(problem, RasConfig(seed=5, tol=tol, record_sets=True))
        assert result.status is Status.OPTIMAL and result.solves > 5
        Q, g = problem.dense_q(), problem.g
        for row, I in zip(result.trace, result.inactive_sets):
            A = np.setdiff1d(np.arange(problem.n), I)
            x_I = np.linalg.solve(Q[np.ix_(I, I)], -g[I])
            s_A = Q[np.ix_(A, I)] @ x_I + g[A]
            assert (row.n_im, row.n_am) == ((x_I <= 0.0).sum(), (s_A < -tol).sum())
            assert row.subsystem_size == len(I)

    def test_record_sets(self):
        result = ras_solve(QpProblem(Q22, G22), RasConfig(seed=1, record_sets=True))
        assert len(result.inactive_sets) == result.solves
        for row, inactive in zip(result.trace, result.inactive_sets):
            assert row.subsystem_size == len(inactive)

    def test_sets_not_recorded_by_default(self):
        assert ras_solve(QpProblem(Q22, G22), RasConfig()).inactive_sets is None


class TestNonFiniteIterates:
    # x_0 = 1e10 / 1e-300 overflows to inf, although Q[I,I] factorizes.
    Q = np.diag([1e-300, 1.0])
    G = np.array([-1e10, -1.0])

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_overflow_is_a_numerical_failure(self, sparse):
        problem = QpProblem(sp.csc_array(self.Q) if sparse else self.Q, self.G)
        for name, result in all_solver_runs(problem).items():
            assert result.status is Status.NUMERICAL_FAILURE, name
            assert np.isfinite(result.point.x).all(), name


class TestRasSolve:
    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(202)
        problem = rand_spd_problem(25, rng)
        a = ras_solve(problem, RasConfig(seed=9))
        b = ras_solve(problem, RasConfig(seed=9))
        assert a.solves == b.solves
        assert a.avg_subsystem_size == b.avg_subsystem_size
        assert np.array_equal(a.point.x, b.point.x)
        assert np.array_equal(a.point.s, b.point.s)

    @pytest.mark.parametrize("config", [RasConfig, GenericRasConfig, KrConfig])
    @pytest.mark.parametrize("max_solves", [0, -3])
    def test_cap_validation(self, config, max_solves):
        with pytest.raises(ValueError, match="max_solves must be >= 1"):
            config(max_solves=max_solves)

    def test_solve_cap(self):
        result = ras_solve(QpProblem(Q22, G22), RasConfig(max_solves=1))
        assert result.status is Status.ITERATION_CAP
        assert result.solves == 1

    def test_resample_cap_with_vanishing_probabilities(self):
        # Probabilities this small make every draw come back empty, so the
        # run burns its 10*n redraws and gives up without a second solve.
        probs = ChangeProbabilities(*(1e-15,) * 6)
        result = ras_solve(QpProblem(Q22, G22), RasConfig(probs=probs))
        assert result.status is Status.ITERATION_CAP
        assert result.solves == 1

    def test_certainty_probabilities_match_full_exchange(self):
        rng = np.random.default_rng(77)
        for k in range(10):
            problem = rand_spd_problem(int(rng.integers(5, 25)), rng)
            ones = ChangeProbabilities(1, 1, 1, 1, 1, 1)
            a = ras_solve(problem, RasConfig(probs=ones, seed=k, record_sets=True))
            b = kr_solve(problem, KrConfig(record_sets=True))
            assert a.status == b.status
            assert a.solves == b.solves
            for i_a, i_b in zip(a.inactive_sets, b.inactive_sets):
                np.testing.assert_array_equal(i_a, i_b)

    def test_numerical_failure_status(self):
        # Indefinite Q (constructor does not check definiteness): once the
        # negative-curvature index enters I the factorization fails.
        problem = QpProblem(np.diag([1.0, -1.0]), [-1.0, -1.0])
        result = ras_solve(problem, RasConfig(seed=0))
        assert result.status is Status.NUMERICAL_FAILURE


class TestGenericRasSolve:
    @pytest.mark.parametrize("initial_A", [None, []], ids=["all-active", "none-active"])
    def test_sigma_validated_in_config(self, initial_A):
        # With initial_A=[] the first solve is optimal, so no draw would
        # ever reach the engine's own check.
        with pytest.raises(ValueError, match="sigma must lie in"):
            generic_ras_solve(QpProblem(Q22, G22),
                              GenericRasConfig(sigma=0.7, initial_A=initial_A))

    def test_custom_probability_rule(self):
        # A rule returning per-index probabilities inside [sigma, 1 - sigma].
        def rule(point, Im, Am):
            return np.full(len(Im), 0.75), np.full(len(Am), 0.25)

        result = generic_ras_solve(
            QpProblem(Q22, G22), GenericRasConfig(sigma=0.25, probability_rule=rule)
        )
        assert result.status is Status.OPTIMAL
        np.testing.assert_allclose(result.point.x, X22, atol=1e-12)

    def test_rule_outside_band_rejected(self):
        def rule(point, Im, Am):
            return 0.9, 0.9

        with pytest.raises(ValueError):
            generic_ras_solve(
                QpProblem(Q22, G22),
                GenericRasConfig(sigma=0.5, probability_rule=rule),
            )

    def test_rule_with_a_nan_rejected(self):
        # The start has both indexes in Am; a NaN for one of them would
        # never be exchanged.
        def rule(point, Im, Am):
            return 0.5, np.where(Am == Am[-1], np.nan, 0.5)

        with pytest.raises(ValueError, match="probabilities must lie in"):
            generic_ras_solve(
                QpProblem(Q22, G22),
                GenericRasConfig(sigma=0.5, probability_rule=rule),
            )

    def test_solve_cap(self):
        result = generic_ras_solve(QpProblem(Q22, G22), GenericRasConfig(max_solves=1))
        assert result.status is Status.ITERATION_CAP
        assert result.solves == 1


class TestKrSolve:
    def test_cycle_detected_on_hard_instance(self):
        problem = gen_medium(**CYCLING)
        result = kr_solve(problem, KrConfig(tol=1e-10))
        assert result.status is Status.CYCLE_DETECTED
        # Detection fires on the first revisited active set, well before the
        # iteration cap.
        assert result.solves < 200

    def test_ras_survives_the_cycling_instance(self):
        problem = gen_medium(**CYCLING)
        result = ras_solve(problem, RasConfig(seed=0, tol=1e-10))
        assert result.status is Status.OPTIMAL
        assert_certificate(problem, result, tol=1e-10)

    def test_iteration_cap_reports_cycle(self):
        result = kr_solve(QpProblem(Q22, G22), KrConfig(max_solves=1))
        assert result.status is Status.CYCLE_DETECTED
        assert result.solves == 1

    def test_deterministic(self):
        rng = np.random.default_rng(303)
        problem = rand_spd_problem(20, rng)
        a = kr_solve(problem, KrConfig())
        b = kr_solve(problem, KrConfig())
        assert a.solves == b.solves
        assert np.array_equal(a.point.x, b.point.x)


class TestFletcherSolve:
    def test_history_monotone_and_feasible(self):
        rng = np.random.default_rng(404)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            problem = rand_spd_problem(n, rng)
            result = fletcher_solve(problem, record_iterates=True)
            assert result.status is Status.OPTIMAL
            hist = result.objective_history
            assert all(b <= a for a, b in zip(hist, hist[1:]))
            assert hist[0] == 0.0  # starts from x = 0
            assert hist[-1] == result.objective  # both from the same x
            for x in result.iterate_history:
                assert x.min() >= 0.0

    def test_iterates_not_recorded_by_default(self):
        result = fletcher_solve(QpProblem(Q22, G22))
        assert result.iterate_history is None
        assert result.objective_history is not None

    def test_exact_zeros_at_bounds(self):
        rng = np.random.default_rng(505)
        for _ in range(10):
            problem = rand_spd_problem(12, rng)
            result = fletcher_solve(problem)
            x = result.point.x
            assert np.all((x == 0.0) | (x > 0.0))
            # Some problems pin at least one variable; when they do, the
            # nonnegativity is exact, not epsilon-sized.
            if (x == 0.0).any():
                assert x.min() == 0.0


    def test_pinned_histories(self):
        # One index moves per solve, so a seeded hard instance has one
        # iterate per solve after the start; both histories are pinned by a
        # SHA-256 of their float64 bytes.  They were recorded with the
        # updated Cholesky factor; the fresh factor of every solve gave the
        # same counts and histories within 3.2e-11 relative.
        result = fletcher_solve(gen_hard(30, 1e10, seed=3), record_iterates=True)
        assert (result.status, result.solves) == (Status.OPTIMAL, 31)
        assert (len(result.objective_history), len(result.iterate_history)) == (26, 32)
        digests = [hashlib.sha256(np.array(h).astype("<f8").tobytes()).hexdigest()
                   for h in (result.iterate_history, result.objective_history)]
        assert digests == [
            "f635e97d657e26c92b9b4c93d6e48b609ea1f7423d388b23cd3a2d4726a82004",
            "157d602214657a8f85fde4695941347b3f983e13664feafe3bd2cd150de7db76",
        ]

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_tol_validation(self, tol):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            fletcher_solve(QpProblem(Q22, G22), tol=tol)

    @pytest.mark.parametrize("threshold, want", [
        (None, ["4c610f6ad55821438fd0e13eb320b2626ee54ad7d461107953ba41e3ebac85d6",
                "3f9415ed58020e24e87b0d259c5e49cf330abbd0c2da2fa25ce706e09e8bfffe"]),
        (0, ["ff326e38a60ed4cbf458488a11f779da51ecc91de64cd77ffe7174c2c46861cf",
             "610721ae9532b39c406b562bebb5afafb2412968d99d869907ac6cc62dcf90aa"]),
    ], ids=["factor", "superlu"])
    def test_pinned_sparse_histories(self, monkeypatch, threshold, want):
        # A sparse medium instance, once on the updated factor and once with
        # every nonempty block sent to SuperLU, whose objectives are then
        # evaluated afresh; the digests were recorded before the objective
        # was read from the factor's Q x.
        if threshold is not None:
            monkeypatch.setattr(rasqp.subsystem, "DENSE_THRESHOLD", threshold)
        result = fletcher_solve(gen_medium(60, 0.1, 1e8, 1), record_iterates=True)
        assert (result.status, result.solves) == (Status.OPTIMAL, 35)
        digests = [hashlib.sha256(np.array(h).astype("<f8").tobytes()).hexdigest()
                   for h in (result.iterate_history, result.objective_history)]
        assert digests == want

    def test_solve_cap(self, monkeypatch):
        # A subsystem that always blocks: a negative x_I while I is nonempty,
        # a negative s_A otherwise, so the run alternates forever and stops
        # at the cap of 10*n^2 solves.
        def never_done(problem, I, A, *, factor=None):
            return SubsystemSolution(-np.ones(len(I)), -np.ones(len(A)))

        monkeypatch.setattr(rasqp.solvers, "solve_subsystem", never_done)
        result = fletcher_solve(QpProblem(Q22, G22))
        assert result.status is Status.ITERATION_CAP
        assert result.solves == 40


class TestBruteForce:
    def test_dimension_limit(self):
        with pytest.raises(DimensionTooLargeError):
            brute_force_solve(QpProblem(np.eye(21), np.zeros(21)))

    def test_zero_linear_term(self):
        point = brute_force_solve(QpProblem(Q22, [0.0, 0.0]))
        np.testing.assert_array_equal(point.x, [0.0, 0.0])

    def test_structural_complementarity(self):
        rng = np.random.default_rng(606)
        for _ in range(5):
            problem = rand_spd_problem(7, rng)
            point = brute_force_solve(problem)
            assert point.x @ point.s == 0.0
            assert point.x.min() >= 0.0
