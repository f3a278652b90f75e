import hashlib
import time

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
        runs = {f"{name}-{label}": result
                for label, problem in (("2x2", QpProblem(Q22, G22)),
                                       ("hard", gen_hard(30, 1e8, seed=2)))
                for name, result in all_solver_runs(problem, seed=3).items()}
        # fletcher replaces the point and objective of a run that fails after
        # three solves (x_2 = 0.1 / 1e-310 overflows) ...
        runs["fletcher-failure"] = fletcher_solve(
            QpProblem(np.diag([1.0, 1.0, 1e-310]), np.array([-3.0, -2.0, -0.1])))
        # ... and of one whose first solve fails (Q is indefinite).
        runs["fletcher-empty"] = fletcher_solve(
            QpProblem(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([-1.0, -1.0])),
            initial_A=[])
        assert runs["fletcher-failure"].status is Status.NUMERICAL_FAILURE
        assert runs["fletcher-failure"].solves == 3
        assert (runs["fletcher-empty"].status, runs["fletcher-empty"].trace) == (
            Status.NUMERICAL_FAILURE, ())
        for name, result in runs.items():
            sizes = [row.subsystem_size for row in result.trace]
            assert result.solves == len(result.trace), name
            assert type(result.solves) is int, name
            assert [row.iteration for row in result.trace] == list(range(1, result.solves + 1))
            assert result.avg_subsystem_size == (sum(sizes) / len(sizes) if sizes else 0.0), name
            assert type(result.avg_subsystem_size) is float, name
            assert all(b.elapsed_s >= a.elapsed_s
                       for a, b in zip(result.trace, result.trace[1:])), name

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

    @pytest.mark.parametrize("initial_A", [[5], [-1]])
    @pytest.mark.parametrize("solve", [
        lambda p, a: ras_solve(p, RasConfig(initial_A=a)),
        lambda p, a: generic_ras_solve(p, GenericRasConfig(initial_A=a)),
        lambda p, a: kr_solve(p, KrConfig(initial_A=a)),
        lambda p, a: fletcher_solve(p, initial_A=a),
    ], ids=["ras", "generic", "kr", "fletcher"])
    def test_initial_a_out_of_range(self, solve, initial_A, monkeypatch):
        # The loop's one check on its sets: no solve re-checks them, and a
        # negative index would otherwise wrap in the mask.
        solves = []
        monkeypatch.setattr(rasqp.solvers, "solve_subsystem",
                            lambda *args, **kwargs: solves.append(args))
        with pytest.raises(ValueError, match="initial_A index out of range"):
            solve(QpProblem(Q22, G22), initial_A)
        assert solves == []

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

    def test_trace_rows_are_the_rows_each_solve_noted(self, monkeypatch):
        # Row k holds the counts of solve k's classify mask and is stamped
        # between that classify and solve k + 1.  Times are taken from a
        # stamp just before the solver call; the run's own clock starts
        # between that stamp and its first solve, which widens the lower
        # bound by the time to that first solve.
        solve_subsystem, classify = rasqp.solvers.solve_subsystem, rasqp.solvers.classify
        calls, masks = [], []

        def solve_spy(problem, I, A, **kwargs):
            calls.append((time.perf_counter(), len(I)))
            return solve_subsystem(problem, I, A, **kwargs)

        def classify_spy(point, inactive, tol):
            mask = classify(point, inactive, tol)
            masks.append((mask.copy(), inactive.copy(), time.perf_counter()))
            return mask

        monkeypatch.setattr(rasqp.solvers, "solve_subsystem", solve_spy)
        monkeypatch.setattr(rasqp.solvers, "classify", classify_spy)
        problem = gen_hard(30, 1e8, seed=2)
        for name, solve in (("ras", lambda: ras_solve(problem, RasConfig(seed=1))),
                            ("generic", lambda: generic_ras_solve(problem, GenericRasConfig(seed=1))),
                            ("kr", lambda: kr_solve(problem, KrConfig())),
                            ("fletcher", lambda: fletcher_solve(problem))):
            calls.clear()
            masks.clear()
            stamp = time.perf_counter()
            result = solve()
            done = time.perf_counter() - stamp
            assert len(result.trace) == len(calls) == len(masks) == result.solves > 2, name
            first_solve = calls[0][0] - stamp
            next_solves = [t - stamp for t, _ in calls[1:]] + [done]
            for k, row in enumerate(result.trace):
                mask, inactive, classified = masks[k]
                assert (row.iteration, row.n_im, row.n_am, row.subsystem_size) == (
                    k + 1, np.count_nonzero(mask & inactive), np.count_nonzero(mask & ~inactive),
                    calls[k][1]), (name, k)
                for f in ("iteration", "n_im", "n_am", "subsystem_size"):
                    assert type(getattr(row, f)) is int, (name, f)
                assert type(row.elapsed_s) is float
                assert classified - stamp - first_solve <= row.elapsed_s <= next_solves[k], (
                    name, k)

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_optimal_x_is_the_same_for_every_solver_seed(self, seed):
        # The hard-dense benchmark fails an op whose x is more than
        # 1e-6 max|x| from another optimal run on the same instance; at
        # cond 1e14 the runs take different paths to one final partition,
        # whose x must not depend on the path.
        problem = gen_hard(100, 1e14, seed)
        xs = []
        for solver_seed in range(10):
            result = ras_solve(problem, RasConfig(seed=solver_seed))
            assert result.status is Status.OPTIMAL
            xs.append(result.point.x)
        for x in xs[1:]:
            np.testing.assert_array_equal(x, xs[0])

    @pytest.mark.parametrize("config", [RasConfig, GenericRasConfig, KrConfig])
    @pytest.mark.parametrize("max_solves", [0, -3])
    def test_cap_validation(self, config, max_solves):
        with pytest.raises(ValueError,
                           match=f"max_solves must be an integer >= 1, not {max_solves}"):
            config(max_solves=max_solves)

    @pytest.mark.parametrize("config", [RasConfig, GenericRasConfig, KrConfig])
    @pytest.mark.parametrize("max_solves", [float("nan"), 2.5, 3.0])
    def test_cap_must_be_an_integer(self, config, max_solves):
        # A NaN cap passed the >= 1 check and lifted the cap; 2.5 allowed 3 solves.
        with pytest.raises(ValueError, match="max_solves must be an integer"):
            config(max_solves=max_solves)

    def test_cap_accepts_numpy_integers(self):
        result = kr_solve(gen_hard(30, 1e14, seed=1), KrConfig(max_solves=np.int64(2)))
        assert result.solves <= 2

    @pytest.mark.parametrize("config", [RasConfig, GenericRasConfig, KrConfig])
    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_tol_validated_in_config(self, config, tol):
        # Rejected when the options are built, not by classify after a solve.
        with pytest.raises(ValueError, match=r"^tol must be a number in \[0, inf\), not "):
            config(tol=tol)

    @pytest.mark.parametrize("config", [RasConfig, GenericRasConfig])
    @pytest.mark.parametrize("seed", [-3, 2.5])
    def test_seed_validated_in_config(self, config, seed):
        # Rejected when the options are built, not by default_rng inside the solve.
        with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
            config(seed=seed)

    @pytest.mark.parametrize("probs", [(0.5,) * 6, None], ids=repr)
    def test_probs_validated_in_config(self, probs):
        # Rejected when the options are built, not by an AttributeError after
        # the first solve; bench.build_solver converts its 6-tuples itself.
        with pytest.raises(ValueError, match="^probs must be a ChangeProbabilities"):
            RasConfig(probs=probs)

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

    def test_cycle_is_caught_before_the_move(self, monkeypatch):
        # kr's selection sees that the exchange would return to a solved
        # active set, so next_sets runs once per solve that is followed by
        # another, and the point returned is the one of the last solve.
        moves = []
        next_sets = rasqp.solvers.next_sets

        def counted(inactive, chosen):
            moves.append(len(chosen))
            return next_sets(inactive, chosen)

        monkeypatch.setattr(rasqp.solvers, "next_sets", counted)
        problem = gen_medium(**CYCLING)
        result = kr_solve(problem, KrConfig(tol=1e-10, record_sets=True))
        assert result.status is Status.CYCLE_DETECTED
        assert (result.solves, len(moves)) == (13, 12)
        I = result.inactive_sets[-1]
        A = np.setdiff1d(np.arange(problem.n), I)
        x_I, _ = rasqp.subsystem.solve_subsystem(problem, I, A)
        x = np.zeros(problem.n)
        x[I] = x_I
        np.testing.assert_array_equal(result.point.x, x)

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

    @pytest.mark.parametrize("solve", [fletcher_solve, brute_force_solve],
                             ids=lambda solve: solve.__name__)
    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_tol_validation(self, solve, tol):
        # brute_force_solve used to take a negative tol and solve with it.
        with pytest.raises(ValueError, match=r"^tol must be a number in \[0, inf\), not "):
            solve(QpProblem(Q22, G22), tol=tol)

    @pytest.mark.parametrize("band_fill, want", [
        (None, ["4c610f6ad55821438fd0e13eb320b2626ee54ad7d461107953ba41e3ebac85d6",
                "3f9415ed58020e24e87b0d259c5e49cf330abbd0c2da2fa25ce706e09e8bfffe"]),
        (np.inf, ["ff326e38a60ed4cbf458488a11f779da51ecc91de64cd77ffe7174c2c46861cf",
                  "610721ae9532b39c406b562bebb5afafb2412968d99d869907ac6cc62dcf90aa"]),
        (0.0, ["dafeb00348a4abc46c865bacb67fad25da5975fbcba46cfcdcf370ab9a4d3fc1",
               "2fdf561cb925ab204c0954599b50c087c0c79acbaf645adf203bb5141b9d59cf"]),
    ], ids=["factor", "superlu", "band"])
    def test_pinned_sparse_histories(self, monkeypatch, band_fill, want):
        # A sparse medium instance, once on the updated factor and once with
        # every nonempty block sent to the sparse kernels, whose objectives
        # are then evaluated afresh: SuperLU (digests recorded before the
        # objective was read from the factor's Q x) or the band Cholesky
        # (recorded when it was added).
        if band_fill is not None:
            monkeypatch.setattr(rasqp.subsystem, "DENSE_THRESHOLD", 0)
            monkeypatch.setattr(rasqp.subsystem, "_BAND_FILL", band_fill)
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
            return -np.ones(len(I)), -np.ones(len(A))

        monkeypatch.setattr(rasqp.solvers, "solve_subsystem", never_done)
        result = fletcher_solve(QpProblem(Q22, G22))
        assert result.status is Status.ITERATION_CAP
        assert result.solves == 40
        # The point reported is the feasible iterate, not the last solve's x.
        np.testing.assert_array_equal(result.point.x, [0.0, 0.0])
        assert result.objective == 0.0

    def test_numerical_failure_keeps_the_feasible_iterate(self):
        # x = [1, 0] is accepted, then releasing index 1 meets its negative
        # curvature: the run reports that iterate, not a zero vector.
        result = fletcher_solve(QpProblem(np.diag([1.0, -1.0]), [-1.0, -1.0]))
        assert result.status is Status.NUMERICAL_FAILURE
        np.testing.assert_array_equal(result.point.x, [1.0, 0.0])
        assert result.objective == -0.5

    def test_exact_zero_counts_as_infeasible_in_the_trace(self):
        # The target [0, 1] is accepted and optimal; its exact zero counts
        # in n_im, by the x_I <= 0 rule the exchange solvers share.
        result = fletcher_solve(QpProblem(np.eye(2), [0.0, -1.0]), initial_A=[])
        assert (result.status, result.solves) == (Status.OPTIMAL, 1)
        np.testing.assert_array_equal(result.point.x, [0.0, 1.0])
        assert result.objective_history == (0.0, -0.5)
        assert result.trace[-1].n_im == 1

    def test_stop_follows_the_loop_classify_verdict(self, monkeypatch):
        # The target [0, 1, 0] holds an exact zero, so the loop does not stop
        # on it, and s_2 = -1e-6.  Under a classify that tolerates 1e-3 the
        # selection accepts it as optimal; comparing s with its own tol, it
        # would release index 2 and solve again.
        classify = rasqp.solvers.classify
        monkeypatch.setattr(rasqp.solvers, "classify",
                            lambda point, inactive, tol: classify(point, inactive, 1e-3))
        result = fletcher_solve(QpProblem(np.eye(3), [0.0, -1.0, -1e-6]), initial_A=[2])
        assert (result.status, result.solves) == (Status.OPTIMAL, 1)
        np.testing.assert_array_equal(result.point.x, [0.0, 1.0, 0.0])


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
