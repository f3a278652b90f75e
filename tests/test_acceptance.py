"""End-to-end acceptance battery.

Each test prints one ``ACCEPTANCE <k> PASS|FAIL`` line (bypassing capture)
so a full run leaves a visible verdict per criterion, then asserts.
"""

import math
import time

import numpy as np

from conftest import rand_spd_problem
from rasqp.bench import BenchmarkPlan, run_plan, solver_seed_for_trial
from rasqp.engine import ChangeProbabilities, exchange_asymmetry_montecarlo
from rasqp.generators import GeneratorSpec, gen_hard, gen_medium, generate
from rasqp.model import Status, kkt_residual, stationarity_tol
from rasqp.solvers import (
    GenericRasConfig,
    KrConfig,
    RasConfig,
    brute_force_solve,
    fletcher_solve,
    generic_ras_solve,
    kr_solve,
    ras_solve,
)

CERTAINTY = ChangeProbabilities(1, 1, 1, 1, 1, 1)


def verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_oracle_equivalence(capsys):
    """200 random dense PD problems, n in 2..12: every solver matches the
    2^n brute-force oracle within 1e-8 max-norm, in under 2 minutes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for k in range(200):
        n = 2 + (k % 11)
        problem = rand_spd_problem(n, rng)
        oracle = brute_force_solve(problem)
        runs = (
            ras_solve(problem, RasConfig(seed=k)),
            generic_ras_solve(problem, GenericRasConfig(seed=k)),
            fletcher_solve(problem),
        )
        for result in runs:
            assert result.status is Status.OPTIMAL
            worst = max(worst, float(np.abs(result.point.x - oracle.x).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 120.0
    verdict(capsys, 1, ok, f"600 runs vs oracle, worst |dx|={worst:.2e}, "
                           f"elapsed={elapsed:.1f}s")


def test_criterion_02_kkt_certificate(capsys):
    """Every Optimal result across a cross-family battery carries the full
    certificate: stationarity within the library's stationarity_tol (1e-8
    relative), x >= 0 exactly, s >= -tol, and an exact structural
    complementarity zero.  The printed verdict keeps its 1e-6 bound."""
    specs = [
        (GeneratorSpec("easy", 300, seed=s, epsilon=eps), 1e-8)
        for s in (0, 1) for eps in (1e-2, 1e-8)
    ] + [
        (GeneratorSpec("medium", 150, seed=s, density=0.1, cond=c), 1e-10)
        for s in (0, 1) for c in (1e6, 1e10)
    ] + [
        (GeneratorSpec("hard", 150, seed=s, cond=c), 1e-10)
        for s in (0, 1) for c in (1e6, 1e10)
    ]
    checked = 0
    worst_rel = 0.0
    for spec, tol in specs:
        problem = generate(spec)
        seed = solver_seed_for_trial(spec.seed)
        results = (
            ras_solve(problem, RasConfig(seed=seed, tol=tol)),
            generic_ras_solve(problem, GenericRasConfig(seed=seed, tol=tol)),
            kr_solve(problem, KrConfig(tol=tol)),
            fletcher_solve(problem, tol=tol),
        )
        scale = 1.0 + float(np.abs(problem.g).max())
        for result in results:
            if result.status is not Status.OPTIMAL:
                continue  # the certificate binds Optimal results only
            checked += 1
            stationarity, primal, dual, comp = kkt_residual(problem, result.point)
            worst_rel = max(worst_rel, stationarity / scale)
            assert stationarity <= stationarity_tol(problem)
            assert primal == 0.0
            assert dual <= tol
            assert comp == 0.0
    ok = checked >= 40 and worst_rel <= 1e-6
    verdict(capsys, 2, ok, f"{checked} Optimal results certified, "
                           f"worst relative stationarity {worst_rel:.2e}")


def test_criterion_03_hard_family_bands(capsys):
    """Hard family, n=500, 10 trials: randomized solve means inside the
    published bands and the full exchange failing on nearly every trial at
    the extreme conditioning, in under 5 minutes."""
    t0 = time.perf_counter()
    lo = GeneratorSpec("hard", 500, seed=0, cond=1e6)
    hi = GeneratorSpec("hard", 500, seed=0, cond=1e14)
    records = run_plan(BenchmarkPlan(
        cells=((lo, "ras", {}), (hi, "ras", {}), (hi, "kr", {})),
        trials=10,
    ))
    ras_lo, ras_hi, kr_hi = records
    elapsed = time.perf_counter() - t0
    ok = (
        10.0 <= ras_lo.solve_mean <= 30.0
        and 25.0 <= ras_hi.solve_mean <= 80.0
        and kr_hi.fail_count >= 8
        and elapsed < 300.0
    )
    verdict(capsys, 3, ok,
            f"ras@1e6 mean={ras_lo.solve_mean:.1f} (band [10,30]), "
            f"ras@1e14 mean={ras_hi.solve_mean:.1f} (band [25,80]), "
            f"kr@1e14 fail={kr_hi.fail_count}/10 (need >=8), "
            f"elapsed={elapsed:.1f}s")


def test_criterion_04_easy_family_bands(capsys):
    """Easy family, n=2000, eps in {1, 1e-10}, 10 trials: randomized solve
    means inside [6, 20] and zero full-exchange failures, in under 5
    minutes."""
    t0 = time.perf_counter()
    cells = []
    for eps in (1.0, 1e-10):
        spec = GeneratorSpec("easy", 2000, seed=0, epsilon=eps)
        cells += [(spec, "ras", {}), (spec, "kr", {})]
    records = run_plan(BenchmarkPlan(cells=tuple(cells), trials=10))
    elapsed = time.perf_counter() - t0
    ras_recs = [r for r in records if r.solver == "ras"]
    kr_recs = [r for r in records if r.solver == "kr"]
    ok = (
        all(6.0 <= r.solve_mean <= 20.0 for r in ras_recs)
        and all(r.fail_count == 0 for r in kr_recs)
        and elapsed < 300.0
    )
    means = ", ".join(f"eps={r.spec.epsilon:g}: {r.solve_mean:.1f}" for r in ras_recs)
    fails = sum(r.fail_count for r in kr_recs)
    verdict(capsys, 4, ok, f"ras means ({means}) in [6,20], "
                           f"kr fails={fails}/20, elapsed={elapsed:.1f}s")


def test_criterion_05_statistical_termination(capsys):
    """1000 seeded randomized runs over 5 fixed hard instances (n=100,
    cond=1e10) all reach Optimal within the 10000-solve cap, in under 5
    minutes."""
    t0 = time.perf_counter()
    optimal = 0
    max_solves = 0
    for instance_seed in range(5):
        problem = gen_hard(100, 1e10, seed=instance_seed)
        for run_seed in range(200):
            result = ras_solve(problem, RasConfig(seed=run_seed, tol=1e-10))
            if result.status is Status.OPTIMAL:
                optimal += 1
            max_solves = max(max_solves, result.solves)
    elapsed = time.perf_counter() - t0
    ok = optimal == 1000 and max_solves <= 10_000 and elapsed < 300.0
    verdict(capsys, 5, ok, f"{optimal}/1000 Optimal, max solves={max_solves}, "
                           f"elapsed={elapsed:.1f}s")


def test_criterion_06_exchange_asymmetry_montecarlo(capsys):
    """With 1e6 samples the empirical infeasible-count means satisfy
    E(N1) < E(N2) by more than 3 standard errors; forcing a diagonal Q makes
    both exactly 0.  Under 1 minute."""
    t0 = time.perf_counter()
    e1, e2, stderr = exchange_asymmetry_montecarlo(10**6, np.random.default_rng(0))
    d1, d2, _ = exchange_asymmetry_montecarlo(
        10**5, np.random.default_rng(0), diagonal_only=True
    )
    elapsed = time.perf_counter() - t0
    margin = (e2 - e1) / stderr if stderr > 0 else math.inf
    ok = e1 < e2 and margin > 3.0 and d1 == 0.0 and d2 == 0.0 and elapsed < 60.0
    verdict(capsys, 6, ok, f"E(N1)={e1:.4f} < E(N2)={e2:.4f}, "
                           f"margin={margin:.0f} stderr (need >3), "
                           f"diagonal=({d1}, {d2}), elapsed={elapsed:.1f}s")


def test_criterion_07_full_exchange_degeneration(capsys):
    """With all six probabilities at 1 the randomized method reproduces the
    full-exchange active-set sequence exactly, on 50 random instances."""
    rng = np.random.default_rng(0)
    identical = 0
    for k in range(50):
        n = int(rng.integers(5, 31))
        problem = rand_spd_problem(n, rng)
        a = ras_solve(problem, RasConfig(probs=CERTAINTY, seed=k, record_sets=True))
        b = kr_solve(problem, KrConfig(record_sets=True))
        same = (
            a.status == b.status
            and len(a.inactive_sets) == len(b.inactive_sets)
            and all(np.array_equal(x, y)
                    for x, y in zip(a.inactive_sets, b.inactive_sets))
        )
        identical += same
    ok = identical == 50
    verdict(capsys, 7, ok, f"{identical}/50 identical active-set sequences")


def test_criterion_08_feasible_method_monotone(capsys):
    """On 50 random instances (n <= 50) the recorded objective is
    non-increasing over outer iterations and every iterate is exactly
    nonnegative."""
    rng = np.random.default_rng(88)
    monotone = feasible = 0
    for _ in range(50):
        n = int(rng.integers(2, 51))
        problem = rand_spd_problem(n, rng)
        result = fletcher_solve(problem, record_iterates=True)
        assert result.status is Status.OPTIMAL
        hist = result.objective_history
        monotone += all(b <= a for a, b in zip(hist, hist[1:]))
        feasible += all(x.min() >= 0.0 for x in result.iterate_history)
    ok = monotone == 50 and feasible == 50
    verdict(capsys, 8, ok, f"{monotone}/50 monotone histories, "
                           f"{feasible}/50 exactly nonnegative iterate sets")


def test_criterion_09_nonmonotone_infeasible_count(capsys):
    """On a medium instance (n=500, cond=1e10) the randomized method's
    trace shows the infeasible count rising at some iteration; found within
    a 20-seed scan."""
    found = None
    for seed in range(20):
        problem = gen_medium(500, 0.01, 1e10, seed=seed)
        result = ras_solve(
            problem, RasConfig(seed=solver_seed_for_trial(seed), tol=1e-10)
        )
        counts = [row.infeasible for row in result.trace]
        for i, (a, b) in enumerate(zip(counts, counts[1:])):
            if b > a:
                found = (seed, i + 1, a, b)
                break
        if found:
            break
    ok = found is not None
    detail = (f"seed {found[0]}: infeasible count {found[2]} -> {found[3]} "
              f"at solve {found[1]} -> {found[1] + 1}" if found
              else "no increase in 20 seeds")
    verdict(capsys, 9, ok, detail)


def test_criterion_10_determinism(capsys):
    """Repeating any seeded run reproduces solves, avgI, the trace (apart
    from wall-clock) and the solution bit-for-bit."""
    problem = gen_medium(120, 0.1, 1e8, seed=5)
    runs = {
        "ras": lambda: ras_solve(problem, RasConfig(seed=11, tol=1e-10)),
        "generic": lambda: generic_ras_solve(
            problem, GenericRasConfig(seed=11, tol=1e-10)
        ),
        "kr": lambda: kr_solve(problem, KrConfig(tol=1e-10)),
        "fletcher": lambda: fletcher_solve(problem, tol=1e-10),
    }
    identical = []
    for name, run in runs.items():
        a, b = run(), run()
        same = (
            a.status == b.status
            and a.solves == b.solves
            and a.avg_subsystem_size == b.avg_subsystem_size
            and np.array_equal(a.point.x, b.point.x)
            and np.array_equal(a.point.s, b.point.s)
            and all(
                (ra.iteration, ra.n_im, ra.n_am, ra.subsystem_size)
                == (rb.iteration, rb.n_im, rb.n_am, rb.subsystem_size)
                for ra, rb in zip(a.trace, b.trace)
            )
        )
        identical.append((name, same))
    ok = all(same for _, same in identical)
    verdict(capsys, 10, ok, ", ".join(
        f"{name}: {'bit-identical' if same else 'MISMATCH'}"
        for name, same in identical
    ))
