import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import rasqp.generators
from rasqp.generators import (
    EASY_BANDWIDTH,
    DensityUnreachableWarning,
    GeneratorSpec,
    gen_easy,
    gen_hard,
    gen_medium,
    generate,
)
from rasqp.model import QpProblem, validate_problem


def digest(p) -> str:
    """SHA-256 of Q's stored arrays (CSC indptr, indices, data, or the dense
    array) and g, each preceded by its dtype, so a changed index width fails."""
    h = hashlib.sha256()
    arrays = (p.Q.indptr, p.Q.indices, p.Q.data) if p.is_sparse else (p.Q,)
    for a in (*arrays, p.g):
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def hard_mismatches() -> list[tuple]:
    """The (n, cond, seed) whose gen_hard problem differs, byte for byte, from
    one built on ``np.linalg.qr``'s Q, in the documented draw order."""
    bad = []
    for n in (2, 3, 30, 100, 127, 300, 513):
        for cond in (1.0, 1e10, 1e14):
            for seed in (0, 1):
                rng = np.random.default_rng(seed)
                g = rng.uniform(-0.5, 0.5, n)
                O = np.linalg.qr(rng.standard_normal((n, n)))[0]
                want = QpProblem((O * cond ** (np.arange(n) / (n - 1))) @ O.T, g)
                if digest(gen_hard(n, cond, seed)) != digest(want):
                    bad.append((n, cond, seed))
    return bad


class TestGeneratorSpec:
    def test_valid_specs(self):
        GeneratorSpec("easy", 10, seed=0, epsilon=1e-3)
        GeneratorSpec("medium", 10, seed=0, density=0.5, cond=1e4)
        GeneratorSpec("hard", 10, seed=np.int64(0), cond=1e4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family="bogus", n=5, seed=0),
            dict(family="easy", n=5, seed=0),  # missing epsilon
            dict(family="easy", n=5, seed=0, epsilon=1e-3, cond=10.0),
            dict(family="medium", n=5, seed=0, density=0.5),  # missing cond
            dict(family="medium", n=5, seed=0, cond=10.0),  # missing density
            dict(family="medium", n=5, seed=0, density=0.5, cond=10.0, epsilon=1.0),
            dict(family="hard", n=5, seed=0),  # missing cond
            dict(family="hard", n=5, seed=0, cond=10.0, density=0.5),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(family="easy", n=0, epsilon=1.0), "n"),
        (dict(family="hard", n=1, cond=10.0), "n"),
        *((dict(family="easy", n=5, epsilon=e), "epsilon") for e in (0.0, np.inf, np.nan)),
        *((dict(family="medium", n=5, density=d, cond=10.0), "density")
          for d in (0.0, 1.5, np.nan)),
        *((dict(family="medium", n=5, density=0.5, cond=c), "cond")
          for c in (0.5, np.inf, np.nan)),
        *((dict(family="hard", n=5, cond=c), "cond") for c in (0.5, np.inf, np.nan)),
    ])
    def test_out_of_range_value_names_the_parameter(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            GeneratorSpec(seed=0, **kwargs)

    @pytest.mark.parametrize("seed", [2.5, -1, None, "0", True, False])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # 2.5 used to construct and fail later inside generate with TypeError;
        # True and False used to construct and run seeds 1 and 0.
        with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
            GeneratorSpec("hard", 5, seed=seed, cond=10.0)

    def test_generate_dispatches(self):
        pairs = [
            (GeneratorSpec("easy", 40, seed=3, epsilon=1e-2), gen_easy(40, 1e-2, 3)),
            (
                GeneratorSpec("medium", 20, seed=3, density=0.3, cond=100.0),
                gen_medium(20, 0.3, 100.0, 3),
            ),
            (GeneratorSpec("hard", 20, seed=3, cond=100.0), gen_hard(20, 100.0, 3)),
        ]
        for spec, direct in pairs:
            via_spec = generate(spec)
            np.testing.assert_array_equal(via_spec.dense_q(), direct.dense_q())
            np.testing.assert_array_equal(via_spec.g, direct.g)


class TestGenEasy:
    def test_structure(self):
        p = gen_easy(60, 1e-3, seed=0)
        assert p.is_sparse
        assert p.Q.format == "csc"
        validate_problem(p)

    def test_smallest_eigenvalue_at_least_epsilon(self):
        eps = 1e-2
        p = gen_easy(50, eps, seed=1)
        w = np.linalg.eigvalsh(p.dense_q())
        assert w.min() >= eps - 1e-12

    def test_band_structure(self):
        # Q = PP' with P banded, so Q has bandwidth at most EASY_BANDWIDTH.
        p = gen_easy(150, 1e-3, seed=2)
        coo = sp.coo_array(p.Q)
        assert np.abs(coo.coords[0] - coo.coords[1]).max() <= EASY_BANDWIDTH

    def test_deterministic(self):
        a, b = gen_easy(30, 1e-4, seed=9), gen_easy(30, 1e-4, seed=9)
        np.testing.assert_array_equal(a.dense_q(), b.dense_q())
        np.testing.assert_array_equal(a.g, b.g)

    def test_seed_changes_output(self):
        a, b = gen_easy(30, 1e-4, seed=0), gen_easy(30, 1e-4, seed=1)
        assert not np.array_equal(a.g, b.g)

    @pytest.mark.parametrize("n, epsilon, seed, want", [
        (3000, 1.0, 0, "e0d54c38f842ae8af6db234c41badf6fdb264f92150cc899b90d36dfc246cbf3"),
        (3000, 1.0, 1, "608aa197a10010d3880f821cb9458e3d443f3190f0b341f00384648a56d60ebc"),
        (3000, 1e-10, 0, "1e286d4b1f177f6e6b9fc47e4962f497d493a0e31be8d4d79a87248b669ceab6"),
        (3000, 1e-10, 1, "60656a06e7bcd38a50af8ad6190be3736df853b6d7beffd585202ba6454f4058"),
        (60, 1e-3, 5, "0bd6aea2b0eede9052624ff5411f50dfd886769783721caee67f167119433457"),
        (1, 1.0, 3, "e9eeecdaa38a88d6d439c038862c48157e8e7a316b1031d0b33459a6501c95d8"),
        (2, 1e-3, 0, "78a05110aa47abb3e167f67882ce940dbf453acc2f3f51f2973d93388e8abd93"),
    ], ids=["3000-1.0-0", "3000-1.0-1", "3000-1e-10-0", "3000-1e-10-1", "60-0.001-5",
            "1-1.0-3", "2-0.001-0"])
    def test_pinned_output(self, n, epsilon, seed, want):
        # The sparse-mixed benchmark specs, one n below EASY_BANDWIDTH and
        # n = 1 and 2, where the band is wider than the matrix (their seeds
        # keep the diagonal cell and the (1, 0) cell): the generator must keep
        # producing the same bytes.
        assert digest(gen_easy(n, epsilon, seed)) == want

    def test_peak_memory_is_a_few_times_q(self):
        # Only the band is drawn: a whole-matrix draw peaks near 50x Q's bytes.
        tracemalloc.start()
        try:
            q = gen_easy(6000, 1.0, seed=0).Q
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.indices.dtype == q.indptr.dtype == np.int32
        assert peak <= 8 * (q.indptr.nbytes + q.indices.nbytes + q.data.nbytes)

    def test_mean_nnz_matches_the_whole_matrix_draw(self):
        # 254,000 is the mean Q.nnz over these seeds of the earlier generator,
        # which drew 0.1 n^2 cells over the whole matrix and kept the band.
        mean = np.mean([gen_easy(3000, 1.0, seed).Q.nnz for seed in range(4)])
        assert abs(mean - 254_000) <= 0.03 * 254_000

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_easy(0, 1e-3, seed=0)
        with pytest.raises(ValueError):
            gen_easy(10, 0.0, seed=0)


class TestGenMedium:
    def test_prescribed_spectrum(self):
        n, cond = 40, 1e6
        p = gen_medium(n, 0.8, cond, seed=0)
        w = np.sort(np.linalg.eigvalsh(p.dense_q()))
        want = np.logspace(-np.log10(cond), 0.0, n)
        np.testing.assert_allclose(w, want, rtol=1e-9)

    def test_density_reached(self):
        n, density = 100, 0.3
        p = gen_medium(n, density, 1e4, seed=0)
        achieved = p.Q.nnz / (n * n)
        # The rotation loop stops at the first crossing, so the overshoot is
        # at most one rotation's worth of fill (two rows plus two columns).
        assert density <= achieved <= density + 4.0 / n

    def test_identity_when_cond_is_one(self):
        p = gen_medium(25, 0.9, 1.0, seed=0)
        assert p.is_sparse
        assert (p.Q - sp.eye_array(25, format="csc")).nnz == 0

    def test_unreachable_density_warns_but_keeps_spectrum(self, monkeypatch):
        monkeypatch.setattr(rasqp.generators, "_ROTATION_BUDGET_FACTOR", 0.01)
        with pytest.warns(DensityUnreachableWarning, match="achieved"):
            p = gen_medium(40, 0.9, 1e4, seed=0)
        w = np.sort(np.linalg.eigvalsh(p.dense_q()))
        np.testing.assert_allclose(w, np.logspace(-4, 0, 40), rtol=1e-10)

    def test_deterministic(self):
        a = gen_medium(30, 0.4, 1e5, seed=4)
        b = gen_medium(30, 0.4, 1e5, seed=4)
        np.testing.assert_array_equal(a.dense_q(), b.dense_q())
        np.testing.assert_array_equal(a.g, b.g)

    @pytest.mark.parametrize("seed, digest", [
        (0, "cff2e2a370fd3c3f688716bdbafcff31160f3b2341486162d7a24a37e1de83c3"),
        (1, "21104d78081c9fb0a737446dc14912706fa3c880c20d924607bc175e120be554"),
        (2, "32e31efa445d23a20eb63ef328c4db7320803f7e48210a13ddc129cdbccb2925"),
    ])
    def test_pinned_output(self, seed, digest):
        # SHA-256 of Q's CSC arrays and g for the spec of the benchmark's
        # plan-grid workload: the rotation loop must produce the same bytes.
        p = gen_medium(300, 0.03, 1e10, seed=seed)
        h = hashlib.sha256()
        for a in (p.Q.indptr.astype("<i8"), p.Q.indices.astype("<i8"),
                  p.Q.data.astype("<f8"), p.g.astype("<f8")):
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("args, want", [
        ((100, 0.1, 1e10, 0), "b4857ca1b31f1f7b1f490cca617236b12a373bbd387d45a925e7c30fdc2183fa"),
        ((100, 0.1, 1e10, 1), "d0369a8199565bf51f4dd4ae1675d238d03a0564309d0c155dee3405d1332797"),
        ((100, 0.1, 1e10, 2), "b057afafd78f7e0e0945914a6f977af0b4f2233419b5cf9b16477fb86a2e6dc9"),
        ((40, 0.8, 1e6, 0), "6d695153831e9de5c23eea2c21a6b05bb6d7f341ef5b60281a6f40bdabfe1b57"),
        ((3000, 0.002, 1e10, 0), "c8250e34d730cef41c051226c68de6411e6de3fa7a6a22d07b8907049a6016dc"),
    ], ids=["golden-0", "golden-1", "golden-2", "dense-fill", "3000"])
    def test_pinned_output_beyond_plan_grid(self, args, want):
        # The golden grid's medium spec, a dense fill and a large sparse draw
        # (recorded from the dense-W rotation loop), so a rotation loop that
        # matches only plan-grid's n=300 spec fails.
        assert digest(gen_medium(*args)) == want

    def test_peak_memory_is_a_few_times_q(self):
        # The rotations touch only stored cells: a dense W peaks near 640x
        # Q's bytes at this size.
        tracemalloc.start()
        try:
            q = gen_medium(3000, 0.002, 1e10, seed=0).Q
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * (q.indptr.nbytes + q.indices.nbytes + q.data.nbytes)

    def test_pinned_output_when_budget_runs_out(self, monkeypatch):
        monkeypatch.setattr(rasqp.generators, "_ROTATION_BUDGET_FACTOR", 0.01)
        with pytest.warns(DensityUnreachableWarning):
            p = gen_medium(40, 0.9, 1e4, 0)
        assert digest(p) == "bb6f694b29742242f59a3cdf284ed5aa2840e8fa25eee7c91333a40d55011bf6"

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_medium(1, 0.5, 10.0, seed=0)
        with pytest.raises(ValueError):
            gen_medium(10, 0.0, 10.0, seed=0)
        with pytest.raises(ValueError):
            gen_medium(10, 1.5, 10.0, seed=0)
        with pytest.raises(ValueError):
            gen_medium(10, 0.5, 0.5, seed=0)


class TestGenHard:
    def test_geometric_spectrum(self):
        n, cond = 80, 1e8
        p = gen_hard(n, cond, seed=2)
        assert not p.is_sparse
        w = np.sort(np.linalg.eigvalsh(p.dense_q()))
        want = cond ** (np.arange(n) / (n - 1))
        np.testing.assert_allclose(w, want, rtol=1e-6)
        assert w.max() / w.min() == pytest.approx(cond, rel=1e-6)

    def test_linear_term_is_bounded(self):
        p = gen_hard(200, 1e4, seed=3)
        assert p.g.min() >= -0.5
        assert p.g.max() <= 0.5

    def test_deterministic(self):
        a, b = gen_hard(30, 1e6, seed=8), gen_hard(30, 1e6, seed=8)
        np.testing.assert_array_equal(a.dense_q(), b.dense_q())
        np.testing.assert_array_equal(a.g, b.g)

    @pytest.mark.parametrize("cond, want", [
        (1e10, "471f7dc032ad43d642b1976d5c093525a5bc30d151dbd0dcef2827340ff316c4"),
        (1e14, "2df8e5fc4d83f30fc6e921f7c822245e7f09d36d6219da19c2efd1ec12f608a4"),
    ])
    def test_pinned_output(self, cond, want):
        # The hard-dense benchmark specs.
        assert digest(gen_hard(800, cond, seed=0)) == want

    def test_matches_numpy_qr(self):
        assert hard_mismatches() == []

    def test_matches_numpy_qr_at_two_blas_threads(self):
        # Threaded OpenBLAS rounds the QR and the product differently, so
        # the in-process run at the host's thread count does not cover this.
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(tests.parent / "src"), env.get("PYTHONPATH")) if p)
        code = (f"import sys; sys.path.insert(0, {str(tests)!r}); "
                "from test_generators import hard_mismatches; print(hard_mismatches())")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_traced_peak_is_three_matrices(self):
        # O, O * d and Q at once; np.linalg.qr's copy of the draw and its R
        # took it to 4.1.  The QR runs in place through NumPy's LAPACK, whose
        # workspace is n times its block size, so the bound holds for the
        # untraced heap too.
        n = 300
        tracemalloc.start()
        try:
            gen_hard(n, 1e10, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * 8 * n * n

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_hard(1, 10.0, seed=0)
        with pytest.raises(ValueError):
            gen_hard(10, 0.9, seed=0)


@pytest.mark.parametrize("generator, args, name", [
    (gen_easy, (10, np.nan), "epsilon"),
    (gen_easy, (10, np.inf), "epsilon"),
    (gen_medium, (10, 0.5, np.inf), "cond"),
    (gen_medium, (10, 0.5, np.nan), "cond"),
    (gen_hard, (20, np.inf), "cond"),
    (gen_hard, (20, np.nan), "cond"),
])
def test_non_finite_parameter_is_named(generator, args, name):
    # Rejected up front, not reported later as a non-finite Q (or a NumPy
    # RuntimeWarning from building it).
    with pytest.raises(ValueError, match=f"^{name} must"):
        generator(*args, seed=0)


@pytest.mark.parametrize("make", [
    lambda: GeneratorSpec("hard", 2.5, seed=0, cond=10.0),
    lambda: GeneratorSpec("easy", 3.0, seed=0, epsilon=1.0),
    lambda: GeneratorSpec("medium", 4.0, seed=0, density=0.5, cond=10.0),
    lambda: gen_easy(3.0, 1.0, seed=0),
    lambda: gen_medium(4.5, 0.5, 10.0, seed=0),
    lambda: gen_hard(2.5, 10.0, seed=0),
], ids=["spec-hard", "spec-easy", "spec-medium", "easy", "medium", "hard"])
def test_non_integer_n_is_named(make):
    # Rejected up front, not later by NumPy or SciPy inside the generator.
    with pytest.raises(ValueError, match="^n must be an integer"):
        make()


def test_numpy_integer_n_is_accepted():
    assert gen_hard(np.int64(5), 10.0, seed=0).n == 5
