import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rasqp.engine import (
    EXCHANGED,
    FEASIBLE,
    FROZEN,
    Categories,
    ChangeProbabilities,
    Partition,
    categorize,
    classify,
    exchange_asymmetry_montecarlo,
    next_sets,
    origin_labels,
    select_exchange_generic,
    select_exchange_ras,
)
from rasqp.model import KktPoint

IX = lambda *v: np.array(v, dtype=np.int64)  # noqa: E731
EMPTY = np.empty(0, dtype=np.int64)


def all_frozen(n):
    """The origin labels every run starts from."""
    return np.full(n, FROZEN, dtype=np.int8)


def make_partition(n, rng):
    """Random split of {0..n-1} into I/A and of those into feasible/infeasible."""
    ix = np.arange(n, dtype=np.int64)
    in_I = rng.random(n) < 0.5
    I, A = ix[in_I], ix[~in_I]
    im = rng.random(len(I)) < 0.5
    am = rng.random(len(A)) < 0.5
    return Partition(I=I, A=A, Im=I[im], Am=A[am])


def feasible_parts(part):
    """(Ip, Ap): the indexes of I and A that are not infeasible."""
    return np.setdiff1d(part.I, part.Im), np.setdiff1d(part.A, part.Am)


class TestClassify:
    def test_zero_counts_as_infeasible(self):
        point = KktPoint(x=np.array([1.0, 0.0, -2.0, 0.0]), s=np.zeros(4))
        part = classify(point, [0, 1, 2], [3], tol=1e-10)
        np.testing.assert_array_equal(part.Im, [1, 2])
        np.testing.assert_array_equal(feasible_parts(part)[0], [0])

    def test_dual_tolerance_is_strict(self):
        tol = 1e-10
        s = np.array([0.0, -tol, -tol * 1.001, 5.0])
        point = KktPoint(x=np.zeros(4), s=s)
        part = classify(point, [], [0, 1, 2, 3], tol=tol)
        # s_j == -tol is feasible; only the strictly smaller entry lands in Am.
        np.testing.assert_array_equal(part.Am, [2])
        np.testing.assert_array_equal(feasible_parts(part)[1], [0, 1, 3])

    def test_optimal_flag(self):
        point = KktPoint(x=np.array([1.0, 0.0]), s=np.array([0.0, 2.0]))
        assert classify(point, [0], [1], tol=0.0).optimal
        assert not classify(point, [1], [0], tol=0.0).optimal

    def test_negative_tol_rejected(self):
        point = KktPoint(x=np.zeros(1), s=np.zeros(1))
        with pytest.raises(ValueError):
            classify(point, [0], [], tol=-1e-3)

    def test_partition_n(self):
        point = KktPoint(x=np.zeros(3), s=np.zeros(3))
        assert classify(point, [0, 2], [1], tol=0.0).n == 3


class TestCategorize:
    def test_hand_case(self):
        part = Partition(
            I=IX(0, 1, 2, 3), A=IX(4, 5, 6),
            Im=IX(0, 1, 2), Am=IX(4, 5),
        )
        # Previous step: 0 and 4 feasible, 1, 3 and 6 kept, 2 moved in, 5 moved out.
        origin = np.array([FEASIBLE, FROZEN, EXCHANGED, FROZEN, FEASIBLE, EXCHANGED, FROZEN],
                          dtype=np.int8)
        cats = categorize(part, origin)
        np.testing.assert_array_equal(cats.NImp0, [0])
        np.testing.assert_array_equal(cats.NImf, [1])
        np.testing.assert_array_equal(cats.NImc, [2])
        np.testing.assert_array_equal(cats.NAmp0, [4])
        np.testing.assert_array_equal(cats.NAmf, [])
        np.testing.assert_array_equal(cats.NAmc, [5])

    def test_initial_labels_mark_everything_frozen(self):
        part = make_partition(12, np.random.default_rng(4))
        cats = categorize(part, all_frozen(12))
        np.testing.assert_array_equal(cats.NImf, part.Im)
        np.testing.assert_array_equal(cats.NAmf, part.Am)
        for name in ("NImp0", "NImc", "NAmp0", "NAmc"):
            assert len(getattr(cats, name)) == 0

    def test_counts_partition_im_and_am(self):
        # After any (exchange -> classify) round-trip, the six categories
        # exactly cover the new infeasible sets.
        rng = np.random.default_rng(5)
        probs = ChangeProbabilities()
        for _ in range(100):
            n = int(rng.integers(1, 9))
            part = make_partition(n, rng)
            cats = categorize(part, all_frozen(n))
            Imc, Amc = select_exchange_ras(cats, probs, rng)
            I_new, A_new = next_sets(part, Imc, Amc)
            origin = origin_labels(part, Imc, Amc)
            point = KktPoint(x=rng.standard_normal(n), s=rng.standard_normal(n))
            part_new = classify(point, I_new, A_new, tol=1e-10)
            cats_new = categorize(part_new, origin)
            np.testing.assert_array_equal(
                np.sort(np.concatenate([cats_new.NImp0, cats_new.NImf, cats_new.NImc])),
                part_new.Im)
            np.testing.assert_array_equal(
                np.sort(np.concatenate([cats_new.NAmp0, cats_new.NAmf, cats_new.NAmc])),
                part_new.Am)
            assert (len(cats_new.NImp0) + len(cats_new.NImf) + len(cats_new.NImc)
                    == len(part_new.Im))
            assert (len(cats_new.NAmp0) + len(cats_new.NAmf) + len(cats_new.NAmc)
                    == len(part_new.Am))


class TestOriginLabels:
    def test_labels_after_a_selection(self):
        part = Partition(I=IX(0, 1, 2), A=IX(3, 4, 5), Im=IX(0, 1), Am=IX(3, 4))
        origin = origin_labels(part, IX(1), IX(3))
        np.testing.assert_array_equal(
            origin, [FROZEN, EXCHANGED, FEASIBLE, EXCHANGED, FROZEN, FEASIBLE])
        assert origin.dtype == np.int8

    def test_empty_selection_freezes_every_infeasible_index(self):
        part = make_partition(10, np.random.default_rng(8))
        origin = origin_labels(part, EMPTY, EMPTY)
        infeasible = np.union1d(part.Im, part.Am)
        assert (origin[infeasible] == FROZEN).all()
        assert (np.delete(origin, infeasible) == FEASIBLE).all()


class TestChangeProbabilities:
    def test_tuned_defaults(self):
        assert ChangeProbabilities().as_tuple() == (0.5, 0.98, 0.98, 0.01, 0.93, 0.94)

    def test_certainty_allowed(self):
        ChangeProbabilities(1, 1, 1, 1, 1, 1)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0001])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            ChangeProbabilities(p3=bad)


class TestSelectExchangeGeneric:
    def test_outputs_partition_the_infeasible_sets(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            part = make_partition(8, rng)
            Imc, Amc = select_exchange_generic(part, 0.5, 0.5, 0.5, rng)
            # The picks and the rest partition Im (Am) when the picks are a subset.
            for picked, full in ((Imc, part.Im), (Amc, part.Am)):
                assert (np.diff(picked) > 0).all()
                assert np.isin(picked, full).all()

    def test_sigma_validation(self):
        part = make_partition(4, np.random.default_rng(0))
        for bad in (0.0, -0.1, 0.6):
            with pytest.raises(ValueError):
                select_exchange_generic(part, 0.5, 0.5, bad, np.random.default_rng(0))

    def test_probabilities_outside_sigma_band_rejected(self):
        rng = np.random.default_rng(2)
        part = Partition(I=IX(0, 1), A=EMPTY, Im=IX(0, 1), Am=EMPTY)
        with pytest.raises(ValueError):
            select_exchange_generic(part, 0.05, 0.5, 0.1, rng)
        with pytest.raises(ValueError):
            select_exchange_generic(part, 0.95, 0.5, 0.1, rng)

    def test_im_draws_come_before_am_draws(self):
        part = Partition(I=IX(0, 1), A=IX(2, 3), Im=IX(0, 1), Am=IX(2, 3))
        seed = 7
        got = select_exchange_generic(part, 0.5, 0.5, 0.5, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        want_imc = part.Im[rng.random(2) < 0.5]
        want_amc = part.Am[rng.random(2) < 0.5]
        np.testing.assert_array_equal(got[0], want_imc)
        np.testing.assert_array_equal(got[1], want_amc)


class TestSelectExchangeRas:
    def test_all_ones_selects_everything(self):
        rng = np.random.default_rng(3)
        part = make_partition(10, rng)
        cats = categorize(part, all_frozen(10))
        Imc, Amc = select_exchange_ras(
            cats, ChangeProbabilities(1, 1, 1, 1, 1, 1), rng
        )
        np.testing.assert_array_equal(Imc, part.Im)
        np.testing.assert_array_equal(Amc, part.Am)

    def test_category_draw_order(self):
        # One uniform per element, category by category:
        # NImp0, NImf, NImc, then NAmp0, NAmf, NAmc.
        cats = Categories(
            NImp0=IX(0), NImf=IX(1, 2), NImc=IX(3),
            NAmp0=IX(4), NAmf=IX(5), NAmc=IX(6, 7),
        )
        probs = ChangeProbabilities(0.3, 0.6, 0.2, 0.9, 0.5, 0.7)
        seed = 123
        got = select_exchange_ras(cats, probs, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        parts = []
        for ix, p in zip(
            (cats.NImp0, cats.NImf, cats.NImc, cats.NAmp0, cats.NAmf, cats.NAmc),
            probs.as_tuple(),
        ):
            parts.append(ix[rng.random(len(ix)) < p])
        want_imc = np.union1d(np.union1d(parts[0], parts[1]), parts[2])
        want_amc = np.union1d(np.union1d(parts[3], parts[4]), parts[5])
        np.testing.assert_array_equal(got[0], want_imc)
        np.testing.assert_array_equal(got[1], want_amc)

    def test_one_draw_per_infeasible_index(self):
        part = make_partition(20, np.random.default_rng(6))
        cats = categorize(part, all_frozen(20))
        rng = np.random.default_rng(11)
        select_exchange_ras(cats, ChangeProbabilities(), rng)
        ref = np.random.default_rng(11)
        ref.random(len(part.Im) + len(part.Am))
        assert rng.random() == ref.random()

    def test_outputs_are_sorted_and_partition_the_infeasible_sets(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            part = make_partition(16, rng)
            origin = rng.integers(0, 3, 16).astype(np.int8)
            Imc, Amc = select_exchange_ras(
                categorize(part, origin), ChangeProbabilities(), rng)
            # The picks and the rest partition Im (Am) when the picks are a subset.
            for picked, full in ((Imc, part.Im), (Amc, part.Am)):
                assert (np.diff(picked) > 0).all()
                assert np.isin(picked, full).all()

    def test_kr_update_when_all_probabilities_are_one(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            part = make_partition(8, rng)
            cats = categorize(part, all_frozen(8))
            picks = select_exchange_ras(
                cats, ChangeProbabilities(1, 1, 1, 1, 1, 1), rng
            )
            I_new, _ = next_sets(part, *picks)
            np.testing.assert_array_equal(I_new, np.union1d(feasible_parts(part)[0], part.Am))


class TestNextSets:
    def test_full_exchange(self):
        part = make_partition(9, np.random.default_rng(21))
        Ip, Ap = feasible_parts(part)
        I_new, A_new = next_sets(part, part.Im, part.Am)
        np.testing.assert_array_equal(I_new, np.union1d(Ip, part.Am))
        np.testing.assert_array_equal(A_new, np.union1d(Ap, part.Im))

    def test_no_change(self):
        part = make_partition(9, np.random.default_rng(22))
        I_new, A_new = next_sets(part, EMPTY, EMPTY)
        np.testing.assert_array_equal(I_new, np.sort(part.I))
        np.testing.assert_array_equal(A_new, np.sort(part.A))

    def test_hand_case(self):
        part = Partition(I=IX(0, 1), A=IX(2), Im=IX(1), Am=IX(2))
        I_new, A_new = next_sets(part, IX(1), IX(2))
        np.testing.assert_array_equal(I_new, [0, 2])
        np.testing.assert_array_equal(A_new, [1])

    def test_rejects_imc_outside_i(self):
        part = Partition(I=IX(0, 1), A=IX(2), Im=IX(0), Am=IX(2))
        with pytest.raises(ValueError):
            next_sets(part, IX(0, 2), EMPTY)

    def test_rejects_amc_outside_a(self):
        part = Partition(I=IX(0, 1), A=IX(2), Im=IX(0), Am=IX(2))
        with pytest.raises(ValueError):
            next_sets(part, EMPTY, IX(1, 2))

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_result_partitions_the_index_range(self, n, seed):
        rng = np.random.default_rng(seed)
        part = make_partition(n, rng)
        I_new, A_new = next_sets(part, *select_exchange_generic(part, 0.5, 0.5, 0.5, rng))
        merged = np.concatenate([I_new, A_new])
        np.testing.assert_array_equal(np.sort(merged), np.arange(n))


def scalar_asymmetry_reference(samples: int, rng: np.random.Generator):
    """Plain-Python reimplementation of the two conditional means."""
    s1 = s2 = 0.0
    m1 = m2 = 0
    for _ in range(samples):
        while True:
            a, b, c = rng.standard_normal(3)
            if a > 0.0 and b > 0.0 and a * b - c * c > 0.0:
                break
        g1, g2 = rng.standard_normal(2)
        det = a * b - c * c
        x1 = (-b * g1 + c * g2) / det
        x2 = (c * g1 - a * g2) / det
        if x1 <= 0.0 and x2 <= 0.0 and c < 0.0:
            m1 += 1
            s1 += (g1 < 0.0) + (g2 < 0.0)
        if g1 < 0.0 and g2 < 0.0 and c > 0.0:
            m2 += 1
            s2 += (x1 <= 0.0) + (x2 <= 0.0)
    return (s1 / m1 if m1 else 0.0), (s2 / m2 if m2 else 0.0)


class TestExchangeAsymmetryMontecarlo:
    def test_matches_scalar_reference(self):
        e1, e2, _ = exchange_asymmetry_montecarlo(200_000, np.random.default_rng(0))
        r1, r2 = scalar_asymmetry_reference(30_000, np.random.default_rng(999))
        # Independent streams; both concentrate around the true means, so a
        # few combined standard errors apart at these sample sizes.
        assert abs(e1 - r1) < 0.03
        assert abs(e2 - r2) < 0.03

    def test_inequality_with_margin(self):
        e1, e2, stderr = exchange_asymmetry_montecarlo(200_000, np.random.default_rng(1))
        assert 0.30 < e1 < 0.41
        assert 0.50 < e2 < 0.60
        assert 0.0 < stderr < 0.01
        assert e2 - e1 > 3.0 * stderr

    def test_estimates_are_bounded_counts(self):
        # In each conditioned branch at most one of the two indexes can be
        # infeasible, so the per-sample counts live in {0, 1}.
        for seed in range(6):
            e1, e2, _ = exchange_asymmetry_montecarlo(500, np.random.default_rng(seed))
            assert 0.0 <= e1 <= 1.0
            assert 0.0 <= e2 <= 1.0

    def test_diagonal_matrices_give_exact_zero(self):
        e1, e2, stderr = exchange_asymmetry_montecarlo(
            10_000, np.random.default_rng(2), diagonal_only=True
        )
        assert e1 == 0.0
        assert e2 == 0.0
        assert stderr == math.inf

    def test_single_sample_degenerates(self):
        for seed in range(20):
            e1, e2, stderr = exchange_asymmetry_montecarlo(
                1, np.random.default_rng(seed)
            )
            assert e1 in (0.0, 1.0)
            assert e2 in (0.0, 1.0)
            assert stderr == math.inf

    def test_deterministic(self):
        a = exchange_asymmetry_montecarlo(5_000, np.random.default_rng(7))
        b = exchange_asymmetry_montecarlo(5_000, np.random.default_rng(7))
        assert a == b

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            exchange_asymmetry_montecarlo(0, np.random.default_rng(0))
