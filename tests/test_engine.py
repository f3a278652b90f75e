import copy
import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rasqp.solvers as solvers
from rasqp.engine import (
    EXCHANGED,
    FEASIBLE,
    FROZEN,
    ChangeProbabilities,
    categorize,
    classify,
    exchange_asymmetry_montecarlo,
    next_sets,
    select_exchange_generic,
    select_exchange_ras,
)
from rasqp.generators import gen_hard
from rasqp.model import KktPoint, QpProblem
from rasqp.solvers import RasConfig, ras_solve

IX = lambda *v: np.array(v, dtype=np.int64)  # noqa: E731
EMPTY = np.empty(0, dtype=np.int64)
MASK = lambda *v: np.array(v, dtype=bool)  # noqa: E731


def all_frozen(n):
    """The origin labels every run starts from."""
    return np.full(n, FROZEN, dtype=np.int8)


def make_masks(n, rng):
    """Random (inactive, infeasible) masks: I/A and the infeasible part of each."""
    return rng.random(n) < 0.5, rng.random(n) < 0.5


def parts(inactive, infeasible):
    """(Ip, Im, Ap, Am): the feasible and infeasible indexes of I and A."""
    return (np.flatnonzero(inactive & ~infeasible), np.flatnonzero(inactive & infeasible),
            np.flatnonzero(~inactive & ~infeasible), np.flatnonzero(~inactive & infeasible))


def split(chosen, inactive):
    """The chosen indexes that lie in I, then those that lie in A."""
    return chosen[inactive[chosen]], chosen[~inactive[chosen]]


def labels_after(infeasible, chosen):
    """Origin labels after a selection, from their definition, one index at a time."""
    picked = set(chosen.tolist())
    return np.array([EXCHANGED if i in picked else FROZEN if bad else FEASIBLE
                     for i, bad in enumerate(infeasible)], dtype=np.int8)


class TestClassify:
    def test_zero_counts_as_infeasible(self):
        point = KktPoint(x=np.array([1.0, 0.0, -2.0, 0.0]), s=np.zeros(4))
        inactive = MASK(1, 1, 1, 0)
        Ip, Im, _, _ = parts(inactive, classify(point, inactive, tol=1e-10))
        np.testing.assert_array_equal(Im, [1, 2])
        np.testing.assert_array_equal(Ip, [0])

    def test_dual_tolerance_is_strict(self):
        tol = 1e-10
        s = np.array([0.0, -tol, -tol * 1.001, 5.0])
        point = KktPoint(x=np.zeros(4), s=s)
        inactive = MASK(0, 0, 0, 0)
        _, _, Ap, Am = parts(inactive, classify(point, inactive, tol=tol))
        # s_j == -tol is feasible; only the strictly smaller entry lands in Am.
        np.testing.assert_array_equal(Am, [2])
        np.testing.assert_array_equal(Ap, [0, 1, 3])

    def test_optimal_flag(self):
        point = KktPoint(x=np.array([1.0, 0.0]), s=np.array([0.0, 2.0]))
        assert not classify(point, MASK(1, 0), tol=0.0).any()
        assert classify(point, MASK(0, 1), tol=0.0).any()

    def test_negative_tol_rejected(self):
        point = KktPoint(x=np.zeros(1), s=np.zeros(1))
        with pytest.raises(ValueError):
            classify(point, MASK(1), tol=-1e-3)
        with pytest.raises(ValueError):  # nan would count every s_j as feasible
            classify(point, MASK(1), tol=float("nan"))

    def test_partition_n(self):
        point = KktPoint(x=np.zeros(3), s=np.zeros(3))
        assert classify(point, MASK(1, 0, 1), tol=0.0).shape == (3,)


def by_category(cand, cat):
    """categorize's output as six index arrays, NImp0 .. NAmc."""
    return [cand[cat == c] for c in range(6)]


class TestCategorize:
    def test_hand_case(self):
        inactive = MASK(1, 1, 1, 1, 0, 0, 0)
        infeasible = MASK(1, 1, 1, 0, 1, 1, 0)
        # Previous step: 0 and 4 feasible, 1, 3 and 6 kept, 2 moved in, 5 moved out.
        origin = np.array([FEASIBLE, FROZEN, EXCHANGED, FROZEN, FEASIBLE, EXCHANGED, FROZEN],
                          dtype=np.int8)
        cand, cat = categorize(infeasible, inactive, origin)
        NImp0, NImf, NImc, NAmp0, NAmf, NAmc = by_category(cand, cat)
        np.testing.assert_array_equal(NImp0, [0])
        np.testing.assert_array_equal(NImf, [1])
        np.testing.assert_array_equal(NImc, [2])
        np.testing.assert_array_equal(NAmp0, [4])
        np.testing.assert_array_equal(NAmf, [])
        np.testing.assert_array_equal(NAmc, [5])
        np.testing.assert_array_equal(cand, [0, 1, 2, 4, 5])
        np.testing.assert_array_equal(cat, [0, 1, 2, 3, 5])

    def test_initial_labels_mark_everything_frozen(self):
        inactive, infeasible = make_masks(12, np.random.default_rng(4))
        _, Im, _, Am = parts(inactive, infeasible)
        cats = by_category(*categorize(infeasible, inactive, all_frozen(12)))
        np.testing.assert_array_equal(cats[1], Im)
        np.testing.assert_array_equal(cats[4], Am)
        for c in (0, 2, 3, 5):
            assert len(cats[c]) == 0

    def test_counts_partition_im_and_am(self):
        # After any (exchange -> classify) round-trip, the six categories
        # exactly cover the new infeasible sets.
        rng = np.random.default_rng(5)
        p = np.array(ChangeProbabilities().as_tuple())
        for _ in range(100):
            n = int(rng.integers(1, 9))
            inactive, infeasible = make_masks(n, rng)
            chosen = select_exchange_ras(
                *categorize(infeasible, inactive, all_frozen(n)), p, rng)
            origin = labels_after(infeasible, chosen)
            inactive_new, _, _ = next_sets(inactive, chosen)
            point = KktPoint(x=rng.standard_normal(n), s=rng.standard_normal(n))
            infeasible_new = classify(point, inactive_new, tol=1e-10)
            _, Im_new, _, Am_new = parts(inactive_new, infeasible_new)
            cats_new = by_category(*categorize(infeasible_new, inactive_new, origin))
            np.testing.assert_array_equal(np.sort(np.concatenate(cats_new[:3])), Im_new)
            np.testing.assert_array_equal(np.sort(np.concatenate(cats_new[3:])), Am_new)
            assert sum(len(c) for c in cats_new[:3]) == len(Im_new)
            assert sum(len(c) for c in cats_new[3:]) == len(Am_new)


def ras_draws(problem, cfg, monkeypatch):
    """[infeasible, inactive, origin, chosen] of every draw of a ras run."""
    draws = []
    real_categorize, real_select = solvers.categorize, solvers.select_exchange_ras

    def spy_categorize(infeasible, inactive, origin):
        draws.append([infeasible.copy(), inactive.copy(), origin.copy(), None])
        return real_categorize(infeasible, inactive, origin)

    def spy_select(*args):
        draws[-1][3] = real_select(*args)
        return draws[-1][3]

    monkeypatch.setattr(solvers, "categorize", spy_categorize)
    monkeypatch.setattr(solvers, "select_exchange_ras", spy_select)
    ras_solve(problem, cfg)
    return draws


class TestOriginLabels:
    """The labels ``ras_solve`` hands to :func:`categorize`, draw after draw."""

    def test_labels_after_a_selection(self, monkeypatch):
        draws = ras_draws(gen_hard(30, 1e8, seed=1), RasConfig(seed=2), monkeypatch)
        assert len(draws) > 10
        np.testing.assert_array_equal(draws[0][2], all_frozen(30))
        for (infeasible, _, _, chosen), (_, _, origin, _) in zip(draws, draws[1:]):
            np.testing.assert_array_equal(origin, labels_after(infeasible, chosen))
            assert origin.dtype == np.int8

    def test_empty_selection_freezes_every_infeasible_index(self, monkeypatch):
        # Probabilities this small make every draw come back empty.  From
        # A = everything, s = g, so the odd indexes start out feasible.
        problem = QpProblem(np.eye(10), np.tile([-1.0, 1.0], 5))
        draws = ras_draws(problem, RasConfig(probs=ChangeProbabilities(*(1e-15,) * 6)),
                          monkeypatch)
        assert len(draws) == 10 * 10 + 1
        for (infeasible, _, _, chosen), (_, _, origin, _) in zip(draws, draws[1:]):
            assert len(chosen) == 0
            np.testing.assert_array_equal(infeasible, np.arange(10) % 2 == 0)
            assert (origin[infeasible] == FROZEN).all()
            assert (origin[~infeasible] == FEASIBLE).all()


class TestChangeProbabilities:
    def test_tuned_defaults(self):
        assert ChangeProbabilities().as_tuple() == (0.5, 0.98, 0.98, 0.01, 0.93, 0.94)

    def test_certainty_allowed(self):
        ChangeProbabilities(1, 1, 1, 1, 1, 1)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0001])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            ChangeProbabilities(p3=bad)

    def test_dataclass_behaviour_is_p1_to_p6(self):
        values = (0.3, 0.6, 0.2, 0.9, 0.5, 0.7)
        probs = ChangeProbabilities(*values)
        assert [f.name for f in dataclasses.fields(probs)] == ["p1", "p2", "p3", "p4", "p5", "p6"]
        assert probs == ChangeProbabilities(*values)
        assert hash(probs) == hash(ChangeProbabilities(*values))
        assert repr(probs) == "ChangeProbabilities(p1=0.3, p2=0.6, p3=0.2, p4=0.9, p5=0.5, p6=0.7)"
        assert dataclasses.astuple(probs) == values
        copies = [pickle.loads(pickle.dumps(probs, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in (*copies, copy.copy(probs), copy.deepcopy(probs)):
            assert other == probs
        with pytest.raises(ValueError):
            dataclasses.replace(probs, p4=0.0)


class TestSelectExchangeGeneric:
    def test_outputs_partition_the_infeasible_sets(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            inactive, infeasible = make_masks(8, rng)
            _, Im, _, Am = parts(inactive, infeasible)
            chosen = select_exchange_generic(Im, Am, rng)
            Imc, Amc = split(chosen, inactive)
            np.testing.assert_array_equal(chosen, np.concatenate((Imc, Amc)))
            # The picks and the rest partition Im (Am) when the picks are a subset.
            for picked, full in ((Imc, Im), (Amc, Am)):
                assert (np.diff(picked) > 0).all()
                assert np.isin(picked, full).all()

    def test_im_draws_come_before_am_draws(self):
        Im, Am = IX(0, 1), IX(2, 3)
        seed = 7
        drawn = np.random.default_rng(seed)
        got = select_exchange_generic(Im, Am, drawn)
        rng = np.random.default_rng(seed)
        want_imc = Im[rng.random(2) < 0.5]
        want_amc = Am[rng.random(2) < 0.5]
        np.testing.assert_array_equal(got, np.concatenate((want_imc, want_amc)))
        # One uniform per index and no more: both generators are at the same place.
        assert drawn.random() == rng.random()


class TestSelectExchangeRas:
    def test_all_ones_selects_everything(self):
        rng = np.random.default_rng(3)
        inactive, infeasible = make_masks(10, rng)
        _, Im, _, Am = parts(inactive, infeasible)
        chosen = select_exchange_ras(*categorize(infeasible, inactive, all_frozen(10)),
                                     np.ones(6), rng)
        Imc, Amc = split(chosen, inactive)
        np.testing.assert_array_equal(Imc, Im)
        np.testing.assert_array_equal(Amc, Am)

    def test_category_draw_order(self):
        # One uniform per element, category by category:
        # NImp0, NImf, NImc, then NAmp0, NAmf, NAmc.
        cand = IX(0, 1, 2, 3, 4, 5, 6, 7)
        cat = IX(0, 1, 1, 2, 3, 4, 5, 5)
        p = np.array([0.3, 0.6, 0.2, 0.9, 0.5, 0.7])
        seed = 123
        got = select_exchange_ras(cand, cat, p, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        picks = [ix[rng.random(len(ix)) < p_c] for ix, p_c in zip(by_category(cand, cat), p)]
        np.testing.assert_array_equal(got[got < 4], np.union1d(np.union1d(picks[0], picks[1]),
                                                               picks[2]))
        np.testing.assert_array_equal(got[got >= 4], np.union1d(np.union1d(picks[3], picks[4]),
                                                                picks[5]))
        np.testing.assert_array_equal(got, np.concatenate(picks))

    def test_one_draw_per_infeasible_index(self):
        inactive, infeasible = make_masks(20, np.random.default_rng(6))
        rng = np.random.default_rng(11)
        select_exchange_ras(*categorize(infeasible, inactive, all_frozen(20)),
                            np.array(ChangeProbabilities().as_tuple()), rng)
        ref = np.random.default_rng(11)
        ref.random(np.count_nonzero(infeasible))
        assert rng.random() == ref.random()

    def test_outputs_are_distinct_and_partition_the_infeasible_sets(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            inactive, infeasible = make_masks(16, rng)
            _, Im, _, Am = parts(inactive, infeasible)
            origin = rng.integers(0, 3, 16).astype(np.int8)
            cand, cat = categorize(infeasible, inactive, origin)
            chosen = select_exchange_ras(cand, cat, np.array(ChangeProbabilities().as_tuple()),
                                         rng)
            # The picks keep the draw order, ascending inside each category.
            np.testing.assert_array_equal(chosen, cand[np.isin(cand, chosen)])
            # The picks and the rest partition Im (Am) when the picks are a subset.
            for picked, full in zip(split(chosen, inactive), (Im, Am)):
                assert (np.diff(np.sort(picked)) > 0).all()
                assert np.isin(picked, full).all()

    def test_kr_update_when_all_probabilities_are_one(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            inactive, infeasible = make_masks(8, rng)
            Ip, _, _, Am = parts(inactive, infeasible)
            chosen = select_exchange_ras(*categorize(infeasible, inactive, all_frozen(8)),
                                         np.ones(6), rng)
            _, I_new, _ = next_sets(inactive, chosen)
            np.testing.assert_array_equal(I_new, np.union1d(Ip, Am))

    @given(st.integers(1, 24), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_six_per_category_draws(self, n, seed):
        rng = np.random.default_rng(seed)
        inactive, infeasible = make_masks(n, rng)
        origin = rng.integers(0, 3, n).astype(np.int8)
        p = rng.uniform(0.05, 1.0, 6)
        got = np.random.default_rng(seed + 1)
        chosen = select_exchange_ras(*categorize(infeasible, inactive, origin), p, got)
        ref = np.random.default_rng(seed + 1)
        want = []
        # NImp0, NImf, NImc, then NAmp0, NAmf, NAmc, one draw each.
        categories = itertools.product((inactive, ~inactive), (FEASIBLE, FROZEN, EXCHANGED))
        for (side, label), p_c in zip(categories, p):
            ix = np.flatnonzero(infeasible & side & (origin == label))
            want.append(ix[ref.random(len(ix)) < p_c])
        np.testing.assert_array_equal(chosen, np.concatenate(want))
        assert got.random() == ref.random()


class TestNextSets:
    def test_full_exchange(self):
        inactive, infeasible = make_masks(9, np.random.default_rng(21))
        Ip, Im, Ap, Am = parts(inactive, infeasible)
        _, I_new, A_new = next_sets(inactive, np.flatnonzero(infeasible))
        np.testing.assert_array_equal(I_new, np.union1d(Ip, Am))
        np.testing.assert_array_equal(A_new, np.union1d(Ap, Im))

    def test_no_change(self):
        inactive, _ = make_masks(9, np.random.default_rng(22))
        I, A = np.flatnonzero(inactive), np.flatnonzero(~inactive)
        _, I_new, A_new = next_sets(inactive, EMPTY)
        np.testing.assert_array_equal(I_new, I)
        np.testing.assert_array_equal(A_new, A)

    def test_a_repeated_index_flips_once(self):
        inactive_new, I_new, A_new = next_sets(MASK(1, 0, 1, 0), IX(0, 0, 1, 1, 1, 3, 3))
        np.testing.assert_array_equal(inactive_new, [False, True, True, True])
        np.testing.assert_array_equal(I_new, [1, 2, 3])
        np.testing.assert_array_equal(A_new, [0])

    def test_hand_case(self):
        inactive = MASK(1, 1, 0)
        inactive_new, I_new, A_new = next_sets(inactive, IX(1, 2))
        np.testing.assert_array_equal(I_new, [0, 2])
        np.testing.assert_array_equal(A_new, [1])
        np.testing.assert_array_equal(inactive_new, [True, False, True])

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_result_partitions_the_index_range(self, n, seed):
        rng = np.random.default_rng(seed)
        inactive, infeasible = make_masks(n, rng)
        _, Im, _, Am = parts(inactive, infeasible)
        inactive_new, I_new, A_new = next_sets(
            inactive, select_exchange_generic(Im, Am, rng))
        merged = np.concatenate([I_new, A_new])
        np.testing.assert_array_equal(np.sort(merged), np.arange(n))
        np.testing.assert_array_equal(I_new, np.flatnonzero(inactive_new))


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
    @pytest.mark.parametrize("samples", [0, -3, 1.5, 2.0, 2.5, True, False, "10", None])
    def test_rejects_a_sample_count_that_is_not_a_positive_integer(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer >= 1"):
            exchange_asymmetry_montecarlo(samples, np.random.default_rng(0))

    @pytest.mark.parametrize("samples", [1, np.int64(3)])
    def test_accepts_any_positive_integer(self, samples):
        e1, e2, _ = exchange_asymmetry_montecarlo(samples, np.random.default_rng(0))
        assert 0.0 <= e1 <= 2.0 and 0.0 <= e2 <= 2.0

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
