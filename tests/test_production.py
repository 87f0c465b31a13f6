"""Production technologies: anchor points, derivatives, allocation search."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab import (
    EconomyParams,
    Technology,
    TechnologyView,
    WealthDistribution,
    aggregate_output,
    allocation_output,
    equal_allocation_is_optimal,
    household_production,
    mpk_private,
    mpk_social,
    per_capita_output,
)
from ineqlab.errors import (
    GridTooCoarse,
    MissingContextMean,
    NonPositiveInput,
    WrongRegime,
)

EXOG = Technology.EXOGENOUS
AK = Technology.ENDOGENOUS_AK


def exog_view(tfp=1.0, alpha=0.5, population=1, context_mean=None):
    return TechnologyView(EconomyParams(tfp, alpha, 0.0, population=population),
                          EXOG, context_mean)


def ak_view(tfp=1.0, alpha=0.5, population=1, context_mean=None):
    return TechnologyView(EconomyParams(tfp, alpha, 0.0, population=population),
                          AK, context_mean)


class TestAggregateOutput:
    def test_identity_point(self):
        assert aggregate_output(1.0, 1.0, exog_view()) == 1.0

    def test_sqrt_product(self):
        # direct arithmetic: sqrt(4 * 9) = 6
        assert aggregate_output(4.0, 9.0, exog_view()) == pytest.approx(6.0, abs=1e-12)

    def test_ak_form(self):
        # A_bar * K * sqrt(L) = 1 * 2 * 2 = 4
        assert aggregate_output(2.0, 4.0, ak_view()) == pytest.approx(4.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveInput):
            aggregate_output(0.0, 1.0, exog_view())
        with pytest.raises(NonPositiveInput):
            aggregate_output(1.0, -2.0, ak_view())

    @given(
        lam=st.floats(1e-3, 1e3),
        K=st.floats(1e-3, 1e3),
        L=st.floats(1e-3, 1e3),
        alpha=st.floats(0.05, 0.95),
    )
    @settings(max_examples=120, deadline=None)
    def test_constant_returns_to_scale_exog(self, lam, K, L, alpha):
        view = exog_view(alpha=alpha)
        scaled = aggregate_output(lam * K, lam * L, view)
        base = aggregate_output(K, L, view)
        assert scaled == pytest.approx(lam * base, rel=1e-12)

    @given(
        lam=st.floats(1e-3, 1e3),
        K=st.floats(1e-3, 1e3),
        L=st.floats(1e-3, 1e3),
        alpha=st.floats(0.05, 0.95),
    )
    @settings(max_examples=120, deadline=None)
    def test_ak_scaling(self, lam, K, L, alpha):
        # constant returns in capital alone; scale economies jointly
        view = ak_view(alpha=alpha)
        base = aggregate_output(K, L, view)
        assert aggregate_output(lam * K, L, view) == pytest.approx(
            lam * base, rel=1e-12)
        joint = aggregate_output(lam * K, lam * L, view)
        assert joint == pytest.approx(lam ** (2.0 - alpha) * base, rel=1e-11)
        if lam > 1.0 + 1e-9:
            assert joint > lam * base


class TestPerCapitaOutput:
    # anchor points of the square-root technology at unit productivity
    @pytest.mark.parametrize("k,expected", [
        (1.0, 1.0),
        (3.0, math.sqrt(3.0)),
        (5.0, math.sqrt(5.0)),
        (7.0, math.sqrt(7.0)),
        (9.0, 3.0),
    ])
    def test_sqrt_anchors(self, k, expected):
        assert per_capita_output(k, exog_view()) == pytest.approx(expected, abs=1e-12)

    def test_ak_uses_context_mean(self):
        # sqrt(4) * sqrt(1) = 2
        assert per_capita_output(1.0, ak_view(context_mean=4.0)) == pytest.approx(
            2.0, abs=1e-12)

    def test_ak_requires_context_mean(self):
        with pytest.raises(MissingContextMean):
            per_capita_output(1.0, ak_view())

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveInput):
            per_capita_output(0.0, exog_view())

    @given(
        k1=st.floats(1e-3, 1e3),
        k2=st.floats(1e-3, 1e3),
        alpha=st.floats(0.05, 0.95),
    )
    @settings(max_examples=150, deadline=None)
    def test_strict_concavity(self, k1, k2, alpha):
        if abs(k1 - k2) < 1e-9 * max(k1, k2):
            return
        view = exog_view(alpha=alpha)
        mid = per_capita_output(0.5 * (k1 + k2), view)
        chord = 0.5 * (per_capita_output(k1, view) + per_capita_output(k2, view))
        assert mid > chord

    def test_ak_cross_sections(self):
        # at K=1: Y = sqrt(L); at L=1: Y = K; at K=L: Y = K sqrt(K)
        view = ak_view()
        for L in (1.0, 2.0, 5.0, 9.0):
            assert aggregate_output(1.0, L, view) == pytest.approx(
                math.sqrt(L), rel=1e-12)
        for K in (0.5, 1.0, 4.0, 9.0):
            assert aggregate_output(K, 1.0, view) == pytest.approx(K, rel=1e-12)
            assert aggregate_output(K, K, view) == pytest.approx(
                K * math.sqrt(K), rel=1e-12)


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestMpk:
    def test_exog_values(self):
        assert mpk_private(1.0, exog_view()) == pytest.approx(0.5, rel=1e-12)
        assert mpk_private(4.0, exog_view()) == pytest.approx(0.25, rel=1e-12)

    def test_ak_collapses_at_mean(self):
        view = ak_view(context_mean=3.0)
        assert mpk_private(3.0, view) == pytest.approx(0.5, rel=1e-12)

    def test_finite_difference_oracle_exog(self):
        view = exog_view(alpha=0.3)
        for k in np.logspace(-3, 3, 25):
            h = 1e-6 * max(1.0, k)
            fd = central_difference(lambda x: per_capita_output(float(x), view), k, h)
            assert mpk_private(float(k), view) == pytest.approx(fd, rel=1e-6)

    def test_finite_difference_oracle_ak(self):
        # spillover frozen: differentiate holding the context mean fixed
        view = ak_view(tfp=2.0, alpha=0.4, population=3, context_mean=2.5)
        for k in np.logspace(-3, 3, 25):
            h = 1e-6 * max(1.0, k)
            fd = central_difference(lambda x: per_capita_output(float(x), view), k, h)
            assert mpk_private(float(k), view) == pytest.approx(fd, rel=1e-6)

    def test_social_ak_constant(self):
        assert mpk_social(ak_view(tfp=3.0)) == pytest.approx(3.0, abs=1e-12)
        assert mpk_social(ak_view(tfp=3.0, population=4)) == pytest.approx(
            6.0, rel=1e-12)

    def test_social_exog_equals_private_at_mean(self):
        view = exog_view(context_mean=1.0)
        assert mpk_social(view) == pytest.approx(0.5, rel=1e-12)

    def test_private_below_social_under_spillover(self):
        view = ak_view(tfp=3.0, population=2, context_mean=1.0)
        assert mpk_private(1.0, view) < mpk_social(view)


class TestHouseholdProduction:
    @pytest.mark.parametrize("technology", [EXOG, AK])
    def test_matches_checked_forms_exactly(self, technology):
        params = EconomyParams(1.7, 0.35, 0.0, population=4)
        view = TechnologyView(params, technology, context_mean=2.3)
        k = np.random.default_rng(3).uniform(0.01, 40.0, 200)
        y, mpk = household_production(k, 2.3, params, technology)
        assert np.array_equal(y, per_capita_output(k, view))
        assert np.array_equal(mpk, mpk_private(k, view))
        # the checked forms take a float as a 0-d array, whose ** can round
        # 1 ulp away from that of a numpy scalar
        for x in k[:20].tolist():
            y1, mpk1 = household_production(np.asarray(x), 2.3, params, technology)
            assert float(y1) == per_capita_output(x, view)
            assert float(mpk1) == mpk_private(x, view)

    @pytest.mark.parametrize("technology", [EXOG, AK])
    def test_mpk_matches_central_difference(self, technology):
        params = EconomyParams(2.0, 0.4, 0.0, population=3)
        for k in np.logspace(-3, 3, 25):
            h = 1e-6 * max(1.0, k)
            fd = central_difference(
                lambda x: household_production(x, 2.5, params, technology)[0], k, h)
            _, mpk = household_production(k, 2.5, params, technology)
            assert mpk == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("technology", [EXOG, AK])
    def test_market_gives_the_means_output_and_mpk(self, technology):
        params = EconomyParams(1.3, 0.3, 0.0, population=3)
        k = np.array([0.5, 2.0, 6.5])
        kbar = k.mean()
        y, mpk = household_production(k, kbar, params, technology, market=True)
        own_y, own_mpk = household_production(kbar, kbar, params, technology)
        assert y == pytest.approx(own_y, rel=1e-15)
        assert mpk == pytest.approx(own_mpk, rel=1e-15)
        if technology is AK:
            m = params.ak_scale()
            assert (y, mpk) == (m * kbar, params.alpha * m)
            # the mean's output is the social product: m kbar, not f(kbar)
            assert y == pytest.approx(aggregate_output(
                3.0 * kbar, 3.0, TechnologyView(params, AK)) / 3.0, rel=1e-14)

    @pytest.mark.parametrize("technology", [EXOG, AK])
    @pytest.mark.parametrize("market", [False, True])
    def test_column_mean_broadcasts_over_households(self, technology, market):
        params = EconomyParams(1.1, 0.45, 0.0, population=5)
        K = np.random.default_rng(5).uniform(0.1, 9.0, (7, 5))
        kbar = K.mean(axis=1)[:, None]
        y, mpk = household_production(K, kbar, params, technology, market)
        shape = (7, 1) if market else (7, 5)
        assert y.shape == shape
        assert np.broadcast_shapes(np.shape(mpk), shape) == shape
        for t in range(7):
            y_t, mpk_t = household_production(K[t], kbar[t, 0], params,
                                              technology, market)
            assert np.allclose(y[t], y_t, rtol=1e-15, atol=0.0)
            assert np.allclose(np.broadcast_to(mpk, shape)[t], mpk_t,
                               rtol=1e-15, atol=0.0)


class TestAllocationOutput:
    def test_fig_points_sum(self):
        view = exog_view()
        assert allocation_output(WealthDistribution([1.0, 9.0]), view) == (
            pytest.approx(4.0, abs=1e-12))
        assert allocation_output(WealthDistribution([3.0, 7.0]), view) == (
            pytest.approx(math.sqrt(3) + math.sqrt(7), abs=1e-12))
        assert allocation_output(WealthDistribution([5.0, 5.0]), view) == (
            pytest.approx(2 * math.sqrt(5), abs=1e-12))

    def test_paper_ordering(self):
        view = exog_view()
        eq = allocation_output(WealthDistribution([5.0, 5.0]), view)
        mild = allocation_output(WealthDistribution([3.0, 7.0]), view)
        wide = allocation_output(WealthDistribution([1.0, 9.0]), view)
        assert eq > mild > wide


class TestEqualAllocation:
    def test_two_households(self):
        check = equal_allocation_is_optimal(10.0, 2, exog_view(), grid_step=0.1)
        assert np.allclose(check.argmax, [5.0, 5.0])
        assert check.equal_is_argmax
        assert check.equal_minus_max >= -1e-12

    def test_three_households(self):
        check = equal_allocation_is_optimal(6.0, 3, exog_view(), grid_step=0.2)
        assert np.allclose(check.argmax, [2.0, 2.0, 2.0])
        assert check.equal_is_argmax

    def test_matches_direct_enumeration(self):
        # independent brute-force oracle with simple loops
        K, L, step = 4.0, 2, 0.2
        view = exog_view(alpha=0.3)
        best, best_out = None, -1.0
        n = int(round(K / step))
        for i in range(1, n):
            alloc = (i * step, K - i * step)
            out = sum(a ** 0.3 for a in alloc)
            if out > best_out:
                best, best_out = alloc, out
        check = equal_allocation_is_optimal(K, L, view, grid_step=step)
        assert np.allclose(check.argmax, best)
        assert check.argmax_output == pytest.approx(best_out, rel=1e-12)

    def test_four_households_match_direct_enumeration(self):
        # no two-part split shortcut below L = 4: every allocation of the
        # grid, in lexicographic order, against the search's first maximum
        K, L, step, alpha = 4.0, 4, 0.1, 0.3
        view = exog_view(alpha=alpha)
        n = int(round(K / step))
        best, best_out = None, -1.0
        for head in itertools.product(range(1, n), repeat=L - 1):
            if sum(head) < n:
                alloc = [u * step for u in (*head, n - sum(head))]
                out = sum(a ** alpha for a in alloc)
                if out > best_out:
                    best, best_out = alloc, out
        check = equal_allocation_is_optimal(K, L, view, grid_step=step)
        assert np.allclose(check.argmax, best)
        assert check.argmax_output == pytest.approx(best_out, rel=1e-12)
        assert check.equal_is_argmax

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            equal_allocation_is_optimal(10.0, 2, exog_view(), grid_step=0.6)
        # the rule binds at step > K / (10 L)
        with pytest.raises(GridTooCoarse):
            equal_allocation_is_optimal(6.0, 3, exog_view(), grid_step=0.5)

    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            equal_allocation_is_optimal(10.0, 2, ak_view(), grid_step=0.1)

    @pytest.mark.parametrize("L", [2, 3])
    def test_equal_split_beats_grid(self, L):
        check = equal_allocation_is_optimal(7.3, L, exog_view(alpha=0.6))
        assert check.equal_minus_max >= -1e-12
        assert check.equal_is_argmax
