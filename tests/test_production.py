"""Production technologies: anchor points, derivatives, allocation search."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab import (
    EconomyParams,
    Technology,
    equal_allocation_is_optimal,
    household_production,
)
from ineqlab.errors import GridTooCoarse, NonPositiveInput

EXOG = Technology.EXOGENOUS
AK = Technology.ENDOGENOUS_AK


def economy(tfp=1.0, alpha=0.5, population=1):
    return EconomyParams(tfp, alpha, 0.0, population=population)


def aggregate_output(K, L, p, technology):
    """Y(K, L): L households, each operating the mean K / L."""
    kbar = K / L
    return L * household_production(kbar, kbar, replace(p, population=L),
                                    technology, market=True)[0]


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def social_mpk(kbar, p, technology):
    """d/dkbar of the mean's output when every household operates kbar."""
    return central_difference(
        lambda x: household_production(x, x, p, technology, market=True)[0],
        kbar, 1e-6 * max(1.0, kbar))


def allocation_output(holdings, p):
    """Total output when household i operates holdings[i]."""
    return float(np.sum(household_production(np.array(holdings), None, p,
                                             EXOG)[0]))


class TestAggregateOutput:
    def test_identity_point(self):
        assert aggregate_output(1.0, 1.0, economy(), EXOG) == 1.0

    def test_sqrt_product(self):
        # direct arithmetic: sqrt(4 * 9) = 6
        assert aggregate_output(4.0, 9.0, economy(), EXOG) == pytest.approx(
            6.0, abs=1e-12)

    def test_ak_form(self):
        # A_bar * K * sqrt(L) = 1 * 2 * 2 = 4
        assert aggregate_output(2.0, 4.0, economy(), AK) == pytest.approx(
            4.0, abs=1e-12)

    @given(
        lam=st.floats(1e-3, 1e3),
        K=st.floats(1e-3, 1e3),
        L=st.floats(1e-3, 1e3),
        alpha=st.floats(0.05, 0.95),
    )
    @settings(max_examples=120, deadline=None)
    def test_constant_returns_to_scale_exog(self, lam, K, L, alpha):
        p = economy(alpha=alpha)
        scaled = aggregate_output(lam * K, lam * L, p, EXOG)
        base = aggregate_output(K, L, p, EXOG)
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
        p = economy(alpha=alpha)
        base = aggregate_output(K, L, p, AK)
        assert aggregate_output(lam * K, L, p, AK) == pytest.approx(
            lam * base, rel=1e-12)
        joint = aggregate_output(lam * K, lam * L, p, AK)
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
        y, _ = household_production(k, None, economy(), EXOG)
        assert y == pytest.approx(expected, abs=1e-12)

    def test_ak_uses_context_mean(self):
        # sqrt(4) * sqrt(1) = 2
        y, _ = household_production(1.0, 4.0, economy(), AK)
        assert y == pytest.approx(2.0, abs=1e-12)

    @given(
        k1=st.floats(1e-3, 1e3),
        k2=st.floats(1e-3, 1e3),
        alpha=st.floats(0.05, 0.95),
    )
    @settings(max_examples=150, deadline=None)
    def test_strict_concavity(self, k1, k2, alpha):
        if abs(k1 - k2) < 1e-9 * max(k1, k2):
            return
        p = economy(alpha=alpha)

        def f(k):
            return household_production(k, None, p, EXOG)[0]

        assert f(0.5 * (k1 + k2)) > 0.5 * (f(k1) + f(k2))

    def test_ak_cross_sections(self):
        # at K=1: Y = sqrt(L); at L=1: Y = K; at K=L: Y = K sqrt(K)
        p = economy()
        for L in (1.0, 2.0, 5.0, 9.0):
            assert aggregate_output(1.0, L, p, AK) == pytest.approx(
                math.sqrt(L), rel=1e-12)
        for K in (0.5, 1.0, 4.0, 9.0):
            assert aggregate_output(K, 1.0, p, AK) == pytest.approx(K, rel=1e-12)
            assert aggregate_output(K, K, p, AK) == pytest.approx(
                K * math.sqrt(K), rel=1e-12)


class TestMpk:
    def test_exog_values(self):
        assert household_production(1.0, None, economy(), EXOG)[1] == (
            pytest.approx(0.5, rel=1e-12))
        assert household_production(4.0, None, economy(), EXOG)[1] == (
            pytest.approx(0.25, rel=1e-12))

    def test_ak_collapses_at_mean(self):
        _, mpk = household_production(3.0, 3.0, economy(), AK)
        assert mpk == pytest.approx(0.5, rel=1e-12)

    def test_finite_difference_oracle_exog(self):
        p = economy(alpha=0.3)
        for k in np.logspace(-3, 3, 25):
            h = 1e-6 * max(1.0, k)
            fd = central_difference(
                lambda x: household_production(x, None, p, EXOG)[0], k, h)
            assert household_production(k, None, p, EXOG)[1] == (
                pytest.approx(fd, rel=1e-6))

    def test_social_ak_constant(self):
        # the mean's output m kbar is linear in kbar, so its slope is exact
        # up to the difference's rounding
        for kbar in (0.5, 1.0, 7.0):
            assert social_mpk(kbar, economy(tfp=3.0), AK) == pytest.approx(
                3.0, rel=1e-8)
            assert social_mpk(kbar, economy(tfp=3.0, population=4), AK) == (
                pytest.approx(6.0, rel=1e-8))

    def test_social_exog_equals_private_at_mean(self):
        _, private = household_production(1.0, 1.0, economy(), EXOG)
        assert private == 0.5
        assert social_mpk(1.0, economy(), EXOG) == pytest.approx(private, rel=1e-6)

    def test_private_below_social_under_spillover(self):
        # the wedge: the social return m exceeds the private alpha m
        p = economy(tfp=3.0, population=2)
        _, private = household_production(1.0, 1.0, p, AK)
        assert private < social_mpk(1.0, p, AK)


class TestHouseholdProduction:
    @pytest.mark.parametrize("technology", [EXOG, AK])
    def test_matches_closed_forms(self, technology):
        # scalar oracle: y = s k**alpha and mpk = alpha s k**(alpha - 1), with
        # s = tfp, or m kbar**(1 - alpha) under the spillover
        params = EconomyParams(1.7, 0.35, 0.0, population=4)
        alpha, kbar = params.alpha, 2.3
        scale = params.tfp
        if technology is AK:
            scale = params.tfp * 4.0 ** (1.0 - alpha) * kbar ** (1.0 - alpha)
        k = np.random.default_rng(3).uniform(0.01, 40.0, 200)
        y, mpk = household_production(k, kbar, params, technology)
        for x, y_x, mpk_x in zip(k.tolist(), y.tolist(), mpk.tolist()):
            assert y_x == pytest.approx(scale * math.pow(x, alpha), rel=1e-14)
            assert mpk_x == pytest.approx(
                alpha * scale * math.pow(x, alpha - 1.0), rel=1e-14)

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
            # the mean's output is the social product per head, tfp K
            # L**(1 - alpha) / L at K = 3 kbar and L = 3: m kbar, not f(kbar)
            assert y == pytest.approx(
                params.tfp * kbar * 3.0 ** (1.0 - params.alpha), rel=1e-14)

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
        p = economy()
        assert allocation_output([1.0, 9.0], p) == pytest.approx(4.0, abs=1e-12)
        assert allocation_output([3.0, 7.0], p) == (
            pytest.approx(math.sqrt(3) + math.sqrt(7), abs=1e-12))
        assert allocation_output([5.0, 5.0], p) == (
            pytest.approx(2 * math.sqrt(5), abs=1e-12))

    def test_paper_ordering(self):
        p = economy()
        eq = allocation_output([5.0, 5.0], p)
        mild = allocation_output([3.0, 7.0], p)
        wide = allocation_output([1.0, 9.0], p)
        assert eq > mild > wide


class TestEqualAllocation:
    def test_two_households(self):
        check = equal_allocation_is_optimal(10.0, 2, economy(), grid_step=0.1)
        assert np.allclose(check.argmax, [5.0, 5.0])
        assert check.equal_is_argmax
        assert check.equal_minus_max >= -1e-12

    def test_three_households(self):
        check = equal_allocation_is_optimal(6.0, 3, economy(), grid_step=0.2)
        assert np.allclose(check.argmax, [2.0, 2.0, 2.0])
        assert check.equal_is_argmax

    def test_matches_direct_enumeration(self):
        # independent brute-force oracle with simple loops
        K, L, step = 4.0, 2, 0.2
        p = economy(alpha=0.3)
        best, best_out = None, -1.0
        n = int(round(K / step))
        for i in range(1, n):
            alloc = (i * step, K - i * step)
            out = sum(a ** 0.3 for a in alloc)
            if out > best_out:
                best, best_out = alloc, out
        check = equal_allocation_is_optimal(K, L, p, grid_step=step)
        assert np.allclose(check.argmax, best)
        assert check.argmax_output == pytest.approx(best_out, rel=1e-12)

    @pytest.mark.parametrize("K", [4.0, 4.3])
    def test_four_households_match_direct_enumeration(self, K):
        # every allocation of the grid against the closed form; at K = 4.3
        # the 43 units do not split evenly, and the maxima are permutations
        # of one multiset whose sums can differ in the last bit
        L, step, alpha = 4, 0.1, 0.3
        p = economy(alpha=alpha)
        n = int(round(K / step))
        best, best_out = None, -1.0
        for head in itertools.product(range(1, n), repeat=L - 1):
            if sum(head) < n:
                alloc = [u * step for u in (*head, n - sum(head))]
                out = sum(a ** alpha for a in alloc)
                if out > best_out:
                    best, best_out = alloc, out
        check = equal_allocation_is_optimal(K, L, p, grid_step=step)
        assert np.allclose(np.sort(check.argmax), np.sort(best))
        assert check.argmax_output == pytest.approx(best_out, rel=1e-15)
        # the lexicographically first balanced composition
        assert np.all(np.diff(check.argmax) >= 0.0)
        assert check.equal_is_argmax

    @pytest.mark.parametrize("K, L", [(0.0, 2), (-1.0, 2), (math.nan, 2),
                                      (1.0, 0)])
    def test_rejects_nonpositive(self, K, L):
        with pytest.raises(NonPositiveInput):
            equal_allocation_is_optimal(K, L, economy())

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            equal_allocation_is_optimal(10.0, 2, economy(), grid_step=0.6)
        # the rule binds at step > K / (10 L)
        with pytest.raises(GridTooCoarse):
            equal_allocation_is_optimal(6.0, 3, economy(), grid_step=0.5)

    @pytest.mark.parametrize("L", [2, 3, 5, 50])
    def test_equal_split_beats_grid(self, L):
        check = equal_allocation_is_optimal(7.3, L, economy(alpha=0.6))
        assert check.equal_minus_max >= -1e-12
        assert check.equal_is_argmax
