"""Bequest dynamics: one-step formulas, steady states, growth accounting."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab import (
    OLG_AUTARKY_AK,
    OLG_AUTARKY_EXOG,
    OLG_MARKET_AK,
    OLG_MARKET_EXOG,
    RAMSEY_AUTARKY_EXOG,
    EconomyParams,
    WealthDistribution,
    cobweb_data,
    household_production,
    olg_mean_map,
    olg_simulate,
    olg_steady_state,
    olg_step,
)
from ineqlab.errors import OutOfRange, WrongRegime


def params_exog(theta=0.0, L=2, alpha=0.5, tfp=1.0):
    return EconomyParams(tfp=tfp, alpha=alpha, theta=theta, population=L)


def params_ak(tfp=3.0, theta=0.0, L=1, alpha=0.5):
    return EconomyParams(tfp=tfp, alpha=alpha, theta=theta, population=L)


def ratio_step(ratio, regime, alpha):
    """Oracle: one generation of a household's share of the mean bequest.

    Only the endogenous regimes have a scale-free share recursion; under
    autarky the power map is renormalised by its own mean afterwards.
    """
    if regime.is_market:
        return 1.0 + alpha * (ratio - 1.0)
    return ratio ** alpha


def fixed_point_oracle(params, tol=1e-10, b0=1.0):
    """Iterate the scalar mean map to its fixed point."""
    b = b0
    for _ in range(10000):
        nxt = olg_mean_map(b, params)
        if abs(nxt - b) < tol:
            return nxt
        b = nxt
    raise AssertionError("fixed-point oracle did not converge")


class TestOlgStep:
    def test_market_equal_distribution(self):
        nxt = olg_step(np.array([1.0, 1.0]), params_exog(), OLG_MARKET_EXOG)
        assert np.allclose(nxt, [0.5, 0.5], atol=1e-15)

    def test_market_dispersed(self):
        # direct formula evaluation oracle at mean 5: f=sqrt(5), f'=1/(2 sqrt 5)
        nxt = olg_step(np.array([1.0, 9.0]), params_exog(), OLG_MARKET_EXOG)
        f, fp = math.sqrt(5.0), 0.5 / math.sqrt(5.0)
        expected = [0.5 * (f - fp * (5.0 - 1.0)), 0.5 * (f - fp * (5.0 - 9.0))]
        assert np.allclose(nxt, expected, rtol=1e-14)
        assert nxt.mean() == pytest.approx(math.sqrt(5.0) / 2.0, rel=1e-14)
        # the recorded rate of the step is the marginal product at the mean
        traj = olg_simulate(WealthDistribution([1.0, 9.0]), params_exog(),
                            OLG_MARKET_EXOG, max_generations=1, stop_tol=0.0)
        assert traj.interest[0] == traj.interest[1] == pytest.approx(fp, rel=1e-14)

    def test_autarky_dispersed(self):
        nxt = olg_step(np.array([1.0, 9.0]), params_exog(), OLG_AUTARKY_EXOG)
        assert np.allclose(nxt, [0.5, 1.5], rtol=1e-14)
        # autarky mean falls short of the market mean: output lost to dispersion
        assert nxt.mean() == pytest.approx(1.0)
        assert nxt.mean() < math.sqrt(5.0) / 2.0

    def test_endogenous_market_formula(self):
        p = params_ak(tfp=3.0, L=1)
        b = np.array([2.0])
        nxt = olg_step(b, p, OLG_MARKET_AK)
        # (3/2) * ((1-a) bbar + a b) with bbar = b
        assert nxt[0] == pytest.approx(3.0, rel=1e-14)
        assert nxt.mean() / b.mean() == pytest.approx(1.5, rel=1e-14)

    def test_endogenous_autarky_formula(self):
        p = params_ak(tfp=3.0, L=2)
        nxt = olg_step(np.array([1.0, 4.0]), p, OLG_AUTARKY_AK)
        m = 3.0 * 2.0 ** 0.5
        expected = (m / 2.0) * 2.5 ** 0.5 * np.array([1.0, 2.0])
        assert np.allclose(nxt, expected, rtol=1e-14)

    def test_autarky_exog_step_is_the_mean_map(self):
        # one bequest law: income / (2 + theta), with income A b**alpha
        p = params_exog(theta=0.3, L=4, alpha=0.35, tfp=1.7)
        b = np.array([0.02, 0.7, 1.3, 9.0])
        nxt = olg_step(b, p, OLG_AUTARKY_EXOG)
        np.testing.assert_array_equal(nxt, olg_mean_map(b, p))

    @given(
        theta=st.floats(0.0, 3.0),
        holdings=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=6),
        case=st.sampled_from([OLG_MARKET_EXOG, OLG_AUTARKY_EXOG,
                              OLG_MARKET_AK, OLG_AUTARKY_AK]),
    )
    @settings(max_examples=200, deadline=None)
    def test_savings_rate_identity(self, theta, holdings, case):
        # a generation saves 1 / (2 + theta) of its income: it consumes
        # (1 + theta) times what it bequeaths
        if case.is_endogenous:
            tfp = 2.0 + theta + 1.0
        else:
            tfp = 1.0
        p = EconomyParams(tfp=tfp, alpha=0.5, theta=theta, population=len(holdings))
        traj = olg_simulate(WealthDistribution(holdings), p, case,
                            max_generations=1)
        np.testing.assert_array_equal(traj.consumption,
                                      (1.0 + theta) * traj.holdings)  # bitwise

    @given(
        holdings=st.lists(st.floats(0.05, 50.0), min_size=2, max_size=5),
        theta=st.floats(0.0, 1.0),
        alpha=st.floats(0.1, 0.9),
    )
    @settings(max_examples=150, deadline=None)
    def test_mean_closure_market(self, holdings, theta, alpha):
        # the mean of the market step equals the scalar map at the mean
        b = np.array(holdings)
        p = EconomyParams(tfp=1.0, alpha=alpha, theta=theta,
                          population=len(holdings))
        nxt = olg_step(b, p, OLG_MARKET_EXOG)
        assert nxt.mean() == pytest.approx(olg_mean_map(b.mean(), p), rel=1e-12)

        p_ak = EconomyParams(tfp=3.1 + theta, alpha=alpha, theta=theta,
                             population=len(holdings))
        nxt_ak = olg_step(b, p_ak, OLG_MARKET_AK)
        expected = p_ak.ak_scale() * b.mean() / (2.0 + theta)
        assert nxt_ak.mean() == pytest.approx(expected, rel=1e-12)

    @given(
        holdings=st.lists(st.floats(0.05, 50.0), min_size=2, max_size=5),
        theta=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_hoelder_bound_autarky_ak(self, holdings, theta):
        # concavity penalty: autarky growth never beats the spillover bound
        b = np.array(holdings)
        p = EconomyParams(tfp=3.1 + theta, alpha=0.5, theta=theta,
                          population=len(holdings))
        nxt = olg_step(b, p, OLG_AUTARKY_AK)
        average_growth = nxt.mean() / b.mean()
        bound = p.ak_scale() / (2.0 + theta)
        assert average_growth <= bound * (1.0 + 1e-12)
        spread = max(holdings) / min(holdings)
        if spread > 1.0 + 1e-6:
            assert average_growth < bound

    @given(
        base=st.lists(st.floats(0.5, 20.0), min_size=2, max_size=5),
        eps_frac=st.floats(0.05, 0.9),
    )
    @settings(max_examples=100, deadline=None)
    def test_spread_lowers_next_mean_autarky_ak(self, base, eps_frac):
        b = np.array(base)
        order = np.argsort(b)
        donor, recipient = int(order[0]), int(order[-1])
        eps = eps_frac * b[donor]
        if eps <= 0.0 or b[donor] == b[recipient]:
            return
        # move eps from the poorest household to the richest
        spread = b.copy()
        spread[donor] -= eps
        spread[recipient] += eps
        p = EconomyParams(tfp=3.0, alpha=0.5, theta=0.0, population=len(base))
        before = olg_step(b, p, OLG_AUTARKY_AK).mean()
        after = olg_step(spread, p, OLG_AUTARKY_AK).mean()
        assert after < before


class TestSteadyState:
    def test_theta_zero(self):
        ss = olg_steady_state(params_exog(theta=0.0), OLG_MARKET_EXOG)
        assert ss.holding_star == pytest.approx(0.25, abs=1e-15)
        assert ss.interest_star == pytest.approx(1.0)
        assert ss.holding_star == pytest.approx(
            fixed_point_oracle(params_exog(theta=0.0)), abs=1e-9)

    def test_theta_positive(self):
        p = params_exog(theta=0.1)
        ss = olg_steady_state(p, OLG_AUTARKY_EXOG)
        assert ss.holding_star == pytest.approx((1.0 / 2.1) ** 2, rel=1e-12)
        assert ss.holding_star == pytest.approx(fixed_point_oracle(p), abs=1e-9)

    def test_interest_identity(self):
        # f'(b*) = alpha (2 + theta), exactly
        for theta in (0.0, 0.1, 0.7):
            p = params_exog(theta=theta, alpha=0.3)
            ss = olg_steady_state(p, OLG_MARKET_EXOG)
            fp = 0.3 * p.tfp * ss.holding_star ** (0.3 - 1.0)
            assert fp == pytest.approx(0.3 * (2.0 + theta), rel=1e-12)
            assert ss.interest_star == pytest.approx(fp, rel=1e-12)

    def test_endogenous_growth_from_iteration(self):
        p = params_ak(tfp=3.0, theta=0.0, L=1)
        ss = olg_steady_state(p, OLG_MARKET_AK)
        assert ss.growth_star == pytest.approx(0.5, abs=1e-15)
        assert ss.interest_star == pytest.approx(1.5, abs=1e-15)
        assert ss.holding_star is None
        # ratio oracle: iterate the step, growth factor settles at 1.5
        b = np.array([1.0])
        for _ in range(5):
            nxt = olg_step(b, p, OLG_MARKET_AK)
            assert nxt.mean() / b.mean() == pytest.approx(1.5, rel=1e-14)
            b = nxt

    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            olg_steady_state(EconomyParams(1.0, 0.5, 0.05), RAMSEY_AUTARKY_EXOG)


class TestSimulate:
    def test_convergence_market(self):
        p = params_exog(theta=0.0)
        traj = olg_simulate(WealthDistribution([1.0, 1.0]), p, OLG_MARKET_EXOG,
                            stop_tol=1e-9)
        assert traj.converged
        assert np.allclose(traj.holdings[-1], [0.25, 0.25], atol=1e-8)

    def test_autarky_gap_shrinks_monotonically(self):
        p = params_exog(theta=0.0)
        traj = olg_simulate(WealthDistribution([0.01, 1.0]), p, OLG_AUTARKY_EXOG,
                            stop_tol=1e-9)
        assert traj.converged
        assert np.allclose(traj.holdings[-1], [0.25, 0.25], atol=1e-8)
        gaps = np.abs(traj.holdings[:, 1] - traj.holdings[:, 0])
        assert np.all(np.diff(gaps) <= 1e-15)

    @pytest.mark.parametrize("regime", [OLG_MARKET_EXOG, OLG_AUTARKY_EXOG,
                                        OLG_MARKET_AK, OLG_AUTARKY_AK])
    @pytest.mark.parametrize("max_generations, stop_tol, settles", [
        (500, 1e-9, True), (7, 0.0, False)])
    def test_matches_repeated_olg_step(self, regime, max_generations, stop_tol,
                                       settles):
        p = (params_ak(tfp=3.0, theta=0.1, L=3) if regime.is_endogenous
             else params_exog(theta=0.1, L=3, alpha=0.3, tfp=1.3))
        start = WealthDistribution([0.5, 1.0, 2.5])
        traj = olg_simulate(start, p, regime, max_generations=max_generations,
                            stop_tol=stop_tol)
        assert traj.converged is settles
        assert (len(traj) < max_generations + 1) is settles
        b = start.as_array()

        def mean_mpk(b):
            y, mpk = household_production(b[None, :], np.array([[b.mean()]]), p,
                                          regime.technology, regime.is_market)
            return np.broadcast_to(mpk, y.shape).mean()

        # row 0 carries the rate over the step from it
        assert traj.interest[0] == mean_mpk(b)
        assert traj.growth[0] == 0.0
        for t in range(1, len(traj)):
            nxt = olg_step(b, p, regime)
            np.testing.assert_array_equal(traj.holdings[t], nxt)
            assert traj.interest[t] == mean_mpk(b)
            assert traj.growth[t] == nxt.mean() / b.mean() - 1.0
            b = nxt

    @pytest.mark.parametrize("market, autarky, p", [
        (OLG_MARKET_EXOG, OLG_AUTARKY_EXOG,
         params_exog(theta=0.1, L=3, alpha=0.3, tfp=1.3)),
        (OLG_MARKET_AK, OLG_AUTARKY_AK, params_ak(tfp=3.0, theta=0.1, L=3)),
    ])
    def test_market_reports_the_output_of_the_mean(self, market, autarky, p):
        traj = olg_simulate(WealthDistribution([0.5, 1.0, 2.5]), p, market,
                            max_generations=8, stop_tol=0.0)
        bbar = traj.mean_holding
        expected = (p.ak_scale() * bbar if market.is_endogenous
                    else p.tfp * bbar ** p.alpha)
        np.testing.assert_array_equal(traj.mean_output, expected)
        # the bequests are paid from the pooled capital's output, which is at
        # least what the same holdings yield when each household farms its own
        own = household_production(traj.holdings, bbar[:, None], p,
                                   autarky.technology)[0].mean(axis=1)
        assert np.all(traj.mean_output > own)
        next_mean = olg_step(traj.holdings[0], p, market).mean()
        assert next_mean == pytest.approx(traj.mean_output[0] / (2.0 + p.theta),
                                          rel=1e-14)

    def test_endogenous_ratio_decay_rate(self):
        # ratios approach 1 geometrically at exactly rate alpha
        p = params_ak(tfp=3.0, L=3)
        traj = olg_simulate(WealthDistribution([1.0, 2.0, 3.0]), p, OLG_MARKET_AK,
                            max_generations=30, stop_tol=0.0)
        dev = np.abs(traj.holdings / traj.mean_holding[:, None] - 1.0)
        dev0 = dev[0]
        for t in range(1, 25):
            assert np.allclose(dev[t], 0.5 ** t * dev0, rtol=1e-9)

    def test_next_below_the_floor_is_out_of_range(self):
        # 1e-6 * sqrt(1e-12) / 2 = 5e-13, below the floor of 1e-12; the
        # start already lies within the default stop_tol of b* = 2.5e-13
        with pytest.raises(OutOfRange, match="generation 1 ") as err:
            olg_simulate(WealthDistribution([1e-12]),
                         EconomyParams(tfp=1e-6, alpha=0.5, theta=0.0),
                         OLG_AUTARKY_EXOG, stop_tol=0.0)
        assert err.value.field == "params"

    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            olg_simulate(WealthDistribution([1.0]), EconomyParams(1.0, 0.5, 0.05),
                         RAMSEY_AUTARKY_EXOG)

    def test_holdings_must_match_population(self):
        with pytest.raises(OutOfRange) as info:
            olg_simulate(WealthDistribution([1.0, 2.0, 3.0]), params_exog(L=2),
                         OLG_MARKET_EXOG)
        assert info.value.field == "holdings"

    def test_max_generations_must_be_positive(self):
        with pytest.raises(OutOfRange) as info:
            olg_simulate(WealthDistribution([1.0, 2.0]), params_exog(),
                         OLG_MARKET_EXOG, max_generations=0)
        assert info.value.field == "max_generations"

    def test_nonconvergence_is_flagged(self):
        p = params_exog(theta=0.0)
        traj = olg_simulate(WealthDistribution([10.0, 0.2]), p, OLG_MARKET_EXOG,
                            max_generations=2, stop_tol=1e-12)
        assert not traj.converged
        assert "max_generations" in traj.note

    @pytest.mark.parametrize("stop_tol", [math.inf, math.nan, -1.0])
    def test_stop_tol_must_be_finite_and_non_negative(self, stop_tol):
        # inf would stop at generation 0 marked converged, and NaN or a
        # negative value would run every generation
        with pytest.raises(OutOfRange, match="stop_tol") as info:
            olg_simulate(WealthDistribution([0.01, 5.0]), params_exog(theta=0.1),
                         OLG_AUTARKY_EXOG, stop_tol=stop_tol)
        assert info.value.field == "stop_tol"

    def test_gini_non_increasing_all_equalizing_cases(self):
        start = WealthDistribution([0.5, 1.0, 2.5])
        cases = [
            (OLG_MARKET_EXOG, params_exog(theta=0.1, L=3)),
            (OLG_AUTARKY_EXOG, params_exog(theta=0.1, L=3)),
            (OLG_MARKET_AK, params_ak(tfp=3.0, theta=0.1, L=3)),
            (OLG_AUTARKY_AK, params_ak(tfp=3.0, theta=0.1, L=3)),
        ]
        for regime, p in cases:
            traj = olg_simulate(start, p, regime, max_generations=60)
            assert np.all(np.diff(traj.gini) <= 1e-12), regime.case_label()

    def test_autarky_ak_dominated_by_market_ak(self):
        p = params_ak(tfp=3.0, L=3)
        start = WealthDistribution([1.0, 2.0, 3.0])
        market = olg_simulate(start, p, OLG_MARKET_AK, max_generations=15,
                              stop_tol=0.0)
        autarky = olg_simulate(start, p, OLG_AUTARKY_AK, max_generations=15,
                               stop_tol=0.0)
        assert np.all(autarky.mean_holding <= market.mean_holding + 1e-12)
        assert np.all(autarky.mean_holding[1:] < market.mean_holding[1:])

    @pytest.mark.parametrize("regime", [OLG_MARKET_AK, OLG_AUTARKY_AK])
    def test_overflow_is_a_typed_error(self, regime):
        # the mean grows about 4.7-fold a generation, m / (2 + theta), and
        # leaves float64 long before 1000 generations
        p = params_ak(tfp=3.0, theta=0.0, L=10)
        start = WealthDistribution(np.arange(1.0, 11.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match=r"generation \d+") as info:
                olg_simulate(start, p, regime, max_generations=1000, stop_tol=0.0)
        named = int(re.search(r"generation (\d+)", str(info.value)).group(1))
        b = start.as_array()
        with np.errstate(over="ignore", invalid="ignore"):
            for generation in range(1, named):
                b = olg_step(b, p, regime)
                assert np.isfinite(b.mean())
            last = olg_step(b, p, regime)
            assert not np.isfinite(last.mean())

    def test_market_overflow_names_the_generation_not_its_mean(self):
        # income is inf - inf at generation 2, so the mean is NaN, not inf
        with pytest.raises(OutOfRange) as info:
            olg_simulate(WealthDistribution([1.0, 2.0, 3.0]),
                         params_ak(tfp=1e300, theta=0.1, L=3), OLG_MARKET_AK,
                         max_generations=40)
        assert info.value.field == "params"
        assert str(info.value).startswith("generation 2 leaves float64; ")
        assert "nan" not in str(info.value)

    @pytest.mark.parametrize("regime", [OLG_MARKET_AK, OLG_AUTARKY_AK])
    def test_dispersion_of_huge_finite_holdings_is_finite(self, regime):
        # by generation 300 the holdings pass 1e154, where squared
        # deviations overflow float64 though every holding is finite
        p = params_ak(tfp=3.0, theta=0.0, L=10)
        start = WealthDistribution(np.arange(1.0, 11.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = olg_simulate(start, p, regime, max_generations=300, stop_tol=0.0)
        assert traj.mean_holding[-1] > 1e154
        assert np.all(np.isfinite(traj.cv))


class TestRatioStep:
    def test_market_arithmetic(self):
        assert ratio_step(1.5, OLG_MARKET_AK, 0.5) == pytest.approx(1.25)

    def test_autarky_arithmetic(self):
        assert ratio_step(4.0, OLG_AUTARKY_AK, 0.5) == pytest.approx(2.0)

    def test_fixed_point(self):
        assert ratio_step(1.0, OLG_MARKET_AK, 0.3) == 1.0
        assert ratio_step(1.0, OLG_AUTARKY_AK, 0.3) == 1.0

    @given(
        ratio=st.floats(0.01, 100.0),
        alpha=st.floats(0.05, 0.95),
        market=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_contraction(self, ratio, alpha, market):
        regime = OLG_MARKET_AK if market else OLG_AUTARKY_AK
        nxt = ratio_step(ratio, regime, alpha)
        if abs(ratio - 1.0) > 1e-12:
            assert abs(nxt - 1.0) < abs(ratio - 1.0)

    def test_market_recursion_matches_simulation(self):
        # the distribution-level step reproduces the scalar ratio recursion
        p = params_ak(tfp=3.0, L=2)
        b = np.array([1.0, 3.0])
        nxt = olg_step(b, p, OLG_MARKET_AK)
        for i in range(2):
            expected = ratio_step(b[i] / b.mean(), OLG_MARKET_AK, p.alpha)
            assert nxt[i] / nxt.mean() == pytest.approx(expected, rel=1e-12)

    def test_autarky_recursion_matches_simulation(self):
        # the power map gives next ratios after renormalizing by its own mean
        # (the raw map divides by the map-of-the-mean, not the mean-of-the-map)
        p = params_ak(tfp=3.0, L=2)
        b = np.array([1.0, 4.0])
        nxt = olg_step(b, p, OLG_AUTARKY_AK)
        raw = np.array([
            ratio_step(b[i] / b.mean(), OLG_AUTARKY_AK, p.alpha) for i in range(2)
        ])
        expected = raw / raw.mean()
        for i in range(2):
            assert nxt[i] / nxt.mean() == pytest.approx(expected[i], rel=1e-12)


class TestCobweb:
    def test_map_values(self):
        p = params_exog(theta=0.0, L=1)
        assert olg_mean_map(0.25, p) == pytest.approx(0.25, abs=1e-15)
        assert olg_mean_map(1.0, p) == pytest.approx(0.5, abs=1e-15)
        assert olg_mean_map(0.01, p) == pytest.approx(0.05, abs=1e-15)
        assert olg_mean_map(0.01, p) > 0.01  # below b*, map above diagonal

    def test_crossing_at_steady_state(self):
        p = params_exog(theta=0.0, L=1)
        data = cobweb_data(p, 0.01, 1.0, n_points=991)
        gap = data.mapped - data.levels
        step = data.levels[1] - data.levels[0]
        # map starts above the diagonal and stays below after one crossing
        first_nonpositive = int(np.argmax(gap <= 0.0))
        assert gap[0] > 0.0
        assert np.all(gap[first_nonpositive:] <= 0.0)
        assert abs(data.levels[first_nonpositive] - data.b_star) <= step

    def test_bad_range(self):
        for b_min, b_max, field in ((1.0, 0.5, "b_min"), (0.1, math.inf, "b_max"),
                                    (math.nan, 1.0, "b_min")):
            with pytest.raises(OutOfRange) as info:
                cobweb_data(params_exog(L=1), b_min, b_max)
            assert info.value.field == field

    def test_too_few_points(self):
        with pytest.raises(OutOfRange) as info:
            cobweb_data(params_exog(L=1), 0.5, 1.0, n_points=1)
        assert info.value.field == "n_points"
