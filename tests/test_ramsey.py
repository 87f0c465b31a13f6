"""Dynasty models: vector field, RK4, steady states, saddle-path shooting."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab import (
    OLG_MARKET_AK,
    OLG_MARKET_EXOG,
    RAMSEY_AUTARKY_AK,
    RAMSEY_AUTARKY_EXOG,
    RAMSEY_MARKET_AK,
    RAMSEY_MARKET_EXOG,
    EconomyParams,
    ShootingConfig,
    Trajectory,
    WealthDistribution,
    market_decompose,
    olg_simulate,
    ramsey_rhs,
    ramsey_steady_state,
    rk4_step,
    shoot_saddle_path,
)
from ineqlab.errors import (
    DecompositionInconsistent,
    NonPositiveInput,
    OutOfRange,
    ShootingFailed,
    ThetaZeroNoSteadyState,
    WrongRegime,
)
from ineqlab.ramsey import _ride, _saddle_policy

CLASSIC = EconomyParams(tfp=1.0, alpha=0.5, theta=0.05, gamma=1.0, population=1)


def rhs(k, c, params, regime):
    """``ramsey_rhs`` on scalars or lists, one entry per household."""
    return ramsey_rhs(np.atleast_1d(np.asarray(k, float)),
                      np.atleast_1d(np.asarray(c, float)), params, regime)


def euler_growth(k, c, params, regime):
    """Per-household consumption growth rates dc / c."""
    return rhs(k, c, params, regime)[1] / np.atleast_1d(c)


def rk4_advance(k, c, h, n, params, regime):
    """n RK4 steps of size h of the (holdings, consumption) field."""
    L = len(k)

    def field(_, y):
        return np.concatenate(ramsey_rhs(y[:L], y[L:], params, regime))

    y = np.concatenate([k, c])
    for i in range(n):
        y = rk4_step(field, i * h, y, h)
    return y[:L], y[L:]


class TestEulerGrowth:
    def test_steady_point_rate_zero(self):
        rates = euler_growth(100.0, 10.0, CLASSIC, RAMSEY_AUTARKY_EXOG)
        assert rates[0] == pytest.approx(0.0, abs=1e-15)

    def test_ak_common_rate(self):
        p = EconomyParams(tfp=3.0, alpha=0.5, theta=0.1, gamma=2.0, population=1)
        rates = euler_growth(2.0, 1.0, p, RAMSEY_MARKET_AK)
        assert rates[0] == pytest.approx(0.7, rel=1e-14)

    def test_below_target_rate_positive(self):
        rates = euler_growth(25.0, 3.0, CLASSIC, RAMSEY_AUTARKY_EXOG)
        assert rates[0] > 0.0

    def test_market_rates_identical_autarky_specific(self):
        p = EconomyParams(tfp=1.0, alpha=0.5, theta=0.05, gamma=1.0, population=2)
        k, c = [4.0, 16.0], [1.0, 1.0]
        market = euler_growth(k, c, p, RAMSEY_MARKET_EXOG)
        assert market[0] == market[1]  # common rate through the mean
        autarky = euler_growth(k, c, p, RAMSEY_AUTARKY_EXOG)
        assert autarky[0] > autarky[1]  # poorer household grows faster


class TestRhs:
    def test_autarky_balance(self):
        dk, dc = rhs(1.0, 1.0, CLASSIC, RAMSEY_AUTARKY_EXOG)
        assert dk[0] == pytest.approx(0.0, abs=1e-15)

    def test_market_asset_drift(self):
        p = EconomyParams(tfp=1.0, alpha=0.5, theta=0.0, gamma=1.0, population=1)
        dk, dc = rhs(1.0, 0.5, p, RAMSEY_MARKET_EXOG)
        # wage 0.5 plus interest 0.5 on one unit, minus consumption 0.5
        assert dk[0] == pytest.approx(0.5, rel=1e-14)

    def test_ak_autarky_drift(self):
        p = EconomyParams(tfp=1.0, alpha=0.5, theta=0.1, gamma=1.0, population=2)
        dk, dc = rhs([1.0, 1.0], [1.0, 1.0], p, RAMSEY_AUTARKY_AK)
        assert dk[0] == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)

    @given(
        holdings=st.lists(st.floats(0.1, 50.0), min_size=2, max_size=5),
        regime=st.sampled_from([RAMSEY_AUTARKY_EXOG, RAMSEY_MARKET_EXOG,
                                RAMSEY_AUTARKY_AK, RAMSEY_MARKET_AK]),
    )
    @settings(max_examples=120, deadline=None)
    def test_consume_income_freezes_holdings(self, holdings, regime):
        # with consumption equal to income, holdings are stationary
        p = EconomyParams(tfp=1.0, alpha=0.5, theta=0.1, gamma=1.0,
                          population=len(holdings))
        k = np.asarray(holdings)
        kbar = k.mean()
        if regime.is_market:
            if regime.is_endogenous:
                m = p.ak_scale()
                income = (1.0 - 0.5) * m * kbar + 0.5 * m * k
            else:
                r = 0.5 * kbar ** -0.5
                income = (1.0 - 0.5) * kbar ** 0.5 + r * k
        else:
            if regime.is_endogenous:
                income = p.ak_scale() * kbar ** 0.5 * k ** 0.5
            else:
                income = k ** 0.5
        dk, _ = ramsey_rhs(k, income, p, regime)
        assert np.max(np.abs(dk)) < 1e-12 * max(1.0, float(np.max(income)))

    def test_hoelder_national_income_bound(self):
        # autarky spillover output never exceeds the equal-split level
        p = EconomyParams(tfp=1.0, alpha=0.5, theta=0.1, gamma=1.0, population=3)
        m = p.ak_scale()
        for k in ([1.0, 2.0, 3.0], [0.5, 0.5, 5.0], [2.0, 2.0, 2.0]):
            k = np.asarray(k)
            c = np.full(3, 0.1)
            dk, _ = ramsey_rhs(k, c, p, RAMSEY_AUTARKY_AK)
            national_income = float(np.sum(c + dk))
            bound = p.tfp * k.sum() * 3.0 ** (1.0 - 0.5)
            assert national_income <= bound * (1.0 + 1e-12)
            if np.ptp(k) > 1e-9:
                assert national_income < bound
            else:
                assert national_income == pytest.approx(bound, rel=1e-12)


class TestRk4Step:
    def test_fixed_point(self):
        k, c = rk4_advance([100.0], [10.0], 0.01, 1, CLASSIC, RAMSEY_AUTARKY_EXOG)
        assert k[0] == pytest.approx(100.0, abs=1e-14)
        assert c[0] == pytest.approx(10.0, abs=1e-14)

    def test_richardson_one_step(self):
        # two half steps beat one full step by ~2^4 on the same interval
        p = EconomyParams(tfp=1.0, alpha=0.5, theta=0.05, gamma=1.0)
        dt = 0.5

        def advance(h, n):
            return np.concatenate(rk4_advance([1.0], [0.4], h, n, p,
                                              RAMSEY_AUTARKY_EXOG))

        ref = advance(dt / 100.0, 100)
        err_full = np.max(np.abs(advance(dt, 1) - ref))
        err_half = np.max(np.abs(advance(dt / 2.0, 2) - ref))
        assert err_full / err_half == pytest.approx(16.0, rel=0.35)

    def test_ak_market_consumption_exponential(self):
        # one step tracks e^(g dt) with a fifth-order defect
        p = EconomyParams(tfp=3.0, alpha=0.5, theta=0.1, gamma=2.0, population=1)
        g = 0.7

        def one_step_error(dt):
            _, c = rk4_advance([2.0], [1.0], dt, 1, p, RAMSEY_MARKET_AK)
            return abs(c[0] - math.exp(g * dt))

        err = one_step_error(0.1)
        assert err == pytest.approx((g * 0.1) ** 5 / 120.0, rel=0.1)
        assert err / one_step_error(0.05) == pytest.approx(32.0, rel=0.15)

    def test_autarky_households_step_alone(self):
        # with neither a market nor a spillover no household's field reads
        # another's state, so a step of all of them as one vector is each
        # one's own step, bit for bit
        p = EconomyParams(tfp=3.0, alpha=0.5, theta=0.1, gamma=2.0, population=3)
        k, c = [0.5, 2.0, 9.0], [0.3, 1.1, 2.5]
        together = np.concatenate(
            rk4_advance(k, c, 0.05, 3, p, RAMSEY_AUTARKY_EXOG))
        for i in range(3):
            alone = rk4_advance([k[i]], [c[i]], 0.05, 3, p, RAMSEY_AUTARKY_EXOG)
            assert (together[i], together[3 + i]) == (alone[0][0], alone[1][0])


def bisect_mpk_equals_theta(params):
    """Independent oracle: solve f'(k) = theta by plain bisection."""
    lo, hi = 1e-8, 1e8

    def gap(k):
        return params.alpha * params.tfp * k ** (params.alpha - 1.0) - params.theta

    assert gap(lo) > 0.0 > gap(hi)
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


class TestSteadyState:
    def test_classic_values(self):
        ss = ramsey_steady_state(CLASSIC, RAMSEY_AUTARKY_EXOG)
        assert ss.holding_star == pytest.approx(100.0, rel=1e-12)
        assert ss.consumption_star == pytest.approx(10.0, rel=1e-12)
        assert ss.interest_star == pytest.approx(0.05)
        assert ss.holding_star == pytest.approx(
            bisect_mpk_equals_theta(CLASSIC), rel=1e-9)

    def test_bisection_oracle_other_params(self):
        p = EconomyParams(tfp=2.0, alpha=0.3, theta=0.08, gamma=2.0)
        ss = ramsey_steady_state(p, RAMSEY_MARKET_EXOG)
        assert ss.holding_star == pytest.approx(bisect_mpk_equals_theta(p),
                                                rel=1e-9)

    def test_golden_rule_identity(self):
        p = EconomyParams(tfp=3.0, alpha=0.5, theta=0.1, gamma=2.0, population=1)
        ss = ramsey_steady_state(p, RAMSEY_MARKET_AK)
        assert ss.growth_star == pytest.approx(0.7, rel=1e-14)
        assert ss.interest_star == pytest.approx(1.5, rel=1e-14)
        assert ss.interest_star == pytest.approx(
            p.theta + p.gamma * ss.growth_star, abs=1e-12)

    def test_theta_zero_diverges(self):
        with pytest.raises(ThetaZeroNoSteadyState):
            ramsey_steady_state(EconomyParams(1.0, 0.5, 0.0),
                                RAMSEY_AUTARKY_EXOG)

    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            ramsey_steady_state(CLASSIC, OLG_MARKET_EXOG)


FAST_EXOG = EconomyParams(tfp=1.0, alpha=0.5, theta=0.1, gamma=1.0, population=1)
# k* = 25, c* = 5 for the fast fixed-technology test economy


class TestShootAutarkyExog:
    def test_single_household_from_below(self):
        # spec's default horizon formula is too short from this far out
        config = ShootingConfig(horizon=170.0, dt=0.05, terminal_band=1e-4)
        traj = shoot_saddle_path(WealthDistribution([5.0]), FAST_EXOG,
                                 RAMSEY_AUTARKY_EXOG, config)
        assert traj.converged
        assert traj.holdings[-1, 0] == pytest.approx(25.0, rel=2e-4)
        assert traj.consumption[-1, 0] == pytest.approx(5.0, rel=2e-4)
        # consumption rises monotonically toward the target from below
        assert np.all(np.diff(traj.consumption[:, 0]) > -1e-12)

    def test_single_household_from_above(self):
        config = ShootingConfig(dt=0.05, terminal_band=1e-4)
        traj = shoot_saddle_path(WealthDistribution([80.0]), FAST_EXOG,
                                 RAMSEY_AUTARKY_EXOG, config)
        assert traj.holdings[-1, 0] == pytest.approx(25.0, rel=2e-4)
        assert np.all(np.diff(traj.consumption[:, 0]) < 1e-12)

    def test_two_households_equalize(self):
        p = EconomyParams(tfp=1.0, alpha=0.5, theta=0.1, gamma=1.0, population=2)
        config = ShootingConfig(horizon=175.0, dt=0.05, terminal_band=1e-4)
        traj = shoot_saddle_path(WealthDistribution([5.0, 60.0]), p,
                                 RAMSEY_AUTARKY_EXOG, config)
        terminal = traj.holdings[-1]
        assert np.max(np.abs(terminal - 25.0)) <= 25.0 * 2e-4
        assert abs(terminal[0] - terminal[1]) / 25.0 < 1e-3
        # relative dispersion shrinks toward zero
        dev = np.max(np.abs(traj.holdings / traj.mean_holding[:, None] - 1.0),
                     axis=1)
        assert dev[-1] < 1e-3
        assert np.all(np.diff(dev) <= 1e-10)

    def test_too_short_horizon_fails(self):
        config = ShootingConfig(horizon=3.0, dt=0.05, terminal_band=1e-6)
        with pytest.raises(ShootingFailed):
            shoot_saddle_path(WealthDistribution([5.0]), FAST_EXOG,
                              RAMSEY_AUTARKY_EXOG, config)


FIXED_REGIMES = pytest.mark.parametrize(
    "regime", [RAMSEY_AUTARKY_EXOG, RAMSEY_MARKET_EXOG], ids=["autarky", "market"])


def in_band(traj, band):
    """The last row of the mean path lies in the band around (25, 5)."""
    k = traj.mean_holding[-1]
    c = traj.consumption[-1].mean()
    return abs(k / 25.0 - 1.0) <= band * (1 + 1e-12) and \
        abs(c / 5.0 - 1.0) <= band * (1 + 1e-12)


class TestSaddlePolicy:
    """Fixed-technology solves ride the saddle policy c = phi(k)."""

    @FIXED_REGIMES
    def test_starts_that_bisection_missed_arrive(self, regime):
        # a bisected c(0) left these starts 1e-5 to 1e-4 off (k*, c*)
        config = ShootingConfig(horizon=175.0, dt=0.05, terminal_band=1e-4)
        for k0 in (5.15, 5.3, 5.45, 5.6, 5.65, 6.2, 6.6, 6.9, 7.1, 7.35,
                   8.5, 51.6):
            traj = shoot_saddle_path(WealthDistribution([k0]), FAST_EXOG,
                                     regime, config)
            assert in_band(traj, 1e-4), k0

    @FIXED_REGIMES
    def test_tight_band_arrives(self, regime):
        config = ShootingConfig(horizon=500.0, dt=0.05, terminal_band=1e-6)
        for k0 in (5.0, 60.0):
            traj = shoot_saddle_path(WealthDistribution([k0]), FAST_EXOG,
                                     regime, config)
            assert in_band(traj, 1e-6), k0
            assert 4000 < len(traj) < 5000

    @FIXED_REGIMES
    def test_default_horizon_arrives_from_far_below(self, regime):
        config = ShootingConfig(dt=0.05, terminal_band=1e-4)
        for k0 in (5.0, 8.0):
            traj = shoot_saddle_path(WealthDistribution([k0]), FAST_EXOG,
                                     regime, config)
            assert in_band(traj, 1e-4), k0

    def test_thousand_households_arrive(self):
        p = EconomyParams(tfp=1.0, alpha=0.5, theta=0.1, gamma=1.0,
                          population=1000)
        k0 = np.random.default_rng(5).uniform(5.0, 60.0, 1000)
        config = ShootingConfig(horizon=175.0, dt=0.05, terminal_band=1e-3)
        traj = shoot_saddle_path(WealthDistribution(k0), p,
                                 RAMSEY_AUTARKY_EXOG, config)
        assert np.array_equal(traj.holdings[0], k0)
        assert np.max(np.abs(traj.holdings[-1] / 25.0 - 1.0)) <= 1e-3
        assert np.max(np.abs(traj.consumption[-1] / 5.0 - 1.0)) <= 1e-3 * (1 + 1e-12)

    @FIXED_REGIMES
    def test_initial_consumption_matches_bisection(self, regime):
        # c(0) as bisected to float64 by shooting the 2-D system
        config = ShootingConfig(horizon=175.0, dt=0.05, terminal_band=1e-3)
        for k0, c0 in ((5.0, 1.4191770222877231), (12.0, 2.786025822380111),
                       (60.0, 10.283376045146252), (80.0, 13.105721686334316)):
            traj = shoot_saddle_path(WealthDistribution([k0]), FAST_EXOG,
                                     regime, config)
            assert traj.consumption[0, 0] == pytest.approx(c0, rel=1e-8)

    @pytest.mark.parametrize("n_steps, arrive_at", [
        (200, 1), (200, 63), (200, 64), (200, 65), (150, 150), (150, 0),
        (128, 0), (0, 0),
    ])
    def test_blocked_ride_matches_per_step_loop(self, n_steps, arrive_at):
        # arrive_at 0: an interval no row reaches, so every step is taken
        k0 = np.array([5.0, 60.0, 30.0])
        policy = _saddle_policy(FAST_EXOG, k0, 0.05)

        def per_step(arrival):
            lo, hi = arrival
            k, rows = k0, [k0]
            for _ in range(n_steps):
                k = np.interp(k, policy.grid, policy.step)
                rows.append(k)
                if lo <= k.min() and k.max() <= hi:
                    break
            return np.stack(rows)

        free = per_step((math.inf, -math.inf))
        assert np.array_equal(_ride(policy, k0, n_steps), free)
        # every household moves monotonically towards k* = 25, so row s is
        # the first inside the span of row s
        arrival = ((free[arrive_at].min(), free[arrive_at].max()) if arrive_at
                   else (26.0, 24.0))
        expected = per_step(arrival)
        assert len(expected) == (arrive_at or n_steps) + 1
        assert np.array_equal(_ride(policy, k0, n_steps, arrival), expected)

    def test_holdings_must_match_population(self):
        p = EconomyParams(tfp=3.0, alpha=0.5, theta=0.1, gamma=2.0, population=2)
        three = WealthDistribution([1.0, 2.0, 3.0])
        with pytest.raises(OutOfRange) as err:
            shoot_saddle_path(three, p, RAMSEY_MARKET_AK)
        assert err.value.field == "holdings"
        with pytest.raises(OutOfRange) as err:
            olg_simulate(three, p, OLG_MARKET_AK)
        assert err.value.field == "holdings"


class TestShootMarketExog:
    def test_decompose_steady_state_budget(self):
        # hand-built stationary aggregate: households keep their assets and
        # consume wage plus interest, so the consumption gap equals the
        # asset gap scaled by the interest rate
        n = 201
        times = 0.05 * np.arange(n)
        K = np.full((n, 1), 100.0)
        C = np.full((n, 1), 10.0)
        agg = Trajectory(
            times=times, holdings=K, consumption=C,
            mean_holding=K[:, 0], mean_output=np.full(n, 10.0),
            interest=np.full(n, 0.05), growth=np.zeros(n),
            gini=np.zeros(n), cv=np.zeros(n), ratio_max_min=np.ones(n),
            regime=RAMSEY_MARKET_EXOG, converged=True,
        )
        p = EconomyParams(tfp=1.0, alpha=0.5, theta=0.05, gamma=1.0,
                          population=2)
        households = market_decompose(agg, WealthDistribution([50.0, 150.0]),
                                      p, RAMSEY_MARKET_EXOG)
        # c_i = (1-alpha) A kbar^alpha + alpha A kbar^(alpha-1) a_i
        assert households.consumption[0, 0] == pytest.approx(7.5, rel=1e-6)
        assert households.consumption[0, 1] == pytest.approx(12.5, rel=1e-6)
        assert np.allclose(households.holdings[-1], [50.0, 150.0], rtol=1e-6)
        assert np.max(np.abs(np.diff(households.holdings, axis=0))) < 1e-6

    def test_equal_households_reproduce_aggregate(self):
        p = EconomyParams(tfp=1.0, alpha=0.5, theta=0.1, gamma=1.0, population=2)
        config = ShootingConfig(dt=0.05, terminal_band=1e-4)
        traj = shoot_saddle_path(WealthDistribution([12.0, 12.0]), p,
                                 RAMSEY_MARKET_EXOG, config)
        assert np.allclose(traj.holdings[:, 0], traj.holdings[:, 1], rtol=1e-10)
        assert np.allclose(traj.holdings[:, 0], traj.mean_holding, rtol=1e-10)

    def test_transition_preserves_consumption_ratios(self):
        p = EconomyParams(tfp=1.0, alpha=0.5, theta=0.1, gamma=1.0, population=2)
        config = ShootingConfig(dt=0.05, terminal_band=1e-4)
        traj = shoot_saddle_path(WealthDistribution([8.0, 17.0]), p,
                                 RAMSEY_MARKET_EXOG, config)
        ratios = traj.consumption[:, 1] / traj.consumption[:, 0]
        assert np.max(np.abs(ratios - ratios[0])) < 1e-6 * ratios[0]
        # terminal budget identity: c_i = wage + r a_i at the steady state
        w_star = 0.5 * 25.0 ** 0.5
        for i in range(2):
            assert traj.consumption[-1, i] == pytest.approx(
                w_star + 0.1 * traj.holdings[-1, i], rel=1e-4)
        # household assets aggregate exactly to the per-capita path
        assert np.max(np.abs(traj.holdings.mean(axis=1) - traj.mean_holding)) \
            <= 1e-8 * np.max(traj.mean_holding)

    def test_aggregate_mean_mismatch_rejected(self):
        from ineqlab.errors import DecompositionInconsistent
        n = 11
        times = 0.05 * np.arange(n)
        agg = Trajectory(
            times=times, holdings=np.full((n, 1), 100.0),
            consumption=np.full((n, 1), 10.0),
            mean_holding=np.full(n, 100.0), mean_output=np.full(n, 10.0),
            interest=np.full(n, 0.05), growth=np.zeros(n),
            gini=np.zeros(n), cv=np.zeros(n), ratio_max_min=np.ones(n),
            regime=RAMSEY_MARKET_EXOG, converged=True,
        )
        p = EconomyParams(tfp=1.0, alpha=0.5, theta=0.05, gamma=1.0,
                          population=2)
        with pytest.raises(DecompositionInconsistent):
            market_decompose(agg, WealthDistribution([50.0, 100.0]), p,
                             RAMSEY_MARKET_EXOG)

    def test_aggregate_off_the_saddle_path_rejected(self):
        # the steady capital with too much consumption is not a saddle path
        n = 11
        agg = Trajectory(
            times=0.05 * np.arange(n), holdings=np.full((n, 1), 100.0),
            consumption=np.full((n, 1), 11.0),
            mean_holding=np.full(n, 100.0), mean_output=np.full(n, 10.0),
            interest=np.full(n, 0.05), growth=np.zeros(n),
            gini=np.zeros(n), cv=np.zeros(n), ratio_max_min=np.ones(n),
            regime=RAMSEY_MARKET_EXOG, converged=True,
        )
        p = EconomyParams(tfp=1.0, alpha=0.5, theta=0.05, gamma=1.0,
                          population=2)
        with pytest.raises(DecompositionInconsistent):
            market_decompose(agg, WealthDistribution([50.0, 150.0]), p,
                             RAMSEY_MARKET_EXOG)


AK_MARKET = EconomyParams(tfp=3.0, alpha=0.5, theta=0.1, gamma=2.0, population=2)


class TestShootMarketAk:
    def test_golden_rule_along_path(self):
        config = ShootingConfig(dt=0.01)
        traj = shoot_saddle_path(WealthDistribution([1.0, 2.0]), AK_MARKET,
                                 RAMSEY_MARKET_AK, config)
        m = AK_MARKET.ak_scale()
        g_star = (0.5 * m - 0.1) / 2.0
        assert np.max(np.abs(traj.interest - (0.1 + 2.0 * traj.growth))) < 1e-10
        # growth measured from realized consumption matches the rule
        dt = traj.times[1] - traj.times[0]
        realized = np.log(traj.consumption[1:, 0] / traj.consumption[:-1, 0]) / dt
        assert np.max(np.abs(realized - g_star)) < 1e-8

    def test_gap_preservation(self):
        config = ShootingConfig(dt=0.01)
        traj = shoot_saddle_path(WealthDistribution([1.0, 2.0]), AK_MARKET,
                                 RAMSEY_MARKET_AK, config)
        a_ratio = traj.holdings[:, 1] / traj.holdings[:, 0]
        c_ratio = traj.consumption[:, 1] / traj.consumption[:, 0]
        assert np.max(np.abs(a_ratio - a_ratio[0])) < 1e-6 * a_ratio[0]
        assert np.max(np.abs(c_ratio - c_ratio[0])) < 1e-6 * c_ratio[0]
        # inequality metrics frozen along the balanced path
        assert np.max(np.abs(traj.gini - traj.gini[0])) < 1e-6
        assert traj.gini[0] > 0.0

    def test_ray_ratio(self):
        config = ShootingConfig(dt=0.01)
        traj = shoot_saddle_path(WealthDistribution([1.0, 2.0]), AK_MARKET,
                                 RAMSEY_MARKET_AK, config)
        m = AK_MARKET.ak_scale()
        mu = m - (0.5 * m - 0.1) / 2.0
        x = traj.consumption.mean(axis=1) / traj.mean_holding
        assert abs(x[-1] - mu) <= 1e-4 * mu

    def test_closed_form_balanced_path(self):
        p = EconomyParams(tfp=3.0, alpha=0.5, theta=0.1, gamma=2.0, population=3)
        a0 = np.array([1.0, 2.0, 5.0])
        traj = shoot_saddle_path(WealthDistribution(a0), p, RAMSEY_MARKET_AK,
                                 ShootingConfig(dt=0.01))
        m = p.ak_scale()
        r = 0.5 * m
        g = (r - 0.1) / 2.0
        exact = a0 * np.exp(g * traj.times)[:, None]
        assert np.max(np.abs(traj.holdings / exact - 1.0)) <= 1e-12
        c0 = 0.5 * m * a0.mean() + (r - g) * a0
        assert np.max(np.abs(traj.consumption[0] / c0 - 1.0)) <= 1e-14
        assert np.max(np.abs(traj.gini - traj.gini[0])) <= 1e-15
        # the budget da = wage + r a - c then grows every holding at g
        for i in (0, len(traj) - 1):
            dk, _ = ramsey_rhs(traj.holdings[i], traj.consumption[i], p,
                               RAMSEY_MARKET_AK)
            assert np.allclose(dk, g * traj.holdings[i], rtol=1e-12, atol=0.0)

    def test_decompose_rejects_ak_market(self):
        traj = shoot_saddle_path(WealthDistribution([1.0, 2.0]), AK_MARKET,
                                 RAMSEY_MARKET_AK, ShootingConfig(dt=0.01))
        with pytest.raises(WrongRegime):
            market_decompose(traj, WealthDistribution([1.0, 2.0]), AK_MARKET,
                             RAMSEY_MARKET_AK)


AK_AUTARKY = EconomyParams(tfp=0.5, alpha=0.5, theta=0.05, gamma=2.0,
                           population=2)


def ray_gaps(traj, params):
    """max|k_i / kbar - 1| per row, and the last row's |cbar / kbar - mu| / mu."""
    dev = np.max(np.abs(traj.holdings / traj.mean_holding[:, None] - 1.0),
                 axis=1)
    m = params.ak_scale()
    mu = m - (params.alpha * m - params.theta) / params.gamma
    ratio = traj.consumption[-1].mean() / traj.mean_holding[-1]
    return dev, abs(ratio - mu) / mu


class TestShootAutarkyAk:
    def test_equalization_and_ray(self):
        config = ShootingConfig(dt=0.025, terminal_band=5e-3)
        traj = shoot_saddle_path(WealthDistribution([1.0, 2.0]), AK_AUTARKY,
                                 RAMSEY_AUTARKY_AK, config)
        dev = np.max(np.abs(traj.holdings / traj.mean_holding[:, None] - 1.0),
                     axis=1)
        assert dev[-1] <= 5e-3
        assert np.all(np.diff(dev) <= 1e-9)
        m = AK_AUTARKY.ak_scale()
        g_star = (0.5 * m - 0.05) / 2.0
        mu = m - g_star
        x = traj.consumption.mean(axis=1) / traj.mean_holding
        assert abs(x[-1] - mu) <= 5e-3 * mu
        # capital grows: the ray is a growth path, not a point
        assert traj.mean_holding[-1] > traj.mean_holding[0]

    @pytest.mark.parametrize("holdings, dt", [
        ([1.0, 4.0], 0.05), ([1.0, 4.0], 0.1),
        ([1.0, 3.0, 4.0], 0.05), ([1.0, 3.0, 4.0], 0.1),
        ([1.0, 2.0, 3.0, 4.0, 5.0], 0.1),
    ])
    def test_unequal_starts_arrive(self, holdings, dt):
        # starts far from the ray, where the linearised first guess is poor
        params = replace(AK_AUTARKY, population=len(holdings))
        traj = shoot_saddle_path(WealthDistribution(holdings), params,
                                 RAMSEY_AUTARKY_AK,
                                 ShootingConfig(dt=dt, terminal_band=5e-3))
        dev, ray_gap = ray_gaps(traj, params)
        assert dev[-1] <= 5e-3
        assert np.all(np.diff(dev) <= 0.0)
        assert ray_gap <= 5e-3

    def test_initial_consumption_does_not_depend_on_the_band(self):
        dist = WealthDistribution([1.0, 2.0])
        loose, tight = (shoot_saddle_path(
            dist, AK_AUTARKY, RAMSEY_AUTARKY_AK,
            ShootingConfig(dt=0.1, terminal_band=band)) for band in (5e-3, 1e-5))
        assert len(tight) > len(loose)
        np.testing.assert_allclose(loose.consumption[0], tight.consumption[0],
                                   rtol=1e-7, atol=0.0)

    def test_horizon_caps_the_path(self):
        dist = WealthDistribution([1.0, 2.0])
        with pytest.raises(ShootingFailed, match="horizon cap 5"):
            shoot_saddle_path(dist, AK_AUTARKY, RAMSEY_AUTARKY_AK,
                              ShootingConfig(horizon=5.0, dt=0.1,
                                             terminal_band=5e-3))
        default, capped = (shoot_saddle_path(
            dist, AK_AUTARKY, RAMSEY_AUTARKY_AK,
            ShootingConfig(horizon=horizon, dt=0.1, terminal_band=5e-3))
            for horizon in (None, 60.0))
        np.testing.assert_allclose(capped.consumption[0],
                                   default.consumption[0], rtol=1e-8, atol=0.0)

    def test_max_iterations_caps_newton(self):
        with pytest.raises(ShootingFailed, match="did not converge in 1 "):
            shoot_saddle_path(WealthDistribution([1.0, 2.0]), AK_AUTARKY,
                              RAMSEY_AUTARKY_AK,
                              ShootingConfig(dt=0.1, terminal_band=5e-3,
                                             max_iterations=1))

    def test_equal_holdings_ride_the_ray_in_closed_form(self):
        params = replace(AK_AUTARKY, population=3)
        traj = shoot_saddle_path(WealthDistribution([2.0, 2.0, 2.0]), params,
                                 RAMSEY_AUTARKY_AK,
                                 ShootingConfig(dt=0.1, terminal_band=5e-3))
        m = params.ak_scale()
        g_star = (0.5 * m - 0.05) / 2.0
        path = 2.0 * np.exp(g_star * traj.times)[:, None]
        assert len(traj) > 2
        np.testing.assert_allclose(traj.holdings, np.repeat(path, 3, axis=1),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(traj.consumption, (m - g_star) * traj.holdings,
                                   rtol=1e-12, atol=0.0)

    def test_single_household_rides_ray(self):
        config = ShootingConfig(dt=0.025, terminal_band=1e-4)
        params = replace(AK_AUTARKY, population=1)
        traj = shoot_saddle_path(WealthDistribution([2.0]), params,
                                 RAMSEY_AUTARKY_AK, config)
        m = params.ak_scale()
        g_star = (0.5 * m - 0.05) / 2.0
        dt = traj.times[1] - traj.times[0]
        realized = np.log(traj.mean_holding[-1] / traj.mean_holding[0]) / (
            traj.times[-1] - traj.times[0])
        assert realized == pytest.approx(g_star, rel=1e-3)


class TestRecordStride:
    @pytest.mark.parametrize("regime, params, holdings, controls", [
        (RAMSEY_AUTARKY_EXOG, FAST_EXOG, [20.0],
         {"dt": 0.1, "terminal_band": 1e-3}),
        (RAMSEY_MARKET_EXOG,
         EconomyParams(tfp=1.0, alpha=0.5, theta=0.1, gamma=1.0, population=2),
         [12.0, 20.0], {"dt": 0.1, "terminal_band": 1e-3}),
        (RAMSEY_MARKET_AK, AK_MARKET, [1.0, 2.0], {"dt": 0.01}),
        (RAMSEY_AUTARKY_AK, AK_AUTARKY, [1.0, 1.5],
         {"dt": 0.1, "terminal_band": 1e-2}),
    ], ids=["autarky-exog", "market-exog", "market-ak", "autarky-ak"])
    def test_every_tenth_row_plus_last(self, regime, params, holdings, controls):
        dist = WealthDistribution(holdings)
        full = shoot_saddle_path(dist, params, regime, ShootingConfig(**controls))
        thin = shoot_saddle_path(dist, params, regime,
                                 ShootingConfig(record_stride=10, **controls))
        keep = list(range(0, len(full), 10))
        if keep[-1] != len(full) - 1:
            keep.append(len(full) - 1)
        assert len(keep) > 10
        for name in ("times", "holdings", "consumption", "mean_holding",
                     "mean_output", "interest", "growth", "gini", "cv",
                     "ratio_max_min"):
            assert np.array_equal(getattr(thin, name), getattr(full, name)[keep])


class TestConfigValidation:
    def test_bad_config(self):
        with pytest.raises(NonPositiveInput):
            ShootingConfig(dt=-0.1)
        with pytest.raises(NonPositiveInput):
            ShootingConfig(horizon=0.001, dt=0.01)
        with pytest.raises(NonPositiveInput):
            ShootingConfig(record_stride=0)
        for bad in ({"dt": math.nan}, {"terminal_band": math.nan},
                    {"terminal_band": math.inf}, {"horizon": math.inf},
                    {"horizon": math.nan}):
            with pytest.raises(NonPositiveInput):
                ShootingConfig(**bad)

    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            shoot_saddle_path(WealthDistribution([1.0]),
                              EconomyParams(1.0, 0.5, 0.1), OLG_MARKET_EXOG)
