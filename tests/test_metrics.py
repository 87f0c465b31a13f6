"""Inequality metrics."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ineqlab import (
    OLG_AUTARKY_EXOG,
    POSITIVITY_FLOOR,
    RAMSEY_MARKET_EXOG,
    EconomyParams,
    ShootingConfig,
    WealthDistribution,
    coefficient_of_variation,
    gini,
    olg_simulate,
    ratio_max_min,
    shoot_saddle_path,
)
from ineqlab.errors import OutOfRange


def gini_double_loop(x):
    x = np.asarray(x, float)
    n = x.size
    return sum(abs(a - b) for a in x for b in x) / (2.0 * n * n * x.mean())


class TestGini:
    def test_perfect_equality(self):
        assert gini([1.0, 1.0, 1.0]) == 0.0

    def test_half_with_zero(self):
        assert gini([0.0, 1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_one_nine(self):
        # |1-9| * 2 / (2 * 4 * 5) = 0.4
        assert gini([1.0, 9.0]) == pytest.approx(0.4, abs=1e-15)

    def test_all_zero(self):
        with pytest.raises(OutOfRange, match="all-zero"):
            gini([0.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(OutOfRange):
            gini([-1.0, 2.0])

    @given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_matches_double_loop_oracle(self, xs):
        if sum(xs) < 1e-9:
            return
        assert gini(xs) == pytest.approx(gini_double_loop(xs), rel=1e-9, abs=1e-12)

    @given(
        xs=st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=10),
        lam=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=120, deadline=None)
    def test_scale_invariance(self, xs, lam):
        scaled = [lam * x for x in xs]
        assert gini(scaled) == pytest.approx(gini(xs), rel=1e-10, abs=1e-12)
        assert coefficient_of_variation(scaled) == pytest.approx(
            coefficient_of_variation(xs), rel=1e-9, abs=1e-12)

    @given(st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=10))
    @settings(max_examples=120, deadline=None)
    def test_bounds(self, xs):
        n = len(xs)
        g = gini(xs)
        assert -1e-12 <= g <= 1.0 - 1.0 / n + 1e-12

    def test_zero_iff_equal(self):
        assert gini([3.0, 3.0, 3.0]) == 0.0
        assert gini([3.0, 3.0001, 3.0]) > 0.0
        assert coefficient_of_variation([2.0, 2.0]) == 0.0
        assert coefficient_of_variation([2.0, 2.1]) > 0.0


def reference_statistics(x):
    """gini, cv and ratio_max_min through numpy's sum, mean, std, min, max."""
    n = x.size
    weights = 2.0 * np.arange(n) + 1.0 - n
    g = float(np.dot(weights, np.sort(x)) / (n * x.sum()))
    y, mu = x, x.mean()
    if abs(mu) > 2.0 ** 256:
        shift = -int(np.frexp(mu)[1])
        y, mu = np.ldexp(x, shift), np.ldexp(mu, shift)
    lo = x.min()
    return g, float(y.std() / mu), float(np.inf) if lo == 0.0 else float(x.max() / lo)


@st.composite
def rows(draw):
    """Nonnegative rows of 1 to 1000 entries, with ties, zeros and huge means."""
    n = draw(st.integers(1, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(0.0, 1.0, n)
    distinct = draw(st.integers(0, 5))
    if distinct:
        x = rng.choice(x[:distinct], n)
    x[rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.1, 0.9]))] = 0.0
    # 2^300 puts the mean above 2^256, where cv rescales
    x *= draw(st.sampled_from([1.0, 1e-300, 1e6, 2.0 ** 256, 2.0 ** 300, 1e300]))
    assume(x.any())
    return x


class TestBitIdentity:
    """The statistics keep the bits of numpy's reductions on one row."""

    @given(rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_reductions(self, x):
        got = (gini(x), coefficient_of_variation(x), ratio_max_min(x))
        assert got == reference_statistics(x)

    @pytest.mark.parametrize("stat", [gini, coefficient_of_variation, ratio_max_min])
    def test_empty_input_is_typed(self, stat):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange) as exc:
                stat([])
        assert exc.value.field == "values"

    def test_gini_rejects_a_negative_anywhere(self):
        for x in ([2.0, 1.0, -0.5], [-0.0, -3.0], [np.nan, -1.0]):
            with pytest.raises(OutOfRange):
                gini(x)


STATISTICS = (gini, coefficient_of_variation, ratio_max_min)


def per_row(stat, X):
    """The 1-D statistic of each row of X, as one array."""
    return np.array([stat(X[i]) for i in range(X.shape[0])])


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def matrices(draw):
    """Nonnegative (T, L) matrices with ties, zeros and rows on both sides of
    the 2^256 rescale, in C order, in Fortran order or as strided views."""
    T, L = draw(st.integers(1, 12)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(0.0, 1.0, (T, L))
    distinct = draw(st.integers(0, 5))
    if distinct:
        X = rng.choice(X[0, :distinct], (T, L))
    X[rng.uniform(size=(T, L)) < draw(st.sampled_from([0.0, 0.1, 0.9]))] = 0.0
    # each row gets its own scale; 2^300 and 1e300 put a row's mean above
    # 2^256, where cv rescales it
    X *= rng.choice([1.0, 1e-300, 1e6, 2.0 ** 256, 2.0 ** 300, 1e300], (T, 1))
    assume(X.any(axis=1).all())
    layout = draw(st.sampled_from(["C", "F", "strided", "reversed"]))
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "strided":
        wide = np.ones((2 * T, 2 * L + 1))
        wide[::2, 1::2] = X
        X = wide[::2, 1::2]
    elif layout == "reversed":
        X = X[::-1, ::-1]
    return X


class TestRows:
    """A (T, L) matrix gives each row's 1-D statistic, bit for bit."""

    @given(matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_row_calls(self, X):
        for stat in STATISTICS:
            assert_same_bits(stat(X), per_row(stat, X))

    @pytest.mark.parametrize("stat", STATISTICS)
    def test_one_distribution_gives_a_float(self, stat):
        assert type(stat([1.0, 3.0])) is float
        assert type(stat(WealthDistribution([1.0, 3.0]))) is float
        assert stat([[1.0, 3.0]]).shape == (1,)

    @pytest.mark.parametrize("stat", STATISTICS)
    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0), (2, 2, 2), (1, 1, 3)])
    def test_empty_or_three_dimensional_input_is_typed(self, stat, shape):
        with pytest.raises(OutOfRange) as exc:
            stat(np.ones(shape))
        assert exc.value.field == "values"

    @pytest.mark.parametrize("stat", [gini, coefficient_of_variation])
    def test_all_zero_row(self, stat):
        with pytest.raises(OutOfRange, match="all-zero"):
            stat([[1.0, 2.0], [0.0, 0.0], [3.0, 1.0]])

    def test_ratio_of_all_zero_row_is_inf(self):
        assert_same_bits(ratio_max_min([[1.0, 2.0], [0.0, 0.0]]), np.array([2.0, np.inf]))

    def test_gini_rejects_a_negative_anywhere(self):
        for i in range(3):
            for j in range(4):
                X = np.ones((3, 4))
                X[i, j] = -0.5
                with pytest.raises(OutOfRange) as exc:
                    gini(X)
                assert exc.value.field == "values"

    def test_gini_fault_of_the_first_bad_row(self):
        # as the per-row calls would, the first faulty row decides the error
        with pytest.raises(OutOfRange, match="all-zero"):
            gini([[1.0, 2.0], [0.0, 0.0], [-1.0, 2.0]])
        with pytest.raises(OutOfRange):
            gini([[1.0, 2.0], [-1.0, 2.0], [0.0, 0.0]])


class TestTrajectoryStatistics:
    """The solvers' inequality channels equal the per-row 1-D calls, bit for
    bit, at widths the golden digests do not reach."""

    @staticmethod
    def assert_rows(traj):
        for channel, stat in zip((traj.gini, traj.cv, traj.ratio_max_min), STATISTICS):
            assert_same_bits(channel, per_row(stat, traj.holdings))

    def test_thousand_household_olg_autarky(self):
        params = EconomyParams(tfp=2.2, alpha=0.95, theta=0.1, population=1000)
        dist = WealthDistribution(np.random.default_rng(5).uniform(0.05, 8.0, 1000))
        traj = olg_simulate(dist, params, OLG_AUTARKY_EXOG, max_generations=200)
        assert traj.holdings.shape == (201, 1000)
        self.assert_rows(traj)

    def test_four_household_market(self):
        params = EconomyParams(tfp=1.0, alpha=0.5, theta=0.1, gamma=1.0, population=4)
        traj = shoot_saddle_path(WealthDistribution([5.0, 12.0, 40.0, 60.0]), params,
                                 RAMSEY_MARKET_EXOG,
                                 ShootingConfig(dt=0.05, terminal_band=1e-3))
        assert traj.holdings.shape[0] > 1000
        self.assert_rows(traj)


class TestMeanPreservingSpread:
    """A transfer from a poorer household to a richer one keeps the mean and
    raises every dispersion statistic (the Pigou-Dalton principle)."""

    @staticmethod
    def statistics(x):
        return gini(x), coefficient_of_variation(x), ratio_max_min(x)

    def test_four_six_to_three_seven(self):
        # gini 2 |x1 - x2| / (2 n^2 mu), cv |x1 - x2| / (2 mu), ratio max/min
        before, after = WealthDistribution([4.0, 6.0]), WealthDistribution([3.0, 7.0])
        assert after.mean == before.mean == 5.0
        assert self.statistics(before) == pytest.approx((0.1, 0.2, 1.5), rel=1e-15)
        assert self.statistics(after) == pytest.approx((0.2, 0.4, 7.0 / 3.0),
                                                       rel=1e-15)

    def test_three_seven_to_one_nine(self):
        after = WealthDistribution([1.0, 9.0])
        assert after.mean == 5.0
        assert self.statistics(after) == pytest.approx((0.4, 0.8, 9.0), rel=1e-15)

    def test_null_transfer(self):
        assert self.statistics(WealthDistribution([5.0, 5.0])) == (0.0, 0.0, 1.0)

    def test_positivity_guard(self):
        # moving all of the donor's 4 leaves a zero holding: the statistics
        # take it, at their extremes, but no distribution holds it
        x = [0.0, 10.0]
        assert self.statistics(x) == (0.5, 1.0, np.inf)
        with pytest.raises(OutOfRange) as info:
            WealthDistribution(x)
        assert info.value.field == "holdings"

    def test_direction_guard(self):
        # the same transfer from the richer household to the poorer one
        # lowers every statistic
        before = self.statistics(WealthDistribution([4.0, 6.0]))
        after = self.statistics(WealthDistribution([4.5, 5.5]))
        assert all(a < b for a, b in zip(after, before))

    @given(
        base=st.lists(st.floats(0.5, 100.0), min_size=2, max_size=8),
        eps_frac=st.floats(0.01, 0.9),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_spread_raises_dispersion_keeps_mean(self, base, eps_frac, data):
        dist = WealthDistribution(base)
        order = np.argsort(dist.as_array())
        donor = int(order[0])
        recipient = int(order[-1])
        if dist[donor] == dist[recipient]:
            return
        eps = eps_frac * (dist[donor] - POSITIVITY_FLOOR)
        # move eps from the poorest household to the richest
        x = dist.as_array().copy()
        x[donor] -= eps
        x[recipient] += eps
        spread = WealthDistribution(x)
        assert spread.mean == pytest.approx(dist.mean, abs=1e-15 * (1 + dist.mean))
        if eps > 0:
            assert gini(spread) > gini(dist)
            assert coefficient_of_variation(spread) > coefficient_of_variation(dist)
            assert np.var(spread.as_array()) > np.var(dist.as_array())


def test_ratio_with_zero_entry():
    assert ratio_max_min([0.0, 1.0]) == np.inf
