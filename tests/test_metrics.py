"""Inequality metrics."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ineqlab import (
    POSITIVITY_FLOOR,
    WealthDistribution,
    coefficient_of_variation,
    gini,
    ratio_max_min,
)
from ineqlab.errors import AllZero, OutOfRange


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
        with pytest.raises(AllZero):
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
