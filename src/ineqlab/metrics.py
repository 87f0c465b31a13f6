"""Distribution statistics and mean-preserving spreads."""

from __future__ import annotations

import numpy as np

from .core import WealthDistribution
from .errors import (
    AllZero,
    NotSpreadIncreasing,
    OutOfRange,
    WouldViolatePositivity,
)


def _values(dist) -> np.ndarray:
    if isinstance(dist, WealthDistribution):
        return dist.as_array()
    x = np.asarray(dist, dtype=float)
    return x if x.ndim == 1 else x.reshape(-1)


def gini(dist) -> float:
    """Mean absolute difference over twice the mean: sum|x_i - x_j| / (2 n^2 mu).

    Population-weighted, no small-sample correction; ranges over [0, 1 - 1/n].
    Accepts a WealthDistribution or any nonnegative vector (zeros allowed).
    """
    x = _values(dist)
    n = x.size
    xs = x.copy()
    xs.sort()
    # the least value comes first, and NaN sorts last
    if n == 0 or xs[0] < 0.0:
        raise OutOfRange("values", "gini needs a nonempty nonnegative vector")
    total = np.add.reduce(x)
    if total == 0.0:
        raise AllZero("gini undefined for an all-zero vector")
    # sum_i sum_j |x_i - x_j| = 2 * sum_k (2k + 1 - n) * x_(k) for sorted x;
    # the weights are exact integers
    return float(np.dot(np.arange(1.0 - n, n, 2.0), xs) / (n * total))


#: Means above this are scaled towards one before the deviations are squared.
_CV_RESCALE_ABOVE = 2.0 ** 256


def coefficient_of_variation(dist) -> float:
    """Population standard deviation over the mean.

    Squared deviations overflow float64 once the values pass about 1e154,
    though the ratio is finite. A mean that large is first scaled by a power
    of two, which is exact, so the result has the same bits as the unscaled
    ratio wherever that one is finite. The ufunc calls are those numpy's
    ``mean`` and ``std`` make on a vector, so the bits are theirs too.
    """
    x = _values(dist)
    n = x.size
    if n == 0:
        raise OutOfRange("values", "cv needs a nonempty vector")
    mu = center = np.add.reduce(x) / n
    if mu == 0.0:
        raise AllZero("cv undefined for an all-zero vector")
    if abs(mu) > _CV_RESCALE_ABOVE:
        shift = -int(np.frexp(mu)[1])
        x, mu = np.ldexp(x, shift), np.ldexp(mu, shift)
        center = np.add.reduce(x) / n
    d = x - center
    return float(np.sqrt(np.add.reduce(d * d) / n) / mu)


def ratio_max_min(dist) -> float:
    x = _values(dist)
    if x.size == 0:
        raise OutOfRange("values", "ratio_max_min needs a nonempty vector")
    lo = np.minimum.reduce(x)
    return float(np.inf) if lo == 0.0 else float(np.maximum.reduce(x) / lo)


def mean_preserving_spread(dist: WealthDistribution, donor: int, recipient: int,
                           epsilon: float) -> WealthDistribution:
    """Transfer ``epsilon`` from a poorer household to a richer one.

    Keeps the mean exactly while strictly increasing dispersion (for any
    epsilon > 0). The donor must not be pushed to the positivity floor.
    """
    x = dist.as_array()
    n = x.size
    if donor == recipient or not (0 <= donor < n) or not (0 <= recipient < n):
        raise OutOfRange("indices", "donor and recipient must be distinct valid indices")
    if epsilon < 0.0:
        raise OutOfRange("epsilon", "epsilon must be nonnegative")
    if x[recipient] < x[donor]:
        raise NotSpreadIncreasing(
            "transfer must flow from the (weakly) poorer household to the richer one"
        )
    if x[donor] - epsilon < dist.floor:
        raise WouldViolatePositivity(
            f"donor holding {x[donor]} cannot give {epsilon} and stay positive"
        )
    out = x.copy()
    out[donor] -= epsilon
    out[recipient] += epsilon
    return WealthDistribution(out, floor=dist.floor)
