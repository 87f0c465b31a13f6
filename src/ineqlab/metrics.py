"""Distribution statistics, and the one recorder of a solved trajectory.

Each statistic takes one distribution (a WealthDistribution or a vector) and
returns a float, or a (T, L) matrix of T distributions and returns the T row
values, each with the bits of the 1-D call on that row. Both families record
their solved rows, output and rates through :func:`record_trajectory`,
which calls each statistic once per trajectory and no model code.
"""

from __future__ import annotations

import numpy as np

from .core import Regime, Trajectory, WealthDistribution
from .errors import OutOfRange


def _rows(dist, name: str) -> tuple[np.ndarray, bool]:
    """The values as a nonempty C-ordered (T, L) array, and whether they came
    as one distribution. Row reductions over a C-ordered array sum each row
    in the pairwise order of the 1-D reduction, so both forms share bits."""
    x = (dist.as_array() if isinstance(dist, WealthDistribution)
         else np.asarray(dist, dtype=float))
    single = x.ndim <= 1
    if x.ndim > 2:
        raise OutOfRange("values", f"{name} takes a vector or a (T, L) matrix, "
                                   f"got shape {x.shape}")
    if x.size == 0:
        raise OutOfRange("values", f"{name} needs a nonempty vector")
    return np.ascontiguousarray(x.reshape(1, -1) if single else x), single


def _result(values: np.ndarray, single: bool) -> float | np.ndarray:
    return float(values[0]) if single else values


def gini(dist) -> float | np.ndarray:
    """Mean absolute difference over twice the mean: sum|x_i - x_j| / (2 n^2 mu).

    Population-weighted, no small-sample correction; ranges over [0, 1 - 1/n].
    Accepts a WealthDistribution or any nonnegative vector (zeros allowed),
    returning a float, or a (T, L) matrix, returning the T row values. A
    negative value or an all-zero row raises OutOfRange("values"), as the
    first such row of the matrix would alone.
    """
    x, single = _rows(dist, "gini")
    n = x.shape[1]
    xs = np.sort(x, axis=1)
    total = np.add.reduce(x, axis=1)
    # the least value comes first, and NaN sorts last
    bad = (xs[:, 0] < 0.0) | (total == 0.0)
    if bad.any():
        row = int(np.argmax(bad))
        if xs[row, 0] < 0.0:
            raise OutOfRange("values", "gini needs a nonempty nonnegative vector")
        raise OutOfRange("values", "gini undefined for an all-zero vector")
    # sum_i sum_j |x_i - x_j| = 2 * sum_k (2k + 1 - n) * x_(k) for sorted x;
    # the weights are exact integers. One dot per row keeps the 1-D bits,
    # which a matrix product does not.
    weights = np.arange(1.0 - n, n, 2.0)
    numerator = np.array([np.dot(weights, row) for row in xs])
    return _result(numerator / (n * total), single)


#: Means above this are scaled towards one before the deviations are squared.
_CV_RESCALE_ABOVE = 2.0 ** 256


def coefficient_of_variation(dist) -> float | np.ndarray:
    """Population standard deviation over the mean.

    Takes one distribution, returning a float, or a (T, L) matrix, returning
    the T row values; a row whose mean is zero raises OutOfRange("values").
    Squared deviations overflow float64 once the values pass about 1e154,
    though the ratio is finite. A row whose mean is that large is first scaled by a
    power of two, which is exact, so the result has the same bits as the
    unscaled ratio wherever that one is finite. The ufunc calls are those
    numpy's ``mean`` and ``std`` make on a vector, so the bits are theirs too.
    """
    x, single = _rows(dist, "cv")
    n = x.shape[1]
    mu = center = np.add.reduce(x, axis=1) / n
    if (mu == 0.0).any():
        raise OutOfRange("values", "cv undefined for an all-zero vector")
    big = np.abs(mu) > _CV_RESCALE_ABOVE
    if big.any():
        shift = np.where(big, -np.frexp(mu)[1], 0)
        x, mu = np.ldexp(x, shift[:, None]), np.ldexp(mu, shift)
        center = np.add.reduce(x, axis=1) / n
    d = x - center[:, None]
    return _result(np.sqrt(np.add.reduce(d * d, axis=1) / n) / mu, single)


def ratio_max_min(dist) -> float | np.ndarray:
    """Largest over least value; ``inf`` where the least value is zero.

    Takes one distribution, returning a float, or a (T, L) matrix, returning
    the T row values.
    """
    x, single = _rows(dist, "ratio_max_min")
    lo = np.minimum.reduce(x, axis=1)
    zero = lo == 0.0
    ratio = np.maximum.reduce(x, axis=1) / np.where(zero, 1.0, lo)
    return _result(np.where(zero, np.inf, ratio), single)


def record_trajectory(times, K, C, output, interest, growth, regime: Regime,
                      converged: bool = True, note: str = "") -> Trajectory:
    """The Trajectory of a solver's (T, L) holdings ``K``, consumption ``C``,
    ``output`` ((T, 1) under a market) and per-row ``interest`` and
    ``growth`` at ``times``. It only records: it takes the mean holding, the
    mean output and the three statistics of ``K``, once per trajectory."""
    return Trajectory(
        times=times, holdings=K, consumption=C, output=output,
        mean_holding=K.mean(axis=1), mean_output=output.mean(axis=1),
        interest=interest, growth=growth, gini=gini(K),
        cv=coefficient_of_variation(K), ratio_max_min=ratio_max_min(K),
        regime=regime, converged=converged, note=note)
